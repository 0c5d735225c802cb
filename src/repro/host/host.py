"""Host model: CPU, clock, RNICs, verbs context, eBPF tracer.

A host owns one or more RNICs (each attached to its own topology host
port), a CPU whose load couples into userspace processing delays, a host
clock that is *not* synchronised with any RNIC clock, and the verbs/eBPF
plumbing through which both services and the Agent operate.
"""

from __future__ import annotations

from typing import Optional

from repro.host.clockmodel import random_clock
from repro.host.cpu import CpuModel
from repro.host.ebpf import QpTracer
from repro.host.rnic import Rnic
from repro.host.verbs import VerbsContext
from repro.net.fabric import Fabric
from repro.sim.engine import Simulator
from repro.sim.ledger import hooked
from repro.sim.rng import RngRegistry


class Host:
    """One RoCE server."""

    def __init__(self, name: str, sim: Simulator, rngs: RngRegistry, *,
                 mgmt_ip: str):
        self.name = name
        self.sim = sim
        self.mgmt_ip = mgmt_ip            # TCP NIC for control traffic
        self._up = True
        self.clock = random_clock(rngs.stream(f"{name}.hostclock"))
        self.cpu = CpuModel(rngs.stream(f"{name}.cpu"))
        self.tracer = QpTracer()
        self.verbs = VerbsContext(sim, self.tracer)
        self.rnics: list[Rnic] = []

    def _plans(self) -> list:
        ledger = self.sim.ledger    # every RNIC's planned sends read up
        return [(ledger, rnic) for rnic in self.rnics]

    def _resettle(self) -> None:
        for rnic in self.rnics:
            rnic.resettle()

    # A plain read (every probe reads it twice); a write resettles the RNICs.
    up = hooked("_up", _plans, _resettle, every_write=True,
                doc="Whether the host is alive (fault #4 clears this).")

    def add_rnic(self, rnic: Rnic) -> None:
        """Attach an RNIC to this host (sets the back reference)."""
        rnic.host = self
        self.rnics.append(rnic)

    def rnic_by_name(self, name: str) -> Rnic:
        """Look up one of this host's RNICs."""
        for rnic in self.rnics:
            if rnic.name == name:
                return rnic
        raise KeyError(f"host {self.name} has no RNIC {name}")

    def set_down(self) -> None:
        """Accidental host down (fault #4): everything on it goes dark."""
        self.up = False

    def set_up(self) -> None:
        """Host recovers."""
        self.up = True

    def is_up(self) -> bool:
        """Liveness probe; a picklable stand-in for ``lambda: host.up``."""
        return self.up

    def read_clock(self) -> int:
        """The host CPU clock's current reading (used for ① and ⑥)."""
        return self.clock.read(self.sim.now)


def build_host_with_rnics(name: str, sim: Simulator, rngs: RngRegistry,
                          fabric: Fabric, rnic_names: list[str],
                          ip_of: dict[str, str], *,
                          mgmt_ip: Optional[str] = None,
                          link_gbps: float = 400.0) -> Host:
    """Convenience constructor wiring a host and its RNICs to the fabric.

    ``rnic_names`` are the topology host-port names; ``ip_of`` maps each to
    its RoCE IP.
    """
    host = Host(name, sim, rngs, mgmt_ip=mgmt_ip or f"mgmt-{name}")
    for rnic_name in rnic_names:
        rnic = Rnic(
            rnic_name, ip_of[rnic_name], sim, fabric,
            clock=random_clock(rngs.stream(f"{rnic_name}.rnicclock")),
            rng=rngs.stream(f"{rnic_name}.rnic"),
            link_gbps=link_gbps)
        host.add_rnic(rnic)
    return host
