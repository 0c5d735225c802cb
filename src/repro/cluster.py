"""Cluster assembly: one object wiring simulator, fabric, and hosts.

A :class:`Cluster` is the unit every scenario starts from — the simulated
analogue of "a RoCE cluster serving one service team" (§3.2).  It owns the
simulator, the topology plan (Clos or rail-optimized), the fabric, and the
hosts with their RNICs, and provides the lookups the R-Pingmesh modules and
the workloads need.
"""

from __future__ import annotations

import itertools
import math
from functools import partial
from typing import Any, Callable, Optional, Union

from repro.host.host import Host, build_host_with_rnics
from repro.host.rnic import Rnic
from repro.net.addresses import IPAllocator
from repro.net.clos import ClosFabricPlan, ClosParams, build_clos
from repro.net.fabric import Fabric
from repro.net.rail import RailFabricPlan, RailParams, build_rail
from repro.net.topology import Topology
from repro.net.traceroute import TracerouteService
from repro.obs import Observability
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry

Plan = Union[ClosFabricPlan, RailFabricPlan]


def _any_match(predicates: tuple, five_tuple) -> bool:
    return any(predicate(five_tuple) for predicate in predicates)


def _or_predicates(operands: list) -> Optional[Callable]:
    held = [p for p in operands if p is not None]
    if len(held) <= 1:
        return held[0] if held else None
    return partial(_any_match, tuple(held))


# How each held setting combines the device's base (operands[0]) with its
# holders' values.  Every rule is commutative, so hold order never shows.
HOLD_RULES: dict[str, Callable[[list], Any]] = {
    # AND: the device works only while every holder lets it.
    "up": all, "admin_up": all, "routing_configured": all,
    "gid_index_present": all, "pfc_headroom_ok": all,
    # OR: any holder breaks (or isolates) it.
    "flap_down": any, "pfc_deadlocked": any, "routed_around": any,
    # The worst holder wins.
    "corruption_drop_prob": max, "rx_corruption_prob": max,
    "tx_corruption_prob": max, "cpu_load": max, "pcie_gbps": min,
    # Contributions add up on top of the base.
    "offered_load_gbps": math.fsum, "pause_delay_ns": sum,
    "silent_drop_predicate": _or_predicates,
}


class Holds:
    """One owner per contended device setting (DESIGN.md §4).

    Faults, workloads and remediation never write a setting in
    :data:`HOLD_RULES` directly: each *holds* a value under its owner key,
    and the table writes the combination of every holder's value with the
    device's base — what it read before the first hold, and what it reads
    again once the last holder leaves — through the device's own setter.
    A write is never skipped for being unchanged: ``set_offered_load``
    integrates the queue even then.
    """

    def __init__(self, sim: Simulator):
        self._sim = sim
        # (device name, setting) -> (device, base, {owner: value}).
        self._held: dict[tuple[str, str], tuple[Any, Any, dict]] = {}
        self._owners = 0

    def owner(self, name: str) -> str:
        """A fresh owner key for one writer (minted in construction order,
        so it is the same on every run)."""
        self._owners += 1
        return f"{name}#{self._owners}"

    def hold(self, owner: str, device, setting: str, value) -> None:
        """Set (or replace) ``owner``'s value for one setting of ``device``."""
        key = (device.name, setting)
        entry = self._held.get(key)
        if entry is None:
            base = (device.cpu.load if setting == "cpu_load"
                    else getattr(device, setting))
            entry = self._held[key] = (device, base, {})
        entry[2][owner] = value
        self._write(entry, setting)

    def release(self, owner: str, device=None) -> list:
        """Drop everything ``owner`` holds (on ``device`` only, if given);
        returns the devices written, in hold order."""
        written = []
        for key, entry in list(self._held.items()):
            held, _, values = entry
            if owner not in values or (device is not None
                                       and device is not held):
                continue
            del values[owner]
            if not values:
                del self._held[key]
            self._write(entry, key[1])
            written.append(held)
        return written

    def _write(self, entry: tuple, setting: str) -> None:
        device, base, values = entry
        value = HOLD_RULES[setting]([base, *values.values()])
        if setting == "offered_load_gbps":
            device.set_offered_load(self._sim.now, value)
        elif setting == "cpu_load":
            device.cpu.set_load(value)
        else:
            setattr(device, setting, value)


class Cluster:
    """A fully wired simulated RoCE cluster."""

    def __init__(self, sim: Simulator, rngs: RngRegistry, plan: Plan):
        self.sim = sim
        self.rngs = rngs
        self.plan = plan
        self.topology: Topology = plan.topology
        self.fabric = Fabric(sim, self.topology, rngs.stream("fabric"))
        self.traceroute = TracerouteService(self.fabric)
        # Every writer of a contended device setting goes through here.
        self.holds = Holds(sim)
        self.hosts: dict[str, Host] = {}
        self._rnics: dict[str, Rnic] = {}
        self.host_name_of: dict[str, str] = {}    # RNIC name -> host name
        # The simulated TCP management network, set by RPingmesh when it
        # deploys (None until then).  Fault drills reach it through here.
        self.management = None
        # Observability switchboard (repro.obs).  Default: everything off
        # and nothing wired — RPingmesh's obs= knob replaces this via
        # Observability.install().
        self.obs = Observability()
        # Cluster-wide probe sequence numbers.  One counter per cluster
        # (not per agent class) so seqs are unique across agents — the
        # analyzer keys per-seq state on them — yet replaying the same
        # scenario in the same process starts from 1 again.
        self.probe_seqs = itertools.count(1)

        ips = IPAllocator()
        for host_name, rnic_names in sorted(plan.host_rnics.items()):
            ip_of = {rnic_name: ips.allocate() for rnic_name in rnic_names}
            host = build_host_with_rnics(
                host_name, sim, rngs, self.fabric, rnic_names, ip_of)
            self.hosts[host_name] = host
            for rnic in host.rnics:
                self._rnics[rnic.name] = rnic
                self.host_name_of[rnic.name] = host_name

    # -- construction ---------------------------------------------------------

    @classmethod
    def clos(cls, params: Optional[ClosParams] = None, *,
             seed: int = 0, check_invariants: bool = False) -> "Cluster":
        """Build a 3-tier Clos cluster."""
        sim = Simulator(seed=seed, check_invariants=check_invariants)
        rngs = RngRegistry(seed)
        return cls(sim, rngs, build_clos(params or ClosParams()))

    @classmethod
    def rail(cls, params: Optional[RailParams] = None, *,
             seed: int = 0, check_invariants: bool = False) -> "Cluster":
        """Build a two-tier rail-optimized cluster (§7.4)."""
        sim = Simulator(seed=seed, check_invariants=check_invariants)
        rngs = RngRegistry(seed)
        return cls(sim, rngs, build_rail(params or RailParams()))

    # -- lookups ----------------------------------------------------------------

    def rnic(self, name: str) -> Rnic:
        """RNIC by topology host-port name."""
        try:
            return self._rnics[name]
        except KeyError:
            raise KeyError(f"unknown RNIC: {name}") from None

    def all_rnics(self) -> list[Rnic]:
        """All RNICs, in stable name order."""
        return [self._rnics[n] for n in sorted(self._rnics)]

    def host_of_rnic(self, rnic_name: str) -> Host:
        """The host owning an RNIC."""
        return self.hosts[self.host_name_of[rnic_name]]

    def rnic_names(self) -> list[str]:
        """All RNIC names, sorted."""
        return sorted(self._rnics)

    def tor_of(self, rnic_name: str) -> str:
        """The ToR/rail switch the RNIC hangs off."""
        return self.topology.tor_of(rnic_name)

    def rnics_under_tor(self, tor: str) -> list[str]:
        """RNIC names under one ToR/rail switch."""
        return sorted(n for n in self._rnics
                      if self.topology.tor_of(n) == tor)

    def tors(self) -> list[str]:
        """All ToR-tier switch names."""
        from repro.net.topology import Tier
        return self.topology.switches(Tier.TOR)

    @property
    def size(self) -> int:
        """Number of RNICs in the cluster."""
        return len(self._rnics)
