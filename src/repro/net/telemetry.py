"""Alternative path-tracing backend: ERSPAN (paper §7.4).

R-Pingmesh deliberately decouples path tracing from active probing so the
Traceroute backend (works on legacy switches, but rate-limited by switch
CPUs) can be swapped on fabrics that support better: **ERSPAN** mirrors
matching packets from the ASIC — no switch-CPU cost, no rate limit, so
every trace is complete and fresh.  (In-band Network Telemetry, which
additionally stamps per-hop queue state and so localises *congestion* to
an exact queue, is :mod:`repro.diagnosis.inband`: its stamps ride the
probe packets themselves.)

Every tracer implements the same ``trace``/``PathRecord`` contract as
:class:`~repro.net.traceroute.TracerouteService`, so the Agent can adopt
one without code changes (the paper's stated design goal).
"""

from __future__ import annotations

from typing import Optional, Protocol, runtime_checkable

from repro.net.addresses import FiveTuple
from repro.net.fabric import Fabric
from repro.net.traceroute import PathRecord


@runtime_checkable
class PathTracer(Protocol):
    """The contract every tracing backend satisfies."""

    def trace(self, five_tuple: FiveTuple, src_port: str,
              dst_port: Optional[str] = None) -> PathRecord:
        """Trace the current path of one 5-tuple."""
        ...


class ErspanTracer:
    """ERSPAN-based tracing: ASIC mirroring, no CPU rate limits.

    Unlike traceroute, ERSPAN sessions observe the data plane itself, so
    hops are never missing; a down link still truncates (the mirrored
    packet dies where the real one does).
    """

    def __init__(self, fabric: Fabric):
        self.fabric = fabric
        self.traces_issued = 0

    def trace(self, five_tuple: FiveTuple, src_port: str,
              dst_port: Optional[str] = None) -> PathRecord:
        """Full-fidelity trace of the flow's current path."""
        self.traces_issued += 1
        path = self.fabric.path_of(five_tuple, src_port, dst_port,
                                   respect_down=True)
        if dst_port is None:
            dst_port = self.fabric.port_for_ip(five_tuple.dst_ip)
        return PathRecord(
            five_tuple=five_tuple, traced_at_ns=self.fabric.sim.now,
            hops=tuple(path), reached=bool(path) and path[-1] == dst_port)
