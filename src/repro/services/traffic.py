"""Fluid traffic engine: maps service flows onto link loads.

Service traffic (DML gradient exchanges, checkpoint uploads) is modelled as
fluid flows.  Each flow is pinned to the exact ECMP path its 5-tuple hashes
to — the same path discrete probe packets with that 5-tuple take — so
congestion appears on precisely the links where Service Tracing probes will
observe it.

On :meth:`apply`, the engine:

1. routes every flow and accumulates per-link demand,
2. holds each link's share of fluid offered load (``cluster.holds``: it
   adds to whatever else — a ``LinkOverload`` fault — loads the link),
3. for overloaded links, installs the standing queue prescribed by the
   active congestion-control model (see :mod:`repro.services.congestion`),
4. computes per-flow goodput via bottleneck share (approximate max-min).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cluster import Cluster
from repro.net.addresses import FiveTuple
from repro.net.topology import DirectedLink
from repro.services.congestion import CcModel, DCQCN


@dataclass
class Flow:
    """One fluid service flow."""

    five_tuple: FiveTuple
    src_port_node: str          # topology host-port of the source RNIC
    demand_gbps: float
    # Filled in by the engine on apply():
    path: list[str] = field(default_factory=list)
    goodput_gbps: float = 0.0


class TrafficEngine:
    """Applies a set of fluid flows to the fabric's links."""

    def __init__(self, cluster: Cluster, *, cc: CcModel = DCQCN):
        self.cluster = cluster
        self.cc = cc
        self._owner = cluster.holds.owner("traffic")
        self._demand: dict[tuple[str, str], float] = {}
        self.flows: list[Flow] = []

    def set_cc(self, cc: CcModel) -> None:
        """Swap the congestion-control model (Figure 11 right)."""
        self.cc = cc

    def apply(self, flows: list[Flow]) -> None:
        """Replace the active flow set and recompute link loads."""
        topo = self.cluster.topology
        holds = self.cluster.holds

        # Give back the loads we held (links may have dropped out), and
        # the standing queues that came with them.
        for link in holds.release(self._owner):
            link.queue_bytes = 0.0

        demand: dict[tuple[str, str], float] = {}
        for flow in flows:
            flow.path = self.cluster.fabric.path_of(
                flow.five_tuple, flow.src_port_node)
            for a, b in zip(flow.path, flow.path[1:]):
                demand[(a, b)] = demand.get((a, b), 0.0) + flow.demand_gbps

        for key, load in demand.items():
            link = topo.links[key]
            # Congestion: CC caps arrivals at capacity but leaves its
            # characteristic standing queue (tail-RTT signature).
            holds.hold(self._owner, link, "offered_load_gbps",
                       min(load, link.rate_gbps))
            if load > link.rate_gbps:
                link.queue_bytes = self.cc.congested_queue_fill \
                    * link.buffer_bytes

        self._compute_goodputs(flows, demand)
        self.flows = flows
        self._demand = demand

    def clear(self) -> None:
        """Remove all service load (compute phases, job teardown)."""
        self.apply([])

    def _compute_goodputs(self, flows: list[Flow],
                          demand: dict[tuple[str, str], float]) -> None:
        topo = self.cluster.topology
        for flow in flows:
            share = 1.0
            for a, b in zip(flow.path, flow.path[1:]):
                link = topo.links[(a, b)]
                total = demand[(a, b)]
                if total > link.rate_gbps:
                    usable = link.rate_gbps * self.cc.goodput_efficiency
                    share = min(share, usable / total)
            flow.goodput_gbps = flow.demand_gbps * share

    # -- observability ------------------------------------------------------------

    def overloaded_links(self) -> list[DirectedLink]:
        """Links whose demand exceeded capacity at the last apply()."""
        topo = self.cluster.topology
        out = []
        for key in sorted(self._demand):
            link = topo.links[key]
            if link.queue_bytes > 0:
                out.append(link)
        return out

    def link_demand(self, src: str, dst: str) -> float:
        """Current total flow demand mapped onto one directed link."""
        return self._demand.get((src, dst), 0.0)

    def min_goodput(self) -> Optional[float]:
        """The slowest flow's goodput — the DML barrel-effect bound."""
        if not self.flows:
            return None
        return min(flow.goodput_gbps for flow in self.flows)
