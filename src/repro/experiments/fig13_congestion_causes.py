"""Figure 13: the two most common congestion causes.

(a) ToR **downlink** congestion from many-to-one incast;
(b) ToR **uplink** congestion from ECMP hash collisions.

R-Pingmesh distinguishes them by *where* the high-RTT probes' paths pile
votes: the incast case on the ToR->host downlink, the collision case on a
ToR->agg uplink.  We build both traffic shapes, let Service Tracing observe
them, and check the localisation lands on the right link tier.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.records import ProblemCategory
from repro.experiments.common import default_cluster_params, deploy
from repro.net.addresses import roce_five_tuple
from repro.net.ecmp import pick_next_hop
from repro.net.topology import Tier
from repro.services.dml import DmlConfig, DmlJob
from repro.services.traffic import TrafficEngine
from repro.sim.units import MILLISECOND, seconds


@dataclass
class CongestionCauseResult:
    """One congestion scenario's localisation outcome.

    RTT is a round-trip measurement, so the vote localises the congested
    *cable*; the direction is ambiguous without one-way probing (§7.4).
    ``correct_tier`` therefore accepts either direction of the true cable.
    """

    scenario: str                 # incast | hash_collision
    congested_links: list[str]    # ground truth (from the traffic engine)
    localized_links: list[str]    # analyzer's HIGH_RTT suspects
    correct_tier: bool            # right cable at the right tier


def _cable_match(suspects: list[str], truth: str) -> bool:
    a, b = truth.split("->")
    return any(s in (f"{a}->{b}", f"{b}->{a}") for s in suspects)


def _high_rtt_suspects(system) -> list[str]:
    suspects = []
    for window in system.analyzer.windows:
        for problem in window.problems:
            if problem.category == ProblemCategory.HIGH_RTT \
                    and "->" in problem.locus:
                suspects.append(problem.locus)
    return suspects


def run_incast(*, seed: int = 14, senders: int = 5,
               duration_s: int = 50) -> CongestionCauseResult:
    """Many-to-one incast onto one host: ToR downlink congests."""
    cluster, system, *_ = deploy(
        seed=seed, params=default_cluster_params(hosts_per_tor=4))

    target = "host0-rnic0"
    sources = [r for r in cluster.rnic_names() if r != target][:senders]
    participants = [target] + sources
    # A custom flow set: every source sends to the single target.
    traffic = TrafficEngine(cluster)
    job = DmlJob(cluster, participants,
                 DmlConfig(compute_time_ns=300 * MILLISECOND,
                           data_gbits_per_cycle=4.0,
                           per_flow_demand_gbps=150.0),
                 traffic=traffic)
    # Override the ring with an incast pattern before starting.
    job._pairs = lambda: [(src, target) for src in sources]
    cluster.sim.run_for(seconds(3))
    job.start()
    cluster.sim.run_for(seconds(duration_s))

    tor = cluster.tor_of(target)
    truth = f"{tor}->{target}"
    suspects = _high_rtt_suspects(system)
    return CongestionCauseResult(
        scenario="incast",
        congested_links=[truth],
        localized_links=suspects,
        correct_tier=_cable_match(suspects, truth))


def run_hash_collision(*, seed: int = 14,
                       duration_s: int = 50) -> CongestionCauseResult:
    """Flows from one ToR colliding onto one uplink via ECMP.

    We pick source ports whose ECMP hash at the source ToR lands on the
    same aggregation uplink, so their combined demand exceeds it.
    """
    cluster, system, *_ = deploy(
        seed=seed, params=default_cluster_params(hosts_per_tor=4))

    src_tor = "pod0-tor0"
    srcs = cluster.rnics_under_tor(src_tor)[:3]
    dsts = cluster.rnics_under_tor("pod1-tor0")[:3]
    uplinks = sorted(n for n in cluster.topology.neighbors(src_tor)
                     if cluster.topology.node(n).tier == Tier.AGG)
    collide_on = uplinks[0]

    def colliding_port(src: str, dst: str) -> int:
        src_ip = cluster.rnic(src).ip
        dst_ip = cluster.rnic(dst).ip
        for port in range(20_000, 60_000):
            ft = roce_five_tuple(src_ip, dst_ip, port)
            if pick_next_hop(ft, src_tor, uplinks) == collide_on:
                return port
        raise RuntimeError("no colliding port found")

    traffic = TrafficEngine(cluster)
    job = DmlJob(cluster, srcs + dsts,
                 DmlConfig(compute_time_ns=300 * MILLISECOND,
                           data_gbits_per_cycle=4.0,
                           per_flow_demand_gbps=200.0),
                 traffic=traffic)
    pairs = list(zip(srcs, dsts))
    job._pairs = lambda: pairs
    cluster.sim.run_for(seconds(3))
    job.start()
    # Re-pin each connection's source port onto the colliding uplink.
    for conn in job.connections:
        job.reroute_connection(conn,
                               colliding_port(conn.src_rnic, conn.dst_rnic))
    cluster.sim.run_for(seconds(duration_s))

    truth = f"{src_tor}->{collide_on}"
    suspects = _high_rtt_suspects(system)
    return CongestionCauseResult(
        scenario="hash_collision",
        congested_links=[truth],
        localized_links=suspects,
        correct_tier=_cable_match(suspects, truth))
