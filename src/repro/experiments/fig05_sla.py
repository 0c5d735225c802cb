"""Figure 5: joint SLA monitoring over a service's lifetime.

The paper's five stacked series over one period:

(a) training throughput — dips during periodic TCP checkpoints;
(b) service-network probed RTT — *decreases* during checkpoints (RoCE idle)
    and spikes during the two switch-drop anomalies;
(c) end-host processing delay — *increases* during checkpoints (TCP is
    CPU-intensive);
(d) service-network probe drop rate — non-zero during the two switch-drop
    episodes (P0/P1: inside the service network);
(e) cluster-network probe drop rate — additionally sees a dropping RNIC
    *outside* the service network (P2: service unaffected).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.records import Priority, ProblemCategory
from repro.experiments.common import default_cluster_params, deploy
from repro.net.faults import LinkCorruption, RnicCorruption
from repro.services.dml import CommPattern, DmlConfig, DmlJob
from repro.sim.units import MILLISECOND, SECOND, seconds


@dataclass
class SlaTimeline:
    """The five Figure 5 series plus the analyzer's verdicts."""

    throughput: list[tuple[float, float]] = field(default_factory=list)
    service_rtt_p50_us: list[tuple[float, float]] = field(default_factory=list)
    processing_p50_us: list[tuple[float, float]] = field(default_factory=list)
    service_drop_rate: list[tuple[float, float]] = field(default_factory=list)
    cluster_drop_rate: list[tuple[float, float]] = field(default_factory=list)
    # verdict bookkeeping
    switch_episode_priorities: list[Priority] = field(default_factory=list)
    outside_rnic_priorities: list[Priority] = field(default_factory=list)
    checkpoint_windows_s: list[tuple[float, float]] = field(
        default_factory=list)
    drop_windows_s: list[tuple[float, float]] = field(default_factory=list)

    def series_mean(self, series: list[tuple[float, float]],
                    start_s: float, end_s: float) -> float:
        values = [v for t, v in series if start_s <= t < end_s]
        if not values:
            raise ValueError(f"no points in [{start_s}, {end_s})")
        return sum(values) / len(values)


def run(*, seed: int = 5) -> SlaTimeline:
    """Run the Figure 5 timeline on a downscaled cluster.

    Timeline (seconds):
      0-180   healthy training with checkpoints every 6 cycles
      60-90   switch drop episode #1 on a service-network fabric link
      120-150 switch drop episode #2
      100-160 an RNIC outside the service drops packets (P2)
    """
    cluster, system, *_ = deploy(
        seed=seed, params=default_cluster_params(hosts_per_tor=4))

    # The service uses 8 of the 16 RNICs (pod0 + half of pod1); the rest of
    # the cluster is outside the service network.
    participants = cluster.rnic_names()[:8]
    outside_rnic = cluster.rnic_names()[-1]
    # Checkpoints must outlast the 20 s analysis window so the SLA series
    # can resolve the RTT-dip / processing-rise signature.
    job = DmlJob(cluster, participants,
                 DmlConfig(pattern=CommPattern.ALL2ALL,
                           compute_time_ns=400 * MILLISECOND,
                           data_gbits_per_cycle=4.0,
                           checkpoint_every_cycles=8,
                           checkpoint_duration_ns=28 * SECOND))
    system.attach_service_monitor(job)
    cluster.sim.run_for(seconds(5))
    job.start()

    # Both switch-drop episodes sit on cables the service's ECMP paths
    # actually use (ToRs with service hosts beneath them), as in the
    # paper's figure where both degradations are service-affecting.
    episode1 = LinkCorruption(cluster, "pod0-tor0", "pod0-agg0",
                              drop_prob=0.4)
    episode2 = LinkCorruption(cluster, "pod1-tor0", "pod1-agg0",
                              drop_prob=0.4)
    outside = RnicCorruption(cluster, outside_rnic, drop_prob=0.6)

    cluster.sim.call_at(seconds(60), episode1.inject)
    cluster.sim.call_at(seconds(90), episode1.clear)
    cluster.sim.call_at(seconds(120), episode2.inject)
    cluster.sim.call_at(seconds(150), episode2.clear)
    cluster.sim.call_at(seconds(100), outside.inject)
    cluster.sim.call_at(seconds(160), outside.clear)
    cluster.sim.run_until(seconds(185))

    timeline = SlaTimeline(
        drop_windows_s=[(60.0, 90.0), (120.0, 150.0)])
    timeline.checkpoint_windows_s = [
        (a / 1e9, b / 1e9) for a, b in job.checkpoint_windows]
    timeline.throughput = [(t / 1e9, v) for t, v in
                           zip(job.throughput.times, job.throughput.values)]
    sla = system.analyzer.sla
    for scope, metric, dest in (
            ("service", "rtt_p50", timeline.service_rtt_p50_us),
            ("service", "processing_p50", timeline.processing_p50_us)):
        for t_ns, value in sla.series(scope, metric):
            dest.append((t_ns / 1e9, value / 1000))
    for scope, dest in (("service", timeline.service_drop_rate),
                        ("cluster", timeline.cluster_drop_rate)):
        for t_ns, value in sla.series(scope, "drop_rate"):
            dest.append((t_ns / 1e9, value))

    # Collect the analyzer's verdicts for the two fault classes.  Switch
    # verdicts are matched to the injected cables (vote ties may also name
    # secondary links; the figure's claim concerns the real episodes).
    episode_links = {"pod0-tor0->pod0-agg0", "pod0-agg0->pod0-tor0",
                     "pod1-tor0->pod1-agg0", "pod1-agg0->pod1-tor0"}
    for problem in system.analyzer.problems:
        if problem.category == ProblemCategory.SWITCH_NETWORK_PROBLEM \
                and problem.priority is not None \
                and problem.locus in episode_links:
            timeline.switch_episode_priorities.append(problem.priority)
        if problem.category == ProblemCategory.RNIC_PROBLEM \
                and problem.locus == outside_rnic \
                and problem.priority is not None:
            timeline.outside_rnic_priorities.append(problem.priority)
    return timeline
