"""Figure 9: proving the network innocent.

The service's training throughput keeps dropping; the service team blames
ECMP congestion.  R-Pingmesh shows the network RTT *also decreasing* (less
traffic -> emptier queues) and processing delay stable — no network or CPU
bottleneck.  The real culprit was a training-code bug degrading compute.

We inject a compute-speed decay into the DML job and check (1) the three
series' shapes and (2) that the Analyzer's verdict is "network innocent"
(no P0/P1 problems while the service degrades).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.common import deploy
from repro.services.dml import CommPattern, DmlConfig, DmlJob
from repro.sim.units import MILLISECOND, seconds


@dataclass
class InnocentResult:
    """Figure 9 reproduction."""

    throughput: list[tuple[float, float]] = field(default_factory=list)
    service_rtt_p90_us: list[tuple[float, float]] = field(
        default_factory=list)
    processing_p50_us: list[tuple[float, float]] = field(default_factory=list)
    service_degraded_at_end: bool = False
    network_innocent: bool = False

    def trend(self, series: list[tuple[float, float]]) -> float:
        """late-third mean / early-third mean (<1 means decreasing)."""
        n = len(series)
        if n < 6:
            raise ValueError("series too short for a trend")
        early = [v for _, v in series[: n // 3]]
        late = [v for _, v in series[-(n // 3):]]
        return (sum(late) / len(late)) / (sum(early) / len(early))


def run(*, seed: int = 10, duration_s: int = 150,
        decay_per_cycle: float = 0.04) -> InnocentResult:
    """Run a degrading-compute job and collect the Figure 9 series."""
    cluster, system, *_ = deploy(seed=seed)
    # Ring AllReduce: the service is communication-light, so the network
    # is never the bottleneck — the paper's scenario, where the real
    # culprit is a compute bug and the network must come out innocent.
    job = DmlJob(cluster, cluster.rnic_names()[:8],
                 DmlConfig(pattern=CommPattern.ALLREDUCE,
                           compute_time_ns=500 * MILLISECOND,
                           data_gbits_per_cycle=4.0))
    system.attach_service_monitor(job)
    cluster.sim.run_for(seconds(5))
    job.start()
    cluster.sim.run_for(seconds(20))
    job.set_compute_degradation(decay_per_cycle)
    cluster.sim.run_for(seconds(duration_s))

    result = InnocentResult()
    result.throughput = [(t / 1e9, v) for t, v in
                         zip(job.throughput.times, job.throughput.values)]
    for t_ns, v in system.analyzer.sla.series("service", "rtt_p90"):
        result.service_rtt_p90_us.append((t_ns / 1e9, v / 1000))
    for t_ns, v in system.analyzer.sla.series("service", "processing_p50"):
        result.processing_p50_us.append((t_ns / 1e9, v / 1000))
    result.service_degraded_at_end = job.degraded()
    result.network_innocent = system.analyzer.network_innocent()
    return result
