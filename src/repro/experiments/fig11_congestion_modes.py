"""Figure 11: tail RTT reflects congestion modes and CC quality.

(left)  All2All congests far more than ring AllReduce: the service-network
        tail RTT separates the two communication modes.
(right) Against default DCQCN, the paper's self-developed CC cuts the tail
        RTT and improves training throughput on All2All.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import deploy
from repro.services.congestion import CUSTOM_CC, DCQCN, CcModel
from repro.services.dml import CommPattern, DmlConfig, DmlJob
from repro.services.traffic import TrafficEngine
from repro.sim.units import MILLISECOND, seconds


@dataclass
class ModeResult:
    """One (pattern, CC) run's service tail RTT and training throughput."""

    pattern: str
    cc: str
    rtt_p50_us: float
    rtt_p99_us: float
    mean_throughput_gbps: float


def run_mode(pattern: CommPattern, cc: CcModel, *, seed: int = 12,
             duration_s: int = 60) -> ModeResult:
    """Run one communication mode under one CC model."""
    cluster, system, *_ = deploy(seed=seed)
    traffic = TrafficEngine(cluster, cc=cc)
    job = DmlJob(cluster, cluster.rnic_names()[:8],
                 DmlConfig(pattern=pattern,
                           compute_time_ns=400 * MILLISECOND,
                           data_gbits_per_cycle=6.0),
                 traffic=traffic)
    cluster.sim.run_for(seconds(3))
    job.start()
    cluster.sim.run_for(seconds(duration_s))

    report = system.analyzer.sla.latest()
    stats = report.service.rtt_percentiles()
    return ModeResult(
        pattern=pattern.value, cc=cc.name,
        rtt_p50_us=stats["p50"] / 1000,
        rtt_p99_us=stats["p99"] / 1000,
        mean_throughput_gbps=job.throughput.mean())


@dataclass
class Figure11Result:
    """Both panels."""

    allreduce_dcqcn: ModeResult
    all2all_dcqcn: ModeResult
    all2all_custom: ModeResult

    @property
    def mode_contrast(self) -> float:
        """(left) All2All tail over AllReduce tail, both on DCQCN."""
        return self.all2all_dcqcn.rtt_p99_us \
            / max(self.allreduce_dcqcn.rtt_p99_us, 1e-9)

    @property
    def cc_tail_improvement(self) -> float:
        """(right) DCQCN tail over custom-CC tail on All2All (>1 = win)."""
        return self.all2all_dcqcn.rtt_p99_us \
            / max(self.all2all_custom.rtt_p99_us, 1e-9)

    @property
    def cc_throughput_improvement(self) -> float:
        """(right) custom-CC throughput over DCQCN throughput (>1 = win)."""
        return self.all2all_custom.mean_throughput_gbps \
            / max(self.all2all_dcqcn.mean_throughput_gbps, 1e-9)


def run(*, seed: int = 12, duration_s: int = 60) -> Figure11Result:
    """Run all three cells of Figure 11."""
    return Figure11Result(
        allreduce_dcqcn=run_mode(CommPattern.ALLREDUCE, DCQCN, seed=seed,
                                 duration_s=duration_s),
        all2all_dcqcn=run_mode(CommPattern.ALL2ALL, DCQCN, seed=seed,
                               duration_s=duration_s),
        all2all_custom=run_mode(CommPattern.ALL2ALL, CUSTOM_CC, seed=seed,
                                duration_s=duration_s))
