"""Figure 8: detecting intra-host bottlenecks.

(left)  CPU overload on some hosts shows up as high end-host processing
        delay on exactly those hosts, while the network RTT stays flat.
(right) A PCIe downgrade triggers a PFC storm toward the affected RNIC:
        the P99 network RTT spikes, and ToR-mesh probing pins the high RTT
        on the anomalous RNIC.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.records import ProblemCategory
from repro.experiments.common import deploy
from repro.net.faults import CpuOverload, PcieDowngrade
from repro.sim.units import seconds


@dataclass
class CpuOverloadResult:
    """Figure 8 (left)."""

    overloaded_hosts: list[str]
    baseline_processing_p90_us: float
    rtt_p50_before_us: float = 0.0
    rtt_p50_during_us: float = 0.0
    detected_hosts: set[str] = field(default_factory=set)


@dataclass
class PfcStormResult:
    """Figure 8 (right)."""

    victim_rnic: str
    rtt_p99_before_us: float
    rtt_p99_during_us: float
    high_rtt_rnic_detected: bool


def run_cpu_overload(*, seed: int = 8, overload_hosts: int = 2,
                     baseline_s: int = 45, overload_s: int = 45
                     ) -> CpuOverloadResult:
    """Figure 8 (left): CPU overload -> high processing delay, flat RTT."""
    cluster, system, *_ = deploy(seed=seed, warmup_ns=seconds(baseline_s))
    report = system.analyzer.sla.latest()
    baseline_proc = report.cluster.processing_percentiles()["p90"] / 1000
    rtt_before = report.cluster.rtt_percentiles()["p50"] / 1000

    victims = sorted(cluster.hosts)[:overload_hosts]
    faults = [CpuOverload(cluster, h, load=0.85) for h in victims]
    for fault in faults:
        fault.inject()
    cluster.sim.run_for(seconds(overload_s))
    report = system.analyzer.sla.latest()
    rtt_during = report.cluster.rtt_percentiles()["p50"] / 1000

    result = CpuOverloadResult(
        overloaded_hosts=victims,
        baseline_processing_p90_us=baseline_proc,
        rtt_p50_before_us=rtt_before,
        rtt_p50_during_us=rtt_during)
    for window in system.analyzer.windows:
        for problem in window.problems:
            if problem.category == ProblemCategory.HIGH_PROCESSING_DELAY:
                result.detected_hosts.add(problem.locus)
    for fault in faults:
        fault.clear()
    return result


def run_pfc_storm(*, seed: int = 9, victim: str = "host1-rnic0",
                  baseline_s: int = 45, storm_s: int = 45) -> PfcStormResult:
    """Figure 8 (right): PCIe downgrade -> PFC storm -> P99 RTT spike."""
    cluster, system, *_ = deploy(seed=seed, warmup_ns=seconds(baseline_s))
    before = system.analyzer.sla.latest().cluster.rtt_percentiles()["p99"]

    fault = PcieDowngrade(cluster, victim)
    fault.inject()
    cluster.sim.run_for(seconds(storm_s))
    during = system.analyzer.sla.latest().cluster.rtt_percentiles()["p99"]

    detected = any(
        problem.category == ProblemCategory.HIGH_RTT
        and victim in problem.locus
        for window in system.analyzer.windows
        for problem in window.problems)
    fault.clear()
    return PfcStormResult(
        victim_rnic=victim,
        rtt_p99_before_us=before / 1000,
        rtt_p99_during_us=during / 1000,
        high_rtt_rnic_detected=detected)
