"""Figure 7: Agent CPU and memory overhead.

The paper's Figure 7 plots Agent CPU (fraction of one core) and memory over
half a month on 8-RNIC hosts: ~3% CPU and ~18.5 MB on average, with probe
traffic per RNIC under 300 Kb/s (§6).  We run the full system on 8-RNIC
hosts, sample the cost model over time, and measure actual per-RNIC probe
bandwidth from the RNIC byte counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.common import deploy
from repro.net.clos import ClosParams
from repro.sim.units import seconds


@dataclass
class OverheadResult:
    """Figure 7 reproduction."""

    cpu_samples: list[float] = field(default_factory=list)     # cores
    memory_samples_mb: list[float] = field(default_factory=list)
    per_rnic_probe_kbps: list[float] = field(default_factory=list)
    rnics_per_host: int = 8

    @property
    def mean_cpu_cores(self) -> float:
        return sum(self.cpu_samples) / len(self.cpu_samples)

    @property
    def mean_memory_mb(self) -> float:
        return sum(self.memory_samples_mb) / len(self.memory_samples_mb)

    @property
    def max_rnic_kbps(self) -> float:
        return max(self.per_rnic_probe_kbps)


def run(*, seed: int = 7, rnics_per_host: int = 8, duration_s: int = 120,
        sample_every_s: int = 10) -> OverheadResult:
    """Measure Agent overhead on hosts with ``rnics_per_host`` RNICs."""
    cluster, system, *_ = deploy(seed=seed, params=ClosParams(
        pods=1, tors_per_pod=2, aggs_per_pod=2, spines=2,
        hosts_per_tor=2, rnics_per_host=rnics_per_host))
    agent = system.agents["host0"]
    result = OverheadResult(rnics_per_host=rnics_per_host)

    elapsed = 0
    byte_marks = {r.name: 0 for r in cluster.hosts["host0"].rnics}
    while elapsed < duration_s:
        cluster.sim.run_for(seconds(sample_every_s))
        elapsed += sample_every_s
        estimate = agent.overhead_estimate()
        result.cpu_samples.append(estimate["cpu_cores"])
        result.memory_samples_mb.append(estimate["memory_mb"])
        for rnic in cluster.hosts["host0"].rnics:
            total = rnic.tx_bytes + rnic.rx_bytes
            delta = total - byte_marks[rnic.name]
            byte_marks[rnic.name] = total
            result.per_rnic_probe_kbps.append(
                delta * 8 / sample_every_s / 1000)
    return result
