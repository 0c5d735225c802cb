"""Figure 6: localisation accuracy over a month of operation.

The paper reports 207 problems in one month: 85% accurate overall, all 157
switch-network problems accurate, but only 20 of 50 RNIC problems confirmed
— the other 30 being Agent-CPU-starvation false positives (Figure 6 right),
eliminated in later deployments by the multi-RNIC-simultaneity and
processing-delay filters.

A month of simulated time is unnecessary: what the statistic measures is
the analyzer's per-episode precision.  We run a schedule of independent
fault episodes (switch faults, real RNIC faults, and CPU-overload
false-positive bait) and score the analyzer's verdicts against ground
truth, once with the FP filter off (reproducing the 60%-ish RNIC precision)
and once with it on (reproducing the fix).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.cluster import Cluster
from repro.core.config import RPingmeshConfig
from repro.experiments.common import default_cluster_params, deploy
from repro.fleet.worker import LOCATED_CATEGORIES
from repro.net.faults import (CpuOverload, Fault, LinkCorruption,
                              RnicCorruption, RnicFlapping,
                              SwitchPortFlapping)
from repro.sim.units import seconds


@dataclass
class EpisodeOutcome:
    """Ground truth vs verdict for one fault episode."""

    episode_kind: str          # switch | rnic | cpu_fp
    truth_locus: str
    detected: bool
    verdict_category: str
    verdict_locus: str
    correct: bool


@dataclass
class AccuracyResult:
    """Figure 6 (left) reproduction."""

    fp_filter_enabled: bool
    episodes: list[EpisodeOutcome] = field(default_factory=list)

    def _of_kind(self, kind: str) -> list[EpisodeOutcome]:
        return [e for e in self.episodes if e.episode_kind == kind]

    @property
    def total_reported(self) -> int:
        return sum(1 for e in self.episodes if e.detected)

    @property
    def overall_accuracy(self) -> float:
        reported = [e for e in self.episodes if e.detected]
        if not reported:
            return 0.0
        return sum(e.correct for e in reported) / len(reported)

    @property
    def switch_accuracy(self) -> float:
        reported = [e for e in self._of_kind("switch") if e.detected]
        if not reported:
            return 0.0
        return sum(e.correct for e in reported) / len(reported)

    @property
    def rnic_reports(self) -> int:
        """RNIC-problem verdicts, including ones baited by CPU overload."""
        return sum(1 for e in self.episodes if e.detected
                   and e.verdict_category == "rnic_problem")

    @property
    def rnic_confirmed(self) -> int:
        """RNIC verdicts where an RNIC fault actually existed."""
        return sum(1 for e in self.episodes if e.detected and e.correct
                   and e.verdict_category == "rnic_problem")


def _switch_fault_locations(cluster: Cluster) -> list[tuple[str, str]]:
    pairs = []
    for link in cluster.topology.switch_links():
        if (link.dst, link.src) not in pairs:
            pairs.append((link.src, link.dst))
    return pairs


def run(*, seed: int = 6, switch_episodes: int = 8, rnic_episodes: int = 4,
        cpu_fp_episodes: int = 4, fp_filter_enabled: bool = True,
        episode_s: int = 45, quiet_s: int = 70) -> AccuracyResult:
    """Run the episode schedule and score the analyzer."""
    params = default_cluster_params(rnics_per_host=2)
    cluster, system, *_ = deploy(
        seed=seed, params=params, warmup_ns=seconds(30),
        config=RPingmeshConfig(cpu_fp_filter_enabled=fp_filter_enabled))
    rng = cluster.rngs.stream("fig06")

    switch_sites = _switch_fault_locations(cluster)
    rnics = cluster.rnic_names()
    hosts = sorted(cluster.hosts)

    schedule: list[tuple[str, Callable[[], Fault], str]] = []
    for i in range(switch_episodes):
        a, b = switch_sites[i % len(switch_sites)]
        maker = (lambda a=a, b=b, i=i: SwitchPortFlapping(cluster, a, b)
                 if i % 2 == 0 else
                 LinkCorruption(cluster, a, b, drop_prob=0.5))
        schedule.append(("switch", maker, f"{a}<->{b}"))
    for i in range(rnic_episodes):
        rnic = rnics[(i * 3 + 1) % len(rnics)]
        maker = (lambda rnic=rnic, i=i: RnicFlapping(cluster, rnic)
                 if i % 2 == 0 else
                 RnicCorruption(cluster, rnic, drop_prob=0.5))
        schedule.append(("rnic", maker, rnic))
    for i in range(cpu_fp_episodes):
        host = hosts[(i * 2) % len(hosts)]
        schedule.append((
            "cpu_fp",
            lambda host=host: CpuOverload(cluster, host, load=0.97),
            host))
    rng.shuffle(schedule)

    result = AccuracyResult(fp_filter_enabled=fp_filter_enabled)
    for kind, maker, truth_locus in schedule:
        fault = maker()
        problems_before = len(system.analyzer.problems)
        fault.inject()
        cluster.sim.run_for(seconds(episode_s))
        fault.clear()
        new = system.analyzer.problems[problems_before:]
        result.episodes.append(_score(kind, truth_locus, new))
        cluster.sim.run_for(seconds(quiet_s))  # drain quarantines, settle
    return result


def _score(kind: str, truth_locus: str, problems) -> EpisodeOutcome:
    """Score the analyzer's verdicts for one episode against ground truth.

    The verdict considered is the dominant located problem in the episode
    window (host-down/noise categories are not located problems).
    """
    located = [p for p in problems if p.category in LOCATED_CATEGORIES]
    if not located:
        return EpisodeOutcome(kind, truth_locus, detected=False,
                              verdict_category="none", verdict_locus="",
                              correct=False)
    # Dominant verdict: most evidence across the episode's windows.
    best = max(located, key=lambda p: p.evidence_count)
    verdict_cat = best.category.value
    verdict_locus = best.locus

    if kind == "switch":
        correct = (verdict_cat == "switch_network_problem"
                   and _link_matches(verdict_locus, truth_locus))
    elif kind == "rnic":
        correct = (verdict_cat == "rnic_problem"
                   and verdict_locus == truth_locus)
    else:  # cpu_fp bait: ANY located verdict here is a false positive
        correct = False
    return EpisodeOutcome(kind, truth_locus, detected=True,
                          verdict_category=verdict_cat,
                          verdict_locus=verdict_locus, correct=correct)


def _link_matches(verdict_locus: str, truth_pair: str) -> bool:
    """A directed-link verdict matches either direction of the cable."""
    a, b = truth_pair.split("<->")
    return verdict_locus in (f"{a}->{b}", f"{b}->{a}", a, b)
