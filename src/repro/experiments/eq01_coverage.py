"""Equation 1: 5-tuple counts for ECMP coverage, validated two ways.

1. Analytically: k = required_tuples(N, P) per Equation 1.
2. Empirically: throw k random 5-tuples at the simulated Clos fabric and
   check the fraction of trials covering every parallel path matches P.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.coverage import miss_probability, required_tuples
from repro.experiments.common import deploy
from repro.net.addresses import roce_five_tuple
from repro.sim.rng import RngStream


@dataclass
class CoverageRow:
    """One N's analytic k and its empirical validation."""

    n_paths: int
    k_required: int
    analytic_coverage: float
    empirical_coverage: float


@dataclass
class CoverageResult:
    """Equation 1 table over a sweep of path counts."""

    probability: float
    rows: list[CoverageRow] = field(default_factory=list)
    fabric_paths_observed: int = 0
    fabric_k: int = 0
    fabric_coverage: float = 0.0


def run(*, probability: float = 0.99,
        path_counts: tuple[int, ...] = (2, 4, 8, 16, 32),
        trials: int = 400, seed: int = 17) -> CoverageResult:
    """Sweep N, and validate k against both a uniform model and the
    actual ECMP-hashing Clos fabric."""
    rng = RngStream(seed, "eq01")
    result = CoverageResult(probability=probability)

    for n in path_counts:
        k = required_tuples(n, probability)
        covered = 0
        for _ in range(trials):
            hit = {rng.randint(0, n - 1) for _ in range(k)}
            if len(hit) == n:
                covered += 1
        result.rows.append(CoverageRow(
            n_paths=n, k_required=k,
            analytic_coverage=1.0 - miss_probability(n, k),
            empirical_coverage=covered / trials))

    # Fabric validation: do k tuples cover all distinct cross-pod paths?
    cluster = deploy(seed=seed).cluster
    src, dst = "host0-rnic0", "host6-rnic0"  # cross-pod pair
    src_ip = cluster.rnic(src).ip
    dst_ip = cluster.rnic(dst).ip
    all_paths = {tuple(cluster.fabric.path_of(
        roce_five_tuple(src_ip, dst_ip, port), src))
        for port in range(10_000, 14_000)}
    n_fabric = len(all_paths)
    k_fabric = required_tuples(n_fabric, probability)
    covered = 0
    for trial in range(trials):
        hit = set()
        for _ in range(k_fabric):
            port = rng.randint(1024, 65535)
            hit.add(tuple(cluster.fabric.path_of(
                roce_five_tuple(src_ip, dst_ip, port), src)))
        if hit >= all_paths:
            covered += 1
    result.fabric_paths_observed = n_fabric
    result.fabric_k = k_fabric
    result.fabric_coverage = covered / trials
    return result
