"""The fleet worker: one ``(spec, seed)`` job, end to end, in one process.

:func:`run_scenario` is the unit of fleet work.  It is a pure function of
its ``(ScenarioSpec, seed)`` arguments: it has
:func:`~repro.fleet.spec.build_world` stand the deployment up with the
campaign scheduled, runs the simulation, and condenses the outcome into
a picklable :class:`ScenarioResult` — replay digest, detection scoring
against the campaign's ground truth, SLA percentiles, and (optionally)
the metrics snapshot.  Everything in the result except ``wall_s`` is a
deterministic function of the inputs; ``wall_s`` is explicitly wall-clock
bookkeeping for the runner's progress/speedup accounting and is excluded
from merge scorecards and digests.

ProcessPoolExecutor pickles ``run_scenario`` by reference, and the result
deliberately contains no live simulation objects: process boundaries and
JSON artifacts both want plain data.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.core.records import Problem, ProblemCategory, structural_digest
from repro.core.system import RPingmesh, system_state
from repro.fleet.spec import ScenarioSpec, ScheduledFault, build_world
from repro.net.faults import Fault, GroundTruth, LocusKind
from repro.obs import Observability
from repro.sim.units import seconds

# Verdicts may land one analysis window after a fault clears (uploads
# batch on 5 s boundaries, analysis on 20 s boundaries); detections
# inside this grace window still count toward the fault.
DETECTION_GRACE_NS = 25 * seconds(1)

# Analyzer categories that localise a *network* problem; everything else
# (host-down, noise classes, latency signals) is scored separately.
LOCATED_CATEGORIES = (ProblemCategory.RNIC_PROBLEM,
                      ProblemCategory.SWITCH_NETWORK_PROBLEM)
LATENCY_CATEGORIES = (ProblemCategory.HIGH_RTT,
                      ProblemCategory.HIGH_PROCESSING_DELAY)
FAILURE_CATEGORIES = LOCATED_CATEGORIES + (ProblemCategory.HOST_DOWN,)


@dataclass(frozen=True, slots=True)
class DetectionOutcome:
    """Ground truth vs Analyzer verdict for one campaign fault."""

    fault_id: str
    table2_row: int
    category: str               # ground-truth ProblemCategory value
    locus_kind: str             # rnic | switch | link | host
    locus: str
    start_ns: int
    end_ns: Optional[int]
    detected: bool
    localized: bool             # detected AND locus matches
    detected_at_ns: Optional[int]
    time_to_detect_ns: Optional[int]
    verdict_category: str       # first matching verdict ("" if none)
    verdict_locus: str


@dataclass(frozen=True, slots=True)
class BackendReport:
    """One diagnosis backend's scorecard for one scenario run.

    ``true_positives``/``false_positives`` score the backend's *own*
    verdicts against ground truth (window + expected category + locus);
    the cost fields come from :meth:`~repro.diagnosis.backend.
    DiagnosisBackend.cost` and feed the bake-off's overhead axis.
    """

    backend: str
    verdicts_total: int
    true_positives: int
    false_positives: int
    detections: tuple[DetectionOutcome, ...]
    probe_packets: int
    probe_bytes: int
    telemetry_bytes: int
    events_observed: int

    @property
    def faults_detected(self) -> int:
        return sum(1 for d in self.detections if d.detected)


@dataclass(frozen=True, slots=True)
class ScenarioResult:
    """Everything one fleet job reports back, as plain picklable data."""

    scenario: str
    spec_digest: str
    seed: int
    replay_digest: str
    sim_now_ns: int
    events_processed: int
    probes_total: int
    probes_ok: int
    detections: tuple[DetectionOutcome, ...]
    true_positives: int         # located problems matching an active fault
    false_positives: int        # located problems matching nothing injected
    problem_counts: dict[str, int] = field(default_factory=dict)
    sla: dict[str, float] = field(default_factory=dict)
    metrics: Optional[dict[str, float]] = None
    # Per-deployed-backend scorecards (repro.diagnosis); one entry per
    # name in the spec's effective backend set, in deployment order.
    backend_reports: tuple[BackendReport, ...] = ()
    wall_s: float = 0.0         # wall-clock spent; NOT part of any digest

    @property
    def faults_total(self) -> int:
        return len(self.detections)

    @property
    def faults_detected(self) -> int:
        return sum(1 for d in self.detections if d.detected)


def run_scenario(spec: ScenarioSpec, seed: int) -> ScenarioResult:
    """Execute one ``(spec, seed)`` job and condense it for merging."""
    start_wall = time.perf_counter()  # detlint: disable=DET001 wall_s bookkeeping

    cluster, system, _, faults = build_world(
        spec.topology, seed, config=spec.config(), campaign=spec.campaign,
        obs=Observability(metrics=spec.metrics, tracing=spec.tracing))
    system.run(seconds(spec.duration_s))

    detections = tuple(
        _score_fault(fault, window, system.analyzer.problems)
        for fault, window in faults)
    true_pos, false_pos = _score_precision(faults, system.analyzer.problems)
    metrics = dict(system.metrics_snapshot()) if spec.metrics else None
    backend_reports = tuple(
        _score_backend(name, system.backends[name], faults)
        for name in system.config.backends)

    return ScenarioResult(
        scenario=spec.name,
        spec_digest=spec.spec_digest,
        seed=seed,
        replay_digest=structural_digest(system_state(system)),
        sim_now_ns=cluster.sim.now,
        events_processed=cluster.sim.events_processed,
        probes_total=sum(r.cluster.probes_total
                         for r in system.analyzer.sla.reports),
        probes_ok=sum(r.cluster.probes_ok
                      for r in system.analyzer.sla.reports),
        detections=detections,
        true_positives=true_pos,
        false_positives=false_pos,
        problem_counts={
            category.value: count for category, count in
            sorted(system.analyzer.category_counts.items(),
                   key=lambda kv: kv[0].value)},
        sla=_sla_summary(system),
        metrics=metrics,
        backend_reports=backend_reports,
        wall_s=time.perf_counter() - start_wall,  # detlint: disable=DET001 wall_s bookkeeping
    )


# -- scoring -------------------------------------------------------------------

def _expected_categories(truth: GroundTruth) -> tuple[ProblemCategory, ...]:
    """Which Analyzer verdicts count as detecting this fault.

    Follows the Table 2 phenomenology (§7.1): failures (rows 1-9) produce
    timeouts attributed to an RNIC, a switch, or a dead host; bottlenecks
    (rows 10-14) produce latency signals.  Host-down faults are detected
    by upload silence, not timeout attribution.
    """
    if truth.locus_kind == LocusKind.HOST and truth.table2_row == 4:
        return (ProblemCategory.HOST_DOWN,)
    if truth.table2_row >= 10:
        return LATENCY_CATEGORIES
    return FAILURE_CATEGORIES


def locus_matches(truth: GroundTruth, problem_locus: str) -> bool:
    """Does a verdict locus name the injected component (either way for
    cables, adjacent-link tolerant for switches)?"""
    locus = truth.locus
    if truth.locus_kind in (LocusKind.RNIC, LocusKind.HOST):
        return problem_locus == locus
    if truth.locus_kind == LocusKind.LINK:
        for sep in ("<->", "->"):
            if sep in locus:
                a, b = locus.split(sep, 1)
                return problem_locus in (f"{a}->{b}", f"{b}->{a}", a, b)
        return problem_locus == locus
    # Switch: the verdict may name the switch or one of its links.
    if problem_locus == locus:
        return True
    return locus in problem_locus.split("->")


def _explains(fault: Fault, window: tuple[int, Optional[int]],
              problem: Problem, *, expected_category: bool = False,
              locus: bool = True) -> bool:
    """The one window test every scorer uses: was ``problem`` detected
    inside the fault's window + ``DETECTION_GRACE_NS``, and (on request)
    is it of a category this fault is expected to raise, on its locus?"""
    start_ns, end_ns = window
    if problem.detected_at_ns < start_ns:
        return False
    if (end_ns is not None
            and problem.detected_at_ns > end_ns + DETECTION_GRACE_NS):
        return False
    truth = fault.ground_truth
    if (expected_category
            and problem.category not in _expected_categories(truth)):
        return False
    return not locus or locus_matches(truth, problem.locus)


def _score_fault(fault: Fault, window: tuple[int, Optional[int]],
                 problems: list[Problem]) -> DetectionOutcome:
    truth = fault.ground_truth
    start_ns, end_ns = window
    # Host-down and latency verdicts count wherever they point; located
    # verdicts only on the injected component.
    hits = [p for p in problems
            if _explains(fault, window, p, expected_category=True,
                         locus=p.category in LOCATED_CATEGORIES)]
    localized = [p for p in hits if locus_matches(truth, p.locus)]
    first = min(hits, key=lambda p: p.detected_at_ns) if hits else None
    return DetectionOutcome(
        fault_id=truth.fault_id,
        table2_row=truth.table2_row,
        category=truth.category.value,
        locus_kind=truth.locus_kind.value,
        locus=truth.locus,
        start_ns=start_ns,
        end_ns=end_ns,
        detected=bool(hits),
        localized=bool(localized),
        detected_at_ns=first.detected_at_ns if first else None,
        time_to_detect_ns=(first.detected_at_ns - start_ns
                           if first else None),
        verdict_category=first.category.value if first else "",
        verdict_locus=first.locus if first else "")


def _score_precision(faults: list[ScheduledFault],
                     problems: list[Problem]) -> tuple[int, int]:
    """Located verdicts explained by an injected fault vs spurious ones."""
    located = [p for p in problems if p.category in LOCATED_CATEGORIES]
    true_pos = sum(any(_explains(fault, window, p)
                       for fault, window in faults) for p in located)
    return true_pos, len(located) - true_pos


def _score_backend(name: str, backend,
                   faults: list[ScheduledFault]) -> BackendReport:
    """Score one backend's own verdict stream against ground truth.

    Reuses the Analyzer scoring machinery by converting each
    :class:`~repro.diagnosis.backend.BackendVerdict` to a Problem record.
    Unlike the system-level precision (located categories only), a
    backend verdict counts as a true positive only when an injected fault
    explains its *full* claim — window, expected category, and locus —
    so a backend that merely says "something, somewhere" scores lower
    than one naming the exact directed link.
    """
    problems = [v.as_problem() for v in backend.verdicts()]
    detections = tuple(_score_fault(fault, window, problems)
                       for fault, window in faults)
    cost = backend.cost()
    true_pos = sum(any(_explains(fault, window, p, expected_category=True)
                       for fault, window in faults) for p in problems)
    return BackendReport(
        backend=name,
        verdicts_total=len(problems),
        true_positives=true_pos,
        false_positives=len(problems) - true_pos,
        detections=detections,
        probe_packets=cost.probe_packets,
        probe_bytes=cost.probe_bytes,
        telemetry_bytes=cost.telemetry_bytes,
        events_observed=cost.events_observed)


def _sla_summary(system: RPingmesh) -> dict[str, float]:
    """Per-run SLA representatives: median across analysis windows."""
    out: dict[str, float] = {}
    history = system.analyzer.sla
    for metric in ("rtt_p50", "rtt_p99", "processing_p50",
                   "processing_p99", "drop_rate"):
        values = [v for _, v in history.series("cluster", metric)]
        if values:
            out[f"{metric}_ns" if "rate" not in metric else metric] = \
                statistics.median(sorted(values))
    return out
