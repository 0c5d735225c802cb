"""The probe-vs-INT-vs-Pingmesh bake-off (ROADMAP item 5, paper §7.4).

Races the registered diagnosis backends over the declarative fault
registry on the TINY Clos: every case injects one fault kind (the
PFC-headroom case composes its two-event row-9 recipe) for 8 s-30 s of a
45 s run, once per *mode*:

* ``probe``  — the paper's pipeline alone (the baseline every other
  mode is judged against);
* ``fused``  — probe + the INT backend with Analyzer fusion;
* ``pingmesh`` — the TCP Pingmesh baseline riding alongside the system.

Each (case, mode) run is an ordinary fleet job
(:func:`repro.fleet.worker.run_scenario`), so recall / precision /
time-to-detect come from the same scorer the fleet uses, and per-backend
verdict scorecards plus overhead (probe bytes, telemetry bytes, events
observed) come from the run's :class:`~repro.fleet.worker.BackendReport`
entries.  ``benchmarks/test_backend_bakeoff.py`` asserts the headline
claims — INT names the exact directed link on every congestion case;
fused is never worse than probe-only — and emits one BENCH line per
record; the ``repro backends`` CLI subcommand prints :func:`run_bakeoff`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from repro.fleet.presets import SMALL, TINY
from repro.net.clos import ClosParams
from repro.fleet.spec import FaultEvent, ScenarioSpec
from repro.fleet.worker import ScenarioResult, run_scenario
from repro.sim.units import seconds

FAULT_START_S = 8.0
FAULT_END_S = 30.0
DURATION_S = 45

# mode name -> ScenarioSpec.backends value
MODES: dict[str, tuple[str, ...]] = {
    "probe": ("probe",),
    "fused": ("probe", "int"),
    "pingmesh": ("pingmesh",),
}


@dataclass(frozen=True, slots=True)
class BakeoffCase:
    """One fault kind's scenario in the bake-off sweep.

    ``hot_link`` names the directed link whose queue/pause state the
    fault inflates — set on the congestion-family cases, where the
    benchmark asserts the INT backend's verdict locus equals it exactly.
    """

    label: str
    campaign: tuple[FaultEvent, ...]
    hot_link: Optional[str] = None
    topology: ClosParams = TINY
    # True when the fault also *drops* packets on the hot link, giving
    # the probe pipeline's timeout votes an exact locus of their own;
    # False on pure-latency congestion, where only INT can name the
    # directed link and the bake-off asserts the probe pipeline cannot.
    probe_sees_drops: bool = False


def _event(kind: str, *loci: str,
           end_s: Optional[float] = FAULT_END_S, **params) -> FaultEvent:
    return FaultEvent.make(kind, *loci, start_s=FAULT_START_S,
                           end_s=end_s, **params)


def bakeoff_cases() -> tuple[BakeoffCase, ...]:
    """The swept registry: 14 of the 16 data-plane fault kinds on TINY.

    ``rnic_acs_misconfig`` is covered through its ``pcie_downgrade``
    base (same mechanism, same phenomenology) and ``link_failure`` by
    ``switch_port_flapping`` (the flap's down phases are repeated short
    failures); every other registry kind appears directly.
    """
    return (
        BakeoffCase("switch_port_flapping",
                    (_event("switch_port_flapping",
                            "pod0-tor0", "pod0-agg0"),)),
        BakeoffCase("rnic_flapping",
                    (_event("rnic_flapping", "host0-rnic0"),)),
        BakeoffCase("link_corruption",
                    (_event("link_corruption", "pod0-tor0", "pod0-agg0",
                            drop_prob=0.5),)),
        BakeoffCase("rnic_corruption",
                    (_event("rnic_corruption", "host0-rnic0",
                            drop_prob=0.5),)),
        BakeoffCase("rnic_down", (_event("rnic_down", "host0-rnic0"),)),
        # Permanent (end_s=None): the silence detector needs the host
        # still dead at an analysis boundary >= 20 s after its last
        # upload, which a fault cleared at 30 s never reaches.
        BakeoffCase("host_down",
                    (_event("host_down", "host0", end_s=None),)),
        BakeoffCase("pfc_deadlock",
                    (_event("pfc_deadlock", "pod0-tor0", "pod0-agg0"),)),
        BakeoffCase("rnic_routing_misconfig",
                    (_event("rnic_routing_misconfig", "host0-rnic0"),)),
        BakeoffCase("rnic_gid_index_missing",
                    (_event("rnic_gid_index_missing", "host0-rnic0"),)),
        BakeoffCase("switch_acl_error",
                    (_event("switch_acl_error", "pod0-tor0"),)),
        # Table 2 row 9: overload spilling through mis-sized PFC headroom.
        BakeoffCase("pfc_headroom_misconfig",
                    (_event("pfc_headroom_misconfig",
                            "pod0-tor0", "pod0-agg0"),
                     _event("link_overload", "pod0-tor0", "pod0-agg0",
                            extra_gbps=700.0)),
                    hot_link="pod0-tor0->pod0-agg0",
                    probe_sees_drops=True),
        # Rows 10/11: pure congestion below and above the aggregation
        # tier — the cases where probing names a cable (or its far side)
        # and INT must name the exact directed link.
        BakeoffCase("link_overload_tor_agg",
                    (_event("link_overload", "pod0-tor0", "pod0-agg0",
                            extra_gbps=500.0),),
                    hot_link="pod0-tor0->pod0-agg0"),
        # Needs the two-pod Clos: on TINY's single pod no probe ever
        # transits an agg->spine uplink, so nothing would observe it.
        BakeoffCase("link_overload_agg_spine",
                    (_event("link_overload", "pod0-agg0", "spine0",
                            extra_gbps=500.0, table2_row=11),),
                    hot_link="pod0-agg0->spine0",
                    topology=SMALL),
        BakeoffCase("cpu_overload",
                    (_event("cpu_overload", "host0", load=0.96),)),
        # Row 13: PCIe downgrade backpressures the ToR's downlink queue.
        BakeoffCase("pcie_downgrade",
                    (_event("pcie_downgrade", "host0-rnic0"),),
                    hot_link="pod0-tor0->host0-rnic0"),
    )


def case_by_label(label: str) -> BakeoffCase:
    """Look one case up by its label."""
    for case in bakeoff_cases():
        if case.label == label:
            return case
    raise ValueError(f"unknown bake-off case {label!r}; choose from: "
                     f"{', '.join(c.label for c in bakeoff_cases())}")


def run_case(case: BakeoffCase, mode: str, seed: int = 0, *,
             duration_s: int = DURATION_S) -> ScenarioResult:
    """One (case, mode) bake-off job as a standard fleet scenario."""
    spec = ScenarioSpec(
        name=f"bakeoff-{case.label}-{mode}",
        topology=case.topology,
        duration_s=duration_s,
        campaign=case.campaign,
        backends=MODES[mode])
    return run_scenario(spec, seed)


def record(case: BakeoffCase, mode: str,
           result: ScenarioResult) -> dict:
    """One BENCH-able plain-data record for a (case, mode) run.

    System-level numbers (recall over the campaign's faults, located
    precision, first time-to-detect) score what the *deployment*
    concluded; the ``backends`` sub-records score each backend's own
    verdict stream and overhead.
    """
    ttds = [d.time_to_detect_ns for d in result.detections
            if d.time_to_detect_ns is not None]
    located = result.true_positives + result.false_positives
    out = {
        "bench": "backend_bakeoff",
        "case": case.label,
        "mode": mode,
        "seed": result.seed,
        "faults_total": result.faults_total,
        "faults_detected": result.faults_detected,
        "recall": (result.faults_detected / result.faults_total
                   if result.faults_total else 1.0),
        "precision": (result.true_positives / located if located else 1.0),
        "ttd_ns": min(ttds) if ttds else None,
        "sim_events": result.events_processed,
        "events_per_sim_s": round(
            result.events_processed
            / (result.sim_now_ns / seconds(1)), 2),
        "backends": {},
    }
    for report in result.backend_reports:
        ttds = [d.time_to_detect_ns for d in report.detections
                if d.time_to_detect_ns is not None]
        out["backends"][report.backend] = {
            "verdicts": report.verdicts_total,
            "true_positives": report.true_positives,
            "false_positives": report.false_positives,
            "faults_detected": report.faults_detected,
            "ttd_ns": min(ttds) if ttds else None,
            "probe_packets": report.probe_packets,
            "probe_bytes": report.probe_bytes,
            "telemetry_bytes": report.telemetry_bytes,
            "events_observed": report.events_observed,
        }
    return out


def run_bakeoff(kinds: Optional[Sequence[str]] = None,
                modes: Optional[Sequence[str]] = None, *,
                seed: int = 0,
                duration_s: int = DURATION_S) -> Iterator[dict]:
    """Run (cases x modes), yielding one record per run as it finishes.

    ``kinds`` filters cases by label (default: all); ``modes`` filters
    the mode sweep (default: probe, fused, pingmesh).  An unknown label
    or mode raises ``ValueError`` here, before anything runs.
    """
    cases = bakeoff_cases()
    if kinds is not None:
        cases = tuple(case_by_label(label) for label in kinds)
    mode_names = list(modes) if modes is not None else list(MODES)
    for mode in mode_names:
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; choose from: "
                             f"{', '.join(MODES)}")
    return (record(case, mode,
                   run_case(case, mode, seed, duration_s=duration_s))
            for case in cases for mode in mode_names)


def int_verdict_loci(result: ScenarioResult) -> list[str]:
    """Every locus the INT backend named in a fused-mode run."""
    for report in result.backend_reports:
        if report.backend == "int":
            return sorted({d.verdict_locus for d in report.detections
                           if d.verdict_locus})
    return []
