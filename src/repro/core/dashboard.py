"""Text dashboards for SLA reports and problem feeds.

The production system feeds Grafana-style dashboards; the reproduction
renders the same content as fixed-width text, used by the CLI and handy in
tests and examples.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping, Optional

from repro.core.analyzer import Analyzer
from repro.core.records import Problem
from repro.core.sla import SlaWindow

if TYPE_CHECKING:
    from repro.core.system import RPingmesh
    from repro.obs import Observability

# Eight-level block ramp for terminal sparklines.
SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def render_sparkline(values: Iterable[Optional[float]], *,
                     width: int = 48) -> str:
    """Render a numeric series as a unicode sparkline.

    ``None`` entries (no sample that tick) render as spaces, holding
    their place in the timeline.  A constant series renders at the
    middle level; a single point likewise.  Only the most recent
    ``width`` entries are drawn.
    """
    window = list(values)[-width:]
    present = [v for v in window if v is not None]
    if not present:
        return " " * len(window)  # all gaps still hold the timeline
    lo, hi = min(present), max(present)
    mid = SPARK_LEVELS[len(SPARK_LEVELS) // 2]
    out = []
    for value in window:
        if value is None:
            out.append(" ")
        elif hi == lo:
            out.append(mid)
        else:
            index = int((value - lo) / (hi - lo) * (len(SPARK_LEVELS) - 1))
            out.append(SPARK_LEVELS[index])
    return "".join(out)


def _fmt_ns_as_us(ns: Optional[float]) -> str:
    """Render a nanosecond value scaled to microseconds ("-" if absent)."""
    return "-" if ns is None else f"{ns / 1000:8.1f}us"


def _percentile_line(label: str,
                     percentiles: Mapping[str, float]) -> str:
    """One p50/p90/p99/p999 row; missing keys render as "-"."""
    return (f"  {label:<5} "
            + " ".join(f"{q}={_fmt_ns_as_us(percentiles.get(q))}"
                       for q in ("p50", "p90", "p99", "p999")))


def render_sla_window(window: SlaWindow) -> str:
    """One scope's SLA block."""
    lines = [f"[{window.scope}] probes={window.probes_total} "
             f"ok={window.probes_ok} "
             f"rnic_drop={window.rnic_drop_rate:.4f} "
             f"switch_drop={window.switch_drop_rate:.4f}"
             + ("" if window.reliable else "  (UNRELIABLE: few samples)")]
    rtt = window.rtt_percentiles()
    if rtt:
        lines.append(_percentile_line("rtt", rtt))
    proc = window.processing_percentiles()
    if proc:
        lines.append(_percentile_line("proc", proc))
    return "\n".join(lines)


def render_problem(problem: Problem) -> str:
    """One problem line."""
    priority = problem.priority.value if problem.priority else "??"
    origin = "service-tracing" if problem.from_service_tracing \
        else "cluster-monitoring"
    return (f"[{priority}] {problem.category.value:<24} {problem.locus:<28} "
            f"evidence={problem.evidence_count:<5} via {origin}")


def render_analyzer_state(analyzer: Analyzer, *,
                          problem_limit: int = 10) -> str:
    """The operator's one-page view: latest SLA + recent problems."""
    lines = ["=" * 72]
    report = analyzer.sla.latest()
    if report is None:
        lines.append("no analysis windows yet")
    else:
        start_s = report.window_start_ns / 1e9
        end_s = report.window_end_ns / 1e9
        lines.append(f"analysis window {start_s:.0f}s - {end_s:.0f}s")
        lines.append(render_sla_window(report.cluster))
        if report.service.probes_total:
            lines.append(render_sla_window(report.service))
    recent = analyzer.problems[-problem_limit:]
    if recent:
        lines.append("-" * 72)
        lines.append(f"recent problems (last {len(recent)}):")
        lines.extend("  " + render_problem(p) for p in recent)
    # INT fusion tallies, when an in-band telemetry provider is attached.
    fusion = analyzer.fusion
    if analyzer.int_provider is not None:
        lines.append(f"int fusion: sharpened={fusion.sharpened} "
                     f"annotated={fusion.annotated} added={fusion.added} "
                     f"ties_broken={fusion.ties_broken}")
    verdict = "INNOCENT" if analyzer.network_innocent() else "SUSPECT"
    lines.append("-" * 72)
    lines.append(f"service-network verdict: {verdict}")
    lines.append("=" * 72)
    return "\n".join(lines)


def render_control_plane(system: "RPingmesh", *,
                         endpoint_limit: int = 12) -> str:
    """Management-network health: per-endpoint counters + upload channels.

    Endpoints with drops, retries, or timeouts sort first so a degraded
    control plane is visible even on large clusters.
    """
    net = system.network
    lines = ["=" * 72,
             f"control plane: sent={net.messages_sent} "
             f"delivered={net.messages_delivered} "
             f"dropped={net.messages_dropped}"]
    analyzer = system.analyzer
    lines.append(f"analyzer ingest: accepted={analyzer.ingest_accepted} "
                 f"dropped={analyzer.ingest_dropped} "
                 f"queued={analyzer.ingest_backlog}")
    # Sharded deployments: the ingest bound is per shard, so one hot pod
    # can drop batches while the totals above look healthy.
    for shard in system.analyzer_shards:
        lines.append(f"  shard{shard.shard_index}: "
                     f"accepted={shard.ingest_accepted} "
                     f"dropped={shard.ingest_dropped} "
                     f"queued={shard.ingest_backlog} "
                     f"windows={len(shard.windows)}")
    for name, backend in sorted(system.backends.items()):
        cost = backend.cost()
        lines.append(f"  backend {name:<9} "
                     f"verdicts={len(backend.verdicts()):<4} "
                     f"probe_bytes={cost.probe_bytes:<9} "
                     f"telemetry_bytes={cost.telemetry_bytes}")

    def unhealth(name: str) -> tuple:
        s = net.stats_for(name)
        return (s.dropped + s.retries + s.request_timeouts, s.sent)

    names = sorted(net.endpoints(), key=unhealth, reverse=True)
    shown = names[:endpoint_limit]
    for name in shown:
        s = net.stats_for(name)
        line = (f"  {name:<20} sent={s.sent:<6} recv={s.received:<6} "
                f"drop={s.dropped:<4} retry={s.retries:<4} "
                f"timeout={s.request_timeouts:<4} "
                f"lat={s.avg_latency_ns() / 1000:.1f}us")
        lines.append(line)
    if len(names) > len(shown):
        lines.append(f"  ... {len(names) - len(shown)} more endpoints")

    obs = system.obs
    if obs.metrics_enabled:
        snap = obs.metrics.snapshot()
        interesting = [k for k in snap
                       if k.startswith("repro_controlplane_")
                       and "{" not in k]
        if interesting:
            lines.append("  registry: "
                         + " ".join(f"{k.removeprefix('repro_controlplane_')}"
                                    f"={snap[k]}" for k in interesting))

    backlogged = [(name, agent.uploads) for name, agent in
                  sorted(system.agents.items())
                  if agent.uploads.backlog or agent.uploads.retries
                  or agent.uploads.dropped_overflow
                  or agent.uploads.dropped_crash or agent.uploads.rejected]
    if backlogged:
        lines.append("-" * 72)
        lines.append("upload channels with pressure:")
        for name, ch in backlogged[:endpoint_limit]:
            lines.append(
                f"  {name:<20} backlog={ch.backlog:<4} "
                f"acked={ch.acked:<6} retries={ch.retries:<4} "
                f"rejected={ch.rejected:<4} "
                f"lost={ch.dropped_overflow + ch.dropped_crash}")
    lines.append("=" * 72)
    return "\n".join(lines)


def render_fleet(scorecard, *, scenario_limit: int = 12) -> str:
    """One-page view of a merged fleet sweep.

    Accepts a :class:`~repro.fleet.merge.FleetScorecard` or its
    ``as_dict()`` / JSON-artifact form (duck-typed, so the core layer
    does not import the fleet package).
    """
    data = (scorecard.as_dict() if hasattr(scorecard, "as_dict")
            else dict(scorecard))
    sweep = data.get("sweep", {})
    det = data.get("determinism", {})
    lines = ["=" * 72,
             f"fleet sweep: jobs={sweep.get('unique_jobs', '?')} "
             f"runs={sweep.get('runs_merged', '?')} "
             f"scenarios={sweep.get('scenarios', '?')}"]
    verdict = "CONSISTENT" if det.get("consistent", True) else "MISMATCH"
    lines.append(f"determinism: {verdict} "
                 f"(checked={det.get('checked_jobs', 0)} "
                 f"duplicated={det.get('duplicated_jobs', 0)})")
    for mismatch in det.get("mismatches", []):
        lines.append(f"  !! {mismatch['scenario']} seed={mismatch['seed']} "
                     f"digests={len(mismatch['digests'])}")
    lines.append("-" * 72)
    scenarios = data.get("scenarios", {})
    for label in sorted(scenarios)[:scenario_limit]:
        entry = scenarios[label]
        d = entry["detection"]
        lines.append(f"{label}")
        lines.append(f"  seeds={entry['seeds']} "
                     f"recall={d['recall']:.3f} precision={d['precision']:.3f} "
                     f"detected={d['faults_detected']}/{d['faults_total']} "
                     f"localized={d['faults_localized']}")
        ttd = d.get("time_to_detect_ms")
        if ttd:
            lines.append(f"  time-to-detect ms: min={ttd['min']} "
                         f"mean={ttd['mean']} max={ttd['max']}")
        for metric, band in sorted(entry.get("sla_bands", {}).items()):
            lines.append(f"  {metric:<20} min={band['min']:<12} "
                         f"mean={band['mean']:<12} max={band['max']}")
    if len(scenarios) > scenario_limit:
        lines.append(f"  ... {len(scenarios) - scenario_limit} "
                     f"more scenarios")
    totals = data.get("metrics_totals", {})
    if totals:
        lines.append("-" * 72)
        lines.append("fleet-wide totals:")
        lines.extend(f"  {series} = {value}"
                     for series, value in sorted(totals.items()))
    lines.append("=" * 72)
    return "\n".join(lines)


def render_observability(obs: "Observability", *, series_limit: int = 24,
                         profile_top: int = 10) -> str:
    """One-page view of the observability layer itself.

    Shows whichever sub-systems are on: tracer span bookkeeping, the
    most load-bearing metric series (drops, then totals), and the
    profiler's hottest callback sites.
    """
    lines = ["=" * 72]
    if obs.tracing:
        summary = obs.tracer.summary()
        lines.append("tracer: " + " ".join(f"{k}={v}"
                                           for k, v in summary.items()))
    if obs.metrics_enabled:
        snap = obs.metrics.snapshot()
        drops = [k for k in snap if "_drop" in k and snap[k]]
        rest = [k for k in snap
                if "_bucket" not in k and k not in drops]
        chosen = (drops + rest)[:series_limit]
        lines.append(f"metrics: {len(snap)} series")
        lines.extend(f"  {k} = {snap[k]}" for k in chosen)
        if len(snap) > len(chosen):
            lines.append(f"  ... {len(snap) - len(chosen)} more series")
    if obs.profiling and obs.profiler is not None:
        lines.append(obs.profiler.render(top=profile_top))
    if len(lines) == 1:
        lines.append("observability: everything off (default)")
    lines.append("=" * 72)
    return "\n".join(lines)
