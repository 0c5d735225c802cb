"""The live serve-mode dashboard: sparklines, alerts, shard gauges.

Pure rendering over a :class:`~repro.serve.session.ServeSession` —
no terminal control here beyond what the CLI runner adds (it clears the
screen between frames).  Reuses the :mod:`repro.core.dashboard`
renderers so the serve view and the batch ``monitor`` view agree.
"""

from __future__ import annotations

from typing import Optional

from repro.core.dashboard import render_analyzer_state, render_sparkline
from repro.serve.session import ServeSession

_SPARK_WIDTH = 48


def _spark_row(label: str, values: list, *,
               fmt: str = "{:.1f}", scale: float = 1.0,
               unit: str = "") -> str:
    spark = render_sparkline(values, width=_SPARK_WIDTH)
    present = [v for v in values if v is not None]
    last = fmt.format(present[-1] * scale) + unit if present else "-"
    return f"  {label:<12} {spark:<{_SPARK_WIDTH}} {last:>10}"


def render_serve(session: ServeSession, *,
                 url: Optional[str] = None) -> str:
    """One full dashboard frame."""
    status = session.status()
    lines = ["=" * 72]
    head = (f"repro serve  tick={status['tick']} "
            f"sim={status['sim_now_ns'] / 1e9:.0f}s "
            f"seed={status['seed']} shards={status['shards']} "
            f"{'READY' if status['ready'] else 'warming up'}")
    if url:
        head += f"  {url}"
    lines.append(head)
    history = list(session.history)
    if history:
        lines.append("-" * 72)
        rtt50 = [s.rtt_p50_ns for s in history]
        rtt99 = [s.rtt_p99_ns for s in history]
        ok = [s.ok_fraction for s in history]
        rate = _probe_rates(history, session.spec.tick_ns)
        lines.append(_spark_row("rtt p50", rtt50, scale=1e-3, unit="us"))
        lines.append(_spark_row("rtt p99", rtt99, scale=1e-3, unit="us"))
        lines.append(_spark_row("sla ok", ok, fmt="{:.4f}"))
        lines.append(_spark_row("probes/s", rate, fmt="{:.0f}"))
    firing = session.alerts.firing()
    lines.append("-" * 72)
    if firing:
        lines.append(f"ALERTS FIRING ({len(firing)}):")
        for name in firing:
            state = session.alerts.state_of(name)
            lines.append(f"  !! {name:<28} value={state['last_value']} "
                         f"fired_count={state['fired_count']}")
    else:
        lines.append("alerts: none firing "
                     f"({len(session.alerts.rules)} rules armed)")
    lines.append("-" * 72)
    lines.append(_gauges_line(session))
    lines.append(render_analyzer_state(session.system.analyzer,
                                       problem_limit=5))
    return "\n".join(lines)


def _probe_rates(history: list, tick_ns: int) -> list:
    """Per-tick probes/second deltas from cumulative sends."""
    rates: list[Optional[float]] = []
    for prev, cur in zip([None] + history[:-1], history):
        if prev is None:
            rates.append(None)
        else:
            rates.append((cur.probes_sent - prev.probes_sent)
                         / (tick_ns / 1e9))
    return rates


def _gauges_line(session: ServeSession) -> str:
    """Shard gauges from the metric registry, one line."""
    snapshot = session.system.obs.metrics.snapshot()
    parts = []
    for key, value in snapshot.items():
        if key.startswith("repro_analyzer_shard_ingest_backlog"):
            shard = key[key.find("{"):] if "{" in key else ""
            parts.append(f"backlog{shard}={value}")
    parts.append(f"uptime_ticks={snapshot.get('repro_uptime_ticks', 0)}")
    return "  gauges: " + " ".join(parts)
