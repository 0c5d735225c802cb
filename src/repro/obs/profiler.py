"""Sim-engine profiling: events popped + host wall time per callback site.

Opt-in instrumentation for :class:`~repro.sim.engine.Simulator`: when a
profiler is installed the engine routes every popped event through
:meth:`SimProfiler.run`, which times the callback on the host clock and
attributes (count, wall ns) to the callback's *site* — the module-qualified
name of the function or method it runs.  A :class:`~repro.sim.engine.
PeriodicTask` firing is billed to the task's callback (``Agent._probe_next``),
not to the engine's re-arm wrapper, so the report says where a simulated
second of R-Pingmesh actually spends host CPU.

Determinism contract: wall time is **observability output, never
simulation input** — it is accumulated in the profiler only, outside sim
state, and nothing in the engine branches on it, so replay digests are
bit-identical with profiling on or off.  Event *counts* per site are
themselves deterministic and safe to assert on in tests; wall times are
not and must stay out of digests (:meth:`deterministic_snapshot` strips
them).
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Callable

from repro.sim.engine import PeriodicTask

_PERIODIC_FIRE = PeriodicTask._fire


def callback_site(callback: Callable[[], None]) -> str:
    """Stable site name of a scheduled callback.

    Functions, bound methods, and lambdas carry ``__module__`` /
    ``__qualname__``; ``functools.partial`` is unwrapped to the function
    it wraps, and a periodic firing to its task's callback; other callable
    objects fall back to their type.
    """
    while isinstance(callback, functools.partial):
        callback = callback.func
    func = getattr(callback, "__func__", callback)
    if func is _PERIODIC_FIRE:
        return callback_site(callback.__self__._callback)
    qualname = getattr(func, "__qualname__", None)
    module = getattr(func, "__module__", None)
    if qualname is None:
        qualname = type(callback).__name__
        module = type(callback).__module__
    return f"{module}.{qualname}"


@dataclass(slots=True)
class SiteProfile:
    """Accumulated cost of one callback site."""

    site: str
    events: int = 0
    wall_ns: int = 0

    @property
    def mean_wall_ns(self) -> float:
        """Average host cost of one event at this site."""
        return self.wall_ns / self.events if self.events else 0.0


class SimProfiler:
    """Per-callback-site event and wall-time accounting."""

    def __init__(self) -> None:
        self.sites: dict[str, SiteProfile] = {}
        self.events_total = 0
        self.wall_total_ns = 0

    def run(self, callback: Callable[[], None]) -> None:
        """Execute one event under timing (called from the engine loop)."""
        start = time.perf_counter_ns()  # detlint: disable=DET001 measured, never fed back
        try:
            callback()
        finally:
            elapsed = time.perf_counter_ns() - start  # detlint: disable=DET001 measured, never fed back
            site = callback_site(callback)
            profile = self.sites.get(site)
            if profile is None:
                profile = self.sites[site] = SiteProfile(site)
            profile.events += 1
            profile.wall_ns += elapsed
            self.events_total += 1
            self.wall_total_ns += elapsed

    # -- reporting ------------------------------------------------------------

    def report(self, top: int = 0) -> list[SiteProfile]:
        """Sites by wall time, heaviest first (``top`` 0 = all).

        Ties (possible for sites never actually timed apart) break on the
        site name so the report order is reproducible.
        """
        ordered = sorted(self.sites.values(),
                         key=lambda s: (-s.wall_ns, -s.events, s.site))
        return ordered[:top] if top else ordered

    def deterministic_snapshot(self) -> dict[str, int]:
        """site -> events popped, with all wall times stripped.

        This is the digest-safe view: event attribution is a pure function
        of the schedule, wall time is not.
        """
        return {site: p.events for site, p in sorted(self.sites.items())}

    def render(self, top: int = 20) -> str:
        """Fixed-width profile table for the CLI / dashboards."""
        lines = [f"sim profile: {self.events_total} events, "
                 f"{self.wall_total_ns / 1e6:.1f} ms host wall time"]
        rows = self.report(top)
        if not rows:
            lines.append("  (no events profiled)")
            return "\n".join(lines)
        width = max(len(r.site) for r in rows)
        lines.append(f"  {'site':<{width}}  {'events':>9}  "
                     f"{'wall ms':>9}  {'ns/event':>9}  share")
        for row in rows:
            share = (row.wall_ns / self.wall_total_ns
                     if self.wall_total_ns else 0.0)
            lines.append(
                f"  {row.site:<{width}}  {row.events:>9}  "
                f"{row.wall_ns / 1e6:>9.2f}  {row.mean_wall_ns:>9.0f}  "
                f"{share:>5.1%}")
        return "\n".join(lines)
