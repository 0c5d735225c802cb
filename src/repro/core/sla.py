"""SLA tracking (paper §4.3.4 / §5, and the Figure 5 series).

Per 20-second analysis window, for the whole cluster network and for the
service network separately, the Analyzer reports:

* RNIC drop rate and switch-network drop rate (timeouts attributed per
  §4.3.1-4.3.2 over total probes),
* P50..P999 of network RTT,
* P50..P999 of end-host processing delay (prober + responder samples).

§7.4's aggregation caveat is honoured: aggregates below
``MIN_SAMPLES_FOR_AGGREGATION`` samples are marked unreliable — a service
using two servers under a ToR must not produce a "50% ToR drop rate".

Percentile storage is pluggable (DESIGN.md §11): the default
:class:`~repro.sim.stats.PercentileTracker` keeps every sample exactly,
8 bytes each, so a retained window costs 8 bytes per successful probe's
RTT and 16 per its two processing delays;
``RPingmeshConfig(sla_sketch=True)`` swaps in the fixed-memory mergeable
:class:`~repro.sim.sketch.QuantileSketch` (<= 1 % relative error).
Both answer ``None`` on empty, so the reporting surface is identical.
The Analyzer fills a window's stores as its uploads arrive and hands
them to the window's :class:`SlaReport` when it closes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

from repro.sim.sketch import QuantileSketch
from repro.sim.stats import PercentileTracker

# Below this many probes an aggregate is statistically meaningless (§7.4).
MIN_SAMPLES_FOR_AGGREGATION = 20

Tracker = Union[PercentileTracker, QuantileSketch]
TrackerFactory = Callable[[], Tracker]


def as_sketch(tracker: Tracker) -> QuantileSketch:
    """A tracker's distribution in the mergeable shape.

    Sketches pass through; an exact tracker's samples are folded into a
    fresh sketch (it keeps exactness where it lives, the merged and the
    wire form are always the sketch).
    """
    if isinstance(tracker, QuantileSketch):
        return tracker
    sketch = QuantileSketch()
    sketch.extend(tracker.samples())
    return sketch


@dataclass
class SlaWindow:
    """One scope's (cluster or service) SLA numbers for one window."""

    scope: str
    window_start_ns: int
    window_end_ns: int
    probes_total: int = 0
    probes_ok: int = 0
    timeouts_rnic: int = 0
    timeouts_switch: int = 0
    timeouts_non_network: int = 0     # host down, QPN reset, agent noise
    rtt: Tracker = field(default_factory=PercentileTracker)
    processing: Tracker = field(default_factory=PercentileTracker)

    @property
    def reliable(self) -> bool:
        """Whether the sample count supports aggregation (§7.4)."""
        return self.probes_total >= MIN_SAMPLES_FOR_AGGREGATION

    @property
    def rnic_drop_rate(self) -> float:
        """Timeouts attributed to RNIC problems / total probes."""
        return self.timeouts_rnic / self.probes_total if self.probes_total else 0.0

    @property
    def switch_drop_rate(self) -> float:
        """Timeouts attributed to switch-network problems / total probes."""
        return (self.timeouts_switch / self.probes_total
                if self.probes_total else 0.0)

    @property
    def drop_rate(self) -> float:
        """All network-attributed timeouts / total probes."""
        return ((self.timeouts_rnic + self.timeouts_switch)
                / self.probes_total if self.probes_total else 0.0)

    def rtt_percentiles(self) -> Optional[dict[str, float]]:
        """Network RTT distribution (None when no successful probes)."""
        return self.rtt.summary()

    def processing_percentiles(self) -> Optional[dict[str, float]]:
        """End-host processing delay distribution."""
        return self.processing.summary()

    def memory_bytes(self) -> int:
        """Estimated footprint of this window's percentile stores (each
        store's own estimate plus a fixed record overhead)."""
        return 256 + self.rtt.memory_bytes() + self.processing.memory_bytes()

    def merge(self, other: "SlaWindow") -> None:
        """Fold in a disjoint part of the same window (sketch stores).

        Counts are exact integer sums and the sketch merge is bucket-wise,
        so any merge order yields the same numbers.
        """
        self.probes_total += other.probes_total
        self.probes_ok += other.probes_ok
        self.timeouts_rnic += other.timeouts_rnic
        self.timeouts_switch += other.timeouts_switch
        self.timeouts_non_network += other.timeouts_non_network
        self.rtt.merge(as_sketch(other.rtt))
        self.processing.merge(as_sketch(other.processing))


@dataclass
class SlaReport:
    """Cluster + service SLA for one analysis window.

    ``tracker`` picks the percentile store for both scopes; it is consumed
    during ``__post_init__`` and not retained.
    """

    window_start_ns: int
    window_end_ns: int
    cluster: SlaWindow = field(default=None)  # type: ignore[assignment]
    service: SlaWindow = field(default=None)  # type: ignore[assignment]
    tracker: Optional[TrackerFactory] = None

    def __post_init__(self) -> None:
        make = self.tracker if self.tracker is not None else PercentileTracker
        self.tracker = None
        if self.cluster is None:
            self.cluster = SlaWindow("cluster", self.window_start_ns,
                                     self.window_end_ns,
                                     rtt=make(), processing=make())
        if self.service is None:
            self.service = SlaWindow("service", self.window_start_ns,
                                     self.window_end_ns,
                                     rtt=make(), processing=make())

    def memory_bytes(self) -> int:
        """Estimated footprint of both scopes."""
        return self.cluster.memory_bytes() + self.service.memory_bytes()

    @classmethod
    def merged(cls, parts: Sequence["SlaReport"]) -> "SlaReport":
        """One window's report from the reports of its disjoint parts.

        A single part *is* the window's report and comes back untouched,
        exact trackers included; several merge into sketch stores.
        """
        if len(parts) == 1:
            return parts[0]
        report = cls(min(p.window_start_ns for p in parts),
                     parts[0].window_end_ns, tracker=QuantileSketch)
        for part in parts:
            report.cluster.merge(part.cluster)
            report.service.merge(part.service)
        return report


class SlaHistory:
    """Rolling store of per-window reports, the source for Figure 5."""

    def __init__(self, max_windows: int = 100_000):
        self.max_windows = max_windows
        self.reports: list[SlaReport] = []

    def append(self, report: SlaReport) -> None:
        """Add one window's report."""
        self.reports.append(report)
        if len(self.reports) > self.max_windows:
            self.reports.pop(0)

    def latest(self) -> Optional[SlaReport]:
        """Most recent report, if any."""
        return self.reports[-1] if self.reports else None

    def memory_bytes(self) -> int:
        """Estimated footprint across all retained reports."""
        return 64 + sum(r.memory_bytes() for r in self.reports)

    def series(self, scope: str, metric: str) -> list[tuple[int, float]]:
        """(window_start, value) pairs for plotting.

        ``scope`` is ``cluster`` or ``service``; ``metric`` is one of
        ``drop_rate``, ``rnic_drop_rate``, ``switch_drop_rate``,
        ``rtt_p50``, ``rtt_p99``, ``processing_p50``, ``processing_p99``.
        Windows without samples for a percentile metric are skipped.
        """
        out: list[tuple[int, float]] = []
        for report in self.reports:
            window: SlaWindow = getattr(report, scope)
            value = self._metric_value(window, metric)
            if value is not None:
                out.append((report.window_start_ns, value))
        return out

    @staticmethod
    def _metric_value(window: SlaWindow, metric: str) -> Optional[float]:
        if metric in ("drop_rate", "rnic_drop_rate", "switch_drop_rate"):
            return getattr(window, metric)
        if metric.startswith("rtt_"):
            stats = window.rtt_percentiles()
            return stats[metric[len("rtt_"):]] if stats else None
        if metric.startswith("processing_"):
            stats = window.processing_percentiles()
            return stats[metric[len("processing_"):]] if stats else None
        raise ValueError(f"unknown metric: {metric}")
