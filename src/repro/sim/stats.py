"""Statistics containers shared by the Analyzer and the experiment drivers.

Two shapes cover everything the paper reports:

* :class:`PercentileTracker` — every sample of one distribution, kept
  exactly as an 8-byte double, answering P50..P999 queries per analysis
  window (the SLA distributions in §5).  It is not bounded: the
  Analyzer's :class:`~repro.core.sla.SlaHistory` keeps up to 100,000
  windows of them.  :class:`~repro.sim.sketch.QuantileSketch` is the
  fixed-memory, mergeable alternative.
* :class:`TimeSeries` — (time, value) pairs for the figure-style plots.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from struct import pack
from typing import Iterable, Optional


class PercentileTracker:
    """Collects float samples and answers percentile queries exactly.

    Keeps every sample as a double in one ``array('d')``, 8 bytes each
    (a list of floats costs 32); ints go in as the doubles ``float()``
    would make of them.  Sorts lazily on query, replacing the store with
    its sorted copy, so :meth:`mean` sums in the order queries left.
    Every query on an empty tracker answers ``None`` — the one
    empty-sample contract shared with
    :class:`~repro.sim.sketch.QuantileSketch` and
    ``TierAggregate.rtt_p99`` — so call sites need no ``len()`` guards.
    """

    def __init__(self) -> None:
        self._samples = array("d")
        self._sorted = True

    def __len__(self) -> int:
        return len(self._samples)

    def add(self, value: float) -> None:
        """Record one sample."""
        self._samples.append(value)
        self._sorted = False

    def extend(self, values: Iterable[float]) -> None:
        """Record many samples.

        Packed in one call: an array converts item by item through a
        format parse, several times slower than ``struct`` converting
        the whole batch (the doubles are the same).
        """
        if not isinstance(values, list):
            values = list(values)
        self._samples.frombytes(pack(f"{len(values)}d", *values))
        self._sorted = False

    def clear(self) -> None:
        """Drop all samples (start of a new analysis window)."""
        self._samples = array("d")
        self._sorted = True

    def samples(self) -> list[float]:
        """A copy of the retained samples (sketch conversion, tests)."""
        return list(self._samples)

    def _ensure_sorted(self) -> None:
        if not self._sorted:
            self._samples = array("d", sorted(self._samples))
            self._sorted = True

    def percentile(self, pct: float) -> Optional[float]:
        """The ``pct``-th percentile (nearest-rank, pct in [0, 100]).

        ``None`` when no samples were recorded; out-of-range ``pct``
        raises regardless.
        """
        if not 0.0 <= pct <= 100.0:
            raise ValueError(f"percentile out of range: {pct}")
        if not self._samples:
            return None
        self._ensure_sorted()
        if pct == 0.0:
            return self._samples[0]
        rank = math.ceil(pct / 100.0 * len(self._samples))
        return self._samples[max(0, rank - 1)]

    def p50(self) -> Optional[float]:
        """Median."""
        return self.percentile(50)

    def p99(self) -> Optional[float]:
        """99th percentile."""
        return self.percentile(99)

    def p999(self) -> Optional[float]:
        """99.9th percentile (the paper's P999)."""
        return self.percentile(99.9)

    def mean(self) -> Optional[float]:
        """Arithmetic mean (None when empty)."""
        if not self._samples:
            return None
        return sum(self._samples) / len(self._samples)

    def max(self) -> Optional[float]:
        """Largest sample (None when empty)."""
        if not self._samples:
            return None
        self._ensure_sorted()
        return self._samples[-1]

    def min(self) -> Optional[float]:
        """Smallest sample (None when empty)."""
        if not self._samples:
            return None
        self._ensure_sorted()
        return self._samples[0]

    def summary(self) -> Optional[dict[str, float]]:
        """P50/P90/P99/P999 plus mean/min/max; None when empty."""
        if not self._samples:
            return None
        return {
            "count": float(len(self._samples)),
            "mean": self.mean(),
            "min": self.min(),
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
            "p999": self.percentile(99.9),
            "max": self.max(),
        }

    def memory_bytes(self) -> int:
        """Deterministic footprint estimate: one double per retained
        sample.  Grows without bound with the sample count — the cost
        :class:`~repro.sim.sketch.QuantileSketch` exists to avoid."""
        return 64 + 8 * len(self._samples)


@dataclass
class TimeSeries:
    """A named (time_ns, value) series for figure reproduction."""

    name: str
    times: list[int] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.times)

    def record(self, time_ns: int, value: float) -> None:
        """Append one point; times must be non-decreasing."""
        if self.times and time_ns < self.times[-1]:
            raise ValueError(
                f"time went backwards in series {self.name!r}: "
                f"{time_ns} < {self.times[-1]}")
        self.times.append(time_ns)
        self.values.append(value)

    def window(self, start_ns: int, end_ns: int) -> "TimeSeries":
        """Sub-series with start <= time < end."""
        out = TimeSeries(self.name)
        for t, v in zip(self.times, self.values):
            if start_ns <= t < end_ns:
                out.record(t, v)
        return out

    def mean(self) -> float:
        """Mean of the values."""
        if not self.values:
            raise ValueError(f"series {self.name!r} is empty")
        return sum(self.values) / len(self.values)

    def max(self) -> float:
        """Max of the values."""
        if not self.values:
            raise ValueError(f"series {self.name!r} is empty")
        return max(self.values)

    def min(self) -> float:
        """Min of the values."""
        if not self.values:
            raise ValueError(f"series {self.name!r} is empty")
        return min(self.values)

    def value_at(self, time_ns: int) -> float:
        """Most recent value at or before ``time_ns`` (step interpolation)."""
        if not self.times:
            raise ValueError(f"series {self.name!r} is empty")
        candidate: Optional[float] = None
        for t, v in zip(self.times, self.values):
            if t <= time_ns:
                candidate = v
            else:
                break
        if candidate is None:
            raise ValueError(
                f"no point at or before {time_ns} in series {self.name!r}")
        return candidate


class RateMeter:
    """Counts events and reports a rate over an interval (drops/sec etc.)."""

    def __init__(self) -> None:
        self.count = 0

    def hit(self, n: int = 1) -> None:
        """Record ``n`` events."""
        self.count += n

    def take_rate(self, interval_ns: int) -> float:
        """Events per second over ``interval_ns``; resets the counter."""
        if interval_ns <= 0:
            raise ValueError(f"interval must be positive, got {interval_ns}")
        rate = self.count * 1e9 / interval_ns
        self.count = 0
        return rate
