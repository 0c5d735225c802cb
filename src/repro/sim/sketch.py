"""Mergeable quantile sketch with deterministic, byte-stable merges.

:class:`QuantileSketch` replaces unbounded per-window sample retention in
the sharded control plane (DESIGN.md §11).  It is a DDSketch-style
log-bucketed histogram over a *fixed* bucket universe:

* values map to integer keys ``k = ceil(log_gamma(v))`` with
  ``gamma = (1 + a) / (1 - a)`` for relative accuracy ``a``, clamped to a
  fixed key range covering ~1 microsecond .. ~1000 seconds in the
  nanosecond units the SLA trackers use;
* the sketch stores only occupied buckets (sparse ``{key: count}``), so
  memory is bounded by the key-range width (~1.7k buckets at a = 1%)
  regardless of sample count;
* a quantile query walks the cumulative counts and returns the bucket's
  log-midpoint, which is within relative error ``a`` of the exact
  nearest-rank sample for any in-range value;
* ``merge`` is a bucket-wise integer sum plus min/max/count folds — all
  commutative and associative, so merging shard sketches in *any* order
  yields bit-identical state (the property ``repro.fleet.merge`` relies
  on for scorecards, and :class:`RootAnalyzer` for cross-pod SLA fusion).

``min``/``max``/``count`` are exact; ``mean`` is reconstructed from the
buckets (same error bound) so that merged state stays order-independent —
a float sum accumulated in merge order would not be.

The query surface mirrors :class:`~repro.sim.stats.PercentileTracker`
(empty sketches answer ``None``), so SLA/aggregation call sites switch
between exact trackers and sketches via a factory with no churn.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Optional

# Fixed trackable value range (nanosecond-scale metrics).  Values below
# the floor (including zero and negatives) collapse into the lowest
# bucket; values above the ceiling into the highest.  Exact min/max are
# kept separately, so range-edge quantiles stay exact.
MIN_TRACKABLE = 1e-3
MAX_TRACKABLE = 1e12


class QuantileSketch:
    """Fixed-memory percentile estimator with order-independent merge."""

    def __init__(self, relative_accuracy: float = 0.01) -> None:
        if not 0.0 < relative_accuracy < 1.0:
            raise ValueError(
                f"relative accuracy must be in (0, 1): {relative_accuracy}")
        self.relative_accuracy = relative_accuracy
        self._gamma = (1.0 + relative_accuracy) / (1.0 - relative_accuracy)
        self._log_gamma = math.log(self._gamma)
        self._min_key = math.ceil(math.log(MIN_TRACKABLE) / self._log_gamma)
        self._max_key = math.ceil(math.log(MAX_TRACKABLE) / self._log_gamma)
        self._buckets: dict[int, int] = {}
        self._count = 0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    # -- ingestion --------------------------------------------------------------

    def _key(self, value: float) -> int:
        if value <= MIN_TRACKABLE:
            return self._min_key
        key = math.ceil(math.log(value) / self._log_gamma)
        return min(max(key, self._min_key), self._max_key)

    def _value(self, key: int) -> float:
        # Log-midpoint of bucket ``key``: 2 * gamma^key / (gamma + 1).
        return 2.0 * math.exp(key * self._log_gamma) / (self._gamma + 1.0)

    def add(self, value: float) -> None:
        """Record one sample."""
        value = float(value)
        key = self._key(value)
        self._buckets[key] = self._buckets.get(key, 0) + 1
        self._count += 1
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value

    def extend(self, values: Iterable[float]) -> None:
        """Record many samples: :meth:`add` per value, as one loop over
        locals (a window's worth arrives at once, batch by batch)."""
        buckets = self._buckets
        log_gamma = self._log_gamma
        min_key, max_key = self._min_key, self._max_key
        log, ceil = math.log, math.ceil
        count, low, high = self._count, self._min, self._max
        try:
            for value in values:
                value = float(value)
                if value <= MIN_TRACKABLE:
                    key = min_key
                else:
                    key = ceil(log(value) / log_gamma)
                    if key < min_key:
                        key = min_key
                    elif key > max_key:
                        key = max_key
                buckets[key] = buckets.get(key, 0) + 1
                count += 1
                if low is None or value < low:
                    low = value
                if high is None or value > high:
                    high = value
        finally:    # a value that cannot be keyed leaves the rest recorded
            self._count, self._min, self._max = count, low, high

    def clear(self) -> None:
        """Drop all samples (start of a new analysis window)."""
        self._buckets.clear()
        self._count = 0
        self._min = None
        self._max = None

    def __len__(self) -> int:
        return self._count

    # -- queries ----------------------------------------------------------------

    def _clamp(self, estimate: float) -> float:
        assert self._min is not None and self._max is not None
        return min(max(estimate, self._min), self._max)

    def percentile(self, pct: float) -> Optional[float]:
        """The ``pct``-th percentile estimate (None when empty).

        Matches :meth:`PercentileTracker.percentile` nearest-rank
        semantics to within the configured relative accuracy for values
        inside the trackable range; out-of-range ``pct`` raises.
        """
        if not 0.0 <= pct <= 100.0:
            raise ValueError(f"percentile out of range: {pct}")
        if self._count == 0:
            return None
        if pct == 0.0:
            return self._min
        rank = math.ceil(pct / 100.0 * self._count)
        seen = 0
        for key in sorted(self._buckets):
            seen += self._buckets[key]
            if seen >= rank:
                return self._clamp(self._value(key))
        return self._max  # unreachable, but keeps the checker honest

    def p50(self) -> Optional[float]:
        """Median estimate."""
        return self.percentile(50)

    def p99(self) -> Optional[float]:
        """99th percentile estimate."""
        return self.percentile(99)

    def p999(self) -> Optional[float]:
        """99.9th percentile estimate (the paper's P999)."""
        return self.percentile(99.9)

    def mean(self) -> Optional[float]:
        """Mean estimate, reconstructed from bucket midpoints.

        Not an exact running sum: exactness would cost merge-order
        independence (float addition does not commute bit-for-bit).
        """
        if self._count == 0:
            return None
        total = 0.0
        for key in sorted(self._buckets):
            total += self._buckets[key] * self._value(key)
        return self._clamp(total / self._count)

    def min(self) -> Optional[float]:
        """Smallest sample (exact)."""
        return self._min

    def max(self) -> Optional[float]:
        """Largest sample (exact)."""
        return self._max

    def summary(self) -> Optional[dict[str, float]]:
        """P50/P90/P99/P999 plus mean/min/max; None when empty."""
        if self._count == 0:
            return None
        return {
            "count": float(self._count),
            "mean": self.mean(),
            "min": self._min,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
            "p999": self.percentile(99.9),
            "max": self._max,
        }

    # -- merge / wire form -------------------------------------------------------

    def merge(self, other: "QuantileSketch") -> None:
        """Fold ``other`` into this sketch (commutative, associative)."""
        if other.relative_accuracy != self.relative_accuracy:
            raise ValueError(
                "cannot merge sketches with different accuracies: "
                f"{self.relative_accuracy} vs {other.relative_accuracy}")
        for key, count in other._buckets.items():
            self._buckets[key] = self._buckets.get(key, 0) + count
        self._count += other._count
        if other._min is not None:
            self._min = (other._min if self._min is None
                         else min(self._min, other._min))
        if other._max is not None:
            self._max = (other._max if self._max is None
                         else max(self._max, other._max))

    def state(self) -> dict[str, Any]:
        """Canonical plain-data form: ships over the management network,
        digests stably, and round-trips through :meth:`from_state`.

        Buckets are a sorted ``(key, count)`` tuple, so two sketches with
        the same samples — regardless of add/merge order — produce
        byte-identical state.
        """
        return {
            "relative_accuracy": self.relative_accuracy,
            "count": self._count,
            "min": self._min,
            "max": self._max,
            "buckets": tuple(sorted(self._buckets.items())),
        }

    @classmethod
    def from_state(cls, state: dict[str, Any]) -> "QuantileSketch":
        """Rebuild a sketch from :meth:`state` output."""
        sketch = cls(state["relative_accuracy"])
        sketch._count = state["count"]
        sketch._min = state["min"]
        sketch._max = state["max"]
        sketch._buckets = {int(k): int(c) for k, c in state["buckets"]}
        return sketch

    def memory_bytes(self) -> int:
        """Deterministic footprint estimate: fixed header + per-bucket
        dict-entry cost.  Bounded by the key-range width, never by the
        sample count."""
        return 128 + 64 * len(self._buckets)
