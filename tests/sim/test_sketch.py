"""QuantileSketch: error bounds, mergeability, wire-form stability."""

import math
import random

import pytest
from hypothesis import given, strategies as st

from repro.sim.sketch import MAX_TRACKABLE, MIN_TRACKABLE, QuantileSketch
from repro.sim.stats import PercentileTracker

ACCURACY = 0.01
QUANTILES = (1, 10, 25, 50, 75, 90, 99, 99.9)


def _adversarial_distributions() -> dict[str, list[float]]:
    """Deterministic sample sets spanning the sketch's weak spots."""
    rng = random.Random(1234)
    out: dict[str, list[float]] = {}
    # Heavy tail over nine decades: buckets far apart, ranks clustered.
    out["heavy_tail"] = [10.0 ** rng.uniform(0, 9) for _ in range(5000)]
    # Narrow spike: nearly all mass lands in one or two buckets.
    out["narrow_spike"] = [100_000.0 + rng.gauss(0, 5.0)
                           for _ in range(5000)]
    # Bimodal with a 1e6x separation between the modes.
    out["bimodal"] = ([rng.uniform(1.0, 2.0) for _ in range(2500)]
                      + [rng.uniform(1e6, 2e6) for _ in range(2500)])
    # Sorted ramp: worst case for anything order-sensitive.
    out["ramp"] = [float(i) for i in range(1, 4001)]
    # Duplicates dominating one rank boundary.
    out["plateau"] = [42.0] * 3000 + [rng.uniform(43.0, 1e6)
                                      for _ in range(1000)]
    return out


class TestErrorBounds:
    @pytest.mark.parametrize("name,samples",
                             sorted(_adversarial_distributions().items()))
    def test_relative_error_within_accuracy(self, name, samples):
        exact = PercentileTracker()
        exact.extend(samples)
        sketch = QuantileSketch(ACCURACY)
        sketch.extend(samples)
        for q in QUANTILES:
            truth = exact.percentile(q)
            estimate = sketch.percentile(q)
            rel = abs(estimate - truth) / truth
            assert rel <= ACCURACY + 1e-9, (
                f"{name} p{q}: exact={truth} sketch={estimate} rel={rel}")

    def test_min_max_count_exact(self):
        samples = [3.5, 1e7, 0.5, 77.0]
        sketch = QuantileSketch(ACCURACY)
        sketch.extend(samples)
        assert sketch.min() == 0.5
        assert sketch.max() == 1e7
        assert len(sketch) == 4

    def test_out_of_range_values_clamp_not_crash(self):
        sketch = QuantileSketch(ACCURACY)
        sketch.extend([0.0, -5.0, MIN_TRACKABLE / 10, MAX_TRACKABLE * 10])
        # Estimates clamp to the exact [min, max] envelope.
        assert sketch.percentile(50) >= sketch.min()
        assert sketch.percentile(99.9) <= sketch.max()

    def test_memory_bounded_regardless_of_samples(self):
        sketch = QuantileSketch(ACCURACY)
        rng = random.Random(7)
        sketch.extend(rng.uniform(1.0, 1e9) for _ in range(20_000))
        before = sketch.memory_bytes()
        sketch.extend(rng.uniform(1.0, 1e9) for _ in range(20_000))
        # An exact tracker would have doubled; the sketch stays ~flat
        # (a few percent of new buckets fill in, nothing proportional).
        assert sketch.memory_bytes() <= before * 1.25
        exact = PercentileTracker()
        exact.extend([1.0] * 40_000)
        assert sketch.memory_bytes() < exact.memory_bytes()


class TestMerge:
    def _shards(self, n: int) -> list[QuantileSketch]:
        rng = random.Random(99)
        shards = []
        for _ in range(n):
            s = QuantileSketch(ACCURACY)
            s.extend(10.0 ** rng.uniform(0, 8) for _ in range(1000))
            shards.append(s)
        return shards

    def test_merge_order_independent_and_byte_stable(self):
        shards = self._shards(5)
        orders = [list(range(5)), [4, 3, 2, 1, 0], [2, 0, 4, 1, 3]]
        states = []
        for order in orders:
            merged = QuantileSketch(ACCURACY)
            for i in order:
                merged.merge(QuantileSketch.from_state(shards[i].state()))
            states.append(merged.state())
        assert states[0] == states[1] == states[2]

    def test_merge_matches_single_sketch(self):
        shards = self._shards(4)
        merged = QuantileSketch(ACCURACY)
        for s in shards:
            merged.merge(s)
        # A single sketch fed every sample produces identical state.
        rng = random.Random(99)
        single = QuantileSketch(ACCURACY)
        single.extend(10.0 ** rng.uniform(0, 8)
                      for _ in range(4 * 1000))
        assert merged.state() == single.state()

    def test_merge_associative_pairings(self):
        a, b, c = self._shards(3)

        def fold(*sketches):
            out = QuantileSketch(ACCURACY)
            for s in sketches:
                out.merge(s)
            return out

        left = fold(fold(a, b), c)
        right = fold(a, fold(b, c))
        assert left.state() == right.state()

    def test_merge_empty_is_identity(self):
        s = QuantileSketch(ACCURACY)
        s.extend([1.0, 2.0, 3.0])
        before = s.state()
        s.merge(QuantileSketch(ACCURACY))
        assert s.state() == before

    def test_accuracy_mismatch_raises(self):
        with pytest.raises(ValueError, match="accuracies"):
            QuantileSketch(0.01).merge(QuantileSketch(0.02))


class TestExtend:
    """``extend`` is ``add`` per value written as one loop; the two must
    leave the same sketch, whatever was in it and whatever comes."""

    values = st.lists(st.one_of(
        st.floats(min_value=-10.0, max_value=MAX_TRACKABLE * 10,
                  allow_nan=False),
        st.integers(min_value=0, max_value=10 ** 13)))

    @given(before=values, xs=values)
    def test_extend_equals_the_add_loop(self, before, xs):
        looped, extended = QuantileSketch(ACCURACY), QuantileSketch(ACCURACY)
        for sketch in (looped, extended):
            for value in before:
                sketch.add(value)
        for value in xs:
            looped.add(value)
        extended.extend(iter(xs))
        assert extended.state() == looped.state()
        assert len(extended) == len(looped) == len(before) + len(xs)

    def test_a_value_without_a_bucket_leaves_the_rest_recorded(self):
        sketch = QuantileSketch(ACCURACY)
        with pytest.raises(ValueError):
            sketch.extend([5.0, 7.0, float("nan"), 9.0])
        assert (len(sketch), sketch.min(), sketch.max()) == (2, 5.0, 7.0)
        assert sum(count for _, count in sketch.state()["buckets"]) == 2


class TestWireForm:
    def test_state_round_trip(self):
        s = QuantileSketch(ACCURACY)
        s.extend([0.1, 5.0, 123.0, 9e6])
        clone = QuantileSketch.from_state(s.state())
        assert clone.state() == s.state()
        assert clone.summary() == s.summary()

    def test_state_independent_of_add_order(self):
        samples = [float(v) for v in (7, 300, 1e6, 2, 7, 44)]
        fwd = QuantileSketch(ACCURACY)
        fwd.extend(samples)
        rev = QuantileSketch(ACCURACY)
        rev.extend(reversed(samples))
        assert fwd.state() == rev.state()


class TestEmptyContract:
    def test_queries_return_none(self):
        s = QuantileSketch(ACCURACY)
        assert s.percentile(50) is None
        assert s.p50() is None and s.p99() is None and s.p999() is None
        assert s.mean() is None
        assert s.min() is None and s.max() is None
        assert s.summary() is None

    def test_out_of_range_pct_raises_even_when_empty(self):
        s = QuantileSketch(ACCURACY)
        with pytest.raises(ValueError):
            s.percentile(101)
        with pytest.raises(ValueError):
            s.percentile(-1)

    def test_invalid_accuracy_rejected(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                QuantileSketch(bad)

    def test_clear_resets(self):
        s = QuantileSketch(ACCURACY)
        s.extend([1.0, 2.0])
        s.clear()
        assert len(s) == 0
        assert s.summary() is None


class TestGeometry:
    def test_bucket_value_within_gamma_band(self):
        """Every in-range value's bucket midpoint is within a of it."""
        sketch = QuantileSketch(ACCURACY)
        rng = random.Random(5)
        for _ in range(2000):
            v = 10.0 ** rng.uniform(-2, 11)
            key = sketch._key(v)
            mid = sketch._value(key)
            assert math.isclose(mid, v, rel_tol=ACCURACY + 1e-9) \
                or abs(mid - v) / v <= ACCURACY + 1e-9
