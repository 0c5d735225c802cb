"""Unit tests for percentile tracking and time series."""

import math
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.sim.stats import PercentileTracker, RateMeter, TimeSeries


class TestPercentileTracker:
    def test_empty_returns_none(self):
        t = PercentileTracker()
        assert t.percentile(50) is None
        assert t.p50() is None
        assert t.mean() is None
        assert t.min() is None
        assert t.max() is None
        assert t.summary() is None

    def test_out_of_range_raises_even_when_empty(self):
        with pytest.raises(ValueError):
            PercentileTracker().percentile(101)

    def test_memory_bytes_grows_with_samples(self):
        t = PercentileTracker()
        empty = t.memory_bytes()
        t.extend(float(i) for i in range(1000))
        assert t.memory_bytes() >= empty + 1000 * 8

    def test_single_sample_everywhere(self):
        t = PercentileTracker()
        t.add(42.0)
        assert t.p50() == 42.0
        assert t.p99() == 42.0
        assert t.p999() == 42.0

    def test_median_of_known_data(self):
        t = PercentileTracker()
        t.extend(float(i) for i in range(1, 101))
        assert t.p50() == 50.0
        assert t.p99() == 99.0
        assert t.percentile(100) == 100.0
        assert t.percentile(0) == 1.0

    def test_p999_picks_tail(self):
        t = PercentileTracker()
        t.extend([1.0] * 999)
        t.add(1000.0)
        assert t.p999() == 1.0 or t.p999() == 1000.0  # nearest-rank boundary
        assert t.max() == 1000.0

    def test_out_of_range_percentile(self):
        t = PercentileTracker()
        t.add(1.0)
        with pytest.raises(ValueError):
            t.percentile(101)
        with pytest.raises(ValueError):
            t.percentile(-1)

    def test_interleaved_add_and_query(self):
        t = PercentileTracker()
        t.extend([3.0, 1.0])
        assert t.min() == 1.0
        t.add(0.5)
        assert t.min() == 0.5  # re-sorts after new sample

    def test_clear(self):
        t = PercentileTracker()
        t.add(1.0)
        t.clear()
        assert len(t) == 0

    def test_summary_keys(self):
        t = PercentileTracker()
        t.extend([1.0, 2.0, 3.0])
        summary = t.summary()
        assert set(summary) == {"count", "mean", "min", "p50", "p90", "p99",
                                "p999", "max"}
        assert summary["count"] == 3.0
        assert summary["mean"] == 2.0

    @given(st.lists(st.floats(min_value=-1e9, max_value=1e9),
                    min_size=1, max_size=300))
    def test_percentiles_are_monotone(self, samples):
        t = PercentileTracker()
        t.extend(samples)
        values = [t.percentile(p) for p in (0, 25, 50, 75, 90, 99, 100)]
        assert values == sorted(values)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6),
                    min_size=1, max_size=200))
    def test_percentile_is_an_actual_sample(self, samples):
        t = PercentileTracker()
        t.extend(samples)
        for p in (1, 50, 99):
            assert t.percentile(p) in samples


class ListTracker:
    """The list-of-floats store :class:`PercentileTracker` replaced, fed
    the ``float()`` of every value the way its callers used to: the
    oracle the 8-byte array store must equal answer for answer."""

    def __init__(self):
        self._samples = []
        self._sorted = True

    def __len__(self):
        return len(self._samples)

    def add(self, value):
        self._samples.append(float(value))
        self._sorted = False

    def extend(self, values):
        self._samples.extend(float(v) for v in values)
        self._sorted = False

    def clear(self):
        self._samples.clear()
        self._sorted = True

    def samples(self):
        return list(self._samples)

    def _sort(self):
        if not self._sorted:
            self._samples.sort()
            self._sorted = True

    def percentile(self, pct):
        if not self._samples:
            return None
        self._sort()
        if pct == 0.0:
            return self._samples[0]
        rank = math.ceil(pct / 100.0 * len(self._samples))
        return self._samples[max(0, rank - 1)]

    def mean(self):
        if not self._samples:
            return None
        return sum(self._samples) / len(self._samples)

    def min(self):
        return self.percentile(0.0)

    def max(self):
        return self.percentile(100.0)

    def summary(self):
        if not self._samples:
            return None
        return {"count": float(len(self._samples)), "mean": self.mean(),
                "min": self.min(), "p50": self.percentile(50),
                "p90": self.percentile(90), "p99": self.percentile(99),
                "p999": self.percentile(99.9), "max": self.max()}


SAMPLE = st.one_of(
    st.integers(-(2 ** 63), 2 ** 63),
    st.floats(allow_nan=False, allow_infinity=False,
              min_value=-1e15, max_value=1e15))
OPERATION = st.one_of(
    st.tuples(st.just("add"), SAMPLE),
    st.tuples(st.just("extend"), st.lists(SAMPLE, max_size=20)),
    st.tuples(st.just("percentile"), st.floats(0.0, 100.0)),
    st.tuples(st.sampled_from(
        ("mean", "min", "max", "summary", "clear", "samples", "__len__"))))
QUERIES = (("mean",), ("percentile", 50.0), ("mean",), ("summary",),
           ("samples",), ("__len__",))


def _apply(tracker, operation):
    name, *args = operation
    return repr(getattr(tracker, name)(*args))   # repr: -0.0 is not 0.0


class TestArrayStoreAgainstListOracle:
    @given(st.lists(OPERATION, max_size=60))
    def test_every_answer_equals_the_list_trackers(self, operations):
        tracker, oracle = PercentileTracker(), ListTracker()
        for operation in [*operations, *QUERIES]:
            assert _apply(tracker, operation) == _apply(oracle, operation), \
                operation
        restored = pickle.loads(pickle.dumps(tracker))
        for operation in (("add", 7), *QUERIES):
            assert _apply(restored, operation) == _apply(oracle, operation), \
                operation

    def test_a_sample_costs_eight_bytes(self):
        t = PercentileTracker()
        empty = t.memory_bytes()
        t.extend(range(1000))
        assert t.memory_bytes() == empty + 8 * 1000


class TestTimeSeries:
    def test_record_and_len(self):
        s = TimeSeries("x")
        s.record(0, 1.0)
        s.record(10, 2.0)
        assert len(s) == 2

    def test_time_must_not_go_backwards(self):
        s = TimeSeries("x")
        s.record(10, 1.0)
        with pytest.raises(ValueError):
            s.record(5, 2.0)

    def test_equal_times_allowed(self):
        s = TimeSeries("x")
        s.record(10, 1.0)
        s.record(10, 2.0)
        assert s.values == [1.0, 2.0]

    def test_window(self):
        s = TimeSeries("x")
        for t in range(0, 100, 10):
            s.record(t, float(t))
        w = s.window(20, 50)
        assert w.times == [20, 30, 40]

    def test_value_at_step_interpolation(self):
        s = TimeSeries("x")
        s.record(0, 1.0)
        s.record(100, 2.0)
        assert s.value_at(50) == 1.0
        assert s.value_at(100) == 2.0
        assert s.value_at(500) == 2.0

    def test_value_at_before_first_point(self):
        s = TimeSeries("x")
        s.record(100, 1.0)
        with pytest.raises(ValueError):
            s.value_at(50)

    def test_aggregates(self):
        s = TimeSeries("x")
        for v in (3.0, 1.0, 2.0):
            s.record(0, v)
        assert s.mean() == 2.0
        assert s.max() == 3.0
        assert s.min() == 1.0

    def test_empty_aggregates_raise(self):
        with pytest.raises(ValueError):
            TimeSeries("x").mean()


class TestRateMeter:
    def test_rate_computation(self):
        m = RateMeter()
        m.hit(10)
        assert m.take_rate(1_000_000_000) == 10.0

    def test_take_rate_resets(self):
        m = RateMeter()
        m.hit(5)
        m.take_rate(1_000_000_000)
        assert m.take_rate(1_000_000_000) == 0.0

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            RateMeter().take_rate(0)
