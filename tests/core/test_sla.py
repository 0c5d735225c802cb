"""Unit tests for SLA windows, reports, and history."""

import pytest
from hypothesis import given, strategies as st

from repro.core.sla import (MIN_SAMPLES_FOR_AGGREGATION, SlaHistory,
                            SlaReport, SlaWindow)
from repro.sim.sketch import QuantileSketch
from repro.sim.stats import PercentileTracker


def window(**kwargs):
    defaults = dict(scope="cluster", window_start_ns=0,
                    window_end_ns=20_000_000_000)
    defaults.update(kwargs)
    return SlaWindow(**defaults)


class TestSlaWindow:
    def test_drop_rates(self):
        w = window()
        w.probes_total = 100
        w.timeouts_rnic = 5
        w.timeouts_switch = 10
        w.timeouts_non_network = 3
        assert w.rnic_drop_rate == 0.05
        assert w.switch_drop_rate == 0.10
        assert w.drop_rate == 0.15  # non-network excluded

    def test_zero_probes_zero_rates(self):
        w = window()
        assert w.drop_rate == 0.0
        assert w.rnic_drop_rate == 0.0

    def test_reliability_guard(self):
        """§7.4: tiny samples must be flagged unreliable."""
        w = window()
        w.probes_total = MIN_SAMPLES_FOR_AGGREGATION - 1
        assert not w.reliable
        w.probes_total = MIN_SAMPLES_FOR_AGGREGATION
        assert w.reliable

    def test_two_server_illusion(self):
        """The §7.4 example: 1 of 2 servers fails -> 50% 'ToR drop rate'
        that must not be trusted."""
        w = window()
        w.probes_total = 2
        w.timeouts_rnic = 1
        assert w.rnic_drop_rate == 0.5
        assert not w.reliable  # the defence against the illusion

    def test_percentiles_none_when_empty(self):
        w = window()
        assert w.rtt_percentiles() is None
        assert w.processing_percentiles() is None

    def test_percentiles_populated(self):
        w = window()
        w.rtt.extend([1.0, 2.0, 3.0])
        assert w.rtt_percentiles()["p50"] == 2.0


class TestSlaReport:
    def test_scopes_auto_created(self):
        report = SlaReport(0, 20_000_000_000)
        assert report.cluster.scope == "cluster"
        assert report.service.scope == "service"


class TestSlaHistory:
    def _report(self, start, drop=0.0, rtt=None):
        report = SlaReport(start, start + 20)
        report.cluster.probes_total = 100
        report.cluster.timeouts_switch = round(drop * 100)
        if rtt is not None:
            report.cluster.rtt.extend(rtt)
        return report

    def test_series_drop_rate(self):
        history = SlaHistory()
        history.append(self._report(0, drop=0.0))
        history.append(self._report(20, drop=0.1))
        series = history.series("cluster", "drop_rate")
        assert series == [(0, 0.0), (20, pytest.approx(0.1))]

    def test_series_skips_windows_without_samples(self):
        history = SlaHistory()
        history.append(self._report(0))                    # no rtt samples
        history.append(self._report(20, rtt=[5.0, 7.0]))
        series = history.series("cluster", "rtt_p50")
        assert len(series) == 1
        assert series[0][0] == 20

    def test_series_unknown_metric(self):
        history = SlaHistory()
        history.append(self._report(0))
        with pytest.raises(ValueError):
            history.series("cluster", "bogus")

    def test_latest(self):
        history = SlaHistory()
        assert history.latest() is None
        history.append(self._report(0))
        history.append(self._report(20))
        assert history.latest().window_start_ns == 20

    def test_bounded(self):
        history = SlaHistory(max_windows=3)
        for i in range(5):
            history.append(self._report(i * 20))
        assert len(history.reports) == 3
        assert history.reports[0].window_start_ns == 40


# -- the merge Analyzer.conclude rests on ------------------------------------

_COUNTS = ("probes_total", "probes_ok", "timeouts_rnic", "timeouts_switch",
           "timeouts_non_network")
# One part of a window: five counts + RTT samples per scope.
_SCOPE = st.tuples(st.tuples(*[st.integers(0, 10_000)] * 5),
                   st.lists(st.floats(1_000.0, 1e9), max_size=30))
_PART = st.tuples(_SCOPE, _SCOPE)


def _report(part, tracker, start=0):
    report = SlaReport(start, 20_000_000_000, tracker=tracker)
    for scope, (counts, samples) in zip((report.cluster, report.service),
                                        part):
        for name, value in zip(_COUNTS, counts):
            setattr(scope, name, value)
        scope.rtt.extend(samples)
        scope.processing.extend(samples[::2])
    return report


def _numbers(report):
    """Counts + percentiles (not the exact tracker's float-sum mean, which
    depends on whether a query has sorted its samples yet)."""
    def percentiles(summary):
        return summary and {k: v for k, v in summary.items() if k != "mean"}
    return [([getattr(scope, name) for name in _COUNTS],
             percentiles(scope.rtt_percentiles()),
             percentiles(scope.processing_percentiles()))
            for scope in (report.cluster, report.service)]


class TestSlaReportMerge:
    @pytest.mark.parametrize("tracker", [PercentileTracker, QuantileSketch])
    @given(part=_PART)
    def test_one_part_is_the_report(self, tracker, part):
        report = _report(part, tracker)
        before = _numbers(report)
        merged = SlaReport.merged([report])
        assert merged is report
        assert _numbers(merged) == before
        assert type(merged.cluster.rtt) is tracker

    @pytest.mark.parametrize("tracker", [PercentileTracker, QuantileSketch])
    @given(parts=st.lists(_PART, min_size=2, max_size=5), seed=st.randoms())
    def test_count_exact_and_order_independent(self, tracker, parts, seed):
        reports = [_report(part, tracker, start=i)
                   for i, part in enumerate(parts)]
        merged = SlaReport.merged(reports)
        for i, scope in enumerate((merged.cluster, merged.service)):
            for j, name in enumerate(_COUNTS):
                assert getattr(scope, name) == sum(p[i][0][j] for p in parts)
            assert len(scope.rtt) == sum(len(p[i][1]) for p in parts)
        assert merged.window_start_ns == 0
        shuffled = list(reports)
        seed.shuffle(shuffled)
        assert _numbers(SlaReport.merged(shuffled)) == _numbers(merged)

    @given(parts=st.lists(_PART, min_size=2, max_size=5))
    def test_merged_percentiles_within_sketch_accuracy(self, parts):
        """Exact parts fold into sketches: p50 stays within 1 % of the
        exact nearest-rank answer over the union."""
        merged = SlaReport.merged(
            [_report(part, PercentileTracker) for part in parts])
        exact = PercentileTracker()
        for part in parts:
            exact.extend(part[0][1])
        if len(exact):
            assert merged.cluster.rtt.p50() == pytest.approx(
                exact.p50(), rel=0.0101)
        else:
            assert merged.cluster.rtt_percentiles() is None
