"""Unit tests for time series, event logs, and stat summaries."""

import pytest

from repro.simnet.trace import EventLog, StatSummary, TimeSeries


class TestStatSummary:
    def test_empty(self):
        s = StatSummary.of([])
        assert s.count == 0 and s.mean == 0.0

    def test_basic_stats(self):
        s = StatSummary.of([1.0, 2.0, 3.0])
        assert s.count == 3
        assert s.mean == pytest.approx(2.0)
        assert s.minimum == 1.0 and s.maximum == 3.0
        assert s.std == pytest.approx((2.0 / 3.0) ** 0.5)

    def test_single_value(self):
        s = StatSummary.of([5.0])
        assert s.std == 0.0 and s.mean == 5.0


class TestTimeSeries:
    def test_record_and_iterate(self):
        ts = TimeSeries("x")
        ts.record(0.0, 1.0)
        ts.record(1.0, 2.0)
        assert list(ts) == [(0.0, 1.0), (1.0, 2.0)]
        assert len(ts) == 2

    def test_time_must_not_go_backwards(self):
        ts = TimeSeries()
        ts.record(5.0, 1.0)
        with pytest.raises(ValueError):
            ts.record(4.0, 2.0)

    def test_equal_times_allowed(self):
        ts = TimeSeries()
        ts.record(1.0, 1.0)
        ts.record(1.0, 2.0)
        assert len(ts) == 2

    def test_last(self):
        ts = TimeSeries()
        with pytest.raises(IndexError):
            ts.last()
        ts.record(1.0, 9.0)
        assert ts.last() == (1.0, 9.0)

    def test_tail_and_tail_mean(self):
        ts = TimeSeries()
        for i in range(8):
            ts.record(float(i), float(i))
        assert ts.tail(0.25) == [6.0, 7.0]
        assert ts.tail_mean(0.25) == pytest.approx(6.5)

    def test_tail_fraction_validation(self):
        ts = TimeSeries()
        with pytest.raises(ValueError):
            ts.tail(0.0)
        with pytest.raises(ValueError):
            ts.tail(1.5)

    def test_tail_mean_empty_raises(self):
        with pytest.raises(ValueError):
            TimeSeries().tail_mean()

    def test_converged_flat_tail(self):
        ts = TimeSeries()
        for i in range(20):
            ts.record(float(i), 0.5 if i > 5 else float(i))
        assert ts.converged(fraction=0.5, tolerance=0.05)

    def test_not_converged_with_trend(self):
        ts = TimeSeries()
        for i in range(20):
            ts.record(float(i), float(i))
        assert not ts.converged(fraction=0.5, tolerance=0.05)

    def test_converged_needs_samples(self):
        ts = TimeSeries()
        ts.record(0.0, 1.0)
        assert not ts.converged()

    def test_converged_near_zero_uses_absolute_tolerance(self):
        ts = TimeSeries()
        for i in range(20):
            ts.record(float(i), 1e-12 * (i % 2))
        assert ts.converged(fraction=0.5, tolerance=0.05)

    def test_downsample(self):
        ts = TimeSeries("big")
        for i in range(1000):
            ts.record(float(i), float(i))
        small = ts.downsample(10)
        assert len(small) <= 11
        assert small.values[0] == 0.0

    def test_downsample_short_series_kept_whole(self):
        ts = TimeSeries()
        ts.record(0.0, 1.0)
        assert list(ts.downsample(100)) == [(0.0, 1.0)]

    def test_downsample_validation(self):
        with pytest.raises(ValueError):
            TimeSeries().downsample(0)

    def test_summary(self):
        ts = TimeSeries()
        ts.record(0.0, 2.0)
        ts.record(1.0, 4.0)
        assert ts.summary().mean == pytest.approx(3.0)


class TestEventLog:
    def test_log_and_query(self):
        log = EventLog()
        log.log(1.0, "overload", stage="s1")
        log.log(2.0, "underload", stage="s2")
        log.log(3.0, "overload", stage="s1")
        assert len(log) == 3
        assert log.count("overload") == 2
        assert log.first("underload") == (2.0, {"stage": "s2"})

    def test_first(self):
        log = EventLog()
        assert log.first("missing") is None
        log.log(5.0, "x", a=1)
        assert log.first("x") == (5.0, {"a": 1})

    def test_clear(self):
        log = EventLog()
        log.log(0.0, "x")
        log.clear()
        assert len(log) == 0
