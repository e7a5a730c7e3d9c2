"""MetricsRegistry and metric-kind behavior tests."""

import json
import sys
import threading

import pytest

from repro.obs.registry import MetricsRegistry
from repro.simnet.trace import TimeSeries, percentile


class TestCounter:
    def test_accumulates(self):
        reg = MetricsRegistry()
        counter = reg.counter("stage.s.items_in")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("stage.s.items_in")
        with pytest.raises(ValueError, match="negative"):
            counter.inc(-1)


class TestGauge:
    def test_set_and_read(self):
        gauge = MetricsRegistry().gauge("run.execution_time")
        gauge.set(4.2)
        assert gauge.value == 4.2

    def test_callback_gauge_reads_live(self):
        state = {"busy": 1.0}
        gauge = MetricsRegistry().gauge(
            "link.l.tx_busy", fn=lambda: state["busy"]
        )
        assert gauge.value == 1.0
        state["busy"] = 7.0
        assert gauge.value == 7.0

    def test_set_on_callback_gauge_raises(self):
        gauge = MetricsRegistry().gauge("link.l.tx_busy", fn=lambda: 0.0)
        with pytest.raises(ValueError, match="callback-backed"):
            gauge.set(1.0)


class TestHistogram:
    def test_percentiles(self):
        hist = MetricsRegistry().histogram("stage.s.latency")
        for v in (1.0, 2.0, 3.0, 4.0):
            hist.observe(v)
        assert hist.count == 4
        assert hist.percentiles()[50.0] == pytest.approx(2.5)

    def test_empty_histogram_zero_fills(self):
        hist = MetricsRegistry().histogram("stage.s.latency")
        assert hist.percentiles() == {50.0: 0.0, 95.0: 0.0, 99.0: 0.0}

    def test_samples_are_float64_whatever_was_observed(self):
        hist = MetricsRegistry().histogram("stage.s.latency")
        for value in (1, True, 2.5):
            hist.observe(value)
        assert hist.samples == [1.0, 1.0, 2.5]
        assert all(type(v) is float for v in hist.samples)
        assert hist.to_dict() == {"kind": "histogram", "samples": [1.0, 1.0, 2.5]}
        with pytest.raises(TypeError):
            hist.observe("3")
        assert hist.count == 3

    def test_wire_form_round_trips(self):
        hist = MetricsRegistry().histogram("stage.s.latency")
        for value in (0.1, 1e-308, 1 / 3):
            hist.observe(value)
        other = MetricsRegistry().histogram("stage.s.latency")
        other.observe(7.0)
        other.extend_wire(json.loads(json.dumps(hist.to_wire())))
        assert other.samples == [7.0, 0.1, 1e-308, 1 / 3]
        other.observe(8.0)  # observe still reaches the same array
        assert other.count == 5
        empty = MetricsRegistry().histogram("stage.s.latency")
        assert empty.to_wire() == {"kind": "histogram", "f8": ""}
        other.extend_wire(empty.to_wire())
        assert other.count == 5

    def test_concurrent_observers_lose_no_sample(self):
        """``observe`` takes no lock: it is one C-level append."""
        hist = MetricsRegistry().histogram("stage.s.latency")
        per_thread, workers = 20_000, 8

        def observe_many(base):
            for i in range(per_thread):
                hist.observe(base + i)

        threads = [
            threading.Thread(target=observe_many, args=(k * per_thread,))
            for k in range(workers)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(hist.samples) == [float(i) for i in range(per_thread * workers)]


class TestSeries:
    def test_adopts_existing_timeseries(self):
        ts = TimeSeries("d")
        ts.record(0.0, -1.0)
        reg = MetricsRegistry()
        metric = reg.series("adapt.s.d_tilde", ts)
        ts.record(1.0, -2.0)
        assert metric.values == [-1.0, -2.0]

    def test_adopting_a_different_series_raises(self):
        reg = MetricsRegistry()
        reg.series("adapt.s.d_tilde", TimeSeries("a"))
        with pytest.raises(ValueError, match="different series"):
            reg.series("adapt.s.d_tilde", TimeSeries("b"))


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("stage.s.items_in") is reg.counter("stage.s.items_in")

    def test_kind_conflict_raises(self):
        # The catalog maps each template to exactly one kind, so asking
        # for a cataloged name under the wrong kind fails validation.
        reg = MetricsRegistry()
        reg.gauge("run.execution_time")
        with pytest.raises(ValueError, match="cataloged as a gauge"):
            reg.counter("run.execution_time")

    def test_uncataloged_name_rejected(self):
        with pytest.raises(ValueError, match="no template"):
            MetricsRegistry().counter("stage.s.bogus_metric")

    def test_value_with_default(self):
        reg = MetricsRegistry()
        assert reg.value("stage.s.items_in", 0.0) == 0.0
        reg.counter("stage.s.items_in").inc(3)
        assert reg.value("stage.s.items_in") == 3.0

    def test_names_prefix_filter(self):
        reg = MetricsRegistry()
        reg.counter("stage.a.items_in")
        reg.counter("stage.b.items_in")
        reg.gauge("run.execution_time")
        assert reg.names("stage.a.") == ["stage.a.items_in"]
        assert len(reg.names()) == 3

    def test_round_trip(self):
        reg = MetricsRegistry()
        reg.counter("stage.s.items_in").inc(5)
        reg.gauge("run.execution_time").set(1.5)
        hist = reg.histogram("stage.s.latency")
        hist.observe(0.25)
        ts = TimeSeries("q")
        ts.record(0.0, 2.0)
        reg.series("stage.s.queue_len", ts)
        restored = MetricsRegistry.from_dict(reg.to_dict())
        assert restored.to_dict() == reg.to_dict()


class TestPercentileContract:
    """The unified empty-input contract (one behavior, everywhere)."""

    def test_empty_raises_without_default(self):
        with pytest.raises(ValueError, match="empty"):
            percentile([], 50.0)

    def test_empty_returns_default_when_given(self):
        assert percentile([], 50.0, default=0.0) == 0.0
        assert percentile([], 99.0, default=-1.0) == -1.0

    def test_default_ignored_when_samples_exist(self):
        assert percentile([5.0], 50.0, default=0.0) == 5.0

    def test_stage_stats_zero_fill_uses_the_same_path(self):
        from repro.core.results import StageStats

        stats = StageStats("s")
        assert stats.latency_percentiles() == {50.0: 0.0, 95.0: 0.0, 99.0: 0.0}
