"""Tests for result and time-series serialization."""

import json

import pytest

from repro.core.results import RunResult, StageStats
from repro.simnet.trace import TimeSeries


def make_result():
    result = RunResult(app_name="ser-app")
    result.execution_time = 12.5
    stats = StageStats("s1", host_name="h1")
    stats.items_in = 10
    stats.items_out = 5
    stats.items_dropped = 2
    stats.bytes_in = 80.0
    stats.latencies = [0.1, 0.3]
    series = TimeSeries("p")
    series.record(0.0, 0.5)
    series.record(1.0, 0.6)
    stats.parameter_history["p"] = series
    stats.load_history = TimeSeries("d")
    stats.load_history.record(0.0, -3.0)
    stats.final_value = {"answer": [1, 2]}
    result.stages["s1"] = stats
    result.events.log(1.0, "load-exception", stage="s1", exception_kind="overload")
    return result


class TestTimeSeriesSerialization:
    def test_round_trip(self):
        series = TimeSeries("x")
        series.record(0.0, 1.0)
        series.record(2.0, 3.0)
        restored = TimeSeries.from_dict(series.to_dict())
        assert list(restored) == list(series)
        assert restored.name == "x"

    def test_empty_round_trip(self):
        restored = TimeSeries.from_dict(TimeSeries("e").to_dict())
        assert len(restored) == 0

    def test_json_compatible(self):
        series = TimeSeries("x")
        series.record(1.0, 2.0)
        assert json.loads(json.dumps(series.to_dict()))["values"] == [2.0]


class TestRunResultSerialization:
    def test_full_dict_round_trips_through_json(self):
        result = make_result()
        data = json.loads(json.dumps(result.to_dict()))
        assert data["app_name"] == "ser-app"
        assert data["execution_time"] == 12.5
        stage = data["stages"]["s1"]
        assert stage["items_in"] == 10
        assert stage["items_dropped"] == 2
        assert stage["final_value"] == {"answer": [1, 2]}
        assert stage["parameter_history"]["p"]["values"] == [0.5, 0.6]
        assert stage["load_history"]["values"] == [-3.0]
        assert stage["latency_mean"] == pytest.approx(0.2)
        assert data["events"][0]["kind"] == "load-exception"

    def test_compact_form_drops_series(self):
        data = make_result().to_dict(include_series=False)
        stage = data["stages"]["s1"]
        assert "parameter_history" not in stage
        assert "latencies" not in stage
        assert stage["latency_mean"] == pytest.approx(0.2)

    def test_real_run_serializes(self):
        """A genuine comp-steer run must be JSON-serializable end to end."""
        from repro.experiments.common import run_comp_steer

        run = run_comp_steer(analysis_ms_per_byte=1.0, duration_seconds=20.0)
        payload = json.dumps(run.result.to_dict())
        assert "sampling-rate" in payload

    def test_repr_does_not_grow_with_the_run(self):
        """``repr`` is what logs, tracebacks and asyncio's task repr call."""
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        latency = registry.histogram("stage.s1.latency")
        queue = registry.series("stage.s1.queue_len")
        for i in range(100_000):
            latency.observe(i * 1e-6)
        for i in range(1_000):
            queue.record(float(i), float(i % 7))
        result = RunResult(app_name="big", metrics=registry)
        result.stages["s1"] = StageStats.from_registry(registry, "s1")
        for i in range(1_000):
            result.events.log(float(i), "load-exception", stage="s1")
        assert len(result.stages["s1"].latencies) == 100_000
        assert len(repr(result)) < 10_000
        assert "stage_name='s1'" in repr(result)
