"""The loop-owned stage counters hold exact counts on every runtime.

``stage.{stage}.items_in``, ``bytes_in``, ``items_out``, ``bytes_out``
and ``busy_seconds`` are written by the stage's own loop only, with a
plain add (docs/observability.md, "Loop-owned counters").  These runs
pin them to the counts the pipeline's shape implies, and their exported
values to floats, as locked counters exported them.  The networked case
(a stage moved between two workers mid-run) is in
``tests/net/test_migration.py``.
"""

import json

from repro.core.api import StreamProcessor
from repro.core.runtime_sim import SourceBinding
from repro.core.runtime_threads import ThreadedRuntime
from repro.obs.export import export_jsonl
from repro.simnet.hosts import CpuCostModel
from tests.core.test_runtime_sim import make_runtime

LOOP_OWNED = ("items_in", "bytes_in", "items_out", "bytes_out", "busy_seconds")
#: A quarter of a second (simulated) or 2**-20 s (threaded, at a time
#: scale of 2**-10) per item: every sum of them is exact.
TICK = 0.25


class Halve(StreamProcessor):
    """Forwards every item at 4 bytes, for ``TICK`` seconds of work each."""

    cost_model = CpuCostModel(per_item=TICK)

    def on_item(self, payload, context):
        context.emit(payload, size=4.0)


class Pass(Halve):
    """:class:`Halve` under a free cost model."""

    cost_model = CpuCostModel()


class Sink(StreamProcessor):
    cost_model = CpuCostModel()

    def on_item(self, payload, context):
        pass


def counters(metrics, stage):
    values = {name: metrics.to_dict()[f"stage.{stage}.{name}"]["value"] for name in LOOP_OWNED}
    assert all(type(value) is float for value in values.values()), values
    return values


def test_simulated_counts_are_exact_and_export_as_floats(tmp_path):
    _env, _net, _dep, runtime = make_runtime(
        [("halve", Halve, None), ("sink", Sink, None)], [("halve", "sink")]
    )
    runtime.bind_source(SourceBinding("s", "halve", list(range(40)), item_size=8.0))
    result = runtime.run()
    assert counters(result.metrics, "halve") == {
        "items_in": 40.0, "bytes_in": 320.0, "items_out": 40.0, "bytes_out": 160.0,
        "busy_seconds": 40 * TICK,
    }
    assert counters(result.metrics, "sink") == {
        "items_in": 40.0, "bytes_in": 160.0, "items_out": 0.0, "bytes_out": 0.0,
        "busy_seconds": 0.0,
    }
    path = tmp_path / "run.jsonl"
    export_jsonl(result, str(path))
    exported = {
        record["name"]: record["value"]
        for record in map(json.loads, path.read_text().splitlines())
        if record["type"] == "metric" and record["kind"] == "counter"
    }
    assert exported["stage.halve.busy_seconds"] == 10.0
    assert all(type(exported[f"stage.sink.{name}"]) is float for name in LOOP_OWNED)


def test_threaded_fan_in_counts_are_exact():
    """Two stages feed one sink, each on its own thread: the sink's
    counters take both inputs, each sender's its own."""
    runtime = ThreadedRuntime(adaptation_enabled=False, time_scale=2.0 ** -10)
    runtime.add_stage("halve", Halve())
    runtime.add_stage("pass", Pass())
    runtime.add_stage("sink", Sink())
    runtime.connect("halve", "sink")
    runtime.connect("pass", "sink")
    runtime.bind_source("a", "halve", list(range(50)), item_size=8.0)
    runtime.bind_source("b", "pass", list(range(70)), item_size=8.0)
    result = runtime.run(timeout=60.0)
    assert counters(result.metrics, "halve") == {
        "items_in": 50.0, "bytes_in": 400.0, "items_out": 50.0, "bytes_out": 200.0,
        "busy_seconds": 50 * TICK * 2.0 ** -10,
    }
    assert counters(result.metrics, "pass") == {
        "items_in": 70.0, "bytes_in": 560.0, "items_out": 70.0, "bytes_out": 280.0,
        "busy_seconds": 0.0,
    }
    assert counters(result.metrics, "sink") == {
        "items_in": 120.0, "bytes_in": 480.0, "items_out": 0.0, "bytes_out": 0.0,
        "busy_seconds": 0.0,
    }
