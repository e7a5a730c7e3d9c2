"""The stage kernel in isolation: routing, context rules, the sampling tick.

Also holds the one-definition guard: the kernel exists so these pieces
live once, and an AST scan of ``src/repro`` keeps a private copy from
growing back inside a driver.
"""

import ast
import fnmatch
from pathlib import Path

import pytest

import repro
from repro.core.adaptation.policy import AdaptationPolicy
from repro.core.adaptation.protocol import LoadException, LoadExceptionKind
from repro.core.api import ProcessorError, StreamProcessor
from repro.core.kernel import (
    EdgeSpec,
    StageCore,
    adaptation_tick,
    build_route_units,
    route_indices,
    run_setup,
)
from repro.obs.registry import MetricsRegistry


class _Counter:
    def __init__(self):
        self.value = 0

    def inc(self):
        self.value += 1


class _Group:
    """Owner = payload modulo the active count (a stand-in partitioner)."""

    def __init__(self, active):
        self.active = active

    def owner(self, payload):
        return payload % self.active


def _routes(units, payload, stream, groups=None):
    return list(route_indices(units, groups or {}, payload, stream))


class TestRouteUnits:
    def test_solo_accepts_concrete_and_declared_name(self):
        units, names = build_route_units([EdgeSpec("t#1"), EdgeSpec("plain")])
        assert [u.group for u in units] == [None, None]
        assert units[0].accepts == {"t#1", "t"}
        assert units[1].accepts == {"plain"}
        assert names == {"t#1", "t", "plain"}
        assert _routes(units, 0, "t") == [0]
        assert _routes(units, 0, "t#1") == [0]
        assert _routes(units, 0, "plain") == [1]

    def test_full_family_partitions_and_counts(self):
        counters = [_Counter(), _Counter()]
        units, names = build_route_units(
            [EdgeSpec(f"t#{i}", "g", i, 2, counters[i]) for i in range(2)]
        )
        assert len(units) == 1 and units[0].group == "g"
        assert units[0].edges == [0, 1]
        assert names == {"t", "t#0", "t#1"}
        groups = {"g": _Group(2)}
        assert _routes(units, 3, None, groups) == [1]
        assert _routes(units, 4, "t", groups) == [0]
        assert [c.value for c in counters] == [1, 1]

    def test_explicit_replica_name_overrides_partitioner(self):
        units, _ = build_route_units(
            [EdgeSpec(f"t#{i}", "g", i, 2, _Counter()) for i in range(2)]
        )
        assert _routes(units, 0, "t#1", {"g": _Group(2)}) == [1]

    def test_partial_family_falls_back_to_solo(self):
        units, _ = build_route_units(
            [EdgeSpec("t#0", "g", 0, 3), EdgeSpec("t#2", "g", 2, 3)]
        )
        assert [(u.group, u.edges) for u in units] == [(None, [0]), (None, [1])]
        # Broadcast reaches both; the declared name addresses both.
        assert _routes(units, 0, None) == [0, 1]
        assert _routes(units, 0, "t") == [0, 1]
        assert _routes(units, 0, "t#2") == [1]

    def test_sharded_to_sharded_names(self):
        # Replica 1 of the source group fans out to both downstream slots.
        units, names = build_route_units(
            [EdgeSpec(f"u#1-{j}", "down", j, 2, _Counter()) for j in range(2)]
        )
        assert len(units) == 1
        assert units[0].named == {"u#1-0": 0, "u#1-1": 1}
        assert "u" in names
        assert _routes(units, 5, "u", {"down": _Group(2)}) == [1]

    def test_broadcast_and_unnamed_edge(self):
        units, names = build_route_units(
            [EdgeSpec(None), EdgeSpec("a"), EdgeSpec(None, "g", 0, 1)]
        )
        # An unnamed edge is solo even toward a replica, and is reachable
        # only by broadcast.
        assert [u.group for u in units] == [None, None, None]
        assert names == {"a"}
        assert _routes(units, 0, None) == [0, 1, 2]
        assert _routes(units, 0, "a") == [1]

    def test_units_keep_declared_edge_order(self):
        specs = [
            EdgeSpec("t#0", "g", 0, 2, _Counter()),
            EdgeSpec("side"),
            EdgeSpec("t#1", "g", 1, 2, _Counter()),
        ]
        units, _ = build_route_units(specs)
        assert [u.edges for u in units] == [[0, 2], [1]]


class _Queue:
    capacity = 10

    def __init__(self, length=0):
        self.current_length = length
        self.recent_average = float(length)


class _Declares(StreamProcessor):
    def setup(self, context):
        self.param = context.specify_parameter("rate", 0.5, 0.0, 1.0, 0.1, -1)

    def on_item(self, payload, context):
        pass


class _Error(Exception):
    pass


def _stage(processor=None, queue=None, policy=None, clock=None):
    return StageCore(
        "s", processor or _Declares(), {}, queue or _Queue(),
        policy or AdaptationPolicy(), MetricsRegistry(), clock or (lambda: 0.0),
    )


class TestStageContext:
    def test_parameter_only_inside_setup(self):
        stage = _stage()
        with pytest.raises(ProcessorError, match="must be called in setup"):
            stage.context.specify_parameter("late", 0.5, 0.0, 1.0, 0.1, 1)

    def test_setup_declares_and_publishes(self):
        stage = _stage()
        run_setup(stage, _Error)
        assert stage.context.get_suggested_value("rate") == 0.5
        assert "rate" in stage.controllers
        assert "adapt.s.param.rate" in stage.registry.names("adapt.s.param.")

    def test_declared_twice_rejected(self):
        class Twice(_Declares):
            def setup(self, context):
                super().setup(context)
                super().setup(context)

        with pytest.raises(ProcessorError, match="declared twice"):
            run_setup(_stage(Twice()), _Error)

    def test_restoring_rebinds_the_live_parameter(self):
        stage = _stage()
        run_setup(stage, _Error)
        live = stage.parameters["rate"]
        live.set_value(0.8, 1.0)
        stage.processor = _Declares()
        run_setup(stage, _Error, restoring=True)
        assert stage.processor.param is live
        assert stage.context.get_suggested_value("rate") == 0.8

    def test_unknown_parameter_and_stream_and_negative_size(self):
        stage = _stage()
        stage.route_units, stage.stream_names = build_route_units([EdgeSpec("t#0")])
        ctx = stage.context
        with pytest.raises(ProcessorError, match="unknown parameter"):
            ctx.get_suggested_value("ghost")
        with pytest.raises(ProcessorError, match="unknown stream"):
            ctx.emit(1, stream="ghost")
        with pytest.raises(ProcessorError, match="size"):
            ctx.emit(1, size=-1.0)
        ctx.emit(1, stream="t")
        assert ctx.pending == [(1, 8.0, "t")]

    def test_setup_emission_rejected_and_earlier_pending_kept(self):
        class Emits(StreamProcessor):
            def setup(self, context):
                context.emit("premature")

            def on_item(self, payload, context):
                pass

        stage = _stage(Emits())
        stage.context.pending.append(("kept", 8.0, None))
        with pytest.raises(_Error, match="emitted during setup"):
            run_setup(stage, _Error)
        assert stage.context.pending == [("kept", 8.0, None)]

    def test_now_is_the_injected_clock(self):
        times = iter([1.5, 2.5])
        stage = _stage(clock=lambda: next(times))
        assert stage.context.now == 1.5
        assert stage.context.now == 2.5


class _RecordingController:
    def __init__(self):
        self.calls = []

    def adjust(self, score, t1, t2, now):
        self.calls.append((t1, t2, now))
        return 0.25


class TestAdaptationTick:
    def _saturated(self, exceptions_enabled):
        now = [0.0]
        policy = AdaptationPolicy(alpha=0.1, exceptions_enabled=exceptions_enabled)
        stage = _stage(queue=_Queue(10), policy=policy, clock=lambda: now[0])
        reported = []
        for _ in range(5):
            now[0] += 1.0
            adaptation_tick(stage, reported.append)
        return stage, reported

    def test_exception_reported_when_enabled(self):
        stage, reported = self._saturated(True)
        assert reported and reported[0].kind is LoadExceptionKind.OVERLOAD
        assert stage.registry.value("stage.s.exceptions_reported") == len(reported)
        assert stage.metrics.queue_len.values == [10.0] * 5

    def test_exception_suppressed_when_disabled(self):
        stage, reported = self._saturated(False)
        assert reported == []
        assert stage.registry.value("stage.s.exceptions_reported") == 0

    def test_controllers_run_every_adjust_every_with_drained_counts(self):
        now = [0.0]
        stage = _stage(policy=AdaptationPolicy(adjust_every=3), clock=lambda: now[0])
        controller = _RecordingController()
        stage.controllers["p"] = controller
        over = LoadException(LoadExceptionKind.OVERLOAD, "down", 0.0, 1.0)
        under = LoadException(LoadExceptionKind.UNDERLOAD, "down", 0.0, -1.0)
        adjustments = []
        for tick in range(1, 7):
            now[0] = float(tick)
            stage.receive_exception(over)
            if tick == 5:
                stage.receive_exception(under)
            adjustments.append(adaptation_tick(stage, lambda exc: None))
        assert controller.calls == [(3, 0, 3.0), (3, 1, 6.0)]
        assert adjustments == [[], [], [("p", 0.25)], [], [], [("p", 0.25)]]
        assert stage.registry.value("stage.s.exceptions_received") == 7


# -- one definition ----------------------------------------------------------

#: Names that may be defined only in ``core/kernel.py``.
_KERNEL_ONLY = ("*RouteUnit", "*build_route_units", "*route_indices", "*next_flush_timeout")
#: StageContext subclasses allowed outside the kernel: only the
#: unit-test fake that predates it.  (The threaded runtime's locked
#: ``get_suggested_value`` is bound inside ``KernelStageContext``
#: itself, so no driver needs a subclass.)
_ALLOWED_CONTEXT_SUBCLASSES = {("core/api.py", "RecordingContext")}


def test_stage_kernel_is_defined_once():
    root = Path(repro.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        if relative == "core/kernel.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if any(fnmatch.fnmatchcase(node.name, pattern) for pattern in _KERNEL_ONLY):
                offenders.append(f"{relative}:{node.lineno} defines {node.name}")
            if isinstance(node, ast.ClassDef) and (relative, node.name) not in (
                _ALLOWED_CONTEXT_SUBCLASSES
            ):
                bases = [getattr(b, "attr", getattr(b, "id", "")) for b in node.bases]
                if any(base.endswith("StageContext") for base in bases):
                    offenders.append(f"{relative}:{node.lineno} subclasses StageContext")
    assert offenders == []
