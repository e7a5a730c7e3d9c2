"""The stage kernel in isolation: routing, context rules, the sampling tick,
the stage loop and the source loop.

That these pieces live once — no copy in a driver, no runtime built
outside ``repro.core.run`` — is the GA520–GA526 rows of
:data:`repro.analysis.rules.RULES`, which ``repro lint`` runs.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.adaptation.policy import AdaptationPolicy
from repro.core.adaptation.protocol import LoadException, LoadExceptionKind
from repro.core.api import ProcessorError, StreamProcessor
from repro.core.batching import BatchPolicy
from repro.core.items import EndOfStream, Item, ItemRun
from repro.core.kernel import (
    EOS,
    FLUSH,
    PUT,
    SEND,
    TAKE,
    WAIT,
    WORK,
    EdgeSpec,
    SourceBinding,
    StageCore,
    adaptation_tick,
    build_route_units,
    check_binding,
    restore_checkpoint,
    route_indices,
    run_setup,
    source_loop,
    stage_checkpoint,
    stage_loop,
    swap_processor,
)
from repro.core.options import stage_options
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import ItemTrace, TraceCollector
from repro.resilience.policy import DeadLetterQueue, ResilienceConfig
from repro.simnet.hosts import CpuCostModel
from tests.raising_source import MESSAGE, WHERES, raising_source


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
        "s", processor or _Declares(), {}, lambda capacity: queue or _Queue(),
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


# -- checkpoint, restore and the processor swap ---------------------------------


class _Tally(_Declares):
    """A parameter plus a running total as its checkpointable state."""

    def __init__(self):
        self.total = 0

    def on_item(self, payload, context):
        self.total += payload

    def snapshot(self):
        return {"total": self.total}

    def restore(self, state):
        self.total = state["total"]


def _worked_stage(now):
    """A two-input stage with every part of its state moved off its
    start: parameter, estimator, exception counts, processor, EOS."""
    stage = _stage(_Tally(), queue=_Queue(10), clock=lambda: now[0])
    stage.eos.expect()
    stage.eos.expect()
    run_setup(stage, _Error)
    stage.parameters["rate"].set_value(0.8, 1.0)
    for tick in range(3):
        now[0] = float(tick)
        adaptation_tick(stage, lambda exc: None)
    stage.receive_exception(LoadException(LoadExceptionKind.UNDERLOAD, "down", 0.0, -1.0))
    stage.processor.total = 42
    assert stage.eos.observe() is False  # one of the two inputs ended
    return stage


class TestCheckpoint:
    def test_checkpoint_records_eos_progress(self):
        """A stage that saw one of two end-of-streams checkpoints that
        progress, whoever takes the checkpoint: a resumed stage must
        not wait for an end-of-stream that already came."""
        stage = _worked_stage([0.0])
        assert stage_checkpoint(stage).eos_seen == 1

    def test_restore_is_the_inverse_of_checkpoint(self):
        now = [0.0]
        checkpoint = stage_checkpoint(_worked_stage(now))
        fresh = _stage(_Tally(), clock=lambda: now[0])
        fresh.eos.expect()
        fresh.eos.expect()
        run_setup(fresh, _Error)
        fresh.context.pending.append(("stale", 8.0, None))
        now[0] = 9.0
        restore_checkpoint(fresh, checkpoint)
        again = stage_checkpoint(fresh)
        assert again.to_dict() == {**checkpoint.to_dict(), "time": 9.0}
        assert fresh.parameters["rate"].history.last() == (9.0, 0.8)
        assert fresh.context.pending == []
        assert fresh.eos.observe() is True

    def test_no_checkpoint_restarts_eos_progress_only(self):
        stage = _worked_stage([0.0])
        estimator = stage.estimator.snapshot()
        restore_checkpoint(stage, None)
        assert stage.eos.seen == 0
        assert stage.processor.total == 42
        assert stage.estimator.snapshot() == estimator

    def test_processor_only_leaves_the_live_stage_alone(self):
        now = [0.0]
        stage = _worked_stage(now)
        checkpoint = stage_checkpoint(stage)
        stage.parameters["rate"].set_value(0.3, 5.0)
        stage.context.pending.append(("kept", 8.0, None))
        swap_processor(stage, _Tally(), _Error)
        restore_checkpoint(stage, checkpoint, processor_only=True)
        assert stage.processor.total == 42
        assert stage.parameters["rate"].value == 0.3
        assert stage.context.pending == [("kept", 8.0, None)]
        assert stage.eos.seen == 1

    def test_swap_rebinds_parameters_and_type_checks(self):
        stage = _worked_stage([0.0])
        live = stage.parameters["rate"]
        replacement = _Tally()
        swap_processor(stage, replacement, _Error)
        assert stage.processor is replacement and replacement.param is live
        with pytest.raises(_Error, match="not a StreamProcessor"):
            swap_processor(stage, object(), _Error)
        assert stage.processor is replacement

    def test_swap_rolls_back_when_setup_raises(self):
        class Broken(_Tally):
            def setup(self, context):
                raise RuntimeError("no")

        stage = _worked_stage([0.0])
        previous = stage.processor
        with pytest.raises(RuntimeError, match="no"):
            swap_processor(stage, Broken(), _Error)
        assert stage.processor is previous


# -- the stage loop under a fake interpreter -----------------------------------


class _Relay(StreamProcessor):
    """Emits every payload; raises on the payload "poison" after emitting."""

    cost_model = CpuCostModel()

    def __init__(self):
        self.flushed = 0

    def on_item(self, payload, context):
        context.emit(payload)
        if payload == "poison":
            raise ValueError("poison")

    def flush(self, context):
        self.flushed += 1


def _loop_stage(batch=None, resilience=None, inputs=1):
    stage = StageCore(
        "s", _Relay(), {}, lambda capacity: _Queue(), AdaptationPolicy(), MetricsRegistry(),
        lambda: 0.0,
        batch_default=batch,
    )
    stage.route_units, stage.stream_names = build_route_units([EdgeSpec("out")])
    stage.open_batch_buffers([0])
    stage.resilience = resilience
    stage.dead_letters = DeadLetterQueue(10)
    for _ in range(inputs):
        stage.eos.expect()
    return stage


def _drive(stage, chunks, work=0.0, **traits):
    """Answer ``stage_loop``'s effects from a script of input chunks.

    Returns every effect but TAKE, in order; stops when the script runs
    out or the loop sends end-of-stream.
    """
    loop = stage_loop(stage, {}, **traits)
    script = list(chunks)
    effects = []
    reply = None
    while True:
        effect = loop.send(reply)
        reply = None
        if effect[0] is TAKE:
            if not script:
                return effects
            reply = script.pop(0)
            continue
        effects.append(effect)
        if effect[0] is WORK:
            reply = work
        elif effect[0] is EOS:
            return effects


def _item(payload, hop=None):
    return Item(payload=payload, size=8.0, origin="in", hop=hop)


def _must_wait(cost_model, items, nbytes):
    """A ``price`` that charges nothing inline: all work is a WORK effect."""
    return None


class TestStageLoop:
    def test_multi_input_eos_completes_only_on_the_last_input(self):
        stage = _loop_stage(inputs=2)
        effects = _drive(stage, [[EndOfStream("a")], [EndOfStream("b")]])
        assert effects == [(EOS,)]
        assert stage.processor.flushed == 1
        stage = _loop_stage(inputs=2)
        assert _drive(stage, [[EndOfStream("a")]]) == []
        assert stage.processor.flushed == 0

    def test_quarantined_item_keeps_earlier_chunk_mates_emissions(self):
        stage = _loop_stage(BatchPolicy(8, 1.0), ResilienceConfig(error_policy="dead-letter"))
        _drive(stage, [[_item("a"), _item("poison"), _item("c")]])
        assert [entry[0] for entry in stage.batch_buffers[0].drain()] == ["a", "c"]
        assert stage.registry.value("fault.s.quarantined") == 1
        assert [letter.payload for letter in stage.dead_letters.letters] == ["poison"]
        assert stage.consumed == 3

    def test_poison_item_without_resilience_raises(self):
        with pytest.raises(ValueError, match="poison"):
            _drive(_loop_stage(), [[_item("poison")]])

    def test_full_buffer_yields_one_flush(self):
        stage = _loop_stage(BatchPolicy(2, 1.0))
        effects = _drive(stage, [[_item(1), _item(2), _item(3)]], deadlines=False)
        flushes = [e for e in effects if e[0] is FLUSH]
        assert [(index, [entry[0] for entry in entries]) for _, index, entries in flushes] == [
            (0, [1, 2])
        ]
        assert stage.registry.value("batch.s.batches") == 1
        assert stage.registry.value("stage.s.items_in") == 3
        assert stage.registry.value("stage.s.items_out") == 3

    def test_unbuffered_route_yields_a_send(self):
        stage = _loop_stage()
        effects = _drive(stage, [[_item(7)]])
        assert effects == [(SEND, 0, 7, 8.0, None, None)]

    def test_work_duration_lands_in_busy_seconds_and_hop(self):
        hop = ItemTrace(1, "src", 0.0).begin_hop("s", 0.0)
        stage = _loop_stage()
        effects = _drive(stage, [[_item(1, hop=hop)]], work=0.25, price=_must_wait)
        assert effects[0][0] is WORK and effects[0][2:] == (1.0, 8.0)
        assert stage.registry.value("stage.s.busy_seconds") == 0.25
        assert hop.process_t == 0.25

    def test_work_priced_inline_yields_no_work_effect(self):
        """Work ``price`` charges needs no generator round trip: no WORK
        effect, and its seconds book as if the driver had answered one."""
        hop = ItemTrace(1, "src", 0.0).begin_hop("s", 0.0)
        stage = _loop_stage()
        asked = []

        def price(cost_model, items, nbytes):
            asked.append((cost_model, items, nbytes))
            return 0.25

        effects = _drive(stage, [[_item(1, hop=hop), _item(2)]], price=price)
        assert [effect[0] for effect in effects] == [SEND, SEND]
        assert asked == [(_Relay.cost_model, 1.0, 8.0)] * 2  # asked under a free model too
        assert stage.registry.value("stage.s.busy_seconds") == 0.5
        assert hop.process_t == 0.25

    def test_free_work_without_price_is_skipped(self):
        stage = _loop_stage()
        effects = _drive(stage, [[_item(1)]], work=0.25)
        assert [effect[0] for effect in effects] == [SEND]
        assert stage.registry.value("stage.s.busy_seconds") == 0.0

    @pytest.mark.parametrize("batch", [None, BatchPolicy(2, 1.0)])
    @pytest.mark.parametrize("waits", [False, True])
    def test_a_run_is_taken_exactly_as_its_items(self, batch, waits):
        """An ``ItemRun`` chunk yields the same effects, counters and
        latency samples as the same payloads sent as ``Item`` messages;
        a poison value in it is quarantined alone.  With ``waits`` every
        unit of work is a WORK effect answered with 0.5 s, and work that
        ``price`` charges 0.5 s inline books the same with no WORK."""
        payloads = [1, 2, "poison", 3, 4]

        def outcome(chunk, price):
            stage = _loop_stage(batch, ResilienceConfig(error_policy="dead-letter"))
            effects = _drive(stage, [chunk, [EndOfStream("in")]], work=0.5, price=price)
            return (
                effects,
                {name: stage.registry.value(f"stage.s.{name}")
                 for name in ("items_in", "bytes_in", "items_out", "bytes_out", "busy_seconds")},
                stage.registry.histogram("stage.s.latency").samples,
                [letter.payload for letter in stage.dead_letters.letters],
                stage.consumed,
            )

        def run_chunk():
            return [ItemRun(payloads[:2], [8.0] * 2, 0.0, "in"),
                    ItemRun(payloads[2:], [8.0] * 3, 0.0, "in")]

        price = _must_wait if waits else None
        items, runs = outcome([_item(p) for p in payloads], price), outcome(run_chunk(), price)
        assert items == runs
        assert runs[3] == ["poison"] and runs[4] == 5
        if waits:
            inline = outcome(run_chunk(), lambda *work: 0.5)
            assert inline == ([e for e in runs[0] if e[0] is not WORK], *runs[1:])


# -- the source loop under a fake interpreter ----------------------------------


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class _ReadClock(_Clock):
    """A clock that keeps its last reading: the latest arrival's time."""

    read = 0.0

    def __call__(self):
        self.read = self.now
        return self.now


class _Arrivals:
    def __init__(self, gaps):
        self._gaps = gaps

    def gaps(self):
        return iter(self._gaps)


class _Members(_Group):
    """A shard group of ``slots`` members, ``active`` of them owning keys."""

    def __init__(self, active, slots):
        super().__init__(active)
        self.members = [f"g#{slot}" for slot in range(slots)]


def _feed(binding, group=None, drop=(), **traits):
    """Answer ``source_loop``'s effects: a WAIT advances the clock, a PUT
    of a payload in ``drop`` is answered False.  Returns every effect,
    the clock and the registry."""
    clock = _Clock()
    registry = MetricsRegistry()
    groups = {binding.target_stage: group} if group is not None else {}
    loop = source_loop(binding, groups, clock, registry, **traits)
    effects = []
    reply = None
    while True:
        try:
            effect = loop.send(reply)
        except StopIteration:
            return effects, clock, registry
        effects.append(effect)
        reply = None
        if effect[0] is WAIT:
            clock.now += effect[1]
        elif type(effect[2]) is Item and effect[2].payload in drop:
            reply = False


def _waits(effects):
    return [effect[1] for effect in effects if effect[0] is WAIT]


def _puts(effects):
    return [
        (slot, message.payload if type(message) is Item else "EOS")
        for kind, slot, message in (e for e in effects if e[0] is PUT)
    ]


class TestSourceLoop:
    def test_fixed_gap_is_rate_times_time_scale_before_each_arrival(self):
        effects, _, _ = _feed(SourceBinding("s", "a", [1, 2, 3], rate=4.0), time_scale=0.5)
        assert [effect[0] for effect in effects] == [WAIT, PUT] * 3 + [PUT]
        assert _waits(effects) == [0.125] * 3

    def test_arrival_gaps_are_scaled_and_a_zero_gap_yields_no_wait(self):
        binding = SourceBinding("s", "a", [1, 2, 3], rate=1.0, arrivals=_Arrivals([0.5, 0.0, 2.0]))
        effects, _, _ = _feed(binding, time_scale=2.0)
        assert _waits(effects) == [1.0, 4.0]
        effects, _, _ = _feed(SourceBinding("s", "a", [1, 2, 3]))
        assert _waits(effects) == []
        assert _puts(effects) == [(0, 1), (0, 2), (0, 3), (0, "EOS")]

    def test_group_routes_by_key_and_ends_every_slot_once(self):
        binding = SourceBinding("s", "g", [0, 1, 2, 3, 5])
        effects, _, registry = _feed(binding, _Members(active=2, slots=3))
        assert _puts(effects) == [
            (0, 0), (1, 1), (0, 2), (1, 3), (1, 5), (0, "EOS"), (1, "EOS"), (2, "EOS"),
        ]
        assert [registry.value(f"shard.g#{slot}.items") for slot in range(3)] == [2, 3, 0]

    def test_items_are_stamped_and_sampled_from_the_supplied_clock(self):
        binding = SourceBinding("s", "a", [1, 2, 3, 4], rate=2.0, item_size=lambda p: 10.0 * p)
        effects, _, registry = _feed(binding, tracer=TraceCollector(2))
        items = [effect[2] for effect in effects if effect[0] is PUT][:-1]
        assert [(i.created_at, i.size, i.origin) for i in items] == [
            (0.5, 10.0, "s"), (1.0, 20.0, "s"), (1.5, 30.0, "s"), (2.0, 40.0, "s"),
        ]
        assert [i.trace is not None for i in items] == [True, False, True, False]
        assert [(i.hop.stage, i.hop.enqueue_t, i.trace.created_at) for i in items[::2]] == [
            ("a", 0.5, 0.5), ("a", 1.5, 1.5),
        ]
        assert registry.value("run.traced_items") == 2

    def test_a_dropped_arrival_closes_its_hop_and_is_not_counted(self):
        binding = SourceBinding("s", "g", [0, 1])
        effects, _, registry = _feed(
            binding, _Members(active=2, slots=2), drop={1}, tracer=TraceCollector(1)
        )
        dropped = effects[1][2]
        assert dropped.payload == 1 and dropped.trace.hops == []
        assert [registry.value(f"shard.g#{slot}.items") for slot in range(2)] == [1, 0]

    def test_under_a_batch_policy_arrivals_are_put_as_runs(self):
        """No ``Item`` per arrival: a slot's arrivals go out as one
        ``ItemRun`` once it holds ``max_items``, before every gap (so no
        run waits it out past ``max_delay``), and before the slot's
        end-of-stream."""
        binding = SourceBinding(
            "s", "a", [1, 2, 3, 4, 5, 6, 7], rate=1.0, arrivals=_Arrivals([0, 0, 0, 0, 1.0, 0, 0]),
        )
        effects, _, _ = _feed(binding, batch=BatchPolicy(max_items=3, max_delay=0.5))
        puts = [effect[1:] for effect in effects if effect[0] is PUT]
        assert not any(type(message) is Item for _, message in puts)
        assert [
            (slot, list(m.values), list(m.sizes), m.created_at, m.origin)
            for slot, m in puts[:-1]
        ] == [
            (0, [1, 2, 3], [8.0] * 3, 0.0, "s"), (0, [4], [8.0], 0.0, "s"),
            (0, [5, 6, 7], [8.0] * 3, 1.0, "s"),
        ]
        assert puts[-1] == (0, EndOfStream("s"))

    @settings(max_examples=100, deadline=None)
    @given(
        gaps=st.lists(st.sampled_from([0.0, 0.0, 0.01, 0.3, 1.0]), max_size=30),
        max_items=st.integers(1, 5),
        max_delay=st.sampled_from([0.0, 0.02, 0.5, 2.0]),
        slots=st.integers(1, 3),
        blocks=st.lists(st.sampled_from([0.0, 0.0, 0.01, 0.3, 1.0]), min_size=1, max_size=8),
    )
    # Slot 1's run waits while slot 0's put blocks.
    @example(gaps=[0.0] * 4, max_items=2, max_delay=0.02, slots=2, blocks=[1.0])
    def test_no_run_is_put_later_than_max_delay_after_its_first_arrival(
        self, gaps, max_items, max_delay, slots, blocks
    ):
        """Any gap sequence, one slot or a shard group, and puts that
        block (the clock runs on while one is outstanding, for the next
        of ``blocks`` in turn): every run is put within ``max_delay`` of
        its first arrival, holds at most ``max_items``, and the runs
        carry every payload once, in order per slot.  The age is taken
        when the run's PUT is yielded, less the time the earlier puts of
        the same hand-over blocked (they go one after another): that is,
        at the loop's last clock reading."""
        payloads = list(range(len(gaps)))
        binding = SourceBinding("s", "g", payloads, rate=1.0, arrivals=_Arrivals(gaps))
        group = _Members(active=slots, slots=slots)
        clock = _ReadClock()
        loop = source_loop(
            binding, {"g": group}, clock, MetricsRegistry(),
            batch=BatchPolicy(max_items=max_items, max_delay=max_delay),
        )
        per_slot = [[] for _ in range(slots)]
        for puts, effect in enumerate(loop):
            if effect[0] is WAIT:
                clock.now += effect[1]
                continue
            if type(effect[2]) is ItemRun:
                run = effect[2]
                assert clock.read - run.created_at <= max_delay
                assert 1 <= len(run.values) <= max_items
                per_slot[effect[1]].extend(run.values)
            clock.now += blocks[puts % len(blocks)]
        assert per_slot == [[p for p in payloads if p % slots == s] for s in range(slots)]

    def test_a_plain_run_size_has_no_age_bound_and_ready_puts_at_once(self):
        """``batch`` as a plain size: runs end at that size, a gap or
        end-of-stream, or as soon as ``ready(slot)`` says the consumer
        waits — never by age."""
        clock = _Clock()

        class Payloads:
            def __iter__(self):
                for payload in range(7):
                    clock.now += 10.0  # a source that blocks between pulls
                    yield payload

        loop = source_loop(  # the consumer waits when payload 3 arrives
            SourceBinding("s", "a", Payloads()), {}, clock, MetricsRegistry(),
            batch=3, ready=lambda slot: clock.now == 40.0,
        )
        assert [list(m.values) for _, _, m in loop if type(m) is ItemRun] == [
            [0, 1, 2], [3], [4, 5, 6],
        ]

    def test_a_sampled_arrival_puts_its_slots_run_and_goes_alone(self):
        binding = SourceBinding("s", "a", [1, 2, 3, 4, 5])
        effects, _, registry = _feed(binding, batch=8, tracer=TraceCollector(3))
        puts = [message for kind, _, message in effects if kind is PUT]
        assert [
            list(m.values) if type(m) is ItemRun else m.payload if type(m) is Item else "EOS"
            for m in puts
        ] == [1, [2, 3], 4, [5], "EOS"]
        traced = [m for m in puts if type(m) is Item]
        assert [(m.hop.stage, m.trace is not None) for m in traced] == [("a", True)] * 2
        assert registry.value("run.traced_items") == 2

    def test_batched_runs_are_routed_by_key_and_counted_per_slot(self):
        """A full run hands over every slot's pending run with it."""
        binding = SourceBinding("s", "g", [0, 1, 2, 3, 4, 5])
        effects, _, registry = _feed(
            binding, _Members(active=2, slots=3), batch=BatchPolicy(max_items=2, max_delay=9.0)
        )
        assert [
            (slot, list(m.values) if type(m) is ItemRun else "EOS")
            for kind, slot, m in effects
        ] == [
            (0, [0, 2]), (1, [1]), (0, [4]), (1, [3, 5]), (0, "EOS"), (1, "EOS"), (2, "EOS"),
        ]
        assert [registry.value(f"shard.g#{slot}.items") for slot in range(3)] == [3, 3, 0]

    def test_a_put_is_answered_under_the_lock(self):
        class Lock:
            held = False

            def acquire(self):
                self.held = True

            def release(self):
                self.held = False

        lock = Lock()
        loop = source_loop(SourceBinding("s", "g", [0]), {"g": _Members(1, 1)}, _Clock(),
                           MetricsRegistry(), lock=lock)
        assert next(loop)[0] is PUT and lock.held
        assert next(loop)[2] == EndOfStream("s") and not lock.held
        # A driver whose put raised closes the loop, which lets go of the lock.
        loop = source_loop(SourceBinding("s", "g", [0]), {"g": _Members(1, 1)}, _Clock(),
                           MetricsRegistry(), lock=lock)
        next(loop)
        loop.close()
        assert not lock.held

    @pytest.mark.parametrize("where", WHERES)
    def test_a_raising_source_propagates(self, where):
        payloads, item_size = raising_source(where)
        loop = source_loop(
            SourceBinding("s", "a", payloads, item_size=item_size), {}, _Clock(),
            MetricsRegistry(),
        )
        assert [effect[2].payload for effect in (next(loop), next(loop))] == [0, 1]
        with pytest.raises(ValueError, match=MESSAGE):
            next(loop)

    def test_check_binding_rejects_an_unknown_target_and_a_bad_rate(self):
        stages = {"a": stage_options({}), "g#0": stage_options({"shard-group": "g"})}
        check_binding(SourceBinding("s", "g", []), stages, ValueError)
        with pytest.raises(ValueError, match="source 's': unknown stage 'x'"):
            check_binding(SourceBinding("s", "x", []), stages, ValueError)
        with pytest.raises(ValueError, match="rate must be > 0, got 0"):
            check_binding(SourceBinding("s", "a", [], rate=0), stages, ValueError)
