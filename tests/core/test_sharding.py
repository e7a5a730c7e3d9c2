"""Unit tests for the sharding layer (`repro.core.sharding`)."""

import pytest

from repro.core.options import stage_options
from repro.core.sharding import (
    HashPartitioner,
    RangePartitioner,
    ScalingPolicy,
    ShardScaler,
    ShardingError,
    expand_shards,
    export_keyed_state,
    extract_key,
    groups_of,
    import_keyed_state,
    logical_stream,
    parse_replica,
    partitioner_for,
    replica_name,
    shard_spec,
    stable_hash,
)
from repro.core.termination import EosTracker
from repro.grid.config import AppConfig, StageConfig, StreamConfig


# -- keys and partitioners -------------------------------------------------


def test_stable_hash_is_process_independent_and_bounded():
    # CRC-32 of the repr: a fixed value, not salted like hash().
    assert stable_hash("k3") == stable_hash("k3")
    assert 0 <= stable_hash("anything") < 2**32
    assert stable_hash(b"raw") == stable_hash(b"raw")
    assert stable_hash(("a", 1)) == stable_hash(("a", 1))


def test_extract_key_specs():
    assert extract_key(42, "payload") == 42
    assert extract_key({"k": "a"}, "field:k") == "a"
    assert extract_key((10, 20), "index:1") == 20

    class Obj:
        attr = "x"

    assert extract_key(Obj(), "field:attr") == "x"
    with pytest.raises(ShardingError):
        extract_key({"other": 1}, "field:k")
    with pytest.raises(ShardingError):
        extract_key((1,), "index:5")
    with pytest.raises(ShardingError):
        extract_key(1, "bogus:spec")


def test_hash_partitioner_covers_all_slots():
    p = HashPartitioner()
    owners = {p.select(f"k{i}", 4) for i in range(100)}
    assert owners == {0, 1, 2, 3}
    assert all(p.select(f"k{i}", 1) == 0 for i in range(10))
    with pytest.raises(ShardingError):
        p.select("k", 0)


def test_range_partitioner_boundaries_and_clamping():
    p = RangePartitioner([10.0, 20.0])
    assert p.select(5, 3) == 0
    assert p.select(10, 3) == 0  # inclusive upper bound
    assert p.select(15, 3) == 1
    assert p.select(999, 3) == 2
    # Shrinking the active set clamps instead of stranding keys.
    assert p.select(999, 2) == 1
    with pytest.raises(ShardingError):
        RangePartitioner([])
    with pytest.raises(ShardingError):
        RangePartitioner([5.0, 5.0])
    with pytest.raises(ShardingError):
        p.select("not-a-number", 3)


def test_partitioner_from_properties():
    assert isinstance(partitioner_for(stage_options({})), HashPartitioner)
    ranged = partitioner_for(
        stage_options({"shard-partitioner": "range", "shard-boundaries": "1, 2, 3"})
    )
    assert isinstance(ranged, RangePartitioner)
    assert ranged.boundaries == [1.0, 2.0, 3.0]
    with pytest.raises(ShardingError):
        partitioner_for(stage_options({"shard-partitioner": "range"}))
    with pytest.raises(ShardingError):
        partitioner_for(stage_options({"shard-partitioner": "mystery"}))


# -- names -----------------------------------------------------------------


def test_replica_names_round_trip():
    assert replica_name("relay", 2) == "relay#2"
    assert parse_replica("relay#2") == ("relay", 2)
    assert parse_replica("relay") is None
    assert logical_stream("t#1") == "t"
    assert logical_stream("u#0-1") == "u"
    assert logical_stream("t") == "t"


# -- policy and scaler -----------------------------------------------------


def test_scaling_policy_defaults_are_static():
    policy = ScalingPolicy.from_options(stage_options({}), replicas=3)
    assert (policy.min_replicas, policy.max_replicas) == (3, 3)
    assert not policy.elastic


def test_scaling_policy_elastic_bounds():
    policy = ScalingPolicy.from_options(
        stage_options({"scale-max-replicas": "4"}), replicas=1
    )
    assert (policy.min_replicas, policy.max_replicas) == (1, 4)
    assert policy.elastic
    with pytest.raises(ShardingError):
        ScalingPolicy(min_replicas=0)
    with pytest.raises(ShardingError):
        ScalingPolicy(min_replicas=3, max_replicas=2)


def test_scaler_scales_up_after_sustained_breach_only():
    # SCALE_BREACH_SAMPLES = 3, SCALE_COOLDOWN_SAMPLES = 2.
    scaler = ShardScaler(ScalingPolicy(min_replicas=1, max_replicas=3), active=1)
    assert scaler.observe(0.9) is None
    assert scaler.observe(0.9) is None
    assert scaler.observe(0.9) == 2  # third consecutive breach commits
    # Cooldown swallows the next two samples even at full occupancy.
    assert scaler.observe(1.0) is None
    assert scaler.observe(1.0) is None
    # A mid-band sample resets the streak.
    assert scaler.observe(0.9) is None
    assert scaler.observe(0.5) is None
    assert scaler.observe(0.9) is None
    assert scaler.observe(0.9) is None
    assert scaler.observe(0.9) == 3
    # At the ceiling it never goes further.
    for _ in range(10):
        assert scaler.observe(1.0) is None


def test_scaler_scales_down_after_sustained_idle():
    # SCALE_IDLE_SAMPLES = 5 idle samples commit a scale-down, then
    # SCALE_COOLDOWN_SAMPLES = 2 samples are ignored.
    scaler = ShardScaler(ScalingPolicy(min_replicas=1, max_replicas=3), active=3)
    assert [scaler.observe(0.0) for _ in range(5)] == [None] * 4 + [2]
    assert [scaler.observe(0.0) for _ in range(7)] == [None] * 6 + [1]
    for _ in range(10):
        assert scaler.observe(0.0) is None  # at the floor
    # A sample above the idle band resets the streak.
    scaler = ShardScaler(ScalingPolicy(min_replicas=1, max_replicas=3), active=3)
    assert [scaler.observe(x) for x in (0.0, 0.0, 0.0, 0.0, 0.5)] == [None] * 5
    assert [scaler.observe(0.0) for _ in range(5)] == [None] * 4 + [2]


# -- expansion -------------------------------------------------------------


def _config(props, streams=None, extra_stage=True):
    stages = [
        StageConfig("relay", "repo://t/relay", properties=props),
    ]
    if extra_stage:
        stages.append(StageConfig("sink", "repo://t/sink"))
        streams = streams or [StreamConfig("t", "relay", "sink")]
    return AppConfig(name="app", stages=stages, streams=streams or [])


def test_expand_is_identity_for_unsharded_configs():
    config = _config({})
    assert expand_shards(config) is config


def test_expand_creates_slots_and_splits_streams():
    expanded = expand_shards(_config({"replicas": "2", "shard-by": "field:k"}))
    names = [s.name for s in expanded.stages]
    assert names == ["relay#0", "relay#1", "sink"]
    assert [s.name for s in expanded.streams] == ["t#0", "t#1"]
    assert all(logical_stream(s.name) == "t" for s in expanded.streams)
    r0 = expanded.stages[0]
    assert r0.properties["shard-group"] == "relay"
    assert r0.properties["shard-index"] == "0"
    # Idempotent: a second pass leaves the expanded config alone.
    assert expand_shards(expanded) is expanded


def test_expand_slots_follow_scale_max():
    expanded = expand_shards(
        _config({"replicas": "1", "scale-max-replicas": "3"})
    )
    replicas = [s for s in expanded.stages if s.name.startswith("relay#")]
    assert len(replicas) == 3  # slots are pre-provisioned to the ceiling
    assert replicas[0].properties["shard-active"] == "1"


def test_expand_rejects_malformed_declarations():
    for props in (
        {"replicas": "zero"},
        {"replicas": "0"},
        {"replicas": "2", "shard-by": "nope"},
        {"replicas": "5", "scale-max-replicas": "2"},
        {"replicas": "2", "shard-partitioner": "range"},
    ):
        with pytest.raises(ShardingError):
            expand_shards(_config(props))


def test_validate_shard_properties_mirrors_expansion():
    assert shard_spec("relay", stage_options({})) is None
    replicas, slots, policy = shard_spec(
        "relay", stage_options({"replicas": "2", "scale-max-replicas": "4"})
    )
    assert (replicas, slots) == (2, 4)
    assert policy.elastic
    with pytest.raises(ShardingError):
        shard_spec("relay", stage_options({"replicas": "many"}))
    with pytest.raises(ShardingError):
        shard_spec("re#lay", stage_options({"replicas": "2"}))


def test_groups_of_reconstructs_the_group():
    expanded = expand_shards(_config({"replicas": "2", "shard-by": "field:k"}))
    groups = groups_of(stage_options(s.properties) for s in expanded.stages)
    assert set(groups) == {"relay"}
    group = groups["relay"]
    assert group.members == ["relay#0", "relay#1"]
    assert group.active == 2
    owners = {group.owner({"k": f"k{i}"}) for i in range(50)}
    assert owners == {0, 1}


# -- replica-group termination ---------------------------------------------


def test_eos_tracker_group_expectations():
    tracker = EosTracker()
    tracker.expect(group="relay")
    tracker.expect(group="relay")
    tracker.expect()  # one ungrouped feeder
    assert tracker.groups() == ("relay",)
    assert tracker.remaining_in("relay") == 2
    assert not tracker.observe(group="relay")
    assert tracker.remaining_in("relay") == 1
    assert not tracker.observe()
    assert tracker.observe(group="relay")  # last expectation completes
    assert tracker.complete


# -- keyed-state handoff ---------------------------------------------------


class _KeyedThing:
    def __init__(self):
        self.counts = {"a": 1, "b": 2}

    def export_keyed_state(self):
        state, self.counts = self.counts, {}
        return state

    def import_keyed_state(self, state):
        for key, count in state.items():
            self.counts[key] = self.counts.get(key, 0) + count


def test_export_relinquishes_and_import_merges():
    src, dst = _KeyedThing(), _KeyedThing()
    state = export_keyed_state(src)
    assert state == {"a": 1, "b": 2}
    assert src.counts == {}  # export gives the keys up
    import_keyed_state(dst, state)
    assert dst.counts == {"a": 2, "b": 4}  # import merges


def test_stateless_processors_are_fine():
    assert export_keyed_state(object()) is None
    import_keyed_state(object(), {"a": 1})  # no hook: silently ignored
