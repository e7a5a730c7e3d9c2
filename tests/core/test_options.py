"""The middleware's stage options: one table, one parser (`repro.core.options`)."""

import dataclasses

import pytest

from repro.core.batching import BatchPolicy
from repro.core.options import (
    OPTIONS,
    ShardingError,
    StageOptions,
    knobs,
    read_options,
    stage_options,
    stamp,
    undeclared,
)


def test_one_field_per_row_in_table_order():
    fields = [field.name for field in dataclasses.fields(StageOptions)]
    assert fields == [option.key.replace("-", "_") for option in OPTIONS] + ["given"]
    assert len({option.key for option in OPTIONS}) == len(OPTIONS) == 20


def test_absent_keys_take_the_row_defaults():
    options = stage_options({})
    assert [getattr(options, o.key.replace("-", "_")) for o in OPTIONS] == [
        o.default for o in OPTIONS
    ]
    assert options.given == frozenset()


def test_values_parse_as_the_runtimes_always_read_them():
    options = stage_options({
        "batch-max-items": " 16", "batch-max-delay": "1e-2", "queue-capacity": "40",
        "replicas": "2", "shard-by": "field:k", "shard-partitioner": "range",
        "shard-boundaries": "1, 2,,3", "scale-max-replicas": "4", "scale-down-occupancy": "0",
        "ledger-mode": " Record ", "ledger-dir": " /tmp/l ", "ledger-enabled": "true",
        "migratable": "false", "fan-in": "-1", "sample-size": "not an option",
    })
    assert (options.batch_max_items, options.batch_max_delay) == (16, 0.01)
    assert (options.queue_capacity, options.replicas, options.shard_by) == (40, 2, "field:k")
    assert options.shard_boundaries == (1.0, 2.0, 3.0)
    assert (options.scale_min_replicas, options.scale_max_replicas) == (None, 4)
    assert "scale-down-occupancy" not in options.given  # a constant, not an option
    assert (options.ledger_mode, options.ledger_dir) == ("record", "/tmp/l")
    assert options.ledger_enabled and not options.migratable and options.fan_in == -1
    assert "sample-size" not in options.given and "replicas" in options.given


@pytest.mark.parametrize("key,raw", [
    ("batch-max-items", "0"), ("batch-max-items", "lots"), ("batch-max-delay", "-1"),
    ("batch-max-delay", "nan"), ("queue-capacity", "0"), ("ledger-mode", "recrod"),
    ("ledger-enabled", "yes"), ("at-least-once-ok", "True"), ("migratable", "1"),
    ("fan-in", "two"),
])
def test_invalid_values_raise_value_error(key, raw):
    with pytest.raises(ValueError, match=f"{key}="):
        stage_options({key: raw})


@pytest.mark.parametrize("key,raw", [
    ("replicas", "three"), ("replicas", "0"), ("shard-by", "nope"),
    ("shard-partitioner", "mystery"), ("shard-boundaries", "1,b"), ("shard-index", "x"),
])
def test_invalid_sharding_values_raise_sharding_error(key, raw):
    with pytest.raises(ShardingError, match=f"{key}="):
        stage_options({key: raw})


def test_read_options_reports_every_problem_without_raising():
    options, problems = read_options({"queue-capacity": "x", "replicas": "0"})
    assert [option.key for option, _ in problems] == ["queue-capacity", "replicas"]
    assert (options.queue_capacity, options.replicas) == (200, None)


def test_batch_policy_overrides_and_inherits():
    default = BatchPolicy(max_items=64, max_delay=0.25)
    assert stage_options({}).batch_policy(default) is default
    assert stage_options({"batch-max-items": "8"}).batch_policy(default) == BatchPolicy(8, 0.25)


def test_stamp_writes_what_the_parser_reads_back():
    properties = stamp({"top-n": "5"}, replicas=3, migratable=True, ledger_path="/x")
    assert properties == {
        "top-n": "5", "replicas": "3", "migratable": "true", "ledger-path": "/x",
    }
    options = stage_options(properties)
    assert (options.replicas, options.migratable, options.ledger_path) == (3, True, "/x")
    assert stamp(properties, ledger_path=None, migratable=False) is properties
    assert properties == {"top-n": "5", "replicas": "3", "migratable": "false"}
    with pytest.raises(KeyError):
        stamp({}, sample_size=4)


def test_undeclared_keys_in_reserved_namespaces_get_a_suggestion():
    assert undeclared({
        "batch-max-itemz": "1", "net-queue-capacity": "16", "net-port": "x",
        "sample-size": "4", "replicas": "2",
    }) == [
        ("batch-max-itemz", "batch-max-items"),
        ("net-queue-capacity", "queue-capacity"),
        ("net-port", None),
    ]


def test_sharding_knobs_are_the_documented_view():
    assert list(knobs("sharding")) == [
        "replicas", "shard-by", "shard-partitioner", "shard-boundaries",
        "scale-min-replicas", "scale-max-replicas",
    ]
