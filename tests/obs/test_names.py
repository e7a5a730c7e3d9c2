"""Metric-name catalog tests, including the stability snapshot."""

import pytest

from repro.obs.names import METRICS, spec_for, validate_name

#: The published metric-name surface.  Renaming or removing a template is
#: a breaking change to exports, docs, and downstream tooling — this
#: snapshot makes it a deliberate, reviewed event (update it AND
#: docs/observability.md together).
EXPECTED_TEMPLATES = [
    "adapt.{stage}.d_tilde",
    "adapt.{stage}.param.{parameter}",
    "batch.{stage}.age_flushes",
    "batch.{stage}.batched_items",
    "batch.{stage}.batches",
    "batch.{stage}.flush_size",
    "fault.{stage}.failovers",
    "fault.{stage}.quarantined",
    "fault.{stage}.retries",
    "host.{host}.utilization",
    "ledger.{stage}.dedup_hits",
    "ledger.{stage}.effects",
    "ledger.{stage}.records",
    "ledger.{stage}.replay_misses",
    "link.{link}.bytes",
    "link.{link}.messages",
    "link.{link}.throughput",
    "link.{link}.tx_busy",
    "link.{link}.utilization",
    "migration.{stage}.duplicates",
    "migration.{stage}.items_replayed",
    "migration.{stage}.moves",
    "migration.{stage}.pause_seconds",
    "migration.{stage}.triggers",
    "net.{channel}.bytes",
    "net.{channel}.credit_frames",
    "net.{channel}.credit_stalls",
    "net.{channel}.credit_wait_seconds",
    "net.{channel}.exceptions",
    "net.{channel}.frames",
    "net.{channel}.in_flight_peak",
    "net.{worker}.rtt",
    "recovery.{stage}.checkpoints",
    "recovery.{stage}.duplicates",
    "recovery.{stage}.items_replayed",
    "recovery.{stage}.latency",
    "recovery.{stage}.replay_dropped",
    "run.execution_time",
    "run.traced_items",
    "scale.{group}.rebalance_seconds",
    "scale.{group}.replicas",
    "scale.{group}.scale_downs",
    "scale.{group}.scale_ups",
    "shard.{group}.replicas",
    "shard.{stage}.items",
    "stage.{stage}.arrival_rate",
    "stage.{stage}.busy_seconds",
    "stage.{stage}.bytes_in",
    "stage.{stage}.bytes_out",
    "stage.{stage}.exceptions_received",
    "stage.{stage}.exceptions_reported",
    "stage.{stage}.items_dropped",
    "stage.{stage}.items_in",
    "stage.{stage}.items_out",
    "stage.{stage}.latency",
    "stage.{stage}.latency_compute",
    "stage.{stage}.latency_network",
    "stage.{stage}.latency_queue",
    "stage.{stage}.queue_len",
]


class TestStabilitySnapshot:
    def test_templates_are_pinned(self):
        assert sorted(s.template for s in METRICS) == EXPECTED_TEMPLATES

    def test_every_spec_is_complete(self):
        for spec in METRICS:
            assert spec.kind in ("counter", "gauge", "histogram", "series")
            assert spec.unit
            assert spec.description
            assert spec.paper
            assert set(spec.runtimes) <= {"sim", "threaded", "net"}


class TestSpecFor:
    def test_concrete_names_resolve(self):
        assert spec_for("stage.square.items_in").template == "stage.{stage}.items_in"
        assert spec_for("adapt.filter-0.param.keep").template == (
            "adapt.{stage}.param.{parameter}"
        )
        assert spec_for("link.edge->central.tx_busy").template == (
            "link.{link}.tx_busy"
        )

    def test_unknown_name_resolves_to_none(self):
        assert spec_for("stage.x.made_up") is None
        assert spec_for("totally.unrelated") is None

    def test_placeholders_never_span_dots(self):
        # {stage} must not swallow ".items_in.extra" etc.
        assert spec_for("stage.a.b.items_in") is None


class TestValidateName:
    def test_valid(self):
        spec = validate_name("stage.s.items_in", "counter")
        assert spec.unit == "items"

    def test_unknown_name_raises_with_pointer(self):
        with pytest.raises(ValueError, match="docs/observability.md"):
            validate_name("stage.s.nonexistent", "counter")

    def test_kind_mismatch_raises(self):
        with pytest.raises(ValueError, match="cataloged as a counter"):
            validate_name("stage.s.items_in", "gauge")
