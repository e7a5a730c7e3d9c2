"""Unit tests for the micro-batching policy and buffer primitives."""

import pytest

from repro.core.batching import BatchBuffer, BatchPolicy
from repro.core.options import stage_options


def policy_of(properties, default):
    return stage_options(properties).batch_policy(default)


class TestBatchPolicy:
    def test_defaults(self):
        policy = BatchPolicy()
        assert policy.max_items == 32
        assert policy.max_delay == 0.01
        assert policy.enabled

    def test_max_items_one_is_disabled(self):
        assert not BatchPolicy(max_items=1).enabled
        assert BatchPolicy(max_items=2).enabled

    def test_validation(self):
        with pytest.raises(ValueError):
            BatchPolicy(max_items=0)
        with pytest.raises(ValueError):
            BatchPolicy(max_items=-3)
        with pytest.raises(ValueError):
            BatchPolicy(max_delay=-0.1)

    def test_zero_delay_is_legal(self):
        # max_delay=0 means "never hold a partial batch": every flush
        # check finds the buffer due.
        policy = BatchPolicy(max_items=8, max_delay=0.0)
        buffer = BatchBuffer(policy)
        buffer.add("x", now=5.0)
        assert buffer.due(5.0)


class TestBatchBuffer:
    def test_add_reports_full_at_max_items(self):
        buffer = BatchBuffer(BatchPolicy(max_items=3, max_delay=1.0))
        assert buffer.add("a", now=0.0) is False
        assert buffer.add("b", now=0.1) is False
        assert buffer.add("c", now=0.2) is True
        assert len(buffer) == 3

    def test_due_measures_from_first_entry(self):
        buffer = BatchBuffer(BatchPolicy(max_items=10, max_delay=1.0))
        buffer.add("a", now=2.0)
        buffer.add("b", now=2.9)  # later entries don't reset the age
        assert not buffer.due(2.99)
        assert buffer.due(3.0)
        assert buffer.due(3.5)

    def test_empty_buffer_is_never_due(self):
        buffer = BatchBuffer(BatchPolicy(max_items=4, max_delay=0.0))
        assert not buffer.due(1e9)
        assert buffer.deadline() is None

    def test_deadline_is_first_entry_plus_delay(self):
        buffer = BatchBuffer(BatchPolicy(max_items=10, max_delay=0.25))
        buffer.add("a", now=4.0)
        assert buffer.deadline() == pytest.approx(4.25)

    def test_drain_empties_and_preserves_order(self):
        buffer = BatchBuffer(BatchPolicy(max_items=10, max_delay=1.0))
        for i in range(5):
            buffer.add(i, now=float(i))
        assert buffer.drain() == [0, 1, 2, 3, 4]
        assert len(buffer) == 0
        assert buffer.drain() == []

    def test_first_at_resets_after_drain(self):
        buffer = BatchBuffer(BatchPolicy(max_items=10, max_delay=1.0))
        buffer.add("a", now=0.0)
        buffer.drain()
        buffer.add("b", now=100.0)
        assert buffer.deadline() == pytest.approx(101.0)
        assert not buffer.due(100.5)


class TestPolicyFromProperties:
    def test_no_properties_returns_default_untouched(self):
        default = BatchPolicy(max_items=7, max_delay=0.5)
        assert policy_of({}, default) is default
        assert policy_of({}, None) is None

    def test_both_properties_override(self):
        policy = policy_of(
            {"batch-max-items": "16", "batch-max-delay": "0.125"}, None
        )
        assert policy == BatchPolicy(max_items=16, max_delay=0.125)

    def test_single_property_inherits_rest_from_default(self):
        default = BatchPolicy(max_items=64, max_delay=0.25)
        policy = policy_of(
            {"batch-max-items": "8"}, default
        )
        assert policy == BatchPolicy(max_items=8, max_delay=0.25)
        policy = policy_of(
            {"batch-max-delay": "0.5"}, default
        )
        assert policy == BatchPolicy(max_items=64, max_delay=0.5)

    def test_single_property_without_default_uses_policy_defaults(self):
        policy = policy_of({"batch-max-items": "8"}, None)
        assert policy == BatchPolicy(max_items=8, max_delay=BatchPolicy().max_delay)

    def test_property_can_disable_runtime_batching(self):
        default = BatchPolicy(max_items=32, max_delay=0.01)
        policy = policy_of({"batch-max-items": "1"}, default)
        assert policy is not None and not policy.enabled

    def test_unparseable_properties_raise(self):
        with pytest.raises(ValueError):
            policy_of({"batch-max-items": "lots"}, None)
        with pytest.raises(ValueError):
            policy_of({"batch-max-delay": "soon"}, None)

    def test_out_of_range_values_raise(self):
        with pytest.raises(ValueError):
            policy_of({"batch-max-items": "0"}, None)
        with pytest.raises(ValueError):
            policy_of({"batch-max-delay": "-1"}, None)

    @pytest.mark.parametrize("delay", ["nan", "inf", "-inf"])
    def test_non_finite_delay_raises(self, delay):
        """A nan delay made the threaded worker busy-spin (its flush
        timeout was 0 and the batch never came due); inf overflowed
        ``Condition.wait``."""
        with pytest.raises(ValueError, match="finite"):
            policy_of({"batch-max-delay": delay}, None)
        with pytest.raises(ValueError, match="finite"):
            BatchPolicy(max_delay=float(delay))
