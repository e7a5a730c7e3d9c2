"""Fixture processors for the sharding / autoscaling tests.

Referenced via ``py://tests.shard_stages:...`` code URLs so every
runtime — including networked worker OS processes — resolves them
through the repository's import scheme.  Payloads are dicts
``{"k": <key>, "i": <per-key sequence number>}``; keys are strings so
the JSON transport of the networked runtime round-trips them.
"""

from typing import Any, Dict

from repro.core.api import StageContext, StreamProcessor
from repro.simnet.hosts import CpuCostModel


class KeyedRelay(StreamProcessor):
    """Forwards payloads, stamping a per-key running count.

    The count is keyed state: under a rebalance it must follow the key
    to its new owner (via the ``export_keyed_state`` /
    ``import_keyed_state`` hooks), so the stamped ``n`` stays contiguous
    per key no matter how many times the group scales.
    """

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}

    def on_item(self, payload: Any, context: StageContext) -> None:
        key = payload["k"]
        self.counts[key] = self.counts.get(key, 0) + 1
        out = dict(payload)
        out["n"] = self.counts[key]
        context.emit(out)

    def export_keyed_state(self) -> Dict[str, int]:
        state, self.counts = self.counts, {}
        return state

    def import_keyed_state(self, state: Dict[str, int]) -> None:
        for key, count in state.items():
            self.counts[key] = self.counts.get(key, 0) + count


class NamedKeyedRelay(KeyedRelay):
    """A :class:`KeyedRelay` that addresses its output by declared name.

    Written against the configuration as declared (``t: relay -> sink``):
    once sharding expands the edge into ``t#i: relay#i -> sink``, the
    declared name must still reach it from every replica.
    """

    def on_item(self, payload: Any, context: StageContext) -> None:
        key = payload["k"]
        self.counts[key] = self.counts.get(key, 0) + 1
        context.emit(dict(payload, n=self.counts[key]), stream="t")


class SlowKeyedRelay(KeyedRelay):
    """A :class:`KeyedRelay` with real per-item compute cost.

    Used by the autoscaling soak test: one replica saturates under a
    fast source (queues fill, occupancy breaches), so the group must
    scale up to keep draining — and back down when the source slows.
    """

    cost_model = CpuCostModel(per_item=0.002)


class CostlyRelay(StreamProcessor):
    """Forwards any payload after 0.5 ms of modeled compute.

    The threaded runtime sleeps the cost (releasing the GIL), so the
    replica count — not queue handoff — bounds throughput: the shape the
    replica-scaling floor measures.
    """

    cost_model = CpuCostModel(per_item=0.0005)

    def on_item(self, payload: Any, context: StageContext) -> None:
        context.emit(payload)


class CountSink(StreamProcessor):
    """Counts arrivals; the count is the delivered-item ground truth."""

    def __init__(self) -> None:
        self.count = 0

    def on_item(self, payload: Any, context: StageContext) -> None:
        self.count += 1

    def result(self) -> int:
        return self.count


class KeyOrderSink(StreamProcessor):
    """Collects, per key, ``[i, n]`` pairs in arrival order.

    ``i`` is the source's per-key sequence number, so the recorded list
    proves per-key arrival order; ``n`` is the relay's keyed running
    count, so it also proves the keyed state followed each key through
    any rebalance (a dropped or duplicated handoff desynchronizes
    ``n`` from ``i``).  Pairs are lists, not tuples, so the networked
    runtime's JSON transport round-trips them unchanged.
    """

    def __init__(self) -> None:
        self.sequences: Dict[str, list] = {}

    def on_item(self, payload: Any, context: StageContext) -> None:
        pair = [payload["i"], payload.get("n")]
        self.sequences.setdefault(payload["k"], []).append(pair)

    def result(self) -> Dict[str, list]:
        return self.sequences
