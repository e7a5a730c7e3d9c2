"""Algorithm-choice adaptation (the paper's third adaptation axis).

Section 1 lists three things the middleware may adjust: "the sampling
rate, size of the summary structure maintained, and/or the *choice of the
algorithm to be used*."  This module implements the third:
:class:`AlgorithmLadder` defines an ordered family of summary algorithms,
cheapest/least-accurate first, and :class:`AlgorithmSwitchingFilterStage`
exposes the ladder index as an ordinary adjustment parameter (increment 1,
direction −1: climbing the ladder costs more CPU and emits bigger
summaries, but answers more accurately) — so the exact same Section 4
controller that tunes a sampling rate also picks the algorithm.

On a switch, the new sketch inherits the old one's retained counts via
``merge`` — the stream's history is not thrown away.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence

from repro.core.api import StageContext, StreamProcessor
from repro.simnet.hosts import CpuCostModel
from repro.streams.sketches.base import FrequencySketch
from repro.streams.sketches.factory import make_sketch
from repro.streams.wire import summary_wire_size

__all__ = ["AlgorithmLadder", "AlgorithmRung", "AlgorithmSwitchingFilterStage"]

#: Wire size of one (value, count) pair in a summary message.
PAIR_BYTES = 12.0


@dataclass(frozen=True)
class AlgorithmRung:
    """One rung of the ladder: an algorithm at a fidelity level.

    Attributes
    ----------
    name:
        Sketch kind understood by :func:`repro.streams.sketches.factory.make_sketch`.
    capacity_factor:
        Multiplier on the stage's base capacity k.
    cost_per_item:
        CPU seconds charged per stream item while this rung is active.
    summary_size:
        (value, count) pairs emitted per summary while active.
    """

    name: str
    capacity_factor: float
    cost_per_item: float
    summary_size: int

    def __post_init__(self) -> None:
        if self.capacity_factor <= 0:
            raise ValueError(f"capacity_factor must be > 0, got {self.capacity_factor}")
        if self.cost_per_item < 0:
            raise ValueError(f"cost_per_item must be >= 0, got {self.cost_per_item}")
        if self.summary_size < 1:
            raise ValueError(f"summary_size must be >= 1, got {self.summary_size}")


class AlgorithmLadder:
    """An ordered algorithm family, cheapest first."""

    def __init__(self, rungs: Sequence[AlgorithmRung], base_capacity: int, seed: int = 0) -> None:
        if not rungs:
            raise ValueError("ladder needs at least one rung")
        if base_capacity < 1:
            raise ValueError(f"base_capacity must be >= 1, got {base_capacity}")
        self.rungs = list(rungs)
        self.base_capacity = base_capacity
        self.seed = seed

    def __len__(self) -> int:
        return len(self.rungs)

    def rung(self, level: int) -> AlgorithmRung:
        """The rung at ``level`` (clamped into range)."""
        clamped = min(len(self.rungs) - 1, max(0, level))
        return self.rungs[clamped]

    def build(self, level: int) -> FrequencySketch:
        """Instantiate the sketch for ``level``."""
        rung = self.rung(level)
        capacity = max(1, int(round(self.base_capacity * rung.capacity_factor)))
        kwargs: Dict[str, Any] = {}
        if rung.name == "counting-samples":
            kwargs["seed"] = self.seed
        return make_sketch(rung.name, capacity, **kwargs)

    @classmethod
    def default(cls, base_capacity: int = 100, seed: int = 0) -> "AlgorithmLadder":
        """The ladder used by the count-samps algorithm-switching variant.

        Cheapest to richest: a quarter-size Misra–Gries (coarse heavy
        hitters only), full-size Misra–Gries, Space-Saving (adds error
        tracking), and a double-size counting sample (the paper's own
        algorithm at high fidelity).
        """
        return cls(
            rungs=[
                AlgorithmRung("misra-gries", 0.25, 2e-5, max(1, base_capacity // 4)),
                AlgorithmRung("misra-gries", 1.0, 4e-5, base_capacity),
                AlgorithmRung("space-saving", 1.0, 6e-5, base_capacity),
                AlgorithmRung("counting-samples", 2.0, 1e-4, base_capacity * 2),
            ],
            base_capacity=base_capacity,
            seed=seed,
        )


class AlgorithmSwitchingFilterStage(StreamProcessor):
    """count-samps filter whose *algorithm* is the adjustment parameter.

    Configuration properties:

    ``base-capacity``   the ladder's base k (default 100)
    ``batch``           items between summary emissions (default 500)
    ``initial-level``   starting rung (default: middle of the ladder)
    ``seed``            RNG seed for randomized rungs

    The middleware raises the level when resources allow and lowers it
    under pressure; switches happen at batch boundaries and carry the old
    sketch's state forward via ``merge``.
    """

    def __init__(self, ladder_factory: Optional[Callable[[int, int], AlgorithmLadder]] = None) -> None:
        self._ladder_factory = ladder_factory
        self._ladder: Optional[AlgorithmLadder] = None
        self._sketch: Optional[FrequencySketch] = None
        self._level = 0
        self._batch = 500
        self._since_emit = 0
        self.switches = 0

    def setup(self, context: StageContext) -> None:
        props = context.properties
        base_capacity = int(props.get("base-capacity", "100"))
        seed = int(props.get("seed", "0"))
        self._batch = int(props.get("batch", "500"))
        factory = self._ladder_factory or (
            lambda cap, s: AlgorithmLadder.default(cap, s)
        )
        self._ladder = factory(base_capacity, seed)
        top = len(self._ladder) - 1
        initial = int(props.get("initial-level", str(top // 2)))
        initial = min(top, max(0, initial))
        context.specify_parameter(
            "algorithm-level",
            initial=float(initial),
            minimum=0.0,
            maximum=float(top),
            increment=1.0,
            direction=-1,  # climbing the ladder = slower, more accurate
        )
        self._apply_level(initial)

    def _apply_level(self, level: int) -> None:
        assert self._ladder is not None
        rung = self._ladder.rung(level)
        new_sketch = self._ladder.build(level)
        if self._sketch is not None:
            new_sketch.merge(self._sketch)
            self.switches += 1
        self._sketch = new_sketch
        self._level = level
        # Instance-level cost override: the runtime prices each item with
        # the active rung's cost.
        self.cost_model = CpuCostModel(per_item=rung.cost_per_item)

    def on_item(self, payload: Any, context: StageContext) -> None:
        assert self._sketch is not None and self._ladder is not None
        self._sketch.update(payload)
        self._since_emit += 1
        if self._since_emit >= self._batch:
            self._since_emit = 0
            suggested = int(round(context.get_suggested_value("algorithm-level")))
            if suggested != self._level:
                self._apply_level(suggested)
            self._emit_summary(context)

    def flush(self, context: StageContext) -> None:
        self._emit_summary(context)

    def _emit_summary(self, context: StageContext) -> None:
        assert self._sketch is not None and self._ladder is not None
        rung = self._ladder.rung(self._level)
        pairs = [
            (v, int(round(c))) for v, c in self._sketch.top_k(rung.summary_size)
        ]
        summary = {
            "source": context.stage_name,
            "pairs": pairs,
            "items_seen": self._sketch.items_seen,
            "algorithm": rung.name,
            "level": self._level,
        }
        context.emit(summary, size=summary_wire_size(len(pairs)))

    def result(self) -> Dict[str, Any]:
        assert self._sketch is not None and self._ladder is not None
        return {
            "final_level": self._level,
            "algorithm": self._ladder.rung(self._level).name,
            "switches": self.switches,
            "items_seen": self._sketch.items_seen,
        }
