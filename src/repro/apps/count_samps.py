"""count-samps: distributed counting samples (Sections 5.1–5.3).

The problem: integers arrive as sub-streams at several places; report the
``n`` most frequent values overall.  Two architectures from the paper:

* **Centralized** — :class:`RelayStage` on each source host forwards the
  raw sub-stream to a :class:`CentralCountStage` on the hub, which runs
  the one-pass approximate algorithm over everything (Figure 5, row 1).
* **Distributed** — :class:`SourceFilterStage` on each source host
  maintains a counting sample and periodically forwards its k most
  frequent values to a :class:`JoinStage` that merges the per-source
  summaries (Figure 5, row 2).  ``k`` is the adjustment parameter
  ("the number of frequently occurring values at each sub-stream",
  Section 5.1); the self-adapting version lets the middleware pick k in
  [10, 240] (Section 5.3).

Configuration properties (all strings, from the XML config):

``sketch``             sketch kind (default ``counting-samples``)
``sketch-capacity``    retained counters in the per-source sketch
``sample-size``        initial k        (``sample-size-min`` / ``-max`` bounds)
``batch``              items between summary emissions
``top-n``              the query's n (default 10)
``seed``               RNG seed for the sketches
``adaptive``           "true"/"false" — whether k adapts or stays fixed
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.core.api import StageContext, StreamProcessor
from repro.grid.config import AppConfig, ParameterConfig, StageConfig, StreamConfig
from repro.grid.resources import ResourceRequirement
from repro.simnet.hosts import CpuCostModel
from repro.streams.sketches.counting_samples import CountingSamples
from repro.streams.sketches.factory import make_sketch
from repro.streams.wire import summary_wire_size

__all__ = [
    "CentralCountStage",
    "IntermediateMergeStage",
    "JoinStage",
    "RelayStage",
    "SourceFilterStage",
    "build_centralized_config",
    "build_distributed_config",
    "build_hierarchical_config",
]

#: Wire size of one (value, count) pair in a summary message.
DEFAULT_PAIR_BYTES = 12.0
#: Wire size of one raw integer.
RAW_INT_BYTES = 8.0


class RelayStage(StreamProcessor):
    """Forwards every raw item unchanged (the centralized baseline's edge).

    Deliberately does no data reduction: the point of Figure 5 is the cost
    of shipping everything to the center.
    """

    cost_model = CpuCostModel(per_item=2e-5)

    def on_item(self, payload: Any, context: StageContext) -> None:
        context.emit(payload, size=RAW_INT_BYTES)


class SourceFilterStage(StreamProcessor):
    """Per-source counting-sample filter with the adjustable summary size.

    Every ``batch`` items it reads the middleware-suggested k
    (``get_suggested_value``), resizes its sketch to k (the paper's
    "size of the summary structure maintained"), and emits the current
    top-k as a cumulative summary; the join stage replaces its previous
    summary from this source.
    """

    #: Maintaining a counting sample costs a hash probe per item.
    cost_model = CpuCostModel(per_item=5e-5)

    def __init__(self) -> None:
        self._sketch = None
        self._batch = 500
        self._since_emit = 0
        self._param_name = "sample-size"

    def setup(self, context: StageContext) -> None:
        props = context.properties
        initial = float(props.get("sample-size", "100"))
        minimum = float(props.get("sample-size-min", "10"))
        maximum = float(props.get("sample-size-max", "240"))
        self._batch = int(props.get("batch", "500"))
        seed = int(props.get("seed", "0"))
        kind = props.get("sketch", "counting-samples")
        capacity = int(props.get("sketch-capacity", str(int(maximum))))
        kwargs: Dict[str, Any] = {}
        if kind == "counting-samples":
            kwargs["seed"] = seed
        self._sketch = make_sketch(kind, capacity, **kwargs)
        context.specify_parameter(
            self._param_name,
            initial=initial,
            minimum=minimum,
            maximum=maximum,
            increment=float(props.get("sample-size-increment", "10")),
            direction=-1,  # larger summaries = slower, more accurate
        )

    def on_item(self, payload: Any, context: StageContext) -> None:
        assert self._sketch is not None
        self._sketch.update(payload)
        self._since_emit += 1
        if self._since_emit >= self._batch:
            self._since_emit = 0
            self._emit_summary(context)

    def flush(self, context: StageContext) -> None:
        self._emit_summary(context)

    def _emit_summary(self, context: StageContext) -> None:
        assert self._sketch is not None
        k = int(round(context.get_suggested_value(self._param_name)))
        k = max(1, k)
        self._sketch.resize(max(k, 1))
        if isinstance(self._sketch, CountingSamples):
            pairs = sorted(
                self._sketch.raw_entries(), key=lambda vc: (-vc[1], repr(vc[0]))
            )[:k]
        else:
            pairs = [(v, int(round(c))) for v, c in self._sketch.top_k(k)]
        summary = {
            "source": context.stage_name,
            "pairs": pairs,
            "items_seen": self._sketch.items_seen,
        }
        # Charge the wire format's exact length (header + 12 bytes/pair;
        # see repro.streams.wire) rather than a hand-declared estimate.
        context.emit(summary, size=summary_wire_size(len(pairs)))

    def result(self) -> Optional[Any]:
        assert self._sketch is not None
        return {"items_seen": self._sketch.items_seen, "footprint": self._sketch.footprint}


class JoinStage(StreamProcessor):
    """Central merge of per-source summaries (the distributed version).

    Keeps the *latest* cumulative summary per source (summaries supersede
    each other) and answers the top-n query over their union.
    """

    cost_model = CpuCostModel(per_item=1e-4)

    def __init__(self) -> None:
        self._latest: Dict[str, Dict[str, Any]] = {}
        self._top_n = 10

    def setup(self, context: StageContext) -> None:
        self._top_n = int(context.properties.get("top-n", "10"))

    def on_item(self, payload: Any, context: StageContext) -> None:
        if not isinstance(payload, dict) or "pairs" not in payload:
            raise TypeError(f"JoinStage expected a summary dict, got {payload!r}")
        self._latest[payload["source"]] = payload

    def snapshot(self) -> Dict[str, Any]:
        return {"latest": dict(self._latest)}

    def restore(self, state: Any) -> None:
        self._latest = dict(state["latest"])

    def current_topk(self, n: Optional[int] = None) -> List[Tuple[Hashable, float]]:
        """The merged top-n at this instant."""
        n = self._top_n if n is None else n
        merged: Dict[Hashable, float] = {}
        for summary in self._latest.values():
            for value, count in summary["pairs"]:
                merged[value] = merged.get(value, 0.0) + float(count)
        ordered = sorted(merged.items(), key=lambda vc: (-vc[1], repr(vc[0])))
        return ordered[:n]

    def result(self) -> List[Tuple[Hashable, float]]:
        return self.current_topk()


class IntermediateMergeStage(StreamProcessor):
    """Middle-tier merge for hierarchical (3+ stage) deployments.

    Section 3.1, goal 2: "based upon the number and types of streams and
    the available resources, more than two stages could also be required.
    All intermediate stages take one or more intermediate streams as input
    and produce one or more output streams."

    This stage merges the summaries of several upstream filters and
    re-emits a combined summary of at most ``merge-size`` pairs —
    ``merge-size`` being its own adjustment parameter, so adaptation acts
    at *every* tier of the tree (an overloaded core link shrinks the
    mid-tier summaries without touching the leaf filters).
    """

    cost_model = CpuCostModel(per_item=8e-5)

    def __init__(self) -> None:
        self._latest: Dict[str, Dict[str, Any]] = {}
        self._batch = 4
        self._since_emit = 0

    def setup(self, context: StageContext) -> None:
        props = context.properties
        self._batch = int(props.get("merge-batch", "4"))
        context.specify_parameter(
            "merge-size",
            initial=float(props.get("merge-size", "150")),
            minimum=float(props.get("merge-size-min", "10")),
            maximum=float(props.get("merge-size-max", "400")),
            increment=float(props.get("merge-size-increment", "10")),
            direction=-1,
        )

    def on_item(self, payload: Any, context: StageContext) -> None:
        if not isinstance(payload, dict) or "pairs" not in payload:
            raise TypeError(
                f"IntermediateMergeStage expected a summary dict, got {payload!r}"
            )
        self._latest[payload["source"]] = payload
        self._since_emit += 1
        if self._since_emit >= self._batch:
            self._since_emit = 0
            self._emit_merged(context)

    def flush(self, context: StageContext) -> None:
        self._emit_merged(context)

    def _emit_merged(self, context: StageContext) -> None:
        size = max(1, int(round(context.get_suggested_value("merge-size"))))
        merged: Dict[Hashable, float] = {}
        items_seen = 0
        for summary in self._latest.values():
            items_seen += summary.get("items_seen", 0)
            for value, count in summary["pairs"]:
                merged[value] = merged.get(value, 0.0) + float(count)
        pairs = sorted(merged.items(), key=lambda vc: (-vc[1], repr(vc[0])))[:size]
        context.emit(
            {
                "source": context.stage_name,
                "pairs": [(v, int(round(c))) for v, c in pairs],
                "items_seen": items_seen,
            },
            size=summary_wire_size(len(pairs)),
        )

    def result(self) -> Dict[str, int]:
        return {"sources_merged": len(self._latest)}


class CentralCountStage(StreamProcessor):
    """Centralized one-pass counting over the full raw stream.

    Uses the same approximate algorithm the paper does (which is why even
    the centralized version's accuracy is 0.99, not 1.0).
    """

    cost_model = CpuCostModel(per_item=5e-5)

    def __init__(self) -> None:
        self._sketch = None
        self._top_n = 10

    def setup(self, context: StageContext) -> None:
        props = context.properties
        self._top_n = int(props.get("top-n", "10"))
        capacity = int(props.get("sketch-capacity", "4000"))
        self._sketch = CountingSamples(capacity, seed=int(props.get("seed", "0")))

    def on_item(self, payload: Any, context: StageContext) -> None:
        assert self._sketch is not None
        self._sketch.update(payload)

    def result(self) -> List[Tuple[Hashable, float]]:
        assert self._sketch is not None
        return [(v, float(c)) for v, c in self._sketch.top_k(self._top_n)]


# -- configuration builders ---------------------------------------------------


def _register_codes(repository) -> None:
    """Publish the count-samps stage codes (idempotent)."""
    from repro.apps.algo_switch import AlgorithmSwitchingFilterStage

    for url, factory in [
        ("repo://count-samps/filter", SourceFilterStage),
        ("repo://count-samps/join", JoinStage),
        ("repo://count-samps/relay", RelayStage),
        ("repo://count-samps/central", CentralCountStage),
        ("repo://count-samps/algo-filter", AlgorithmSwitchingFilterStage),
        ("repo://count-samps/merge", IntermediateMergeStage),
    ]:
        if url not in repository:
            repository.publish(url, factory)


def build_distributed_config(
    n_sources: int,
    source_hosts: List[str],
    sample_size: float = 100.0,
    sample_size_min: float = 10.0,
    sample_size_max: float = 240.0,
    batch: int = 500,
    top_n: int = 10,
    sketch: str = "counting-samples",
    seed: int = 0,
) -> AppConfig:
    """The distributed count-samps application configuration.

    One filter stage pinned near each source host plus a join stage on
    whatever the matchmaker picks (the central node in the star fabrics
    used by the experiments).
    """
    if n_sources < 1:
        raise ValueError(f"n_sources must be >= 1, got {n_sources}")
    if len(source_hosts) != n_sources:
        raise ValueError(
            f"need {n_sources} source hosts, got {len(source_hosts)}"
        )
    filter_props = {
        "sample-size": str(sample_size),
        "sample-size-min": str(sample_size_min),
        "sample-size-max": str(sample_size_max),
        "batch": str(batch),
        "sketch": sketch,
        "seed": str(seed),
    }
    stages = [
        StageConfig(
            name=f"filter-{i}",
            code_url="repo://count-samps/filter",
            requirement=ResourceRequirement(placement_hint=f"near:{source_hosts[i]}"),
            parameters=[
                ParameterConfig(
                    name="sample-size",
                    init=sample_size,
                    minimum=sample_size_min,
                    maximum=sample_size_max,
                    increment=10.0,
                    direction=-1,
                )
            ],
            properties=dict(filter_props),
        )
        for i in range(n_sources)
    ]
    stages.append(
        StageConfig(
            name="join",
            code_url="repo://count-samps/join",
            requirement=ResourceRequirement(min_cores=2),
            properties={"top-n": str(top_n)},
        )
    )
    streams = [
        StreamConfig(name=f"summary-{i}", src=f"filter-{i}", dst="join",
                     item_size=DEFAULT_PAIR_BYTES)
        for i in range(n_sources)
    ]
    return AppConfig(name="count-samps-distributed", stages=stages, streams=streams)


def build_hierarchical_config(
    n_sources: int,
    source_hosts: List[str],
    fan_in: int = 2,
    sample_size: float = 100.0,
    sample_size_min: float = 10.0,
    sample_size_max: float = 240.0,
    merge_size: float = 150.0,
    batch: int = 500,
    top_n: int = 10,
    seed: int = 0,
) -> AppConfig:
    """A three-tier count-samps: filters -> intermediate merges -> join.

    ``fan_in`` filters feed each intermediate merge stage; all merge
    stages feed the final join.  Both the leaf summary size and the
    mid-tier merge size are adjustment parameters, demonstrating the
    paper's "more than two stages" deployments with adaptation at every
    tier.
    """
    if n_sources < 2:
        raise ValueError(f"hierarchy needs >= 2 sources, got {n_sources}")
    if len(source_hosts) != n_sources:
        raise ValueError(f"need {n_sources} source hosts, got {len(source_hosts)}")
    if fan_in < 1:
        raise ValueError(f"fan_in must be >= 1, got {fan_in}")
    base = build_distributed_config(
        n_sources, source_hosts,
        sample_size=sample_size,
        sample_size_min=sample_size_min,
        sample_size_max=sample_size_max,
        batch=batch, top_n=top_n, seed=seed,
    )
    filters = [s for s in base.stages if s.name.startswith("filter-")]
    join = base.stage("join")
    n_merges = (n_sources + fan_in - 1) // fan_in
    merges = [
        StageConfig(
            name=f"merge-{m}",
            code_url="repo://count-samps/merge",
            requirement=ResourceRequirement(),
            parameters=[
                ParameterConfig(
                    name="merge-size",
                    init=merge_size, minimum=10.0, maximum=400.0,
                    increment=10.0, direction=-1,
                )
            ],
            properties={"merge-size": str(merge_size)},
        )
        for m in range(n_merges)
    ]
    streams = [
        StreamConfig(
            name=f"leaf-{i}",
            src=f"filter-{i}",
            dst=f"merge-{i // fan_in}",
            item_size=DEFAULT_PAIR_BYTES,
        )
        for i in range(n_sources)
    ] + [
        StreamConfig(
            name=f"mid-{m}",
            src=f"merge-{m}",
            dst="join",
            item_size=DEFAULT_PAIR_BYTES,
        )
        for m in range(n_merges)
    ]
    return AppConfig(
        name="count-samps-hierarchical",
        stages=filters + merges + [join],
        streams=streams,
    )


def build_centralized_config(
    n_sources: int,
    source_hosts: List[str],
    top_n: int = 10,
    sketch_capacity: int = 4000,
    seed: int = 0,
) -> AppConfig:
    """The centralized count-samps baseline configuration."""
    if n_sources < 1:
        raise ValueError(f"n_sources must be >= 1, got {n_sources}")
    if len(source_hosts) != n_sources:
        raise ValueError(
            f"need {n_sources} source hosts, got {len(source_hosts)}"
        )
    stages = [
        StageConfig(
            name=f"relay-{i}",
            code_url="repo://count-samps/relay",
            requirement=ResourceRequirement(placement_hint=f"near:{source_hosts[i]}"),
        )
        for i in range(n_sources)
    ]
    stages.append(
        StageConfig(
            name="central",
            code_url="repo://count-samps/central",
            requirement=ResourceRequirement(min_cores=2),
            properties={
                "top-n": str(top_n),
                "sketch-capacity": str(sketch_capacity),
                "seed": str(seed),
            },
        )
    )
    streams = [
        StreamConfig(name=f"raw-{i}", src=f"relay-{i}", dst="central",
                     item_size=RAW_INT_BYTES)
        for i in range(n_sources)
    ]
    return AppConfig(name="count-samps-centralized", stages=stages, streams=streams)
