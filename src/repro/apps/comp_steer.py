"""comp-steer: computational steering (Sections 5.1, 5.4, 5.5).

A simulation emits mesh values; a :class:`SamplingStage` (on/near the
simulation host) forwards a middleware-chosen fraction of them; an
:class:`AnalysisStage` (on a separate machine) post-processes the sampled
stream at a configurable per-byte cost and detects features for steering.

The sampling rate is the adjustment parameter, declared exactly like the
paper's Section 3.3 example (initial value from configuration, range
[0.01, 1], increment 0.01, direction −1).  Figure 8 varies the analysis
cost (1–20 ms/byte); Figure 9 varies the data generation rate against a
10 KB/s link; in both, the plotted series is this parameter's history.

Configuration properties:

``sampling-rate``       initial rate (Fig 8 uses 0.13, Fig 9 uses 0.01)
``item-bytes``          bytes per mesh value on the wire (default 8)
``analysis-ms-per-byte``  post-processing cost at the analysis stage
``feature-threshold``   value above which the analysis flags a feature
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.api import StageContext, StreamProcessor
from repro.core.options import stamp
from repro.grid.config import AppConfig, ParameterConfig, StageConfig, StreamConfig
from repro.grid.resources import ResourceRequirement
from repro.simnet.hosts import CpuCostModel
from repro.streams.sampling import SystematicSampler

__all__ = ["AnalysisStage", "SamplingStage", "build_comp_steer_config"]

#: Wire bytes per forwarded mesh value.
DEFAULT_ITEM_BYTES = 8.0


class SamplingStage(StreamProcessor):
    """Adjustable-rate sampler in front of the analysis machine.

    Mirrors the paper's ``Sampler`` example: the sampling rate is exposed
    via ``specify_parameter`` and re-read via ``get_suggested_value`` on
    every item.  Sampling itself is nearly free; the cost the experiments
    vary lives downstream.
    """

    cost_model = CpuCostModel(per_item=1e-5)

    def __init__(self) -> None:
        self._sampler: Optional[SystematicSampler] = None
        self._item_bytes = DEFAULT_ITEM_BYTES

    def setup(self, context: StageContext) -> None:
        props = context.properties
        initial = float(props.get("sampling-rate", "0.13"))
        self._item_bytes = float(props.get("item-bytes", str(DEFAULT_ITEM_BYTES)))
        context.specify_parameter(
            "sampling-rate",
            initial=initial,
            minimum=float(props.get("sampling-rate-min", "0.01")),
            maximum=float(props.get("sampling-rate-max", "1.0")),
            increment=float(props.get("sampling-rate-increment", "0.01")),
            direction=-1,  # the paper's example: raising the rate slows B
        )
        self._sampler = SystematicSampler(initial)

    def on_item(self, payload: Any, context: StageContext) -> None:
        assert self._sampler is not None
        self._sampler.rate = context.get_suggested_value("sampling-rate")
        if self._sampler.offer(payload):
            context.emit(payload, size=self._item_bytes)

    def result(self) -> Dict[str, float]:
        assert self._sampler is not None
        return {
            "seen": float(self._sampler.seen),
            "kept": float(self._sampler.kept),
            "effective_rate": self._sampler.effective_rate,
        }


class AnalysisStage(StreamProcessor):
    """Post-processing with a per-byte CPU cost (the Figure 8 knob).

    Maintains running statistics of the sampled stream and flags feature
    events (values above ``feature-threshold``) — the signal a steering
    client would act on.
    """

    def __init__(self) -> None:
        self._threshold = 1.5
        self._count = 0
        self._total = 0.0
        self._maximum = float("-inf")
        self._detections: List[Tuple[float, float]] = []

    def setup(self, context: StageContext) -> None:
        props = context.properties
        ms_per_byte = float(props.get("analysis-ms-per-byte", "1.0"))
        if ms_per_byte < 0:
            raise ValueError(f"analysis-ms-per-byte must be >= 0, got {ms_per_byte}")
        # Instance-level override of the class attribute: cost in seconds.
        self.cost_model = CpuCostModel(per_byte=ms_per_byte / 1000.0)
        self._threshold = float(props.get("feature-threshold", "1.5"))

    def on_item(self, payload: Any, context: StageContext) -> None:
        value = self._value_of(payload)
        self._count += 1
        self._total += value
        if value > self._maximum:
            self._maximum = value
        if value > self._threshold:
            self._detections.append((context.now, value))

    @staticmethod
    def _value_of(payload: Any) -> float:
        """Accept bare floats or MeshPoint-like objects."""
        if hasattr(payload, "value"):
            return float(payload.value)
        return float(payload)

    def result(self) -> Dict[str, Any]:
        return {
            "count": self._count,
            "mean": self._total / self._count if self._count else 0.0,
            "max": self._maximum if self._count else 0.0,
            "detections": list(self._detections),
        }

    def current_answer(self) -> Dict[str, Any]:
        """Live statistics for continuous queries / steering clients."""
        return self.result()


def _register_codes(repository) -> None:
    """Publish the comp-steer stage codes (idempotent)."""
    for url, factory in [
        ("repo://comp-steer/sampler", SamplingStage),
        ("repo://comp-steer/analysis", AnalysisStage),
    ]:
        if url not in repository:
            repository.publish(url, factory)


def build_comp_steer_config(
    simulation_host: str,
    initial_rate: float = 0.13,
    analysis_ms_per_byte: float = 1.0,
    item_bytes: float = DEFAULT_ITEM_BYTES,
    feature_threshold: float = 1.5,
    analysis_host: Optional[str] = None,
) -> AppConfig:
    """The comp-steer application configuration.

    The sampler is pinned near the simulation host; the analysis stage is
    pinned to ``analysis_host`` if given, otherwise left to the broker.
    """
    sampler_props = {
        "sampling-rate": str(initial_rate),
        "item-bytes": str(item_bytes),
    }
    analysis_req = (
        ResourceRequirement(placement_hint=analysis_host)
        if analysis_host
        else ResourceRequirement()
    )
    return AppConfig(
        name="comp-steer",
        stages=[
            StageConfig(
                name="sampler",
                code_url="repo://comp-steer/sampler",
                requirement=ResourceRequirement(placement_hint=f"near:{simulation_host}"),
                parameters=[
                    ParameterConfig(
                        name="sampling-rate",
                        init=initial_rate,
                        minimum=0.01,
                        maximum=1.0,
                        increment=0.01,
                        direction=-1,
                    )
                ],
                properties=sampler_props,
            ),
            StageConfig(
                name="analysis",
                code_url="repo://comp-steer/analysis",
                requirement=analysis_req,
                # A small input buffer keeps the load signal tight to the
                # actual arrival/consumption balance: a deep queue would
                # keep reporting overload for the whole time its backlog
                # drains, making the sampling rate oscillate far more than
                # the paper's trajectories.
                properties=stamp({
                    "analysis-ms-per-byte": str(analysis_ms_per_byte),
                    "feature-threshold": str(feature_threshold),
                }, queue_capacity=40),
            ),
        ],
        streams=[
            StreamConfig(name="sampled", src="sampler", dst="analysis",
                         item_size=item_bytes),
        ],
    )
