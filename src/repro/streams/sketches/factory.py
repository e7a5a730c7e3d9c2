"""Build a frequency sketch by name (the ``sketch`` configuration property)."""

from repro.streams.sketches.base import FrequencySketch, SketchError
from repro.streams.sketches.count_min import CountMin
from repro.streams.sketches.counting_samples import CountingSamples
from repro.streams.sketches.exact import ExactCounter
from repro.streams.sketches.lossy_counting import LossyCounting
from repro.streams.sketches.misra_gries import MisraGries
from repro.streams.sketches.space_saving import SpaceSaving

__all__ = ["make_sketch"]

_SKETCHES = {
    "count-min": CountMin,
    "counting-samples": CountingSamples,
    "misra-gries": MisraGries,
    "space-saving": SpaceSaving,
    "lossy-counting": LossyCounting,
    "exact": ExactCounter,
}


def make_sketch(kind: str, capacity: int, **kwargs) -> FrequencySketch:
    """Factory keyed by sketch name (used by configuration properties).

    ``kind`` is one of ``counting-samples``, ``misra-gries``,
    ``space-saving``, ``lossy-counting``, ``exact``.
    """
    try:
        cls = _SKETCHES[kind]
    except KeyError:
        raise SketchError(
            f"unknown sketch {kind!r}; expected one of {sorted(_SKETCHES)}"
        ) from None
    return cls(capacity, **kwargs)
