"""Bounded-memory frequency summaries ("summary structures").

The paper's count-samps application maintains, at each stream source, a
summary structure whose *size* is the adjustment parameter: "the number of
frequently occurring values at each sub-stream is the adjustment parameter"
(Section 5.1).  The algorithm the authors implemented is the approximate
counting-samples method of Gibbons and Matias [18].

This subpackage provides that algorithm (:class:`CountingSamples`) plus
three classic alternatives with the same interface — the middleware's
adaptation can also change "the choice of the algorithm to be used"
(Section 1), and the ablation benches compare them:

* :class:`MisraGries` — deterministic frequent-items with k counters.
* :class:`SpaceSaving` — Metwally et al.'s stream summary.
* :class:`LossyCounting` — Manku & Motwani's epsilon-deficient counts.
* :class:`ExactCounter` — unbounded ground truth, used for accuracy
  metrics and for the "communicate everything" centralized baseline.

:func:`~repro.streams.sketches.factory.make_sketch` builds one by name.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".base": ("FrequencySketch", "SketchError"),
    ".count_min": ("CountMin",),
    ".counting_samples": ("CountingSamples",),
    ".exact": ("ExactCounter",),
    ".factory": ("make_sketch",),
    ".lossy_counting": ("LossyCounting",),
    ".misra_gries": ("MisraGries",),
    ".space_saving": ("SpaceSaving",),
})
