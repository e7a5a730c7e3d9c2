"""Accuracy and performance metrics for the experiment harness."""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".accuracy": ("frequency_error", "topk_accuracy", "topk_recall"),
    ".ascii_chart": ("multi_chart", "strip_chart"),
    ".rates": ("RateEstimator",),
})
