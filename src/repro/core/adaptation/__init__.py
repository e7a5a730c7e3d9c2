"""The GATES self-adaptation algorithm (Section 4 of the paper).

Components, mapped to the paper's symbols (Figure 2):

* :mod:`repro.core.adaptation.load` — the load factors φ₁(t₁,t₂), φ₂(w),
  φ₃(d̄) and the :class:`LoadEstimator` maintaining the long-term load
  score d̃ per stage queue, emitting over-/under-load exceptions when d̃
  leaves [LT₁, LT₂].
* :mod:`repro.core.adaptation.policy` — :class:`AdaptationPolicy`, the
  bundle of constants (α, W, D, C, P₁P₂P₃, LT₁, LT₂, σ gains, sampling
  cadence) with the paper's constraints validated.
* :mod:`repro.core.adaptation.controller` — the ΔP parameter controller
  implementing Equation 4, with σ₁/σ₂ variability estimators.
* :mod:`repro.core.adaptation.protocol` — the exception-reporting channel
  between a stage and its upstream ("the server reported to the sending
  server").
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".controller": ("ParameterController", "SigmaEstimator"),
    ".load": ("LoadEstimator", "phi1", "phi2_linear", "phi2_saturating", "phi3"),
    ".policy": ("AdaptationPolicy", "PolicyError"),
    ".protocol": ("ExceptionCounter", "LoadException", "LoadExceptionKind"),
})
