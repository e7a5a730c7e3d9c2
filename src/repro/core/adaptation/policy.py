"""Constants of the self-adaptation algorithm.

The paper's Figure 2 lists the constants: learning rate α, window size W,
expected queue length D, queue capacity C, weights P₁+P₂+P₃ = 1, and the
thresholds LT₁ < LT₂ on the long-term load score d̃ ∈ [−C, C].  D, LT₁
and LT₂ are fixed here, like the gains and step of the controller below:
nothing in the evaluation varies them.  :class:`AdaptationPolicy` keeps
only what a run or an ablation arm sets, validated.

Additions beyond the paper (documented in DESIGN.md):

* ``phi2_form`` — the printed φ₂ formula is corrupted in the scanned
  text; we provide the two plausible forms satisfying the stated contract
  (range [−1, 1], sign-preserving, saturating at |w| = W).
* :data:`NEUTRAL_BAND` — the paper says a sample is over-/under-loaded
  when d is "larger or less than some thresholds" without giving them;
  we use D·(1 ± NEUTRAL_BAND).
* ``sigma_variability`` — the paper describes σ₁/σ₂ only as factoring in
  "the rate of variation"; we implement 1 + variability · normalized-std
  over the last :data:`SIGMA_WINDOW` signals, and the ablation bench
  switches variability off to measure its effect.
* :data:`RELIEF_GAIN` / :data:`EXPLORE_GAIN` and :data:`STEP_FRACTION` —
  the controller's asymmetric pressure weights and step size.
* cadence: ``sample_interval`` (load sampling / d̃ update) and
  ``adjust_every`` (parameter adjustments every N samples).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

__all__ = [
    "EXPECTED_FILL", "EXPLORE_GAIN", "LT1", "LT2", "NEUTRAL_BAND", "RELIEF_GAIN",
    "SIGMA_WINDOW", "STEP_FRACTION", "AdaptationPolicy", "PolicyError",
]

#: Expected queue length D as a fraction of capacity C.
EXPECTED_FILL = 0.3
#: Long-term-score thresholds as fractions of C: report an under-load
#: exception when d̃ < LT1·C, an over-load exception when d̃ > LT2·C.
LT1 = -0.35
LT2 = 0.35
#: Neutral band around D when classifying a sample as over/under.
NEUTRAL_BAND = 0.2
#: Asymmetric pressure weights.  A term that *relieves* an overload
#: (shrinks accuracy to protect the real-time constraint) is weighted
#: by ``RELIEF_GAIN``; a term that *exploits* an underload (grows
#: accuracy) by ``EXPLORE_GAIN``.  Relief must dominate: both signals
#: are bounded (a saturated queue reads +1, an idle one −1), so with
#: symmetric weights an overloaded link upstream and an idle server
#: downstream would tie and freeze the parameter above the feasible
#: point instead of converging (this is what makes Figures 8 and 9
#: converge to the constraint).
#: relief > explore also damps the sawtooth around the feasible point:
#: the climb back toward higher accuracy is gentler than the cut that
#: protects the constraint.
RELIEF_GAIN = 2.0
EXPLORE_GAIN = 0.5
#: Samples retained by the σ variability estimators.
SIGMA_WINDOW = 8
#: Fraction of the parameter span moved per unit of raw ΔP signal.
#: Small steps trade convergence speed (~100 s to cross the span at
#: the default cadence) for a tight limit cycle around the feasible
#: point; the paper's 400 s windows leave ample time.
STEP_FRACTION = 0.015


class PolicyError(Exception):
    """Raised when the policy violates the paper's constraints."""


@dataclass(frozen=True)
class AdaptationPolicy:
    """The self-adaptation constants a run or an ablation arm sets."""

    #: Learning rate α ∈ (0, 1); larger = smoother d̃.
    alpha: float = 0.7
    #: Window size W for the recent over/under-load counter w.
    window: int = 12
    #: Weights P₁, P₂, P₃ for φ₁, φ₂, φ₃ (must sum to 1).
    p1: float = 0.2
    p2: float = 0.3
    p3: float = 0.5
    #: φ₂ form: "saturating" (default) or "linear" (see module docstring).
    phi2_form: str = "saturating"
    #: Weight of the variability boost inside σ (0 disables it).
    sigma_variability: float = 1.0
    #: Whether over-/under-load exceptions are reported upstream at all.
    #: Disabling this (ablation) leaves each stage adapting on its local
    #: queue only — downstream processing constraints become invisible.
    exceptions_enabled: bool = True
    #: Seconds between load samples (d̃ updates).
    sample_interval: float = 0.5
    #: Parameter adjustments happen every ``adjust_every`` samples.
    adjust_every: int = 4

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise PolicyError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.window < 1:
            raise PolicyError(f"window must be >= 1, got {self.window}")
        weights = self.p1 + self.p2 + self.p3
        if abs(weights - 1.0) > 1e-9:
            raise PolicyError(f"P1+P2+P3 must equal 1, got {weights}")
        if min(self.p1, self.p2, self.p3) < 0:
            raise PolicyError("P1, P2, P3 must be >= 0")
        if self.phi2_form not in ("saturating", "linear"):
            raise PolicyError(f"unknown phi2_form {self.phi2_form!r}")
        if self.sigma_variability < 0:
            raise PolicyError(
                f"sigma_variability must be >= 0, got {self.sigma_variability}"
            )
        if self.sample_interval <= 0:
            raise PolicyError(
                f"sample_interval must be > 0, got {self.sample_interval}"
            )
        if self.adjust_every < 1:
            raise PolicyError(f"adjust_every must be >= 1, got {self.adjust_every}")

    def with_(self, **overrides: Any) -> "AdaptationPolicy":
        """A copy with some fields replaced (re-validated)."""
        return replace(self, **overrides)
