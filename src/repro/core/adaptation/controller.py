"""The ΔP parameter controller (Equation 4 of the paper).

The paper adjusts a parameter P at stage B from two signals:

* the local long-term load score d̃_B of B's own queue, and
* φ₁(T₁, T₂) over the over-/under-load exceptions that the downstream
  stage C has reported to B,

via   ΔP_B = d̃_B·σ₁(d̃_B) − φ₁(T₁,T₂)·σ₂(φ₁(T₁,T₂)).

Sign conventions (derived in DESIGN.md from the paper's two applications):

* The paper writes Eq. 4 for a parameter whose increase *speeds up* B.
  For a declared ``direction`` of −1 (the paper's own sampler example:
  raising the value slows B down), the local term flips sign — relieving
  B's queue then means *lowering* the value.
* Both paper applications (summary size, sampling rate) send *more* bytes
  downstream when the parameter rises, regardless of ``direction``; the
  downstream term therefore keeps the paper's negative sign as-is.  A
  parameter whose increase reduces output can declare
  ``output_direction=-1`` to flip it.

σ₁/σ₂ "factor in the rate of variation" of their arguments: when the
signal is unsteady the paper wants larger steps.  :class:`SigmaEstimator`
implements 1 + variability_weight · normalized-std over a short window;
setting the policy's ``sigma_variability`` to 0 reduces σ to the
constant 1 (the ablation bench's control arm).

The raw ΔP signal is dimensionless (both inputs live in [−1, 1]); it is
scaled to parameter units by ``STEP_FRACTION · span``, quantized to the
declared increment, and clamped to the declared range.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque

from repro.core.adaptation.load import phi1
from repro.core.adaptation.policy import (
    EXPLORE_GAIN, RELIEF_GAIN, SIGMA_WINDOW, STEP_FRACTION, AdaptationPolicy,
)
from repro.core.api import AdjustmentParameter

__all__ = ["ParameterController", "SigmaEstimator"]


class SigmaEstimator:
    """σ function: 1 boosted by the signal's recent variability.

    ``value(x)`` records x and returns
    ``1 + weight * std(recent) / scale`` where ``scale`` is the
    signal's natural half-range (1.0 for the normalized signals used
    here).  With fewer than two observations the variability term is 0.
    """

    def __init__(self, weight: float, window: int, scale: float = 1.0) -> None:
        if weight < 0:
            raise ValueError(f"weight must be >= 0, got {weight}")
        if window < 2:
            raise ValueError(f"window must be >= 2, got {window}")
        if scale <= 0:
            raise ValueError(f"scale must be > 0, got {scale}")
        self.weight = weight
        self.scale = scale
        self._recent: Deque[float] = deque(maxlen=window)

    def variability(self) -> float:
        """Normalized standard deviation of the recent observations."""
        n = len(self._recent)
        if n < 2:
            return 0.0
        mean = sum(self._recent) / n
        var = sum((x - mean) ** 2 for x in self._recent) / n
        return math.sqrt(var) / self.scale

    def value(self, x: float) -> float:
        """Record ``x`` and return σ(x)."""
        self._recent.append(x)
        return 1.0 + self.weight * self.variability()


class ParameterController:
    """Drives one :class:`AdjustmentParameter` from load signals."""

    def __init__(self, parameter: AdjustmentParameter, policy: AdaptationPolicy,
                 output_direction: int = 1) -> None:
        if output_direction not in (-1, 1):
            raise ValueError(
                f"output_direction must be +1 or -1, got {output_direction}"
            )
        self.parameter = parameter
        #: +1 if increasing the parameter increases bytes sent downstream
        #: (true for both paper applications), −1 otherwise.
        self.output_direction = output_direction
        self.sigma1 = SigmaEstimator(policy.sigma_variability, SIGMA_WINDOW)
        self.sigma2 = SigmaEstimator(policy.sigma_variability, SIGMA_WINDOW)
        #: Raw (unquantized) value tracked between rounds so that signals
        #: smaller than one increment can accumulate instead of being
        #: rounded away every time.
        self._raw = parameter.value

    def compute_delta(self, local_score: float, t1: int, t2: int) -> float:
        """Raw ΔP in parameter units (before quantization/clamping).

        Parameters
        ----------
        local_score:
            d̃_B / C from the stage's :class:`LoadEstimator`, in [−1, 1].
        t1, t2:
            Over-/under-load exception counts received from downstream
            since the last adjustment round.
        """
        if not -1.0 - 1e-9 <= local_score <= 1.0 + 1e-9:
            raise ValueError(f"local_score must be in [-1, 1], got {local_score}")
        downstream = phi1(t1, t2)
        s1 = self.sigma1.value(local_score)
        s2 = self.sigma2.value(downstream)
        # Overload-relief pressure (signal > 0) outweighs underload
        # exploitation (signal < 0): see policy.RELIEF_GAIN.
        g1 = RELIEF_GAIN if local_score > 0 else EXPLORE_GAIN
        g2 = RELIEF_GAIN if downstream > 0 else EXPLORE_GAIN
        signal = (
            self.parameter.direction * local_score * s1 * g1
            - self.output_direction * downstream * s2 * g2
        )
        return signal * STEP_FRACTION * self.parameter.span

    def adjust(self, local_score: float, t1: int, t2: int, now: float) -> float:
        """One adjustment round; returns the new suggested value."""
        delta = self.compute_delta(local_score, t1, t2)
        self._raw = min(self.parameter.maximum, max(self.parameter.minimum, self._raw + delta))
        quantized = self.parameter.minimum + self.parameter.quantize(
            self._raw - self.parameter.minimum
        )
        return self.parameter.set_value(quantized, now)

    def __repr__(self) -> str:
        return f"ParameterController({self.parameter.name!r}, value={self.parameter.value})"
