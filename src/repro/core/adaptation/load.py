"""Load factors and the long-term load estimator (Section 4.2).

Equation numbering follows the paper:

* Eq. 1 — φ₁(t₁, t₂) = (t₁ − t₂) / (t₁ + t₂), the lifetime over/under
  balance.
* Eq. 2 — φ₂(w), the windowed recent over/under balance.  The printed
  formula is corrupted in the scanned text (it is not a function into
  [−1, 1] as the text states); both forms implemented here satisfy the
  stated contract: range [−1, 1], sign(φ₂) = sign(w), φ₂(0) = 0, and
  |φ₂| → 1 as |w| → W.
* Eq. 3 — φ₃(d̄), the recent average queue length relative to the
  expected length D, normalized by D below and by C − D above.

The blended update (paper's d̃ equation):

    d̃ ← α·d̃ + (1 − α)·(P₁φ₁ + P₂φ₂ + P₃φ₃)·C

keeps d̃ ∈ [−C, C]; when d̃ leaves [LT₁·C, LT₂·C] the stage reports an
exception upstream.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Optional, Protocol

from repro.core.adaptation.policy import EXPECTED_FILL, LT1, LT2, NEUTRAL_BAND, AdaptationPolicy
from repro.core.adaptation.protocol import LoadException, LoadExceptionKind
from repro.simnet.trace import TimeSeries


class QueueLike(Protocol):
    """What the estimator needs from a stage input queue.

    Satisfied by :class:`repro.simnet.resources.BoundedQueue` (simulated
    runtime), and by :class:`repro.core.items.ItemQueue` beneath the
    threaded runtime's queue and the networked worker's
    :class:`repro.net.channels.AsyncInbox`.
    """

    capacity: int

    @property
    def current_length(self) -> int:
        """Number of items in the queue right now."""
        ...

    @property
    def recent_average(self) -> float:
        """Mean queue length over the recent sampling window."""
        ...

__all__ = ["LoadEstimator", "phi1", "phi2_linear", "phi2_saturating", "phi3"]


def phi1(t1: int, t2: int) -> float:
    """Eq. 1 — lifetime over/under-load balance, in [−1, 1]."""
    if t1 < 0 or t2 < 0:
        raise ValueError(f"counts must be >= 0, got t1={t1}, t2={t2}")
    total = t1 + t2
    if total == 0:
        return 0.0
    return (t1 - t2) / total


def phi2_linear(w: int, window: int) -> float:
    """Linear φ₂: w / W."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if abs(w) > window:
        raise ValueError(f"|w| = {abs(w)} exceeds window {window}")
    return w / window


def phi2_saturating(w: int, window: int) -> float:
    """Saturating φ₂: sign(w)·(1 − e^(−|w|/W)) / (1 − e⁻¹).

    Responds faster than the linear form for small |w| (quick reaction to
    the first few over-loads) while still respecting |φ₂| <= 1 at |w| = W.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if abs(w) > window:
        raise ValueError(f"|w| = {abs(w)} exceeds window {window}")
    if w == 0:
        return 0.0
    magnitude = (1.0 - math.exp(-abs(w) / window)) / (1.0 - math.exp(-1.0))
    return math.copysign(min(1.0, magnitude), w)


def phi3(d_bar: float, expected: float, capacity: float) -> float:
    """Eq. 3 — recent average queue length vs the expected length.

    Negative (down to −1) when the queue runs below D, positive (up to 1)
    when it runs above, with the positive side normalized by the remaining
    headroom C − D.
    """
    if capacity <= 0:
        raise ValueError(f"capacity must be > 0, got {capacity}")
    if not 0 < expected < capacity:
        raise ValueError(
            f"expected length must be in (0, C={capacity}), got {expected}"
        )
    if d_bar < 0:
        raise ValueError(f"average queue length must be >= 0, got {d_bar}")
    if d_bar < expected:
        return (d_bar - expected) / expected
    return min(1.0, (d_bar - expected) / (capacity - expected))


class LoadEstimator:
    """Per-stage tracker of the long-term load score d̃.

    Call :meth:`sample` on the adaptation cadence; it classifies the
    instant (over / under / neutral), refreshes t₁, t₂, w and d̄, folds
    them into d̃, and returns a :class:`LoadException` to forward
    upstream when d̃ has left [LT₁·C, LT₂·C] — or ``None``.

    The d̃ trajectory is recorded in :attr:`history` for the experiment
    harness and tests.
    """

    def __init__(self, stage_name: str, queue: QueueLike, policy: AdaptationPolicy) -> None:
        self.stage_name = stage_name
        self.queue = queue
        self.policy = policy
        self.capacity = float(queue.capacity)
        self.expected = EXPECTED_FILL * self.capacity
        #: Lifetime over/under-load counts (paper: t₁, t₂).
        self.t1 = 0
        self.t2 = 0
        #: Window of the last W non-neutral classifications (+1 / −1).
        self._window: Deque[int] = deque(maxlen=policy.window)
        #: Long-term load score d̃ ∈ [−C, C].
        self.d_tilde = 0.0
        self.history = TimeSeries(f"{stage_name}.d_tilde")
        self._phi2 = phi2_saturating if policy.phi2_form == "saturating" else phi2_linear

    @property
    def w(self) -> int:
        """Recent over/under balance (paper: w), |w| <= W."""
        return sum(self._window)

    def classify(self, current_length: int) -> int:
        """+1 over-loaded, −1 under-loaded, 0 neutral at this instant."""
        if current_length > self.expected * (1.0 + NEUTRAL_BAND):
            return 1
        if current_length < self.expected * (1.0 - NEUTRAL_BAND):
            return -1
        return 0

    def sample(self, now: float) -> Optional[LoadException]:
        """One adaptation-cadence observation of the queue."""
        verdict = self.classify(self.queue.current_length)
        if verdict > 0:
            self.t1 += 1
            self._window.append(1)
        elif verdict < 0:
            self.t2 += 1
            self._window.append(-1)

        p = self.policy
        blend = (
            p.p1 * phi1(self.t1, self.t2)
            + p.p2 * self._phi2(self.w, p.window)
            + p.p3 * phi3(self.queue.recent_average, self.expected, self.capacity)
        )
        self.d_tilde = p.alpha * self.d_tilde + (1.0 - p.alpha) * blend * self.capacity
        self.history.record(now, self.d_tilde)

        if self.d_tilde > LT2 * self.capacity:
            return LoadException(
                kind=LoadExceptionKind.OVERLOAD,
                reporter=self.stage_name,
                time=now,
                score=self.d_tilde,
            )
        if self.d_tilde < LT1 * self.capacity:
            return LoadException(
                kind=LoadExceptionKind.UNDERLOAD,
                reporter=self.stage_name,
                time=now,
                score=self.d_tilde,
            )
        return None

    @property
    def normalized_score(self) -> float:
        """d̃ / C ∈ [−1, 1] — the controller's local-load input."""
        return self.d_tilde / self.capacity

    def snapshot(self) -> dict:
        """Checkpointable state (see :mod:`repro.resilience`).

        The :attr:`history` series is observability, not state — it stays
        with the metrics registry and is not part of the snapshot.
        """
        return {
            "t1": self.t1,
            "t2": self.t2,
            "window": list(self._window),
            "d_tilde": self.d_tilde,
        }

    def restore(self, state: dict) -> None:
        """Rebuild in place (the registry keeps wrapping this instance)."""
        self.t1 = int(state["t1"])
        self.t2 = int(state["t2"])
        self._window = deque(
            (int(v) for v in state["window"]), maxlen=self.policy.window
        )
        self.d_tilde = float(state["d_tilde"])

    def __repr__(self) -> str:
        return (
            f"LoadEstimator({self.stage_name!r}, d_tilde={self.d_tilde:.2f}, "
            f"t1={self.t1}, t2={self.t2}, w={self.w})"
        )
