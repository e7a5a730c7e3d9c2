"""Resilience configuration and the dead-letter queue.

One :class:`ResilienceConfig` object switches a runtime from the seed's
fail-stop behaviour (any fault aborts the run) into recovery mode; every
knob has a conservative default so ``ResilienceConfig()`` is a sensible
starting point.  The retry backoff and the recovery watch's cadence are
constants.  The :class:`DeadLetterQueue` holds quarantined poison
items — input that made ``on_item`` raise under the ``dead-letter``
error policy, or messages that exhausted their transmission retries —
so operators can inspect *what* was dropped rather than just a count.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, List, Optional

__all__ = [
    "DEAD_LETTER_LIMIT", "DeadLetter", "DeadLetterQueue", "ERROR_POLICIES",
    "RECOVERY_POLL", "RETRY_BASE_DELAY", "RETRY_JITTER", "RETRY_MULTIPLIER",
    "ResilienceConfig", "retry_delay",
]

#: What the runtime does when ``on_item`` raises:
#: ``fail`` aborts the run (seed behaviour), ``skip`` drops the item and
#: counts it, ``dead-letter`` drops it into the :class:`DeadLetterQueue`.
ERROR_POLICIES = ("fail", "skip", "dead-letter")
#: Bound on a run's retained :class:`DeadLetter` records (counters keep
#: counting past it).
DEAD_LETTER_LIMIT = 1000
#: Backoff before the first transmission retry, in seconds.
RETRY_BASE_DELAY = 0.05
#: Exponential backoff factor per subsequent retry.
RETRY_MULTIPLIER = 2.0
#: Uniform jitter fraction ``j``: each delay is scaled by a factor drawn
#: from ``[1 - j/2, 1 + j/2]`` (centered on the exponential delay), so
#: concurrent retriers spread out instead of marching in lockstep.
RETRY_JITTER = 0.5
#: How often the simulated runtime re-checks a down host for in-place
#: recovery (crash + ``recover()`` without redeployment), in seconds.
RECOVERY_POLL = 0.25


def retry_delay(attempt: int, rng: Any) -> float:
    """Backoff before retry number ``attempt`` (0-based), with jitter.

    The jitter is *centered*: the exponential delay is scaled by a
    factor drawn uniformly from ``[1 - j/2, 1 + j/2]``.  A one-sided
    ``[1, 1 + j]`` scale would only ever lengthen delays, leaving
    simultaneous failures synchronized (every retrier waits at least the
    same base backoff, so retry storms arrive together); centering
    desynchronizes them while keeping the mean delay equal to the
    exponential schedule.  Determinism is preserved: ``rng`` is the
    caller's seeded generator.
    """
    base = RETRY_BASE_DELAY * (RETRY_MULTIPLIER ** attempt)
    factor = 1.0 + RETRY_JITTER * (rng.random() - 0.5)
    return base * factor


@dataclass(frozen=True)
class ResilienceConfig:
    """Fault-tolerance knobs for a runtime.

    Parameters
    ----------
    checkpoint_interval:
        Seconds (simulated, or scaled wall-clock on the threaded runtime)
        between stage checkpoints; ``None`` disables checkpointing (a
        failover then restarts the stage from empty state and replays the
        whole retained buffer, at most
        :data:`repro.resilience.replay.REPLAY_LIMIT` entries per channel).
    error_policy:
        One of :data:`ERROR_POLICIES`; governs ``on_item`` exceptions
        (``dead-letter`` retains at most :data:`DEAD_LETTER_LIMIT`).
    max_retries:
        Transmission retries after the first failed attempt, spaced by
        :func:`retry_delay`.
    seed:
        Seeds the retry-jitter RNG (keeps simulated runs deterministic).
    """

    checkpoint_interval: Optional[float] = 1.0
    error_policy: str = "fail"
    max_retries: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.checkpoint_interval is not None and self.checkpoint_interval <= 0:
            raise ValueError(
                f"checkpoint_interval must be > 0 or None, got {self.checkpoint_interval}"
            )
        if self.error_policy not in ERROR_POLICIES:
            raise ValueError(
                f"error_policy must be one of {ERROR_POLICIES}, got {self.error_policy!r}"
            )
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")


@dataclass(frozen=True)
class DeadLetter:
    """One quarantined item."""

    stage: str
    payload: Any
    time: float
    error: str
    #: ``"processing"`` (on_item raised) or ``"transmission"`` (retries
    #: exhausted on the wire).
    reason: str = "processing"


class DeadLetterQueue:
    """Bounded FIFO of quarantined items, shared by a whole run."""

    def __init__(self, limit: int = DEAD_LETTER_LIMIT) -> None:
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        self.limit = limit
        self._letters: Deque[DeadLetter] = deque(maxlen=limit)
        #: Letters evicted because the queue was full (still quarantined,
        #: no longer inspectable).
        self.evicted = 0
        self.total = 0

    def add(self, letter: DeadLetter) -> None:
        if len(self._letters) == self.limit:
            self.evicted += 1
        self._letters.append(letter)
        self.total += 1

    @property
    def letters(self) -> List[DeadLetter]:
        return list(self._letters)

    def __len__(self) -> int:
        return len(self._letters)

    def __repr__(self) -> str:
        return f"DeadLetterQueue(retained={len(self._letters)}, total={self.total})"
