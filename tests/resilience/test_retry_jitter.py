"""Tests for the centered retry-jitter schedule.

The seed scaled delays one-sidedly by ``[1, 1 + j]``, which only ever
lengthens them: simultaneous failures all waited at least the same base
backoff, so retry storms re-arrived together.  The centered form draws
the scale from ``[1 - j/2, 1 + j/2]``, desynchronizing retriers while
keeping the mean on the exponential schedule.
"""

import random
import statistics

import pytest

from repro.resilience.policy import (
    RETRY_BASE_DELAY, RETRY_JITTER, RETRY_MULTIPLIER, retry_delay,
)


class _Midpoint:
    """An rng whose every draw is the middle of [0, 1): no jitter."""

    def random(self):
        return 0.5


class TestRetryDelay:
    def test_no_jitter_is_exact_exponential(self):
        # With the jitter draw at its midpoint the schedule is the bare
        # exponential: 0.05 s, 0.1 s, ..., doubling per retry.
        rng = _Midpoint()
        assert retry_delay(0, rng) == RETRY_BASE_DELAY == 0.05
        assert retry_delay(1, rng) == pytest.approx(0.1)
        assert retry_delay(3, rng) == pytest.approx(0.4)

    def test_jittered_delay_stays_in_centered_band(self):
        j = RETRY_JITTER
        rng = random.Random(7)
        for attempt in range(4):
            base = RETRY_BASE_DELAY * (RETRY_MULTIPLIER ** attempt)
            for _ in range(200):
                delay = retry_delay(attempt, rng)
                assert base * (1 - j / 2) <= delay <= base * (1 + j / 2)

    def test_jitter_can_shorten_delays(self):
        # The whole point of centering: roughly half the draws land
        # below the un-jittered exponential delay.
        rng = random.Random(3)
        draws = [retry_delay(0, rng) for _ in range(500)]
        shorter = sum(1 for d in draws if d < RETRY_BASE_DELAY)
        assert 150 < shorter < 350

    def test_mean_matches_exponential_schedule(self):
        rng = random.Random(11)
        draws = [retry_delay(0, rng) for _ in range(4000)]
        assert statistics.fmean(draws) == pytest.approx(RETRY_BASE_DELAY, rel=0.05)

    def test_determinism_under_a_seeded_rng(self):
        a = [retry_delay(i, random.Random(99)) for i in range(5)]
        b = [retry_delay(i, random.Random(99)) for i in range(5)]
        assert a == b
