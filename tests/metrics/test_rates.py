"""Unit tests for arrival-rate estimation."""

import math

import pytest

from repro.metrics.rates import RateEstimator


class TestRateEstimator:
    def test_validation(self):
        with pytest.raises(ValueError):
            RateEstimator(tau=0)
        est = RateEstimator()
        with pytest.raises(ValueError):
            est.observe(0.0, count=0)

    def test_first_event_gives_zero(self):
        est = RateEstimator()
        assert est.observe(1.0) == 0.0

    def test_steady_stream_converges_to_true_rate(self):
        est = RateEstimator(tau=2.0)
        for i in range(1, 200):
            est.observe(i * 0.1)  # 10 events/s
        assert est.rate == pytest.approx(10.0, rel=0.05)

    def test_rate_tracks_change(self):
        est = RateEstimator(tau=1.0)
        t = 0.0
        for _ in range(100):
            t += 0.1
            est.observe(t)  # 10/s
        for _ in range(200):
            t += 0.02
            est.observe(t)  # 50/s
        assert est.rate == pytest.approx(50.0, rel=0.1)

    def test_time_going_backwards_rejected(self):
        est = RateEstimator()
        est.observe(5.0)
        with pytest.raises(ValueError):
            est.observe(4.0)

    def test_simultaneous_events_tolerated(self):
        est = RateEstimator()
        est.observe(1.0)
        est.observe(1.0)
        est.observe(2.0)
        assert est.events == 3

    def test_decayed_rate_drops_during_silence(self):
        est = RateEstimator(tau=1.0)
        for i in range(1, 50):
            est.observe(i * 0.1)
        active = est.decayed_rate(5.0)
        silent = est.decayed_rate(50.0)
        assert silent < active
        assert est.decayed_rate(1e9) == pytest.approx(0.0, abs=1e-3)

    def test_decayed_rate_without_events(self):
        assert RateEstimator().decayed_rate(10.0) == 0.0

    def test_batch_observation(self):
        est = RateEstimator(tau=2.0)
        for i in range(1, 100):
            est.observe(float(i), count=5.0)  # 5 events per second
        assert est.rate == pytest.approx(5.0, rel=0.05)


class TestExactExponentialAlpha:
    """The smoothing factor is the exact ``1 - exp(-gap/tau)``.

    The seed used the rational approximation ``gap / (tau + gap)``,
    which matches to first order for small gaps but badly under-weights
    large ones — after a long silence the estimate should essentially
    restart at the instantaneous rate, not crawl toward it.
    """

    def test_small_gap_matches_rational_to_first_order(self):
        # gap << tau: both forms reduce to gap/tau; the estimators agree
        # closely and the exact update is pinned numerically.
        tau, gap = 5.0, 0.01
        est = RateEstimator(tau=tau)
        est.observe(0.0)
        rate = est.observe(gap)
        alpha = 1.0 - math.exp(-gap / tau)
        assert rate == pytest.approx(alpha * (1.0 / gap), rel=1e-12)
        rational = gap / (tau + gap)
        assert alpha == pytest.approx(rational, rel=gap / tau)

    def test_large_gap_nearly_restarts_at_instantaneous_rate(self):
        # gap >> tau: alpha -> 1, so the estimate lands essentially on
        # the instantaneous rate.  The rational form would keep ~9% of
        # the stale estimate here (alpha = 10tau/(tau+10tau) ~ 0.91).
        tau = 1.0
        est = RateEstimator(tau=tau)
        t = 0.0
        for _ in range(100):
            t += 0.01
            est.observe(t)  # 100 events/s
        assert est.rate > 50.0
        gap = 10.0 * tau
        rate = est.observe(t + gap)  # one event after a long silence
        instantaneous = 1.0 / gap
        assert rate == pytest.approx(instantaneous, rel=0.05)
        # The rational alpha (~0.91 here) would have left the estimate
        # above 9 events/s — two orders of magnitude too high.
        assert rate < 1.0

    def test_alpha_exact_update_pins_the_formula(self):
        tau = 3.0
        est = RateEstimator(tau=tau)
        est.observe(0.0)
        est.observe(1.0)  # rate = alpha1 * 1.0
        before = est.rate
        gap = 2.5
        rate = est.observe(1.0 + gap)
        alpha = 1.0 - math.exp(-gap / tau)
        assert rate == pytest.approx(before + alpha * (1.0 / gap - before))
