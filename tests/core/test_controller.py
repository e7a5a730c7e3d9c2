"""Unit tests for the ΔP controller, σ estimators, and exception protocol."""

import pytest

from repro.core.adaptation import (
    AdaptationPolicy,
    ExceptionCounter,
    LoadException,
    LoadExceptionKind,
    ParameterController,
    PolicyError,
    SigmaEstimator,
)
from repro.core.api import AdjustmentParameter


def make_param(direction=-1, initial=0.5):
    return AdjustmentParameter(
        "rate", initial=initial, minimum=0.0, maximum=1.0, increment=0.01,
        direction=direction,
    )


class TestSigmaEstimator:
    def test_validation(self):
        with pytest.raises(ValueError):
            SigmaEstimator(-1, 8)
        with pytest.raises(ValueError):
            SigmaEstimator(1, 1)
        with pytest.raises(ValueError):
            SigmaEstimator(1, 8, scale=0)

    def test_constant_gain_with_single_observation(self):
        sigma = SigmaEstimator(weight=1.0, window=8)
        assert sigma.value(0.5) == 1.0

    def test_steady_signal_gives_base_gain(self):
        sigma = SigmaEstimator(weight=1.0, window=8)
        for _ in range(10):
            last = sigma.value(0.3)
        assert last == pytest.approx(1.0)

    def test_unsteady_signal_boosts_gain(self):
        sigma = SigmaEstimator(weight=1.0, window=8)
        values = []
        for i in range(10):
            values.append(sigma.value(1.0 if i % 2 else -1.0))
        assert values[-1] > 1.5

    def test_weight_zero_disables_boost(self):
        sigma = SigmaEstimator(weight=0.0, window=8)
        for i in range(10):
            assert sigma.value(1.0 if i % 2 else -1.0) == 1.0


class TestExceptionCounter:
    def _exc(self, kind, reporter="C"):
        return LoadException(kind=kind, reporter=reporter, time=0.0)

    def test_counts_per_reporter(self):
        counter = ExceptionCounter()
        counter.report(self._exc(LoadExceptionKind.OVERLOAD))
        counter.report(self._exc(LoadExceptionKind.OVERLOAD))
        counter.report(self._exc(LoadExceptionKind.UNDERLOAD))
        assert counter.counts("C") == (2, 1)
        assert counter.counts("other") == (0, 0)

    def test_aggregate_over_reporters(self):
        counter = ExceptionCounter()
        counter.report(self._exc(LoadExceptionKind.OVERLOAD, "C"))
        counter.report(self._exc(LoadExceptionKind.OVERLOAD, "D"))
        assert counter.aggregate() == (2, 0)

    def test_drain_resets_window_but_not_lifetime(self):
        counter = ExceptionCounter()
        counter.report(self._exc(LoadExceptionKind.OVERLOAD))
        assert counter.drain() == (1, 0)
        assert counter.aggregate() == (0, 0)
        assert counter.total_overloads == 1


class TestPolicyValidation:
    def test_defaults_valid(self):
        AdaptationPolicy()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 0.0},
            {"alpha": 1.0},
            {"window": 0},
            {"alpha": float("nan")},
            {"p1": 0.5, "p2": 0.5, "p3": 0.5},
            {"p1": -0.1, "p2": 0.6, "p3": 0.5},
            {"p1": 0.2, "p2": 0.3, "p3": 0.49},
            {"p1": 1.2, "p2": -0.2, "p3": 0.0},
            {"window": -1},
            {"phi2_form": "quadratic"},
            {"phi2_form": "Linear"},
            {"sigma_variability": -1},
            {"sigma_variability": -1e-9},
            {"sample_interval": -0.5},
            {"sample_interval": 0.0},
            {"adjust_every": 0},
        ],
    )
    def test_invalid_policies_rejected(self, kwargs):
        with pytest.raises(PolicyError):
            AdaptationPolicy(**kwargs)

    def test_with_override(self):
        policy = AdaptationPolicy().with_(alpha=0.5)
        assert policy.alpha == 0.5
        with pytest.raises(PolicyError):
            AdaptationPolicy().with_(alpha=2.0)


class TestParameterController:
    def test_output_direction_validation(self):
        with pytest.raises(ValueError):
            ParameterController(make_param(), AdaptationPolicy(), output_direction=0)

    def test_local_score_validation(self):
        ctl = ParameterController(make_param(), AdaptationPolicy())
        with pytest.raises(ValueError):
            ctl.compute_delta(2.0, 0, 0)

    # direction = -1 (the paper's sampler): raising the value slows B.

    def test_local_overload_decreases_accuracy_parameter(self):
        ctl = ParameterController(make_param(direction=-1), AdaptationPolicy())
        assert ctl.compute_delta(local_score=0.8, t1=0, t2=0) < 0

    def test_local_underload_increases_accuracy_parameter(self):
        ctl = ParameterController(make_param(direction=-1), AdaptationPolicy())
        assert ctl.compute_delta(local_score=-0.8, t1=0, t2=0) > 0

    def test_downstream_overload_decreases_accuracy_parameter(self):
        ctl = ParameterController(make_param(direction=-1), AdaptationPolicy())
        assert ctl.compute_delta(local_score=0.0, t1=5, t2=0) < 0

    def test_downstream_underload_increases_accuracy_parameter(self):
        ctl = ParameterController(make_param(direction=-1), AdaptationPolicy())
        assert ctl.compute_delta(local_score=0.0, t1=0, t2=5) > 0

    # direction = +1 (paper's Eq. 4 canonical form).

    def test_eq4_local_term_positive_for_speed_parameter(self):
        ctl = ParameterController(make_param(direction=1), AdaptationPolicy())
        assert ctl.compute_delta(local_score=0.8, t1=0, t2=0) > 0

    def test_eq4_downstream_term_negative(self):
        ctl = ParameterController(make_param(direction=1), AdaptationPolicy())
        assert ctl.compute_delta(local_score=0.0, t1=5, t2=0) < 0

    def test_output_direction_flips_downstream_term(self):
        ctl = ParameterController(
            make_param(direction=-1), AdaptationPolicy(), output_direction=-1
        )
        assert ctl.compute_delta(local_score=0.0, t1=5, t2=0) > 0

    def test_no_signals_no_change(self):
        ctl = ParameterController(make_param(), AdaptationPolicy())
        assert ctl.compute_delta(0.0, 0, 0) == 0.0

    def test_adjust_clamps_to_range(self):
        ctl = ParameterController(make_param(direction=-1, initial=0.05), AdaptationPolicy())
        for i in range(100):
            value = ctl.adjust(local_score=0.9, t1=3, t2=0, now=float(i))
        assert value == 0.0

    def test_saturation_does_not_wind_up(self):
        """Anti-windup: however long the parameter sits at ``max``, its
        raw state stays in ``[min, max]``, so the first rounds of the
        opposite signal bring the value back off the bound.  (A raw
        state allowed past ``max`` would need as many rounds to unwind
        as it spent saturated.)"""
        param = make_param(direction=-1, initial=0.5)
        ctl = ParameterController(param, AdaptationPolicy())
        for i in range(200):  # underload: the value rises and saturates
            value = ctl.adjust(local_score=-1.0, t1=0, t2=0, now=float(i))
            assert param.minimum <= ctl._raw <= param.maximum
        assert value == param.maximum
        for i in range(200, 203):  # overload: it must leave max at once
            value = ctl.adjust(local_score=1.0, t1=0, t2=0, now=float(i))
            assert param.minimum <= ctl._raw <= param.maximum
            if value < param.maximum:
                break
        assert value < param.maximum, "the value stayed at max: the raw state wound up"

    def test_adjust_quantizes_to_increment(self):
        param = make_param(direction=-1)
        ctl = ParameterController(param, AdaptationPolicy())
        value = ctl.adjust(local_score=-0.5, t1=0, t2=0, now=0.0)
        steps = (value - param.minimum) / param.increment
        assert steps == pytest.approx(round(steps))

    def test_small_signals_accumulate_across_rounds(self):
        # A signal too small to move one increment per round must still
        # move the parameter after enough rounds (raw-value accumulation).
        param = AdjustmentParameter("p", 0.5, 0.0, 1.0, increment=0.1, direction=-1)
        policy = AdaptationPolicy(sigma_variability=0.0)
        ctl = ParameterController(param, policy)
        for i in range(30):
            ctl.adjust(local_score=-1.0, t1=0, t2=0, now=float(i))
        assert param.value > 0.5

    def test_history_recorded_on_adjust(self):
        param = make_param()
        ctl = ParameterController(param, AdaptationPolicy())
        ctl.adjust(0.5, 0, 0, now=1.0)
        ctl.adjust(0.5, 0, 0, now=2.0)
        assert len(param.history) == 2

    def test_equilibrium_between_opposing_signals(self):
        # Local underload pushes the value up; downstream overload pushes
        # it down.  With symmetric gains they cancel.
        policy = AdaptationPolicy(sigma_variability=0.0)
        ctl = ParameterController(make_param(direction=-1), policy)
        delta = ctl.compute_delta(local_score=-0.5, t1=1, t2=1)
        assert delta > 0  # phi1(1,1)=0, so only the local term acts
        delta2 = ctl.compute_delta(local_score=0.0, t1=1, t2=1)
        assert delta2 == 0.0


class TestAdjustmentParameter:
    def test_validation(self):
        with pytest.raises(Exception):
            AdjustmentParameter("p", 0.5, 1.0, 0.0, 0.1, 1)
        with pytest.raises(Exception):
            AdjustmentParameter("p", 2.0, 0.0, 1.0, 0.1, 1)
        with pytest.raises(Exception):
            AdjustmentParameter("p", 0.5, 0.0, 1.0, 0.0, 1)
        with pytest.raises(Exception):
            AdjustmentParameter("p", 0.5, 0.0, 1.0, 0.1, 2)

    def test_set_value_clamps(self):
        param = make_param()
        assert param.set_value(5.0, 0.0) == 1.0
        assert param.set_value(-5.0, 1.0) == 0.0

    def test_quantize(self):
        param = make_param()
        assert param.quantize(0.024) == pytest.approx(0.02)
        assert param.quantize(0.026) == pytest.approx(0.03)
        assert param.quantize(-0.024) == pytest.approx(-0.02)

    def test_span(self):
        assert make_param().span == 1.0
