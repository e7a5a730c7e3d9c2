"""Property-based tests (hypothesis) for the adaptation machinery."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adaptation import (
    AdaptationPolicy,
    LoadEstimator,
    ParameterController,
    phi1,
    phi2_linear,
    phi2_saturating,
    phi3,
)
from repro.core.api import AdjustmentParameter
from repro.simnet.engine import Environment
from repro.simnet.resources import BoundedQueue


class TestLoadFactorProperties:
    @given(t1=st.integers(0, 10_000), t2=st.integers(0, 10_000))
    @settings(max_examples=100)
    def test_phi1_range_and_antisymmetry(self, t1, t2):
        value = phi1(t1, t2)
        assert -1.0 <= value <= 1.0
        assert phi1(t2, t1) == -value

    @given(w=st.integers(-20, 20))
    @settings(max_examples=100)
    def test_phi2_forms_agree_on_sign_and_range(self, w):
        for phi2 in (phi2_linear, phi2_saturating):
            value = phi2(w, 20)
            assert -1.0 <= value <= 1.0
            if w > 0:
                assert value > 0
            elif w < 0:
                assert value < 0
            else:
                assert value == 0.0

    @given(
        d_bar=st.floats(min_value=0.0, max_value=500.0),
        expected=st.floats(min_value=1.0, max_value=99.0),
    )
    @settings(max_examples=100)
    def test_phi3_range_and_sign(self, d_bar, expected):
        value = phi3(d_bar, expected, 100.0)
        assert -1.0 <= value <= 1.0
        if d_bar < expected:
            assert value < 0
        elif d_bar > expected:
            assert value > 0


class TestEstimatorProperties:
    @given(
        occupancies=st.lists(st.integers(0, 100), min_size=1, max_size=60),
        alpha=st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(max_examples=50, deadline=None)
    def test_d_tilde_always_bounded_by_capacity(self, occupancies, alpha):
        env = Environment()
        policy = AdaptationPolicy(alpha=alpha)
        queue = BoundedQueue(env, capacity=100, window=policy.window)
        estimator = LoadEstimator("s", queue, policy)
        time = 0.0
        for occupancy in occupancies:
            while queue.current_length < occupancy:
                queue.force_put("x")
            while queue.current_length > occupancy:
                queue.try_get()
            time += 1.0
            estimator.sample(time)
            assert -100.0 <= estimator.d_tilde <= 100.0

    @given(occupancies=st.lists(st.integers(0, 100), min_size=5, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_counts_partition_samples(self, occupancies):
        env = Environment()
        policy = AdaptationPolicy()
        queue = BoundedQueue(env, capacity=100, window=policy.window)
        estimator = LoadEstimator("s", queue, policy)
        neutral = 0
        time = 0.0
        for occupancy in occupancies:
            while queue.current_length < occupancy:
                queue.force_put("x")
            while queue.current_length > occupancy:
                queue.try_get()
            if estimator.classify(occupancy) == 0:
                neutral += 1
            time += 1.0
            estimator.sample(time)
        assert estimator.t1 + estimator.t2 + neutral == len(occupancies)
        assert abs(estimator.w) <= policy.window


class TestControllerProperties:
    @given(
        signals=st.lists(
            st.tuples(
                st.floats(min_value=-1.0, max_value=1.0),
                st.integers(0, 5),
                st.integers(0, 5),
            ),
            min_size=1,
            max_size=50,
        ),
        direction=st.sampled_from([-1, 1]),
        initial=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_value_always_in_range_and_quantized(self, signals, direction, initial):
        param = AdjustmentParameter("p", initial, 0.0, 1.0, 0.05, direction)
        controller = ParameterController(param, AdaptationPolicy())
        for i, (score, t1, t2) in enumerate(signals):
            value = controller.adjust(score, t1, t2, now=float(i))
            assert 0.0 <= value <= 1.0
            steps = value / 0.05
            assert abs(steps - round(steps)) < 1e-6

    @given(score=st.floats(min_value=-1.0, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_delta_sign_matches_direction_times_score(self, score):
        policy = AdaptationPolicy(sigma_variability=0.0)
        for direction in (-1, 1):
            param = AdjustmentParameter("p", 0.5, 0.0, 1.0, 0.01, direction)
            controller = ParameterController(param, policy)
            delta = controller.compute_delta(score, 0, 0)
            if score == 0:
                assert delta == 0.0
            else:
                assert (delta > 0) == ((direction * score) > 0) or delta == 0.0

    @given(
        t1=st.integers(0, 10),
        t2=st.integers(0, 10),
    )
    @settings(max_examples=50, deadline=None)
    def test_downstream_term_sign(self, t1, t2):
        policy = AdaptationPolicy(sigma_variability=0.0)
        param = AdjustmentParameter("p", 0.5, 0.0, 1.0, 0.01, -1)
        controller = ParameterController(param, policy)
        delta = controller.compute_delta(0.0, t1, t2)
        balance = phi1(t1, t2)
        if balance > 0:
            assert delta < 0  # downstream overloaded -> shrink output
        elif balance < 0:
            assert delta > 0
        else:
            assert delta == 0.0


class TestParameterProperties:
    @given(
        raw=st.floats(min_value=-100.0, max_value=100.0),
        increment=st.floats(min_value=0.001, max_value=10.0),
    )
    @settings(max_examples=100)
    def test_quantize_is_nearest_multiple(self, raw, increment):
        param = AdjustmentParameter("p", 0.0, -1000.0, 1000.0, increment, 1)
        quantized = param.quantize(raw)
        steps = quantized / increment
        assert abs(steps - round(steps)) < 1e-6
        assert abs(quantized - raw) <= increment / 2 + 1e-9

    @given(value=st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=100)
    def test_set_value_always_clamps(self, value):
        param = AdjustmentParameter("p", 0.5, 0.0, 1.0, 0.01, 1)
        clamped = param.set_value(value, 0.0)
        assert 0.0 <= clamped <= 1.0
