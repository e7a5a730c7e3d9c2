"""Unit tests for all frequency sketches."""

import pytest

from repro.streams.sketches import (
    CountingSamples,
    ExactCounter,
    LossyCounting,
    MisraGries,
    SketchError,
    SpaceSaving,
    make_sketch,
)
from repro.streams.sources import IntegerStream

ALL_BOUNDED = [
    lambda cap: CountingSamples(cap, seed=0),
    MisraGries,
    SpaceSaving,
    LossyCounting,
]
ALL = ALL_BOUNDED + [ExactCounter]


@pytest.fixture(scope="module")
def skewed_stream():
    return IntegerStream(20_000, universe=2000, skew=1.3, seed=42)


class TestInterfaceContract:
    @pytest.mark.parametrize("factory", ALL)
    def test_capacity_validation(self, factory):
        with pytest.raises(SketchError):
            factory(0)

    @pytest.mark.parametrize("factory", ALL)
    def test_bad_count_rejected(self, factory):
        sketch = factory(10)
        with pytest.raises(SketchError):
            sketch.update("x", 0)

    @pytest.mark.parametrize("factory", ALL)
    def test_items_seen_counts_everything(self, factory):
        sketch = factory(4)
        sketch.extend(range(100))
        assert sketch.items_seen == 100

    @pytest.mark.parametrize("factory", ALL)
    def test_unseen_value_estimates_zero(self, factory):
        sketch = factory(10)
        sketch.update("a")
        assert sketch.estimate("zzz") == 0.0

    @pytest.mark.parametrize("factory", ALL)
    def test_top_k_ordering(self, factory):
        sketch = factory(10)
        for value, count in [("a", 5), ("b", 9), ("c", 2)]:
            sketch.update(value, count)
        top = sketch.top_k(3)
        counts = [c for _, c in top]
        assert counts == sorted(counts, reverse=True)

    @pytest.mark.parametrize("factory", ALL)
    def test_top_k_validation(self, factory):
        with pytest.raises(SketchError):
            factory(10).top_k(-1)

    @pytest.mark.parametrize("factory", ALL_BOUNDED)
    def test_footprint_bounded(self, factory, skewed_stream):
        sketch = factory(50)
        sketch.extend(skewed_stream)
        assert sketch.footprint <= 50 or isinstance(sketch, LossyCounting)

    @pytest.mark.parametrize("factory", ALL_BOUNDED)
    def test_finds_heavy_hitters(self, factory, skewed_stream):
        sketch = factory(100)
        sketch.extend(skewed_stream)
        truth = {v for v, _ in skewed_stream.true_top_k(5)}
        reported = {v for v, _ in sketch.top_k(20)}
        assert len(truth & reported) >= 4

    @pytest.mark.parametrize("factory", ALL)
    def test_len_matches_footprint(self, factory):
        sketch = factory(10)
        sketch.extend([1, 2, 3])
        assert len(sketch) == sketch.footprint

    @pytest.mark.parametrize("factory", ALL)
    def test_repr_mentions_stats(self, factory):
        sketch = factory(10)
        sketch.update("x")
        assert "seen=1" in repr(sketch)


class TestExactCounter:
    def test_exact(self):
        counter = ExactCounter()
        counter.extend([1, 1, 2, 3, 3, 3])
        assert counter.estimate(3) == 3.0
        assert counter.estimate(1) == 2.0
        assert counter.top_k(2) == [(3, 3.0), (1, 2.0)]

    def test_unbounded(self):
        counter = ExactCounter(capacity=1)
        counter.extend(range(100))
        assert counter.footprint == 100


class TestCountingSamples:
    def test_growth_validation(self):
        with pytest.raises(SketchError):
            CountingSamples(10, growth=1.0)

    def test_exact_while_under_capacity(self):
        cs = CountingSamples(100, seed=0)
        cs.extend([1, 1, 2, 2, 2])
        assert cs.tau == 1.0
        assert cs.estimate(2) == 3.0

    def test_threshold_rises_on_overflow(self):
        cs = CountingSamples(10, seed=0)
        cs.extend(range(100))
        assert cs.tau > 1.0
        assert cs.footprint <= 10

    def test_compensation_applied_after_threshold_rise(self):
        cs = CountingSamples(10, seed=0, compensate=True)
        cs.extend(range(50))
        cs.update("hot", 100)
        raw = dict(cs.raw_entries())["hot"]
        assert cs.estimate("hot") == pytest.approx(raw - 1 + 0.418 * cs.tau)

    def test_compensation_disabled(self):
        cs = CountingSamples(10, seed=0, compensate=False)
        cs.extend(range(50))
        cs.update("hot", 100)
        assert cs.estimate("hot") == dict(cs.raw_entries())["hot"]

    def test_deterministic_given_seed(self, skewed_stream):
        a = CountingSamples(50, seed=3)
        b = CountingSamples(50, seed=3)
        a.extend(skewed_stream)
        b.extend(skewed_stream)
        assert sorted(a.raw_entries()) == sorted(b.raw_entries())

    def test_estimates_close_to_truth_for_heavy_hitters(self, skewed_stream):
        cs = CountingSamples(200, seed=0)
        cs.extend(skewed_stream)
        for value, true_count in skewed_stream.true_top_k(3):
            estimate = cs.estimate(value)
            assert estimate == pytest.approx(true_count, rel=0.15)

    def test_resize_shrinks(self):
        cs = CountingSamples(100, seed=0)
        cs.extend(range(100))
        cs.resize(10)
        assert cs.footprint <= 10
        assert cs.capacity == 10

    def test_resize_validation(self):
        with pytest.raises(SketchError):
            CountingSamples(10).resize(0)

    def test_merge_counting_samples(self):
        a = CountingSamples(100, seed=1)
        b = CountingSamples(100, seed=2)
        a.update("x", 10)
        b.update("x", 5)
        b.update("y", 3)
        a.merge(b)
        assert dict(a.raw_entries()) == {"x": 15, "y": 3}
        assert a.items_seen == 18

    def test_merge_takes_max_tau(self):
        a = CountingSamples(5, seed=1)
        b = CountingSamples(5, seed=2)
        b.extend(range(100))  # forces tau up in b
        assert b.tau > 1.0
        a.merge(b)
        assert a.tau == b.tau

    def test_merge_respects_capacity(self):
        a = CountingSamples(10, seed=1)
        b = CountingSamples(100, seed=2)
        b.extend(range(80))
        a.merge(b)
        assert a.footprint <= 10

    def test_generic_merge_from_other_sketch(self):
        a = CountingSamples(100, seed=0)
        b = MisraGries(50)
        b.update("q", 7)
        a.merge(b)
        assert a.estimate("q") == 7.0


class TestMisraGries:
    def test_guaranteed_heavy_hitter_retained(self):
        mg = MisraGries(9)
        # 'hot' has frequency > n/(k+1): must survive.
        stream = ["hot"] * 300 + list(range(700))
        mg.extend(stream)
        assert mg.estimate("hot") > 0

    def test_undercount_bound(self):
        mg = MisraGries(10)
        stream = IntegerStream(5000, universe=500, seed=0)
        truth = stream.exact_counts()
        mg.extend(stream)
        bound = 5000 / 11
        for value, est in mg.entries():
            assert truth[value] - est <= bound + 1e-9
            assert est <= truth[value]
        assert mg.max_undercount <= bound + 1e-9

    def test_weighted_update(self):
        mg = MisraGries(2)
        mg.update("a", 10)
        mg.update("b", 10)
        mg.update("c", 3)  # decrements a and b by 3
        assert mg.estimate("a") == 7.0
        assert mg.estimate("c") == 0.0
        assert mg.items_seen == 23

    def test_weighted_update_with_leftover_insertion(self):
        mg = MisraGries(2)
        mg.update("a", 2)
        mg.update("b", 5)
        mg.update("c", 10)  # decrement by 2 evicts a; c enters with 8
        assert mg.estimate("c") == 8.0
        assert mg.estimate("a") == 0.0
        assert mg.items_seen == 17

    def test_resize_smaller_evicts(self):
        mg = MisraGries(10)
        for i in range(10):
            mg.update(i, i + 1)
        mg.resize(3)
        assert mg.footprint <= 3


class TestSpaceSaving:
    def test_constant_footprint(self):
        ss = SpaceSaving(10)
        ss.extend(range(1000))
        assert ss.footprint == 10

    def test_overestimate_only(self):
        ss = SpaceSaving(20)
        stream = IntegerStream(5000, universe=100, seed=1)
        truth = stream.exact_counts()
        ss.extend(stream)
        for value, est in ss.entries():
            assert est >= truth.get(value, 0)
            assert est - ss.error_of(value) <= truth.get(value, 0)

    def test_heavy_hitter_guarantee(self):
        ss = SpaceSaving(10)
        stream = ["hot"] * 600 + list(range(400))
        ss.extend(stream)
        assert ss.estimate("hot") >= 600

    def test_resize(self):
        ss = SpaceSaving(10)
        ss.extend(range(100))
        ss.resize(4)
        assert ss.footprint <= 4


class TestLossyCounting:
    def test_undercount_bounded_by_epsilon_n(self):
        lc = LossyCounting(100)  # epsilon = 0.01
        stream = IntegerStream(10_000, universe=500, seed=3)
        truth = stream.exact_counts()
        lc.extend(stream)
        for value, est in lc.entries():
            assert truth[value] >= est
            assert truth[value] - est <= lc.epsilon * lc.items_seen + 1

    def test_frequent_values_no_false_negatives(self):
        lc = LossyCounting(100)
        stream = ["hot"] * 2000 + list(range(8000))
        lc.extend(stream)
        # True support 0.2: retained, with at most epsilon * n undercount.
        assert lc.estimate("hot") >= (0.2 - lc.epsilon) * lc.items_seen

    def test_resize_changes_epsilon(self):
        lc = LossyCounting(10)
        lc.resize(100)
        assert lc.epsilon == pytest.approx(0.01)


class TestFactory:
    @pytest.mark.parametrize(
        "kind,cls",
        [
            ("counting-samples", CountingSamples),
            ("misra-gries", MisraGries),
            ("space-saving", SpaceSaving),
            ("lossy-counting", LossyCounting),
            ("exact", ExactCounter),
        ],
    )
    def test_make_sketch(self, kind, cls):
        assert isinstance(make_sketch(kind, 10), cls)

    def test_unknown_kind(self):
        with pytest.raises(SketchError):
            make_sketch("bloom", 10)

    def test_kwargs_passed_through(self):
        cs = make_sketch("counting-samples", 10, seed=5, growth=2.0)
        assert cs.growth == 2.0
