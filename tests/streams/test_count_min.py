"""Unit and property tests for the Count-Min sketch."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streams.sketches import CountMin, MisraGries, SketchError, make_sketch
from repro.streams.sources import IntegerStream


class TestConstruction:
    def test_validation(self):
        with pytest.raises(SketchError):
            CountMin(0)
        with pytest.raises(SketchError):
            CountMin(10, width=1)
        with pytest.raises(SketchError):
            CountMin(10, depth=0)

    def test_factory(self):
        sketch = make_sketch("count-min", 10, width=128, depth=3)
        assert isinstance(sketch, CountMin)
        assert sketch.width == 128 and sketch.depth == 3


class TestEstimates:
    def test_exact_for_sparse_input(self):
        cm = CountMin(10, width=1024, depth=4)
        cm.update("a", 5)
        cm.update("b", 3)
        assert cm.estimate("a") == 5.0
        assert cm.estimate("b") == 3.0
        assert cm.estimate("zzz") <= 2.0 * cm.items_seen / cm.width  # the 2n/width bound

    def test_never_undercounts(self):
        cm = CountMin(50, width=64, depth=4, seed=1)
        stream = IntegerStream(5_000, universe=300, seed=2)
        truth = stream.exact_counts()
        cm.extend(stream)
        for value, count in truth.items():
            assert cm.estimate(value) >= count

    def test_error_bound_holds_for_most_values(self):
        cm = CountMin(50, width=512, depth=5, seed=3)
        stream = IntegerStream(20_000, universe=1000, seed=4)
        truth = stream.exact_counts()
        cm.extend(stream)
        bound = 2.0 * cm.items_seen / cm.width
        violations = sum(
            1 for v, c in truth.items() if cm.estimate(v) - c > bound
        )
        assert violations <= max(2, 0.05 * len(truth))

    def test_heavy_hitters_found(self):
        cm = CountMin(20, width=512, depth=4, seed=5)
        stream = IntegerStream(20_000, universe=2000, skew=1.4, seed=6)
        cm.extend(stream)
        truth_top = {v for v, _ in stream.true_top_k(5)}
        reported = {v for v, _ in cm.top_k(20)}
        assert len(truth_top & reported) >= 4

    def test_heap_bounded_by_capacity(self):
        cm = CountMin(5, width=64, depth=3)
        cm.extend(range(1000))
        assert cm.footprint <= 5

    def test_resize_trims_heap(self):
        cm = CountMin(20, width=64, depth=3)
        cm.extend(range(100))
        cm.resize(3)
        assert cm.footprint <= 3
        with pytest.raises(SketchError):
            cm.resize(0)


class TestMerge:
    def test_merge_same_dimensions(self):
        a = CountMin(20, width=128, depth=4, seed=7)
        b = CountMin(20, width=128, depth=4, seed=7)
        a.update("x", 10)
        b.update("x", 5)
        b.update("y", 3)
        a.merge(b)
        assert a.estimate("x") >= 15
        assert a.estimate("y") >= 3
        assert a.items_seen == 18

    def test_merge_mismatched_rejected(self):
        a = CountMin(10, width=128, depth=4, seed=1)
        b = CountMin(10, width=64, depth=4, seed=1)
        with pytest.raises(SketchError):
            a.merge(b)
        c = CountMin(10, width=128, depth=4, seed=2)
        with pytest.raises(SketchError):
            a.merge(c)

    def test_generic_merge_from_counter_sketch(self):
        a = CountMin(10, width=256, depth=4)
        mg = MisraGries(10)
        mg.update("q", 7)
        a.merge(mg)
        assert a.estimate("q") >= 7


class TestCountMinProperties:
    @given(
        stream=st.lists(st.integers(0, 50), max_size=300),
        seed=st.integers(0, 20),
    )
    @settings(max_examples=40, deadline=None)
    def test_overcount_invariant(self, stream, seed):
        cm = CountMin(20, width=128, depth=4, seed=seed)
        cm.extend(stream)
        truth = Counter(stream)
        for value, count in truth.items():
            assert cm.estimate(value) >= count
        assert cm.items_seen == len(stream)

    @given(stream=st.lists(st.integers(0, 20), max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_merge_equals_union(self, stream):
        half = len(stream) // 2
        combined = CountMin(20, width=256, depth=4, seed=9)
        combined.extend(stream)
        a = CountMin(20, width=256, depth=4, seed=9)
        b = CountMin(20, width=256, depth=4, seed=9)
        a.extend(stream[:half])
        b.extend(stream[half:])
        a.merge(b)
        for value in set(stream):
            assert a.estimate(value) == combined.estimate(value)
