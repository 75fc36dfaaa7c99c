import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gillab.exact import ClosedInterval, IntervalSet, UNIT, rat

from conftest import interval_sets, rationals, subtract
from reference import FractionIntervalSet, intersect


def iv(a, b):
    return ClosedInterval(F(a), F(b))


class TestClosedInterval:
    def test_order_enforced(self):
        with pytest.raises(ValueError):
            ClosedInterval(F(1), F(0))

    def test_width_contains(self):
        c = iv("1/4", "3/4")
        assert c.width == F(1, 2)
        assert c.contains(F(1, 2))
        assert not c.contains(F(7, 8))

    def test_intersect(self):
        assert intersect(iv(0, "1/2"), iv("1/4", 1)) == iv("1/4", "1/2")
        assert intersect(iv(0, "1/4"), iv("1/2", 1)) is None


class TestNormalization:
    def test_merges_touching(self):
        s = IntervalSet([iv(0, "1/2"), iv("1/2", 1)])
        assert s.components == (iv(0, 1),)

    def test_merges_overlap(self):
        s = IntervalSet([iv(0, "2/3"), iv("1/3", 1)])
        assert s.components == (iv(0, 1),)

    def test_keeps_disjoint_sorted(self):
        s = IntervalSet([iv("1/2", "3/4"), iv(0, "1/4")])
        assert s.components == (iv(0, "1/4"), iv("1/2", "3/4"))

    @given(interval_sets())
    def test_canonical_under_shuffle(self, s):
        comps = list(s.components)
        rnd = random.Random(7)
        rnd.shuffle(comps)
        assert IntervalSet(comps) == s

    @given(interval_sets())
    def test_components_disjoint_with_gaps(self, s):
        for a, b in zip(s.components, s.components[1:]):
            assert a.hi < b.lo


class TestQueries:
    def test_contains_point(self):
        s = IntervalSet.of(("1/4", "5/12"), ("7/12", "3/4"))
        assert s.contains_point(F(1, 3))
        assert not s.contains_point(F(1, 2))
        assert s.contains_point(F(7, 12))

    def test_component_containing(self):
        s = IntervalSet.of((0, "1/4"), ("1/2", 1))
        assert s.component_containing(F(3, 4)) == iv("1/2", 1)
        assert s.component_containing(F(3, 8)) is None

    def test_issubset(self):
        big = IntervalSet.of((0, "1/2"), ("3/4", 1))
        small = IntervalSet.of(("1/8", "1/4"), ("3/4", "7/8"))
        assert small.issubset(big)
        assert not big.issubset(small)

    @given(interval_sets(), st.data())
    def test_bisect_matches_linear_scan(self, s, data):
        ends = [x for c in s for x in (c.lo, c.hi)]
        between = [(a + b) / 2 for a, b in zip(ends, ends[1:])]
        t = data.draw(st.sampled_from(ends + between + [F(-1), F(2)]) | rationals)
        want = next((i for i, c in enumerate(s.components) if c.hi >= t), len(s))
        assert s.outward(t.numerator, t.denominator, True).start == want

    def test_min_max_width(self):
        s = IntervalSet.of(("1/8", "1/4"), ("1/2", 1))
        assert s.min() == F(1, 8)
        assert s.max_component_width() == F(1, 2)


def union(*sets: IntervalSet) -> IntervalSet:
    return IntervalSet(c for s in sets for c in s)


def meet(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    """The closure of the interior of a & b, as the complement of the union
    of the complements."""
    return union(a.complement_in(UNIT), b.complement_in(UNIT)).complement_in(UNIT)


class TestAlgebra:
    def test_union_intersect(self):
        a = IntervalSet.of((0, "1/2"))
        b = IntervalSet.of(("1/4", 1))
        assert union(a, b) == IntervalSet.of((0, 1))
        assert meet(a, b) == IntervalSet.of(("1/4", "1/2"))

    def test_complement(self):
        s = IntervalSet.of(("1/4", "3/4"))
        assert s.complement_in(UNIT) == IntervalSet.of((0, "1/4"), ("3/4", 1))

    def test_complement_swallows_degenerate(self):
        s = IntervalSet.of(("1/2", "1/2"))
        assert s.complement_in(UNIT) == IntervalSet.of((0, 1))

    def test_subtract_open_keeps_endpoints(self):
        s = IntervalSet.of((0, 1))
        r = s.subtract_open(F(1, 4), F(3, 4))
        assert r == IntervalSet.of((0, "1/4"), ("3/4", 1))

    def test_measure(self):
        s = IntervalSet.of((0, "1/4"), ("1/2", "3/4"))
        assert s.measure() == F(1, 2)

    @given(interval_sets(), interval_sets())
    @settings(max_examples=60)
    def test_de_morgan(self, a, b):
        # the complement of the union lies in both complements, and with
        # the union it fills [0, 1]
        lhs = union(a, b).complement_in(UNIT)
        assert lhs.issubset(a.complement_in(UNIT)) and lhs.issubset(b.complement_in(UNIT))
        assert union(lhs, a, b) == IntervalSet([UNIT])
        assert lhs.measure() == 1 - union(a, b).measure()

    @given(interval_sets(), interval_sets())
    @settings(max_examples=60)
    def test_inclusion_exclusion(self, a, b):
        assert union(a, b).measure() + meet(a, b).measure() == a.measure() + b.measure()

    @given(interval_sets())
    def test_union_idempotent(self, a):
        assert union(a, a) == a


@st.composite
def sets_and_holes(draw):
    """A normalized set and holes that often overlap, nest, touch each
    other or a component end, or are empty."""
    s = draw(interval_sets())
    ends = sorted({c.lo for c in s} | {c.hi for c in s})
    point = st.one_of(rationals, st.sampled_from(ends)) if ends else rationals
    holes = draw(st.lists(st.tuples(point, point), max_size=8))
    return s, holes


class TestSubtractOpens:
    @given(sets_and_holes())
    @settings(max_examples=300)
    def test_sweep_equals_one_hole_at_a_time(self, case):
        s, holes = case
        expected = FractionIntervalSet(s.components).subtract_opens(holes)
        assert subtract(s, holes).components == expected.components
        one_by_one = s
        for lo, hi in holes:
            one_by_one = one_by_one.subtract_open(lo, hi)
        assert one_by_one.components == expected.components

    @given(sets_and_holes())
    @settings(max_examples=200)
    def test_untouched_components_are_kept(self, case):
        s, holes = case
        swept = subtract(s, holes)
        kept = [c for c in s
                if all(hi <= lo or c.hi <= lo or c.lo >= hi for lo, hi in holes)]
        for c in kept:
            assert any(r == c for r in swept), c

    def test_overlapping_and_nested_holes(self):
        s = IntervalSet.of((0, 1))
        holes = [(F(1, 8), F(3, 8)), (F(1, 4), F(1, 2)), (F(5, 16), F(7, 16)),
                 (F(5, 8), F(3, 4))]
        assert subtract(s, holes) == IntervalSet.of(
            (0, "1/8"), ("1/2", "5/8"), ("3/4", 1))

    def test_touching_holes_leave_their_shared_end(self):
        s = IntervalSet.of((0, 1))
        r = subtract(s, [(F(1, 2), F(3, 4)), (F(1, 4), F(1, 2))])
        assert r == IntervalSet.of((0, "1/4"), ("1/2", "1/2"), ("3/4", 1))

    def test_one_component_spanning_three_holes(self):
        # two of the holes touch: the gap between them is their shared end
        s = IntervalSet.of((0, 1))
        r = subtract(s, [(F(5, 8), F(3, 4)), (F(1, 8), F(1, 4)), (F(1, 2), F(5, 8))])
        assert r == IntervalSet.of((0, "1/8"), ("1/4", "1/2"), ("5/8", "5/8"), ("3/4", 1))
        assert r.components[2].is_degenerate

    def test_hole_spanning_components(self):
        s = IntervalSet.of((0, "1/4"), ("3/8", "3/8"), ("1/2", "3/4"), ("7/8", 1))
        r = subtract(s, [(F(1, 8), F(5, 8))])
        assert r == IntervalSet.of((0, "1/8"), ("5/8", "3/4"), ("7/8", 1))
        assert r.components[-1] == s.components[-1]

    def test_hole_touching_component_ends_and_empty_holes(self):
        s = IntervalSet.of((0, "1/4"), ("1/2", 1))
        r = subtract(s, [(F(1, 4), F(1, 2)), (F(3, 4), F(3, 4)),
                              (F(7, 8), F(5, 8))])
        assert r.components == s.components
        assert all(a == b for a, b in zip(r, s))


class TestSerialization:
    def test_text_form(self):
        s = IntervalSet.of(("1/4", "5/12"), ("7/12", "3/4"))
        assert s.to_text() == "1/4..5/12;7/12..3/4"

    def test_empty(self):
        assert IntervalSet().to_text() == ""


def test_rat_coercions():
    assert rat("5/12") == F(5, 12)
    assert rat(1) == F(1)
    assert rat(F(1, 3)) == F(1, 3)
