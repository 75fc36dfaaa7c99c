"""Integer stage covers against a Fraction reference.

The reference model's `FractionIntervalSet` keeps sorted ClosedInterval
components with Fraction ends, compared with Fraction comparisons.  Every query of the int
`IntervalSet` must give what the reference gives on the members' stage
covers, on grid points, on points one grid step beside each component
end and on off-grid rationals.
"""

from fractions import Fraction as F
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gillab.exact import UNIT, ClosedInterval, IntervalSet

from conftest import overlapping, rationals, subtract
from reference import FractionIntervalSet, built

# (level, budget, deepest stage compared)
CONFIGS = [(2, 56, 10), (3, 56, 8)]


@lru_cache(maxsize=None)
def reference(level, budget, r, d):
    # normalizing again would merge touching components and reorder
    # unsorted ones, so the text comparison also checks the int form
    return FractionIntervalSet(built(level, budget).member(r).stage(d).components)


def grid_step(d):
    return F(1, 24 * 3 ** d)


@pytest.mark.parametrize("level, budget, depth", CONFIGS)
def test_member_covers_match_the_reference(level, budget, depth):
    fam = built(level, budget)
    grid = fam.grid()
    for d in range(depth + 1):
        covers = {r: fam.member(r).stage(d) for r in grid}
        refs = {r: reference(level, budget, r, d) for r in grid}
        for r in grid:
            assert covers[r].to_text() == refs[r].to_text(), (r, d)
            assert covers[r].measure() == refs[r].measure(), (r, d)
            assert (covers[r].complement_in(UNIT).to_text()
                    == refs[r].complement_in(UNIT).to_text()), (r, d)
        for r, s in product(grid, grid):
            assert covers[r].issubset(covers[s]) == refs[r].issubset(refs[s]), (r, s, d)


@pytest.mark.parametrize("level, budget, depth", CONFIGS + [(4, 24, 7)])
def test_stage_denominators_divide_the_grid(level, budget, depth):
    # with exact denominators per set nothing can round, so the grid
    # 1/(24*3^d) matters only for speed: one q per depth, no rescaling
    fam = built(level, budget)
    for r in fam.grid():
        for d in range(depth + 1):
            q = fam.member(r).stage(d).q
            assert (24 * 3 ** d) % q == 0, (r, d, q)


@st.composite
def member_cover(draw):
    level, budget, depth = draw(st.sampled_from(CONFIGS))
    r = draw(st.sampled_from(built(level, budget).grid()))
    d = draw(st.integers(0, depth))
    return built(level, budget).member(r).stage(d), reference(level, budget, r, d), d


@st.composite
def probe_point(draw, ref, d):
    """A grid point, a component end or a point one grid step beside
    one, or an off-grid rational, in and a little beyond [0, 1]."""
    step = grid_step(d)
    ends = [x for c in ref for x in (c.lo, c.hi)]
    kind = draw(st.sampled_from(["grid", "end", "off"] if ends else ["grid", "off"]))
    if kind == "grid":
        return draw(st.integers(-2, 24 * 3 ** d + 2)) * step
    if kind == "end":
        return draw(st.sampled_from(ends)) + draw(st.sampled_from([-step, 0, step]))
    return draw(st.fractions(min_value=F(-1, 8), max_value=F(9, 8),
                             max_denominator=10 ** 6))


@given(member_cover(), st.data())
@settings(max_examples=400, deadline=None)
def test_point_and_window_queries_match_the_reference(case, data):
    cover, ref, d = case
    t = data.draw(probe_point(ref, d))
    assert cover.outward(t.numerator, t.denominator, True).start == ref._bisect(t)
    assert cover.component_containing(t) == ref.component_containing(t)
    assert cover.contains_point(t) == (ref.component_containing(t) is not None)
    u = data.draw(probe_point(ref, d))
    window = ClosedInterval(min(t, u), max(t, u))
    assert overlapping(cover, window) == ref.components_overlapping(window)
    lo, hi = window.lo * cover.q, window.hi * cover.q
    if lo.denominator == hi.denominator == 1:
        assert cover.meets(int(lo), int(hi), cover.q) == bool(
            ref.components_overlapping(window))
    assert cover.meets(window.lo.numerator * window.hi.denominator,
                       window.hi.numerator * window.lo.denominator,
                       window.lo.denominator * window.hi.denominator) == bool(
        ref.components_overlapping(window))


@given(member_cover(), st.data())
@settings(max_examples=200, deadline=None)
def test_subtract_opens_matches_the_reference(case, data):
    cover, ref, d = case
    holes = data.draw(st.lists(st.tuples(probe_point(ref, d), probe_point(ref, d)),
                               max_size=12))
    assert subtract(cover, holes).to_text() == ref.subtract_opens(holes).to_text()


@given(st.lists(st.tuples(rationals, rationals), max_size=8),
       st.lists(st.tuples(rationals, rationals), max_size=8))
@settings(max_examples=300)
def test_small_sets_match_the_reference(pairs, holes):
    ivs = [ClosedInterval(min(a, b), max(a, b)) for a, b in pairs]
    s, ref = IntervalSet(ivs), FractionIntervalSet(ivs)
    assert s.to_text() == ref.to_text()
    assert s.measure() == ref.measure()
    assert s.complement_in(UNIT).to_text() == ref.complement_in(UNIT).to_text()
    assert subtract(s, holes).to_text() == ref.subtract_opens(holes).to_text()
    window = ClosedInterval(F(1, 3), F(5, 7))
    assert overlapping(s, window) == ref.components_overlapping(window)
    assert s.complement_in(window).to_text() == ref.complement_in(window).to_text()
