"""Integer stage covers against a Fraction reference.

`FractionIntervalSet` is the interval set as it was before covers held
int numerators: sorted ClosedInterval components with Fraction ends,
compared with Fraction comparisons.  Every query of the int
`IntervalSet` must give what the reference gives on the members' stage
covers, on grid points, on points one grid step beside each component
end and on off-grid rationals.
"""

from bisect import bisect_left
from fractions import Fraction as F
from functools import lru_cache
from itertools import product
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gillab.cantor import build_family
from gillab.exact import UNIT, ClosedInterval, IntervalSet
from test_cantor import overlapping
from test_exact import subtract

_HI = attrgetter("hi")


class FractionIntervalSet:
    """Sorted, disjoint, non-touching closed intervals with Fraction ends."""

    def __init__(self, intervals=(), *, _normalized=False):
        if _normalized:
            self._components = tuple(intervals)
            return
        merged = []
        for iv in sorted(intervals, key=lambda iv: (iv.lo, iv.hi)):
            if merged and iv.lo <= merged[-1].hi:
                if iv.hi > merged[-1].hi:
                    merged[-1] = ClosedInterval(merged[-1].lo, iv.hi)
            else:
                merged.append(iv)
        self._components = tuple(merged)

    @property
    def components(self):
        return self._components

    def __iter__(self):
        return iter(self._components)

    def _bisect(self, t):
        return bisect_left(self._components, t, key=_HI)

    def component_containing(self, t):
        i = self._bisect(t)
        if i < len(self._components) and self._components[i].lo <= t:
            return self._components[i]
        return None

    def components_overlapping(self, window):
        out = []
        i = self._bisect(window.lo)
        while i < len(self._components) and self._components[i].lo <= window.hi:
            out.append(self._components[i])
            i += 1
        return out

    def issubset(self, other):
        for comp in self._components:
            i = other._bisect(comp.lo)
            if i >= len(other._components):
                return False
            oc = other._components[i]
            if not (oc.lo <= comp.lo and comp.hi <= oc.hi):
                return False
        return True

    def complement_in(self, window):
        gaps = []
        cursor = window.lo
        for c in self.components_overlapping(window):
            lo = max(c.lo, window.lo)
            hi = min(c.hi, window.hi)
            if lo > cursor:
                gaps.append(ClosedInterval(cursor, lo))
            cursor = max(cursor, hi)
        if cursor < window.hi:
            gaps.append(ClosedInterval(cursor, window.hi))
        if not gaps and not self._components:
            gaps = [window]
        return FractionIntervalSet(gaps)

    def subtract_opens(self, holes):
        merged = []
        for lo, hi in sorted(h for h in holes if h[0] < h[1]):
            if merged and lo < merged[-1][1]:
                if hi > merged[-1][1]:
                    merged[-1][1] = hi
            else:
                merged.append([lo, hi])
        out = []
        j, n = 0, len(merged)
        for c in self._components:
            while j < n and merged[j][1] <= c.lo:
                j += 1
            if j == n or merged[j][0] >= c.hi:
                out.append(c)
                continue
            cursor = c.lo
            while j < n and merged[j][0] < c.hi:
                lo, hi = merged[j]
                if cursor <= lo:
                    out.append(ClosedInterval(cursor, lo))
                cursor = hi
                if hi > c.hi:
                    break
                j += 1
            if cursor <= c.hi:
                out.append(ClosedInterval(cursor, c.hi))
        return FractionIntervalSet(out, _normalized=True)

    def measure(self):
        return sum((c.width for c in self._components), F(0))

    def to_text(self):
        return ";".join(str(c) for c in self._components)


# (level, budget, deepest stage compared)
CONFIGS = [(2, 56, 10), (3, 56, 8)]


@lru_cache(maxsize=None)
def family(level, budget):
    return build_family(level, budget)


@lru_cache(maxsize=None)
def reference(level, budget, r, d):
    # normalizing again would merge touching components and reorder
    # unsorted ones, so the text comparison also checks the int form
    return FractionIntervalSet(family(level, budget).member(r).stage(d).components)


def grid_step(d):
    return F(1, 24 * 3 ** d)


@pytest.mark.parametrize("level, budget, depth", CONFIGS)
def test_member_covers_match_the_reference(level, budget, depth):
    fam = family(level, budget)
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
    fam = family(level, budget)
    for r in fam.grid():
        for d in range(depth + 1):
            q = fam.member(r).stage(d).q
            assert (24 * 3 ** d) % q == 0, (r, d, q)


@st.composite
def member_cover(draw):
    level, budget, depth = draw(st.sampled_from(CONFIGS))
    r = draw(st.sampled_from(family(level, budget).grid()))
    d = draw(st.integers(0, depth))
    return family(level, budget).member(r).stage(d), reference(level, budget, r, d), d


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


rationals = st.fractions(min_value=0, max_value=1, max_denominator=64)


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
