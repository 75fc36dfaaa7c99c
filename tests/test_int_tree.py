"""The int local cover tree against a Fraction reference.

`FractionTree` is the tree as it was before it held int numerators:
``near``, ``walk``, each generator's children rule and an address's
brackets on ClosedInterval values, compared with Fraction comparisons.
It descends from each generator's stage-0 cover and reads a schedule
only through its entries' anchors, so it shares no int code with the
tree under test but the stage-0 covers.  The int tree must give the
same components, brackets, removal holes and hulls.
"""

from fractions import Fraction as F
from itertools import islice

import pytest

from gillab.cantor import (
    CantorAddress,
    GapAttachedCantor,
    IntermediateCantor,
    MiddleThirds,
    build_family,
)
from gillab.exact import UNIT, ClosedInterval, IntervalSet
from test_cantor import (
    bracket,
    built,
    hole,
    hull,
    interval,
    near,
    sample_windows,
    synthetic_intermediate,
)
from test_exact import intersects


BRACKET_DEPTH = 30


class FractionTree:
    """ClosedInterval near, walk, children and brackets, memoised by
    (generator, depth, component)."""

    def __init__(self):
        self._children: dict = {}
        self._attachments: dict = {}
        self._brackets: dict = {}

    def near(self, gen, d: int, window: ClosedInterval) -> list[ClosedInterval]:
        comps = [c for c in gen.stage(0) if intersects(c, window)]
        for k in range(1, d + 1):
            comps = [c for parent in comps for c in self.children(gen, k, parent)
                     if intersects(c, window)]
        return comps

    def walk(self, gen, d: int, x: F, rightward: bool):
        if d == 0:
            parents, kids = [None], (lambda _: list(gen.stage(0)))
        else:
            parents, kids = self.walk(gen, d - 1, x, rightward), (
                lambda parent: self.children(gen, d, parent))
        for parent in parents:
            for c in (kids(parent) if rightward else reversed(kids(parent))):
                if (c.hi >= x) if rightward else (c.lo <= x):
                    yield c

    def children(self, gen, d: int, comp: ClosedInterval) -> list[ClosedInterval]:
        key = (gen, d, comp)
        if key not in self._children:
            self._children[key] = self._children_of(gen, d, comp)
        return self._children[key]

    def _children_of(self, gen, d, comp):
        if isinstance(gen, MiddleThirds):
            w3 = comp.width / 3
            return [ClosedInterval(comp.lo, comp.lo + w3), ClosedInterval(comp.hi - w3, comp.hi)]
        if isinstance(gen, GapAttachedCantor):
            return self._ga_children(gen, d, comp)
        return self._ic_children(gen, d, comp)

    def _ga_children(self, gen, d, comp):
        core_pieces = self.near(gen.core, d, comp)
        out: list[ClosedInterval] = []

        def emit(c):
            if out and c.lo <= out[-1].hi:
                if c.hi > out[-1].hi:
                    out[-1] = ClosedInterval(out[-1].lo, c.hi)
            else:
                out.append(c)

        def emit_gap(t):
            g, (a, b) = core_exit(gen, t, d)
            if (a, b) not in self._attachments:
                w3 = (b - a) / 3
                self._attachments[a, b] = (MiddleThirds(ClosedInterval(a, a + w3)),
                                           MiddleThirds(ClosedInterval(b - w3, b)))
            for k in self._attachments[a, b]:
                for c in self.near(k, d - g, comp):
                    emit(c)

        if not core_pieces or comp.lo < core_pieces[0].lo:
            emit_gap(comp.lo)
        for c, nxt in zip(core_pieces, core_pieces[1:]):
            emit(c)
            emit_gap((c.hi + nxt.lo) / 2)
        if core_pieces:
            emit(core_pieces[-1])
            if comp.hi > core_pieces[-1].hi:
                emit_gap(comp.hi)
        return out

    def _ic_children(self, gen, d, comp):
        # the holes live at d whose widest hull meets comp, one at a time
        around = self.near(gen.outer, d, comp)
        for entry in gen.schedule().entries:
            if entry.create_stage <= d and intersects(self.hull(entry, entry.create_stage), comp):
                lo, hi = self.hole(entry, d)
                cut = []
                for c in around:
                    if c.hi <= lo or c.lo >= hi:
                        cut.append(c)
                        continue
                    if c.lo <= lo:
                        cut.append(ClosedInterval(c.lo, lo))
                    if c.hi >= hi:
                        cut.append(ClosedInterval(hi, c.hi))
                around = cut
        return [c for c in around if intersects(c, comp)]

    def brackets(self, addr: CantorAddress) -> list[ClosedInterval]:
        """The address's brackets at depths 0..BRACKET_DEPTH, by its
        prefix and then alternating ends."""
        if addr not in self._brackets:
            out, flips = [], 0
            for k in range(BRACKET_DEPTH + 1):
                children = self.near(addr.gen, k, out[-1] if k else UNIT)
                if k < len(addr.prefix):
                    out.append(children[addr.prefix[k]])
                elif len(children) == 1:
                    out.append(children[0])
                else:
                    out.append(children[0] if flips % 2 == 0 else children[-1])
                    flips += 1
            self._brackets[addr] = out
        return self._brackets[addr]

    def point(self, p, s: int) -> ClosedInterval:
        return self.brackets(p)[s] if isinstance(p, CantorAddress) else ClosedInterval(p, p)

    def hole(self, entry, d: int) -> tuple[F, F]:
        s = max(d, entry.create_stage)
        return self.point(entry.a, s).hi, self.point(entry.b, s).lo

    def hull(self, entry, d: int) -> ClosedInterval:
        s = max(d, entry.create_stage)
        return ClosedInterval(self.point(entry.a, s).lo, self.point(entry.b, s).hi)


def core_exit(ga: GapAttachedCantor, t: F, d: int):
    """(g, gap): the core gap holding t, opened at stage g <= d, by
    shrinking the base interval on Fractions."""
    a, b = ga.core.base.lo, ga.core.base.hi
    if t < a:
        return 0, (ga.window.lo, a)
    if t > b:
        return 0, (b, ga.window.hi)
    for g in range(d):
        w3 = (b - a) / 3
        if t <= a + w3:
            b = a + w3
        elif t >= b - w3:
            a = b - w3
        else:
            return g + 1, (a + w3, b - w3)
    raise AssertionError(f"{t} stays in the core to depth {d}")


def assert_tree_matches(gens, twins, depth: int, per_cover: int) -> None:
    """near and the first steps of walk, for each generator to depth,
    against the FractionTree on windows taken from its twin's covers.  No
    cover past stage 0 is memoised, so every answer comes from the tree."""
    ref = FractionTree()
    for gen, twin in zip(gens, twins):
        gen._stage_memo.clear()
        for d in range(depth + 1):
            windows = sample_windows(twin.stage(min(d, 6)), per_cover)
            if d <= 6:
                windows.append(UNIT)
            for w in windows:
                assert near(gen, d, w) == ref.near(gen, d, w), (gen.describe(), d, w)
            for w in windows[::3]:
                for rightward in (True, False):
                    got = islice(gen.walk(d, w.lo.numerator, w.lo.denominator, rightward), 6)
                    assert ([interval(lo, hi, gen.grid(d)) for lo, hi in got]
                            == list(islice(ref.walk(gen, d, w.lo, rightward), 6))), (
                        gen.describe(), d, w, rightward)
        assert len(gen._stage_memo) == 1


class TestAgainstTheFractionTree:
    @pytest.mark.parametrize("level, depth", [(2, 10), (3, 8)])
    def test_every_member(self, level, depth):
        fam, twin = built(level, 56), built(level, 56)
        assert_tree_matches([fam.member(r) for r in fam.grid()],
                            [twin.member(r) for r in twin.grid()], depth, 12)

    def test_synthetic_schedules(self):
        assert_tree_matches([synthetic_intermediate(seed) for seed in range(4)],
                            [synthetic_intermediate(seed) for seed in range(4)], 6, 40)

    @pytest.mark.parametrize("level", [2, 3])
    def test_anchor_brackets_and_holes(self, level):
        fam = built(level, 56)
        ref = FractionTree()
        anchors = 0
        for r in fam.grid():
            gen = fam.member(r)
            if not isinstance(gen, IntermediateCantor):
                continue
            for entry in gen.schedule().entries:
                for p in (entry.a, entry.b):
                    if isinstance(p, CantorAddress):
                        anchors += 1
                        assert [bracket(p, d) for d in range(BRACKET_DEPTH + 1)] == ref.brackets(p), p
                for d in range(entry.create_stage, 16):
                    assert hole(entry, d) == ref.hole(entry, d), (r, entry.index, d)
                    assert hull(entry, d) == ref.hull(entry, d), (r, entry.index, d)
                assert interval(*entry.widest_hull) == ref.hull(entry, entry.create_stage)
        assert anchors > 100


def test_children_memo_holds_only_ints():
    fam = built(3, 56)
    gens = [fam.member(r) for r in fam.grid()]
    gens += [k for pair in fam.c0._k_memo.values() for k in pair]
    entries = 0
    for gen in gens:
        for key, children in gen._children_memo.items():
            entries += 1
            assert all(type(x) is int for x in key), (gen.describe(), key)
            assert all(type(x) is int for c in children for x in c), (gen.describe(), key)
    assert entries > 1000


@pytest.mark.parametrize("level, budget, depth", [(2, 56, 8), (3, 56, 8), (4, 24, 7)])
def test_stage_covers_lie_on_the_tree_grid(level, budget, depth):
    # the tree keys each stage-d component on grid(d) = grid(0) * 3^d, the
    # denominator every stage-d cover is written over
    fam = build_family(level, budget)
    gens = [fam.member(r) for r in fam.grid()]
    for gen in gens:
        for d in range(depth + 1):
            assert gen.stage(d).q == gen.grid(d) == gen.grid(0) * 3 ** d, (gen.describe(), d)
    attachments = [k for pair in fam.c0._k_memo.values() for k in pair]
    assert len(attachments) > 100
    for k in attachments:
        for d in range(depth + 1):
            assert k.stage(d).q == k.grid(d) == k.grid(0) * 3 ** d, (k.describe(), d)


# ---------------------------------------------------------------------------
# IntervalSet.over trusts its caller; every set the family makes is normalized


def normalized(lo, hi) -> bool:
    return (all(a <= b for a, b in zip(lo, hi))
            and all(b < a for b, a in zip(hi, lo[1:])))


@pytest.fixture
def checked_over(monkeypatch):
    """Every IntervalSet.over call, checked for normalized parts."""
    over = IntervalSet.over
    made = []

    def checked(q, lo, hi):
        s = over(q, lo, hi)
        assert s.q > 0 and normalized(*s.numerators()), (q, lo, hi)
        made.append(s)
        return s

    monkeypatch.setattr(IntervalSet, "over", staticmethod(checked))
    return made


def test_every_set_over_makes_is_normalized(checked_over):
    fam = built(3, 56)
    for r in fam.grid():
        fam.member(r).stage(8)
    assert len(checked_over) > 1000


@pytest.mark.parametrize("lo, hi", [((4, 0), (5, 1)),    # unsorted
                                    ((0, 2), (2, 3))])   # touching
def test_a_planted_unnormalized_over_fails_the_check(checked_over, lo, hi):
    with pytest.raises(AssertionError):
        IntervalSet.over(12, lo, hi)
