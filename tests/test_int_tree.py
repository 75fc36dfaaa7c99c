"""The int local cover tree against the reference model.

The model's tree descends on ClosedInterval values, compared with
Fraction comparisons, and reads a schedule only through its entries'
anchors, so it shares no int code with the tree under test.  The int
tree must give the same components, brackets, removal holes and hulls.
"""

from itertools import islice

import pytest

from gillab import thirds
from gillab.cantor import CantorAddress, IntermediateCantor
from gillab.exact import UNIT, IntervalSet

from conftest import (
    attachments,
    bracket,
    hole,
    hull,
    interval,
    near,
    sample_windows,
    synthetic_intermediate,
)
from reference import Model, built, fresh_family, model

BRACKET_DEPTH = 30


def assert_tree_matches(gens, twins, ref: Model, depth: int, per_cover: int) -> None:
    """near and the first steps of walk, for each generator to depth,
    against the model of its twin on windows taken from the twin's
    covers.  No cover past stage 0 is memoised and no walk sweeps one,
    so every answer comes from the tree."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(thirds, "SWEEP_RATIO", 0)
        for gen, twin in zip(gens, twins):
            gen._stage_memo.clear()
            for d in range(depth + 1):
                windows = sample_windows(twin.stage(min(d, 6)), per_cover)
                if d <= 6:
                    windows.append(UNIT)
                for w in windows:
                    assert near(gen, d, w) == ref.near(twin, d, w), (gen.describe(), d, w)
                for w in windows[::3]:
                    for rightward in (True, False):
                        got = islice(gen.walk({}, d, w.lo.numerator, w.lo.denominator,
                                              rightward), 6)
                        assert ([interval(lo, hi, gen.grid(d)) for lo, hi in got]
                                == list(islice(ref.walk(twin, d, w.lo, rightward), 6))), (
                            gen.describe(), d, w, rightward)
            assert len(gen._stage_memo) == 1


class TestAgainstTheFractionTree:
    @pytest.mark.parametrize("level, depth", [(2, 10), (3, 8)])
    def test_every_member(self, level, depth):
        fam, twin = fresh_family(level, 56), built(level, 56)
        assert_tree_matches([fam.member(r) for r in fam.grid()],
                            [twin.member(r) for r in twin.grid()], model(twin), depth, 12)

    def test_synthetic_schedules(self):
        assert_tree_matches([synthetic_intermediate(seed) for seed in range(4)],
                            [synthetic_intermediate(seed) for seed in range(4)], Model(), 6, 40)

    @pytest.mark.parametrize("level", [2, 3])
    def test_anchor_brackets_and_holes(self, level):
        fam = built(level, 56)
        ref = model(fam)
        anchors = 0
        for r in fam.grid():
            gen = fam.member(r)
            if not isinstance(gen, IntermediateCantor):
                continue
            for entry in gen.schedule().entries:
                for p in (entry.a, entry.b):
                    if isinstance(p, CantorAddress):
                        anchors += 1
                        assert ([bracket(p, d) for d in range(BRACKET_DEPTH + 1)]
                                == [ref.bracket(p, d) for d in range(BRACKET_DEPTH + 1)]), p
                for d in range(entry.create_stage, 16):
                    assert hole(entry, d) == ref.hole(entry, d), (r, entry.index, d)
                    assert hull(entry, d) == ref.hull(entry, d), (r, entry.index, d)
                assert interval(*entry.widest_hull) == ref.hull(entry, entry.create_stage)
        assert anchors > 100


def test_children_memo_holds_only_ints():
    fam = built(3, 56)
    gens = [fam.member(r) for r in fam.grid()]
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
    # denominator every stage-d cover is written over; the family and the
    # model are the test's own, so every attachment's covers go with them
    fam = fresh_family(level, budget)
    gens = [fam.member(r) for r in fam.grid()]
    for gen in gens:
        for d in range(depth + 1):
            assert gen.stage(d).q == gen.grid(d) == gen.grid(0) * 3 ** d, (gen.describe(), d)
    # C_0 makes no attachment object, so the model makes each one whose
    # gap opens by depth
    c0, ref = fam.c0, Model()
    pairs = [k for g in range(depth + 1) for gap in c0.gaps_of_generation(g)
             for k in attachments(ref, c0, g, *gap)]
    assert len(pairs) > 100
    for k in pairs:
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
    # level 4: the searches sweep the covers their walks pay for, so at
    # level 3 set-up and the covers make only about 400 sets
    fam = fresh_family(4, 56)
    for r in fam.grid():
        fam.member(r).stage(8)
    assert len(checked_over) > 1000


@pytest.mark.parametrize("lo, hi", [((4, 0), (5, 1)),    # unsorted
                                    ((0, 2), (2, 3))])   # touching
def test_a_planted_unnormalized_over_fails_the_check(checked_over, lo, hi):
    with pytest.raises(AssertionError):
        IntervalSet.over(12, lo, hi)
