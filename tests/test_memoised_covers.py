"""Searches and children read off memoised covers.

``CantorFamily.covers`` builds every member's covers member by member
in build order, so each removal-schedule search runs with its inner and
outer sets' covers memoised, and ``_cached_children`` reads a
component's children off a memoised cover instead of ``_children_of``.
Neither may move a schedule or a cover: a family built that way must
equal one built lazily, schedules first in grid order and covers after,
as a bench set-up builds it.
"""

import pytest

from gillab.cantor import CantorAddress, IntermediateCantor, build_family

from conftest import synthetic_intermediate
from reference import built

DEPTH = 8
CHILD_DEPTH = 6


def text(p) -> str:
    return p.serialize() if isinstance(p, CantorAddress) else str(p)


def schedule_text(gen: IntermediateCantor):
    sched = gen.schedule()
    return ([(e.index, text(e.point), text(e.a), text(e.b), e.create_stage)
             for e in sched.entries],
            [(text(p), k) for p, k in sched.reuses])


@pytest.mark.parametrize("level, budget", [(1, 56), (2, 56), (3, 56), (4, 56), (4, 24), (5, 24)])
def test_filled_in_build_order_equals_lazy(level, budget):
    lazy = built(level, budget)
    filled = build_family(level, budget, 15)
    order = [(r, d) for r, d, _ in filled.covers(DEPTH)]
    assert order == [(r, d) for r in filled.members for d in range(DEPTH + 1)]
    # build order: each intermediate set after its inner and outer sets
    position = {id(gen): k for k, gen in enumerate(filled.members.values())}
    for gen in filled.members.values():
        if isinstance(gen, IntermediateCantor):
            assert position[id(gen.inner)] < position[id(gen)]
            assert position[id(gen.outer)] < position[id(gen)]
    for r in lazy.grid():
        a, b = lazy.member(r), filled.member(r)
        if isinstance(a, IntermediateCantor):
            assert schedule_text(a) == schedule_text(b), r
        for d in range(DEPTH + 1):
            assert a.stage(d).to_text() == b.stage(d).to_text(), (r, d)


@pytest.mark.parametrize("source", ["level 1", "level 2", "level 3", "synthetic"])
def test_every_cover_lies_over_its_grid(source):
    # near, walk, _cached_children and endpoint discovery read a memoised
    # stage-d cover's numerators unscaled, as numerators over grid(d)
    if source == "synthetic":
        gens = [synthetic_intermediate(seed) for seed in range(4)]
    else:
        fam = built(int(source[-1]), 56)
        gens = [fam.member(r) for r in fam.grid()]
    for gen in gens:
        for d in range(DEPTH + 1):
            assert gen.stage(d).q == gen.grid(d), (gen.describe(), d)


@pytest.mark.parametrize("level", [2, 3])
def test_children_from_a_memoised_cover_match_children_of(level):
    fam = build_family(level, 56, 15)
    for _ in fam.covers(CHILD_DEPTH):
        pass
    checked = 0
    for r in fam.grid():
        gen = fam.member(r)
        gen._children_memo.clear()   # so every child list below comes off a cover
        for d in range(1, CHILD_DEPTH + 1):
            assert d < len(gen._stage_memo)
            for lo, hi in zip(*gen.stage(d - 1).numerators(gen.grid(d - 1))):
                assert gen._cached_children(d, lo, hi) == tuple(gen._children_of(d, lo, hi))
                checked += 1
    assert checked > 1000
