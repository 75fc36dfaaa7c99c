"""Metamorphic laws of the family: relations between two builds that
neither the pins nor the reference model can see, since a fault that
moves a schedule the same way in both passes them.

Schedules are compared as lists of ``ScheduleEntry.to_json_obj()``,
the form a cache file holds them in.

* Level refinement: refining the level inserts sets between the members
  and moves none of them, so each intermediate member's schedule is the
  same at level L and at level L + 1.
* Search ceiling: each endpoint's search tries its stages from the
  bottom up, and at these levels each finds its stage by 15, so raising
  the ceiling to 24 moves no schedule.
* Budget prefix: a member whose outer set is C_0 searches C_0's
  endpoints in discovery order, so its schedule at budgets 8 and 24 is
  a prefix of its schedule at a larger budget, although its inner set
  changes with the budget.  A member whose outer set is intermediate
  has an outer cover that changes with the budget too, and the law
  fails for most of those.
* Mode invariance: the tents lie in the gaps of C_0, so on C_0 the
  zero and tent modes give the same ``eval_F`` bracket, and the same
  graph-cover height over each C_0 component.  A cap is max(r,
  ``f_sup``), so the heights differ once a grid index falls below
  ``MAX_TENT_HEIGHT`` = 1/32 (level >= 6); the law is asserted at
  levels <= 4.
"""

from fractions import Fraction

import pytest

from gillab.bonding import eval_F, make_map
from gillab.cantor import IntermediateCantor, build_family

BUDGET = 24


def schedules(level: int, ceiling: int = 15,
              budget: int = BUDGET) -> dict[Fraction, list[dict]]:
    """Each intermediate member's schedule as JSON objects, by index."""
    fam = build_family(level, budget, ceiling)
    return {r: [entry.to_json_obj() for entry in gen.schedule().entries]
            for r, gen in fam.members.items() if isinstance(gen, IntermediateCantor)}


@pytest.mark.parametrize("law, level", [
    ("level refinement", 1), ("level refinement", 2), ("level refinement", 3),
    ("search ceiling", 2), ("search ceiling", 3), ("search ceiling", 4),
    ("budget prefix", 2), ("budget prefix", 3), ("budget prefix", 4)])
def test_schedules_agree(law, level):
    if law == "level refinement":
        coarse, fine = schedules(level), schedules(level + 1)
        assert len(fine) == 2 * len(coarse) + 1
        for r, want in coarse.items():
            assert fine[r] == want, (level, r)
    elif law == "search ceiling":
        assert schedules(level, 24) == schedules(level, 15), level
    else:
        # the member 1/2^k, made at level k, is the one whose outer set is C_0
        on_c0 = [Fraction(1, 2 ** k) for k in range(1, level + 1)]
        full = schedules(level, budget=56 if level == 2 else 40)
        for budget in (8, 24):
            part = schedules(level, budget=budget)
            for r in on_c0:
                assert part[r] and full[r][:len(part[r])] == part[r], (level, budget, r)


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_modes_agree_on_c0(level):
    fam = build_family(level, BUDGET)
    zero, tent = make_map("zero", fam), make_map("tent", fam)
    for t in fam.c0.endpoints(200) + fam.c1.endpoints(64):
        assert eval_F(zero, t, max_stage=8) == eval_F(tent, t, max_stage=8), (level, t)
    for d in range(7):
        covers = zero.graph_cover(d, level), tent.graph_cover(d, level)
        for comp in fam.c0.stage(d):
            assert covers[0].floor(comp) == covers[1].floor(comp), (level, d, comp)
