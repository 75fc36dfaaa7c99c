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
"""

from fractions import Fraction

import pytest

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
