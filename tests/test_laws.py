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
"""

from fractions import Fraction

import pytest

from gillab.cantor import IntermediateCantor, build_family

BUDGET = 24


def schedules(level: int, ceiling: int = 15) -> dict[Fraction, list[dict]]:
    """Each intermediate member's schedule as JSON objects, by index."""
    fam = build_family(level, BUDGET, ceiling)
    return {r: [entry.to_json_obj() for entry in gen.schedule().entries]
            for r, gen in fam.members.items() if isinstance(gen, IntermediateCantor)}


@pytest.mark.parametrize("law, level", [
    ("level refinement", 1), ("level refinement", 2), ("level refinement", 3),
    ("search ceiling", 2), ("search ceiling", 3), ("search ceiling", 4)])
def test_schedules_agree(law, level):
    if law == "level refinement":
        coarse, fine = schedules(level), schedules(level + 1)
        assert len(fine) == 2 * len(coarse) + 1
        for r, want in coarse.items():
            assert fine[r] == want, (level, r)
    else:
        assert schedules(level, 24) == schedules(level, 15), level
