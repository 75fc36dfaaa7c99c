"""Shared fixtures, and the pieces more than one test module uses that
are not part of the reference model: adapters that read the int local
cover tree as ClosedIntervals, the model's attachment pair of a C_0 gap
given in ints, planted schedules, sample windows, a Hypothesis strategy
for interval sets and a cache-file writer."""

import json
import random
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import strategies as st

from gillab.bonding import make_map
from gillab.cache import _content_hash
from gillab.cantor import (
    IntermediateCantor,
    MiddleThirds,
    RemovalSchedule,
    ScheduleEntry,
    point_bracket,
)
from gillab.exact import UNIT, ClosedInterval, IntervalSet
from reference import built

LEVEL = 2
BUDGET = 56


@pytest.fixture(scope="session")
def family():
    return built(LEVEL, BUDGET)


@pytest.fixture(scope="session")
def zero_map(family):
    return make_map("zero", family)


@pytest.fixture(scope="session")
def tent_map(family):
    return make_map("tent", family)


# the local cover tree answers in ints; these read its answers as
# ClosedIntervals and give it rational windows as (lo, hi, q)


def interval(lo: int, hi: int, q: int) -> ClosedInterval:
    return ClosedInterval(F(lo, q), F(hi, q))


def window(w: ClosedInterval) -> tuple[int, int, int]:
    q = lcm(w.lo.denominator, w.hi.denominator)
    return w.lo.numerator * (q // w.lo.denominator), w.hi.numerator * (q // w.hi.denominator), q


def near(gen, d: int, w: ClosedInterval) -> list[ClosedInterval]:
    return [interval(lo, hi, gen.grid(d)) for lo, hi in gen.near(d, *window(w))]


def bracket(p, d: int) -> ClosedInterval:
    return interval(*point_bracket(p, d))


def hole(entry: ScheduleEntry, d: int) -> tuple[F, F]:
    lo, hi, q = entry.removal_open(d)
    return F(lo, q), F(hi, q)


def hull(entry: ScheduleEntry, d: int) -> ClosedInterval:
    return interval(*entry.hull(d))


def attachments(ref, c0, g: int, lo: int, hi: int) -> tuple[MiddleThirds, MiddleThirds]:
    """The middle-thirds pair that the model ref attaches, on Fractions,
    to c0's generation-g gap (lo, hi) over c0.grid(g); c0 itself makes no
    attachment object."""
    q = c0.grid(g)
    return ref.attachments(F(lo, q), F(hi, q))


def overlapping(cover: IntervalSet, w: ClosedInterval) -> list[ClosedInterval]:
    return [cover[k] for k in cover.overlapping(*window(w))]


def subtract(s, holes):
    """s.subtract_opens with rational holes, over the lcm of every
    denominator."""
    q = lcm(s.q, *(x.denominator for hole in holes for x in hole))
    return s.subtract_opens(q, [(lo.numerator * (q // lo.denominator),
                                 hi.numerator * (q // hi.denominator)) for lo, hi in holes])


def sample_windows(cover: IntervalSet, per_cover: int = 10) -> list[ClosedInterval]:
    """Component ends, midpoints, gap midpoints and spans of a few
    evenly spread components of the cover."""
    comps = cover.components
    step = max(1, len(comps) // per_cover)
    windows = []
    for i in range(0, len(comps), step):
        c = comps[i]
        mid = (c.lo + c.hi) / 2
        windows += [ClosedInterval(c.lo, c.lo), ClosedInterval(c.hi, c.hi),
                    ClosedInterval(mid, mid), c]
        if i + 1 < len(comps):
            gap_mid = (c.hi + comps[i + 1].lo) / 2
            windows += [ClosedInterval(gap_mid, gap_mid),
                        ClosedInterval(mid, (comps[i + 1].lo + comps[i + 1].hi) / 2)]
    windows += [ClosedInterval(F(0), F(0)), ClosedInterval(F(1), F(1))]
    return windows


def synthetic_intermediate(seed: int, count: int = 14) -> IntermediateCantor:
    """Intermediate set between two middle-thirds sets whose schedule is
    planted: edge-anchored holes at random points, so unlike a searched
    schedule they cut cover components, overlap and touch, and leave
    degenerate components between touching holes."""
    rnd = random.Random(seed)
    ends = sorted({F(rnd.randrange(1, 162), 162) for _ in range(2 * count)})
    holes = list(zip(ends[::2], ends[1::2]))
    holes += [(hi, hi + F(1, 81)) for _, hi in holes[::3]]   # touching
    holes += [(lo - F(1, 243), lo + F(1, 243)) for lo, _ in holes[1::4]]  # overlapping
    gen = IntermediateCantor(MiddleThirds(ClosedInterval(F(0), F(1, 3))),
                             MiddleThirds(UNIT), 1)
    gen._schedule = RemovalSchedule(entries=[
        ScheduleEntry(i, (lo + hi) / 2, lo, hi, rnd.randrange(4))
        for i, (lo, hi) in enumerate(holes)])
    return gen


rationals = st.fractions(min_value=0, max_value=1, max_denominator=64)


@st.composite
def interval_sets(draw):
    pairs = draw(st.lists(st.tuples(rationals, rationals), max_size=6))
    return IntervalSet(ClosedInterval(min(a, b), max(a, b)) for a, b in pairs)


def rewrite(path, payload, rehash):
    """Write payload in save_family's layout, so that only a planted
    change can differ from the file the rebuild renders."""
    if rehash:
        payload["contentHash"] = _content_hash(payload)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
