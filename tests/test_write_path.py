"""The write path renders each distinct text once, byte for byte as before.

`IntervalSet.to_text(table)` keeps one text per component (q, lo, hi)
across the covers of one call; `BoxCover._walk` makes each box's parts
once and writes the chains depth first in row order.  Each is checked
here against a reference that renders every component on its own, or
composes every chain of the graph cover's boxes by all pairs and sorts
them.
"""

import json
from fractions import Fraction as F
from math import lcm
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gillab import cache
from gillab.bonding import GraphCover, make_map
from gillab.errors import CacheError
from gillab.exact import IntervalSet
from gillab.invlimit import mahavier_cover

from conftest import interval_sets, rewrite
from reference import all_pairs_chains, built, csv_rows, reference_text


# degenerate components, and the same numerator pairs over different
# denominators, which one table must keep apart
HAND_MADE = [
    IntervalSet.over(4, [1], [3]),
    IntervalSet.over(8, [1], [3]),
    IntervalSet.over(8, [0, 2, 5], [0, 3, 8]),
    IntervalSet.over(24, [0, 3, 12], [0, 3, 24]),
    IntervalSet.over(12, [1, 6], [3, 6]),
    IntervalSet.of(("1/4", "1/4"), ("1/2", "3/4")),
    IntervalSet(),
]


@pytest.mark.parametrize("level, budget", [(1, 56), (2, 56), (3, 56), (4, 24)])
def test_covers_through_one_table_match_the_reference(level, budget):
    table: dict = {}
    shared = 0
    # the hand-made sets go first, so the family's covers meet their entries
    sets = HAND_MADE + [cover for _, _, cover in built(level, budget).covers(8)]
    for s in sets:
        before = len(table)
        text = s.to_text(table)
        shared += len(s) - (len(table) - before)
        assert text == s.to_text() == reference_text(s)
    # members at one depth share a denominator and many components
    assert shared > 0


@settings(max_examples=100, deadline=None)
@given(st.lists(interval_sets(), max_size=6))
def test_random_sets_through_one_table(sets):
    table: dict = {}
    for s in sets:
        assert s.to_text(table) == reference_text(s)


def _matches_all_pairs_chains(m, stage: int, level: int, n: int):
    expected = all_pairs_chains(m.graph_cover(stage, level).boxes, n)[n]
    cover = mahavier_cover(m, n, stage, level)
    assert len(cover) == len(expected), (stage, n)
    assert cover.csv_rows() == csv_rows(n + 1, expected), (stage, n)
    assert cover.boxes == expected, (stage, n)


@pytest.mark.parametrize("mode", ["zero", "tent"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_rows_match_all_pairs_chains(family, mode, n):
    m = make_map(mode, family)
    for stage in range(4):
        _matches_all_pairs_chains(m, stage, 2, n)


def _graph(q: int, ends, heights, ranks):
    """A stand-in map whose graph cover is the given tiling."""
    heights = [F(h) for h in heights]
    d = lcm(q, *(h.denominator for h in heights))
    tops = tuple(h.numerator * (d // h.denominator) for h in heights)
    cover = GraphCover(q, tuple(ends), d, tops, tuple(ranks))
    return SimpleNamespace(graph_cover=lambda stage, level: cover)


@pytest.mark.parametrize("m", [
    # tied heights: boxes of one height go by T.lo
    _graph(8, range(9), ["1/8", "1/2", "1"], [2, 0, 2, 1, 0, 2, 1, 2]),
    # tied meets: every head outgrows T, so each meet is T and the heads
    # go by T.lo
    _graph(3, range(4), ["2/3", "1"], [1, 0, 1]),
    # heads as tall as T.lo (a degenerate meet) and as T.hi (tied with
    # the taller heads)
    _graph(4, [0, 1, 2, 4], ["1/4", "1/2"], [0, 1, 0]),
    # one box of height 0, as the zero map's gaps have
    _graph(1, [0, 1], ["0"], [0]),
], ids=["tied-heights", "tied-meets", "meets-at-both-ends", "one-flat-box"])
def test_hand_made_graph_covers_match_all_pairs_chains(m):
    for n in range(1, 5):
        _matches_all_pairs_chains(m, 0, 0, n)


@st.composite
def graph_covers(draw):
    q = draw(st.integers(1, 12))
    ends = [0, *sorted(draw(st.sets(st.integers(1, q - 1), max_size=5)) if q > 1 else ()), q]
    heights = sorted(draw(st.sets(st.fractions(0, 1, max_denominator=12), min_size=1, max_size=4)))
    ranks = draw(st.lists(st.integers(0, len(heights) - 1), min_size=len(ends) - 1,
                          max_size=len(ends) - 1))
    return _graph(q, ends, heights, ranks)


@settings(max_examples=60, deadline=None)
@given(graph_covers())
def test_random_graph_covers_match_all_pairs_chains(m):
    for n in range(1, 4):
        _matches_all_pairs_chains(m, 0, 0, n)


def test_a_tampered_cover_of_shared_components_fails_at_its_depth(tmp_path):
    # the tampered cover is another member's cover at the same depth, so
    # every one of its component texts is in the load's table already
    fam = built(2, 56)
    order = list(dict.fromkeys(str(r) for r, _, _ in fam.covers(4)))
    path = cache.save_family(fam, 4, tmp_path)
    payload = json.loads(path.read_text())
    first, last = payload["members"][order[0]], payload["members"][order[-1]]
    assert first["stages"][3] != last["stages"][3]
    last["stages"][3] = first["stages"][3]
    rewrite(path, payload, rehash=True)
    with pytest.raises(CacheError) as err:
        cache.load_family(2, 56, tmp_path)
    assert str(err.value) == (f"rebuilt family differs from cache file {path} "
                              f"at stage 3 of member {order[-1]}")
