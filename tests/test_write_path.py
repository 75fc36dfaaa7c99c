"""The write path renders each distinct text once, byte for byte as before.

`IntervalSet.to_text(table)` keeps one text per component (q, lo, hi)
across the covers of one call; `BoxCover._rows` makes each run's front
and each distinct back once.  Each is checked here against a reference
that renders every component, or decodes every key, on its own.
"""

import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gillab import cache
from gillab.bonding import make_map
from gillab.errors import CacheError
from gillab.exact import ClosedInterval, IntervalSet
from gillab.invlimit import BoxCover, mahavier_cover

from conftest import interval_sets, rewrite
from reference import built, csv_rows, decoded, reference_text


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


@pytest.mark.parametrize("mode", ["zero", "tent"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_rows_match_a_per_key_decode(family, mode, n):
    m = make_map(mode, family)
    for stage in range(4):
        cover = mahavier_cover(m, n, stage, 2)
        if n == 1:
            # the front is empty and all keys form one run
            assert max(cover.keys) < len(cover.ranked) ** 2
        assert cover.csv_rows() == csv_rows(cover.dimension, decoded(cover)), (stage, n)
        assert cover.boxes == decoded(cover), (stage, n)


@pytest.mark.parametrize("dimension, keys", [
    # base 3: each run holds its first and its last possible key, so a
    # run boundary one key early or late changes a row
    (3, [0, 8, 9, 17, 18, 26]),
    (3, [4, 9, 10, 26]),
    (4, [0, 8, 9, 26, 27, 80]),
    (2, [0, 1, 5, 8]),
])
def test_runs_break_exactly_at_the_leading_digits(dimension, keys):
    ranked = tuple(ClosedInterval(F(k, 8), F(k + 1, 8)) for k in range(3))
    cover = BoxCover(dimension, ranked, keys)
    assert cover.csv_rows() == csv_rows(dimension, decoded(cover))
    assert cover.boxes == decoded(cover)


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
