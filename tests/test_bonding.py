import random
from fractions import Fraction as F
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gillab.bonding import (
    MAX_TENT_HEIGHT,
    MIN_C0,
    MODES,
    GraphCover,
    SetValuedMap,
    _tent_height,
    check_empty_interior,
    check_ivp_consistency,
    check_light,
    check_not_almost_nonfissile,
    check_usc,
    check_weak_continuity,
    eval_F,
    eval_f,
    make_map,
)
from gillab.cantor import IntermediateCantor
from gillab.exact import ClosedInterval, IntervalSet, UNIT

from reference import (
    FractionIntervalSet,
    built,
    dyadic_grid,
    model,
    reference_F,
    tent_height,
)

unit_rationals = st.fractions(min_value=0, max_value=1, max_denominator=729)


def per_value_light_rows(m, y_grid, stage):
    """Tent-mode rows of check_light, scanning the model's cover gaps per
    value."""
    ref = model(m.family)
    # the gap of each segment is asked once only for speed: the per-value
    # filter below is the point
    seg_gaps = [ref.gap_of(m.family.c0, (seg.lo + seg.hi) / 2)
                for seg in ref.cover(m.family.c0, stage).complement_in(UNIT)]

    def wide_gaps(min_width):
        gaps = []
        for a, b in seg_gaps:
            if (b - a) >= min_width and (a, b) not in gaps:
                gaps.append((a, b))
        return sorted(set(gaps))

    grid = dyadic_grid(m.family.level)
    rows = []
    for k in range(1, y_grid + 1):
        y = F(k, y_grid)
        below = [r for r in grid if r < y]
        r = max(below) if below else F(0)
        tent_points = []
        for a, b in wide_gaps(4 * y):
            h = tent_height(b - a)
            if h < y:
                continue
            off = (b - a) / 2 * (1 - y / h)
            tent_points.extend([(a + b) / 2 - off, (a + b) / 2 + off])
        rows.append({"y": str(y), "cover_index": str(r),
                     "cover_measure": str(ref.cover(m.family.member(r), stage).measure()),
                     "tent_point_count": len(tent_points)})
    return rows


def assert_matches_grid_scan(m, t: F) -> None:
    for level in range(m.family.level + 1):
        for max_stage in (4, 12):
            got, want = eval_F(m, t, level, max_stage), reference_F(m, t, level, max_stage)
            assert got == want, (m.mode, t, level, max_stage)
            assert str(got.point_value) == str(want.point_value)


def chain_points(fam, seed: int = 5) -> list[F]:
    """Random p/q (q < 5000), C_1 and C_0 endpoints, and around every
    removal hole at its create stage and 3 stages on: each end +- 1/q
    and the midpoint."""
    rnd = random.Random(seed)
    points = {F(rnd.randrange(q + 1), q) for q in (rnd.randrange(1, 5000) for _ in range(150))}
    points.update(fam.c1.endpoints(40) + fam.c0.endpoints(60))
    for r in fam.grid():
        gen = fam.member(r)
        if not isinstance(gen, IntermediateCantor):
            continue
        for entry in gen.schedule().entries:
            for s in (entry.create_stage, entry.create_stage + 3):
                lo, hi, q = entry.removal_open(s)
                points.update(F(n, q) for n in (lo - 1, lo, lo + 1, hi - 1, hi, hi + 1))
                points.add(F(lo + hi, 2 * q))
    return sorted(t for t in points if 0 <= t <= 1)


def box_tops_over(cover, index) -> list[F]:
    """The top of the cover's box over each component, given each
    component's position in ``index`` by its numerator pair over q."""
    tops = [None] * len(index)
    for a, b, k in zip(cover.ends, cover.ends[1:], cover.ranks):
        if (a, b) in index:
            tops[index[a, b]] = F(cover.tops[k], cover.d)
    return tops


def unnested_family(seed: int):
    """A level-2 family stand-in: C_0's stage cover has ten
    components over q = 60, and each grid member's cover, over 7 * 60 or
    11 * 60, meets a random half of them, by a sliver inside, by touching
    an end from the gap, or by spanning two; the covers are not nested."""
    rnd = random.Random(seed)
    comps = [(6 * k + 1, 6 * k + 4) for k in range(10)]
    c0 = SimpleNamespace(stage=lambda d: IntervalSet.over(60, *zip(*comps)))
    members = {}
    for r in dyadic_grid(2):
        f = rnd.choice((7, 11))
        pieces = []
        for k, (lo, hi) in enumerate(comps):
            if rnd.random() < 0.5:
                continue
            lo, hi = lo * f, hi * f
            pieces.append(rnd.choice([(lo + 1, lo + 2), (hi, hi + 1), (lo - 2, lo),
                                      (hi, hi + 3 * f) if k < 9 else (hi - 1, hi)]))
        # a sliver in a gap meets no component
        pieces.append((5 * f, 5 * f + 1))
        cover = IntervalSet(ClosedInterval(F(lo, 60 * f), F(hi, 60 * f)) for lo, hi in pieces)
        members[r] = SimpleNamespace(stage=lambda d, cover=cover: cover)
    return SimpleNamespace(level=2, c0=c0, member=members.__getitem__)


class TestBaseMap:
    def test_unknown_mode_rejected(self, family):
        with pytest.raises(ValueError):
            SetValuedMap("sine", family)

    def test_zero_mode_is_zero(self, zero_map):
        assert zero_map.f_sup == 0
        for t in (F(0), F(1, 16), F(1, 2), F(1)):
            assert eval_f(zero_map, t) == 0

    def test_tent_known_values(self, tent_map):
        assert eval_f(tent_map, F(1, 16)) == F(1, 32)
        assert eval_f(tent_map, F(1, 32)) == F(1, 64)
        assert eval_f(tent_map, F(1, 2)) == F(1, 72)
        assert eval_f(tent_map, F(0)) == 0
        assert eval_f(tent_map, F(1)) == 0

    def test_tent_vanishes_on_big_set(self, tent_map):
        for t in (F(1, 8), F(1, 4), F(19, 24), F(7, 8)):
            assert eval_f(tent_map, t) == 0

    def test_halving_rule_below_apex(self, tent_map):
        # on (0, 1/8) the tent has apex 1/16 and height 1/32, so the
        # left leg is t/2
        for t in (F(1, 64), F(1, 100), F(3, 64)):
            assert eval_f(tent_map, t) == t / 2

    def test_outside_unit_rejected(self, tent_map):
        with pytest.raises(ValueError):
            eval_f(tent_map, F(9, 8))

    @given(unit_rationals)
    @settings(max_examples=100)
    def test_contraction_bounds(self, tent_map, t):
        v = eval_f(tent_map, t)
        assert 0 <= v <= tent_map.f_sup == MAX_TENT_HEIGHT < MIN_C0
        if t > 0:
            assert v < t

    @given(st.integers(min_value=0, max_value=10 ** 6),
           st.integers(min_value=1, max_value=10 ** 6))
    def test_tent_height_is_a_quarter_width_capped(self, w, q):
        assert F(*_tent_height(w, q)) == min(F(w, q) / 4, MAX_TENT_HEIGHT)


class TestEvalF:
    def test_full_interval_on_smallest_set(self, zero_map):
        for t in (F(1, 4), F(5, 12), F(3, 4)):
            fb = eval_F(zero_map, t)
            assert not fb.is_singleton
            assert fb.lower_max == 1 and fb.upper_max == 1

    def test_singleton_off_big_set(self, zero_map, tent_map):
        fb = eval_F(zero_map, F(1, 2))
        assert fb.is_singleton and fb.point_value == 0
        fb = eval_F(tent_map, F(1, 2))
        assert fb.is_singleton and fb.point_value == F(1, 72)

    def test_zero_endpoint(self, zero_map):
        fb = eval_F(zero_map, F(0))
        assert fb.is_singleton and fb.point_value == 0

    def test_big_set_only_point(self, zero_map):
        # 1/8 is in the big set but outside every intermediate member
        fb = eval_F(zero_map, F(1, 8))
        assert not fb.is_singleton
        assert fb.lower_max == 0
        assert fb.upper_max == F(1, 4)

    def test_level_cap(self, zero_map):
        # 1/4 lies in C_0; 0, 1/16, 1/2 and 1 do not, and F there reads
        # no member, but the level is checked all the same
        for t in (F(1, 4), F(0), F(1, 16), F(1, 2), F(1)):
            with pytest.raises(ValueError, match="exceeds the family level"):
                eval_F(zero_map, t, level=5)

    def test_negative_level_rejected(self, zero_map):
        for t in (F(1, 4), F(1, 8), F(0), F(1, 16), F(1, 2), F(1)):
            with pytest.raises(ValueError, match="level must be >= 0"):
                eval_F(zero_map, t, level=-1)
        with pytest.raises(ValueError, match="level must be >= 0"):
            zero_map.graph_cover(2, -1)

    def test_bracket_order(self, zero_map):
        for t in (F(1, 8), F(1, 6), F(5, 24), F(1, 4)):
            fb = eval_F(zero_map, t)
            if not fb.is_singleton:
                assert 0 <= fb.lower_max <= fb.upper_max <= 1

    @given(unit_rationals)
    @settings(max_examples=100)
    def test_matches_the_two_query_path(self, zero_map, tent_map, t):
        for m in (zero_map, tent_map):
            assert eval_F(m, t) == reference_F(m, t, m.family.level), (m.mode, t)

    @given(unit_rationals)
    @settings(max_examples=100)
    def test_matches_the_grid_scan(self, zero_map, tent_map, t):
        for m in (zero_map, tent_map):
            assert_matches_grid_scan(m, t)

    def test_matches_the_grid_scan_on_gap_ends_and_apexes(self, zero_map, tent_map):
        # the stage-5 gaps reach both tent heights, width/4 and 1/32
        gaps = zero_map.family.c0.stage(5).complement_in(UNIT)
        points = {x for g in gaps for x in (g.lo, g.hi, (g.lo + g.hi) / 2, (3 * g.lo + g.hi) / 4)}
        heights = {min(g.width / 4, MAX_TENT_HEIGHT) for g in gaps}
        assert MAX_TENT_HEIGHT in heights and min(heights) < MAX_TENT_HEIGHT
        for t in sorted(points):
            for m in (zero_map, tent_map):
                assert_matches_grid_scan(m, t)


class TestOneQueryPerGenerator:
    @pytest.mark.parametrize("level", [1, 2, 3, 4])
    def test_matches_the_membership_chain_per_member(self, level):
        fam = built(level, 24 if level == 4 else 56)
        seen: set = set()
        # on C_0 the mode is not read, so one chain serves both modes
        chains: dict = {}
        for t in chain_points(fam):
            for mode in MODES:
                m = make_map(mode, fam)
                for sub in range(level + 1):
                    for max_stage in (0, 1, 2, 4, 8, 12):
                        key = (t, sub, max_stage)
                        want = chains.get(key) or reference_F(m, t, sub, max_stage, seen)
                        if not want.is_singleton:
                            chains[key] = want
                        got = eval_F(m, t, sub, max_stage)
                        assert got == want, (level, mode, t, sub, max_stage)
                        assert str(got.point_value) == str(want.point_value)
        # every branch of the chain is taken: IN, OUT at an intermediate
        # member, and UNKNOWN
        assert ("in", "IntermediateCantor") in seen
        assert ("out", "IntermediateCantor") in seen
        assert ("unknown", "IntermediateCantor") in seen

    @pytest.mark.parametrize("level", [2, 3])
    def test_membership_matches_the_recursive_chain(self, level):
        fam = built(level, 56)
        ref = model(fam)
        verdicts = set()
        for t in chain_points(fam):
            for r in fam.grid():
                gen = fam.member(r)
                for max_stage in (0, 2, 8, 12):
                    want = ref.membership(gen, t, max_stage)
                    assert gen.membership(t, max_stage) == want, (level, r, t, max_stage)
                    verdicts.add(want.verdict)
        assert verdicts == {"in", "out", "unknown"}


class TestGraphCover:
    def test_boxes_sorted_and_cached(self, tent_map):
        cov1 = tent_map.graph_cover(4, 2)
        cov2 = tent_map.graph_cover(4, 2)
        assert cov1 is cov2
        xs = [xb.lo for xb, _ in cov1.boxes]
        assert xs == sorted(xs)

    def test_footprint_covers_unit(self, zero_map, tent_map):
        # the x-intervals tile [0, 1]: nondegenerate, from 0 to 1, each
        # starting where the one before it ends
        for m in (zero_map, tent_map):
            for d in range(9):
                xs = [xb for xb, _ in m.graph_cover(d, 2).boxes]
                assert all(not xb.is_degenerate for xb in xs), (m.mode, d)
                assert xs[0].lo == 0 and xs[-1].hi == 1, (m.mode, d)
                assert all(a.hi == b.lo for a, b in zip(xs, xs[1:])), (m.mode, d)

    @pytest.mark.parametrize("level, modes, max_stage", [
        (2, ("zero", "tent"), 8), (3, ("zero",), 6)])
    def test_floor_matches_footprint(self, level, modes, max_stage):
        # the column test as it was: xb lies in the union of the boxes at
        # least y tall
        fam = built(level, 56)
        rnd = random.Random(level)
        columns = [ClosedInterval(F(i, n), F(i + 1, n)) for n in (8, 16) for i in range(n)]
        for _ in range(12):
            a, b = sorted(rnd.sample(range(1000), 2))
            columns.append(ClosedInterval(F(a, 999), F(b, 999)))
        for mode in modes:
            m = make_map(mode, fam)
            for d in range(max_stage + 1):
                cov = m.graph_cover(d, level)
                tops = sorted({yb.hi for _, yb in cov.boxes})
                # box x-intervals touch their neighbours at both ends
                windows = columns + [xb for xb, _ in cov.boxes[::len(cov.boxes) // 16 + 1]]
                for y in tops + [(a + b) / 2 for a, b in zip(tops, tops[1:])]:
                    tall = IntervalSet(xb for xb, yb in cov.boxes if yb.hi >= y)
                    for xb in windows:
                        assert ((cov.floor(xb) >= y)
                                == IntervalSet([xb]).issubset(tall)), (mode, d, xb, y)

    def test_graph_points_inside(self, zero_map, tent_map):
        for m in (zero_map, tent_map):
            for d in range(7):
                cov = m.graph_cover(d, 2)
                for t in (F(0), F(1, 16), F(1, 2), F(9, 10), F(1)):
                    assert cov.contains_point(t, eval_f(m, t)), (m.mode, d, t)

    def test_full_fibers_inside(self, zero_map):
        cov = zero_map.graph_cover(6, 2)
        for t in (F(1, 4), F(5, 12), F(3, 4)):
            for y in (F(0), F(1, 3), F(1), F(7, 8)):
                assert cov.contains_point(t, y)

    def test_area_decreases(self, zero_map):
        areas = [zero_map.graph_cover(d, 2).area() for d in range(7)]
        assert all(a > b for a, b in zip(areas, areas[1:]))

    @pytest.mark.parametrize("level", [2, 3])
    def test_area_matches_box_sum(self, level):
        fam = built(level, 56)
        for mode in MODES:
            m = make_map(mode, fam)
            for d in range(9):
                cov = m.graph_cover(d, level)
                want = sum((xb.width * yb.width for xb, yb in cov.boxes), F(0))
                assert cov.area() == want, (level, mode, d)

    def test_lookup_matches_linear_scan(self, zero_map, tent_map):
        # every box corner, every shared box end, the box midpoints, and
        # y-values on, between and above the box heights; at levels 3
        # and 4 in tent mode the height denominators do not divide q, so
        # the tops are over a larger denominator
        maps = [(zero_map, 2), (tent_map, 2),
                (make_map("tent", built(3, 56)), 3), (make_map("tent", built(4, 24)), 4)]
        for m, level in maps:
            for d in range(6):
                cov = m.graph_cover(d, level)
                if m.mode == "tent":
                    assert cov.d > cov.q, (level, d)
                ts = sorted({x for xb, _ in cov.boxes
                             for x in (xb.lo, xb.hi, (xb.lo + xb.hi) / 2)})
                ys = sorted({y for _, yb in cov.boxes for y in (yb.lo, yb.hi)})
                # a negative y lies below every box
                ys += [(a + b) / 2 for a, b in zip(ys, ys[1:])] + [ys[-1] + F(1, 99), F(-1, 99)]
                for t in ts:
                    holders = [(xb, yb) for xb, yb in cov.boxes if xb.contains(t)]
                    for y in ys:
                        expected = any(xb.contains(t) and yb.contains(y)
                                       for xb, yb in holders)
                        assert cov.contains_point(t, y) == expected, (m.mode, level, d, t, y)

    @pytest.mark.parametrize("level, modes, max_stage", [
        (2, ("zero", "tent"), 8), (3, ("zero",), 6)])
    def test_component_boxes_match_intersection_scan(self, level, modes, max_stage):
        # the cap over a C_0 component is the first grid member whose stage
        # cover misses it, or 1; it does not read the mode, max(cap, f_sup) does
        fam = built(level, 56)
        ref = model(fam)
        maps = [make_map(mode, fam) for mode in modes]
        for d in range(max_stage + 1):
            comps = fam.c0.stage(d).components
            caps = [next((r for r in dyadic_grid(level) if not ref.near(fam.member(r), d, comp)),
                         F(1)) for comp in comps]
            held = set(comps)
            for m in maps:
                want = [(comp, ClosedInterval(F(0), max(ub, m.f_sup)))
                        for comp, ub in zip(comps, caps)]
                got = [box for box in m.graph_cover(d, level).boxes if box[0] in held]
                assert got == want, (level, m.mode, d)

    @pytest.mark.parametrize("level, budget", [(1, 56), (2, 56), (3, 56), (4, 24), (5, 24)])
    def test_caps_are_first_misses(self, level, budget):
        # the box over each C_0 component reaches max(cap, f_sup), the cap
        # being the first member of the sub-level's grid whose cover misses
        # the component, or 1; the model asks each cover by bisection
        fam = built(level, budget)
        maps = [make_map(mode, fam) for mode in MODES]
        for d in range(9):
            cov = fam.c0.stage(d)
            index = {pair: k for k, pair in enumerate(zip(*cov.numerators()))}
            comps = cov.components
            misses: dict[F, list[bool]] = {}

            def missed(r, k):
                if r not in misses:
                    ref = FractionIntervalSet(fam.member(r).stage(d).components, _normalized=True)
                    misses[r] = [not ref.components_overlapping(comp) for comp in comps]
                return misses[r][k]

            for sub in range(level + 1):
                grid = dyadic_grid(sub)
                caps = [next((r for r in grid if missed(r, k)), F(1)) for k in range(len(comps))]
                for m in maps:
                    assert box_tops_over(m.graph_cover(d, sub), index) == [
                        max(cap, m.f_sup) for cap in caps], (level, m.mode, d, sub)

    @pytest.mark.parametrize("mode", MODES)
    def test_caps_need_no_nesting(self, mode):
        # member covers that are not nested and sit on other grids than
        # C_0's: a member may meet a component that an earlier one missed,
        # so counting the members that meet it, or bisecting over them,
        # would give another cap than the first miss
        fam = unnested_family(seed=5)
        cov = fam.c0.stage(0)
        m = make_map(mode, fam)
        index = {pair: k for k, pair in enumerate(zip(*cov.numerators()))}
        grid = dyadic_grid(fam.level)
        refs = [FractionIntervalSet(fam.member(r).stage(0).components, _normalized=True)
                for r in grid]
        met = [[bool(ref.components_overlapping(comp)) for ref in refs] for comp in cov]
        caps = [next((r for r, hit in zip(grid, row) if not hit), F(1)) for row in met]
        # some component is missed by one member and met by a later one
        assert any(not row[i] and any(row[i + 1:]) for row in met for i in range(len(row)))
        assert box_tops_over(m.graph_cover(0, fam.level), index) == [
            max(cap, m.f_sup) for cap in caps]

    def test_a_degenerate_component_is_refused(self):
        # C_0's components are never degenerate, so a zero-width cell is
        # refused rather than written
        fam = unnested_family(seed=5)
        fam.c0 = SimpleNamespace(stage=lambda d: IntervalSet.over(60, (1, 7), (4, 7)))
        with pytest.raises(ValueError, match="degenerate component"):
            make_map("zero", fam).graph_cover(0, fam.level)

    def test_point_tests_compare_no_fractions(self, monkeypatch):
        # check_usc's point tests are int work on the heights' int view:
        # no Fraction <, <=, > or >= is evaluated inside contains_point
        m = make_map("tent", built(4, 24))
        inside, counts = [False], {"probes": 0, "compares": 0}
        richcmp, contains = F._richcmp, GraphCover.contains_point

        def counting_richcmp(a, b, op):
            counts["compares"] += inside[0]
            return richcmp(a, b, op)

        def counting_contains(cover, t, y):
            counts["probes"] += 1
            inside[0] = True
            try:
                return contains(cover, t, y)
            finally:
                inside[0] = False

        monkeypatch.setattr(F, "_richcmp", counting_richcmp)
        monkeypatch.setattr(GraphCover, "contains_point", counting_contains)
        assert check_usc(m, 60, 8, seed=1)["ok"]
        assert counts["probes"] > 60 and counts["compares"] == 0, counts

    def test_csv_rows(self, zero_map):
        rows = zero_map.graph_cover(1, 2).csv_rows()
        assert rows[0] == "x_lo,x_hi,y_lo,y_hi"
        assert len(rows) == len(zero_map.graph_cover(1, 2).boxes) + 1

    @pytest.mark.parametrize("mode", MODES)
    def test_csv_rows_are_written_from_the_tiling(self, family, mode):
        # tent heights have denominators that do not divide q
        cov = make_map(mode, family).graph_cover(4, 2)
        rows = cov.csv_rows()
        # the CSV path makes no box view
        assert "boxes" not in vars(cov)
        assert rows[1:] == [f"{xb.lo},{xb.hi},{yb.lo},{yb.hi}" for xb, yb in cov.boxes]


class TestCheckers:
    def test_usc(self, zero_map, tent_map):
        for m in (zero_map, tent_map):
            rep = check_usc(m, 60, 6, seed=3)
            assert rep["ok"], rep["failures"][:2]

    def test_usc_deterministic(self, zero_map):
        assert check_usc(zero_map, 30, 5, seed=9) == check_usc(zero_map, 30, 5, seed=9)

    def test_weak_continuity(self, zero_map, family):
        rep = check_weak_continuity(zero_map, family.c1.endpoints(12), 12)
        assert rep["ok"], rep["failures"][:2]
        for w in rep["witnesses"]:
            assert F(w["distance"]) < F(1, 64)

    def test_weak_continuity_rejects_outsider(self, zero_map):
        rep = check_weak_continuity(zero_map, [F(1, 2)], 8)
        assert not rep["ok"]

    def test_ivp(self, zero_map, tent_map):
        for m in (zero_map, tent_map):
            rep = check_ivp_consistency(m, 32, seed=1)
            assert rep["ok"], rep

    def test_light_dichotomy(self, zero_map, tent_map):
        zrep = check_light(zero_map, 8, 6)
        assert zrep["ok"] and not zrep["light"]
        lo, hi = F(zrep["witness_interval"][0]), F(zrep["witness_interval"][1])
        assert (lo, hi) == (F(17, 36), F(19, 36))
        trep = check_light(tent_map, 8, 6)
        assert trep["ok"] and trep["light"]
        assert all(F(r["cover_measure"]) < 1 for r in trep["rows"])

    def test_light_needs_every_value_above_the_unopened_tents(self, tent_map):
        # a gap still closed at the stage holds a tent up to the tent
        # height of the widest cover component: 1/32 at stage 1, 5/648 at
        # stage 3, so the value 1/64 is cut by tents the rows do not count
        # at stage 1 only
        assert not check_light(tent_map, 64, 1)["ok"]
        assert check_light(tent_map, 64, 3)["ok"]

    @pytest.mark.parametrize("stage", [3, 8])
    @pytest.mark.parametrize("y_grid", [16, 64])
    def test_light_rows_match_per_value_gap_scan(self, tent_map, stage, y_grid):
        rows = check_light(tent_map, y_grid, stage)["rows"]
        assert rows == per_value_light_rows(tent_map, y_grid, stage)
        # values at or below the tallest tent height cut tent legs
        assert (sum(r["tent_point_count"] for r in rows) > 0) == (y_grid > 32)

    def test_not_almost_nonfissile(self, zero_map):
        rep = check_not_almost_nonfissile(zero_map)
        assert rep["ok"]
        assert rep["nonfissile_example"]["singleton"]

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("level", [2, 3])
    def test_not_almost_nonfissile_samples_points_of_c1(self, level, mode):
        m = make_map(mode, built(level, 56))
        rep = check_not_almost_nonfissile(m)
        assert rep["ok"] and rep["sampled_points"] >= 4

    def test_empty_interior(self, zero_map):
        rep = check_empty_interior(zero_map, 6)
        assert rep["ok"]
        for d, row in enumerate(rep["per_stage"]):
            assert F(row["c1_portion_area"]) == F(1, 2) * F(2, 3) ** d
