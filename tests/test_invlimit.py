import gc
import hashlib
import tracemalloc
from fractions import Fraction as F

import pytest

from gillab import invlimit
from gillab.bonding import make_map
from gillab.cantor import GapAttachedCantor
from gillab.dynamics import make_cycle
from gillab.errors import BoxCountError
from gillab.exact import UNIT, IntervalSet
from gillab.invlimit import (
    TREELIKE_GAP_STAGE,
    ZERO_THREAD,
    ArcSystem,
    Thread,
    arc_params,
    arc_points,
    check_treelike_hypotheses,
    make_thread,
    mahavier_cover,
    tail_index,
    verify_arc_chain,
    verify_thread,
)

from reference import all_pairs_chains, built, contains_tuple, csv_rows


class TestThreads:
    def test_pure_tail(self, zero_map):
        th = make_thread(zero_map, None, make_cycle(zero_map, 2), 0)
        assert th.coordinates(4) == [F(1, 4), F(3, 4), F(1, 4), F(3, 4)]
        assert tail_index(zero_map, th) == 0
        assert verify_thread(zero_map, th)["ok"]

    def test_y2_construction(self, zero_map):
        th = make_thread(zero_map, F(0), make_cycle(zero_map, 1), 2)
        assert th.coordinates(4) == [F(0), F(0), F(1, 4), F(1, 4)]
        assert tail_index(zero_map, th) == 2

    def test_tent_prefix_iterates(self, tent_map):
        th = make_thread(tent_map, F(1, 16), make_cycle(tent_map, 2), 3)
        assert th.coordinates(5) == [F(1, 64), F(1, 32), F(1, 16), F(1, 4), F(3, 4)]
        assert tail_index(tent_map, th) == 3
        assert verify_thread(tent_map, th)["ok"]

    def test_pivot_in_big_set_rejected(self, zero_map):
        with pytest.raises(ValueError):
            make_thread(zero_map, F(1, 4), make_cycle(zero_map, 2), 1)

    def test_uncertified_step_fails(self, zero_map):
        # x_0 = 1/2 is not in F(x_1) = F(1/16) = {0}
        th = Thread((F(1, 2), F(1, 16)), (F(1, 4), F(3, 4)))
        rep = verify_thread(zero_map, th)
        assert rep["ok"] is False
        assert [f["i"] for f in rep["failures"]] == [1]

    def test_malformed_threads_rejected(self):
        with pytest.raises(ValueError):
            Thread((F(1, 16),), ())
        with pytest.raises(ValueError):
            Thread((F(2),), (F(1, 4),))

    def test_pivot_required_with_prefix(self, zero_map):
        with pytest.raises(ValueError):
            make_thread(zero_map, None, make_cycle(zero_map, 2), 1)

    def test_zero_thread(self, zero_map):
        assert ZERO_THREAD.is_zero
        assert ZERO_THREAD.coordinate(17) == 0
        with pytest.raises(ValueError):
            ZERO_THREAD.coordinate(-1)
        with pytest.raises(ValueError):
            tail_index(zero_map, ZERO_THREAD)

    def test_json_round_trip(self, zero_map):
        th = make_thread(zero_map, F(1, 2), make_cycle(zero_map, 3), 1)
        obj = th.to_json_obj()
        assert obj["tailStart"] == 1
        assert Thread.from_json_obj(obj) == th

    def test_dichotomy_exact(self, tent_map, family):
        c0 = family.c0
        th = make_thread(tent_map, F(1, 16), make_cycle(tent_map, 3), 4)
        n = tail_index(tent_map, th)
        for i in range(n):
            assert c0.membership(th.coordinate(i)).is_out
        for i in range(n, n + 6):
            assert c0.membership(th.coordinate(i)).is_in


class TestArcs:
    def test_zero_thread_rejected(self, zero_map):
        with pytest.raises(ValueError):
            ArcSystem(zero_map, ZERO_THREAD, 4)

    def test_param_zero_is_joint(self, zero_map):
        th = make_thread(zero_map, None, make_cycle(zero_map, 2), 0)
        sysm = ArcSystem(zero_map, th, 6)
        for n in range(0, 4):
            assert sysm.arc_point(n, F(0), 8) == sysm.joint(n + 1).coordinates(8)

    def test_param_endpoint_is_thread(self, tent_map):
        th = make_thread(tent_map, F(1, 16), make_cycle(tent_map, 2), 3)
        sysm = ArcSystem(tent_map, th, 8)
        n0 = tail_index(tent_map, th) - 1
        assert sysm.arc_point(n0, th.coordinate(n0), 10) == th.coordinates(10)

    def test_negative_index_refused(self, tent_map):
        # prefix[-1] would read the last prefix coordinate, and on a pure
        # tail it would raise IndexError
        pure = make_thread(tent_map, None, make_cycle(tent_map, 2), 0)
        prefixed = make_thread(tent_map, F(1, 16), make_cycle(tent_map, 2), 3)
        for th in (pure, prefixed):
            with pytest.raises(ValueError):
                th.coordinate(-1)
        for th, first in ((pure, 0), (prefixed, 2)):
            sysm = ArcSystem(tent_map, th, 6)
            assert sysm.first_arc == first
            assert arc_points(sysm, first, [F(0)], (0, 1))
            with pytest.raises(ValueError):
                arc_points(sysm, first - 1, [F(0)], (0, 1))

    def test_param_range_enforced(self, zero_map):
        th = make_thread(zero_map, None, make_cycle(zero_map, 2), 0)
        sysm = ArcSystem(zero_map, th, 6)
        with pytest.raises(ValueError):
            sysm.arc_point(0, F(1, 2), 4)  # above x_0 = 1/4

    def test_chain_exact(self, zero_map, tent_map):
        for m in (zero_map, tent_map):
            th = make_thread(m, None, make_cycle(m, 2), 0)
            rep = verify_arc_chain(ArcSystem(m, th, 6))
            assert rep["ok"], rep["failures"][:2]

    def test_chain_with_prefix(self, tent_map):
        th = make_thread(tent_map, F(1, 16), make_cycle(tent_map, 3), 3)
        rep = verify_arc_chain(ArcSystem(tent_map, th, 7))
        assert rep["ok"]
        assert rep["thread_on_first_arc"]

    def test_joint_leading_coordinates_zero(self, zero_map):
        th = make_thread(zero_map, None, make_cycle(zero_map, 2), 0)
        rep = verify_arc_chain(ArcSystem(zero_map, th, 6))
        assert all(r["max_leading"] == "0" for r in rep["joint_leading_coordinates"])

    def test_arc_points_projection(self, tent_map):
        th = make_thread(tent_map, F(1, 16), make_cycle(tent_map, 2), 3)
        sysm = ArcSystem(tent_map, th, 8)
        pts = arc_points(sysm, 3, arc_params(sysm, 3), (2, 3))
        assert pts[0] == (F(0), F(0), F(0))
        # the parameter grid is sorted and inside [0, x_3]
        params = [p for p, _, _ in pts]
        assert params == sorted(params)
        assert all(0 <= p <= th.coordinate(3) for p in params)

    def test_far_coordinate_builds_no_long_prefix(self, tent_map):
        th = make_thread(tent_map, F(1, 16), make_cycle(tent_map, 2), 3)
        sysm = ArcSystem(tent_map, th, 8)
        params = arc_params(sysm, 3)
        far = 10 ** 6
        tracemalloc.start()
        try:
            pts = arc_points(sysm, 3, params, (0, far))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        # reference: the whole arc point up to the larger index
        want = []
        for t in params:
            c = sysm.arc_point(3, t, far + 1)
            want.append((t, c[0], c[far]))
        assert pts == want


class TestMahavier:
    def test_two_coordinate_cover_matches_graph(self, zero_map):
        cov = mahavier_cover(zero_map, 1, 3, 2)
        graph = {(yb, tb) for tb, yb in zero_map.graph_cover(3, 2).boxes}
        assert set(cov.boxes) == graph

    def test_truncations_covered(self, zero_map, tent_map):
        for m in (zero_map, tent_map):
            cov = mahavier_cover(m, 3, 3, 2)
            for th in (make_thread(m, None, make_cycle(m, 2), 0),
                       make_thread(m, F(0), make_cycle(m, 1), 2),
                       make_thread(m, F(1, 16), make_cycle(m, 2), 1)):
                assert contains_tuple(cov, th.coordinates(4)), (m.mode, th)

    def test_last_projection_full(self, zero_map):
        cov = mahavier_cover(zero_map, 2, 3, 2)
        assert IntervalSet(box[2] for box in cov.boxes) == IntervalSet.of((0, 1))

    def test_walk_leaves_no_reference_cycle(self, zero_map, tent_map):
        # a walk recursing through a nested function's own name would keep
        # its rows, parts and lasts alive in a cycle until a collection
        covers = [mahavier_cover(m, n, 2, 1) for m in (zero_map, tent_map) for n in (2, 3)]
        gc.collect()
        gc.disable()
        try:
            for cov in covers:
                cov.csv_rows()
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("mode", ["zero", "tent"])
    def test_walk_depth_stays_below_the_ceiling(self, mode):
        # the walk recurses once per coordinate; stage 0 has the fewest
        # boxes (7) and 3^(n+1) - 2 chains, so n = 11 is the deepest
        # product any cover builds
        m = make_map(mode, built(3, 56))
        for level in range(4):
            for n in range(1, 12):
                assert len(mahavier_cover(m, n, 0, level)) == 3 ** (n + 1) - 2, (level, n)
            with pytest.raises(BoxCountError):
                mahavier_cover(m, 12, 0, level)

    def test_ceiling(self, zero_map, monkeypatch):
        monkeypatch.setattr(invlimit, "BOX_CEILING", 100)
        with pytest.raises(BoxCountError):
            mahavier_cover(zero_map, 4, 4, 2)

    def test_dimension_validation(self, zero_map):
        with pytest.raises(ValueError):
            mahavier_cover(zero_map, 0, 2, 2)

    def test_csv_rows(self, zero_map):
        cov = mahavier_cover(zero_map, 1, 2, 2)
        rows = cov.csv_rows()
        assert rows[0] == "x0_lo,x0_hi,x1_lo,x1_hi"
        assert len(rows) == len(cov.boxes) + 1

    @pytest.mark.parametrize("n", [2, 3])
    def test_ceiling_is_the_largest_step(self, zero_map, n, monkeypatch):
        count = len(mahavier_cover(zero_map, n, 2, 2).boxes)
        monkeypatch.setattr(invlimit, "BOX_CEILING", count)
        assert len(mahavier_cover(zero_map, n, 2, 2).boxes) == count
        monkeypatch.setattr(invlimit, "BOX_CEILING", count - 1)
        with pytest.raises(BoxCountError, match=f"exceeded ceiling {count - 1}$"):
            mahavier_cover(zero_map, n, 2, 2)


@pytest.mark.parametrize("mode", ["zero", "tent"])
@pytest.mark.parametrize("level", [2, 3])
def test_mahavier_matches_all_pairs_enumeration(level, mode):
    m = make_map(mode, built(level, 56))
    for stage in range(4):
        expected = all_pairs_chains(m.graph_cover(stage, level).boxes, 3)
        for n in (1, 2, 3):
            cov = mahavier_cover(m, n, stage, level)
            assert cov.boxes == expected[n], (stage, n)
            assert cov.csv_rows() == csv_rows(n + 1, expected[n]), (stage, n)


# sha256 of `gillab export mahavier --level 3 --budget 56 --stage 3 --n 3`
BENCH_MAHAVIER_SHA256 = "a7ea747fc29b24598d90a6eaaae081463e0b7c41d2071d33d9a9af5e042b93d5"


def test_bench_configuration_csv_is_rendered_by_the_walk():
    m = make_map("zero", built(3, 56))
    cover = mahavier_cover(m, 3, 3, 3)
    text = "\n".join(cover.csv_rows()) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == BENCH_MAHAVIER_SHA256
    assert len(cover) == 156107
    # the CSV path makes no box tuple
    assert "boxes" not in vars(cover)
    # and the chains are composed on the graph cover's int tiling
    assert "boxes" not in vars(m.graph_cover(3, 3))


class TestTreelike:
    def test_passes_both_modes(self, zero_map, tent_map):
        for m in (zero_map, tent_map):
            rep = check_treelike_hypotheses(m, 8)
            assert rep["ok"], rep
            assert rep["preimage_ok"]
            assert rep["cover_min"] == "1/8"

    def test_widths_shrink(self, zero_map):
        rep = check_treelike_hypotheses(zero_map, 8)
        widths = [F(w) for w in rep["max_component_widths"]]
        assert widths == sorted(widths, reverse=True)
        assert widths[-1] <= F(1, 2) * F(2, 3) ** 8

    def test_gap_singletons_certified(self, zero_map, tent_map):
        for m in (zero_map, tent_map):
            assert check_treelike_hypotheses(m, 8)["nondegenerate_only_on_big_set"] is True

    def test_planted_big_set_point_in_a_gap_fails(self, zero_map, monkeypatch):
        segs = zero_map.family.c0.stage(TREELIKE_GAP_STAGE).complement_in(UNIT)
        seg = segs.components[len(segs) // 2]
        target = (seg.lo + seg.hi) / 2
        original = GapAttachedCantor.gap_of

        def planted(self, t):
            return None if t == target else original(self, t)

        monkeypatch.setattr(GapAttachedCantor, "gap_of", planted)
        rep = check_treelike_hypotheses(zero_map, 8)
        assert rep["nondegenerate_only_on_big_set"] is False
        assert not rep["ok"]
