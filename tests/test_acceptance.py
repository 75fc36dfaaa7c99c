"""Acceptance gate: one test per release criterion, each printing a
pass/fail line.  All checks are exact; there are no tolerances."""

from fractions import Fraction as F

import pytest
from click.testing import CliRunner

from gillab.bonding import check_empty_interior, check_light, check_usc, \
    check_weak_continuity, eval_F
from gillab.cantor import point_membership
from gillab.cli import main as cli_main
from gillab.dynamics import make_cycle, verify_cycle
from gillab.invlimit import (
    ArcSystem,
    check_treelike_hypotheses,
    make_thread,
    tail_index,
    verify_arc_chain,
)


@pytest.fixture()
def announce(capsys, request):
    """Print the criterion verdict even under output capture."""
    outcome = {"ok": False}
    yield outcome
    label = request.node.name.replace("test_", "", 1)
    with capsys.disabled():
        print(f"[{'PASS' if outcome['ok'] else 'FAIL'}] {label}")


class TestAcceptance:
    def test_01_family_nesting(self, family, announce):
        rep = family.check_nesting(8)
        assert rep["ok"], rep["failures"][:3]
        assert rep["checked"] == 90
        announce["ok"] = True

    def test_02_endpoint_avoidance(self, family, announce):
        failures = []
        for src in (F(0), F(1, 2)):
            for p in family.member(src).endpoints(50):
                for r in family.grid():
                    if r <= src:
                        continue
                    verdict = point_membership(family.member(r), p, 12)
                    if not verdict.is_out:
                        failures.append((str(src), str(r), verdict.verdict))
        assert not failures, failures[:5]
        announce["ok"] = True

    def test_03_exact_sup_on_smallest_set(self, zero_map, family, announce):
        for p in family.c1.endpoints(100):
            fb = eval_F(zero_map, p)
            assert not fb.is_singleton
            assert fb.lower_max == 1 and fb.upper_max == 1, str(p)
        announce["ok"] = True

    def test_04_cycles_of_all_periods(self, zero_map, announce):
        for n in range(1, 13):
            rep = verify_cycle(zero_map, make_cycle(zero_map, n))
            assert rep["ok"] and rep["least_rotation_period"] == n, n
        announce["ok"] = True

    def test_05_empty_interior_shadow(self, zero_map, announce):
        rep = check_empty_interior(zero_map, 8)
        assert rep["ok"]
        for d, row in enumerate(rep["per_stage"]):
            assert F(row["c1_portion_area"]) == F(1, 2) * F(2, 3) ** d, d
        assert F(rep["per_stage"][8]["c1_portion_area"]) == F(128, 6561)
        assert rep["strictly_decreasing"]
        announce["ok"] = True

    def test_06_tail_dichotomy(self, zero_map, tent_map, family, announce):
        c0 = family.c0
        pivots = {0: None, 1: F(1, 2), 2: F(0), 3: F(1, 16), 4: F(1, 16),
                  5: F(1, 32)}
        threads = []
        for m in (zero_map, tent_map):
            for plen in range(6):
                for period in (1, 2 if plen % 2 else 3):
                    threads.append((m, make_thread(m, pivots[plen],
                                                   make_cycle(m, period),
                                                   plen), plen))
        threads = threads[:20]
        assert len(threads) == 20
        for m, th, plen in threads:
            assert tail_index(m, th) == plen
            span = plen + 2 * len(th.tail_period) + 2
            for i in range(span):
                mem = c0.membership(th.coordinate(i))
                assert mem.is_out if i < plen else mem.is_in, (plen, i)
        announce["ok"] = True

    def test_07_arc_chain_exactness(self, zero_map, tent_map, announce):
        canned = [
            (zero_map, make_thread(zero_map, None, make_cycle(zero_map, 2), 0)),
            (zero_map, make_thread(zero_map, F(0), make_cycle(zero_map, 1), 2)),
            (zero_map, make_thread(zero_map, F(1, 2), make_cycle(zero_map, 4), 1)),
            (tent_map, make_thread(tent_map, F(1, 16), make_cycle(tent_map, 2), 1)),
            (tent_map, make_thread(tent_map, F(1, 16), make_cycle(tent_map, 3), 3)),
        ]
        for m, th in canned:
            rep = verify_arc_chain(ArcSystem(m, th, 6))
            assert rep["ok"], rep["failures"][:2]
            assert all(r["max_leading"] == "0"
                       for r in rep["joint_leading_coordinates"])
        announce["ok"] = True

    def test_08_treelike_hypotheses(self, zero_map, tent_map, announce):
        for m in (zero_map, tent_map):
            rep = check_treelike_hypotheses(m, 8)
            assert rep["ok"], rep
            assert F(rep["max_component_widths"][8]) <= F(1, 2) * F(2, 3) ** 8
        announce["ok"] = True

    def test_09_usc_and_weak_continuity(self, zero_map, family, announce):
        usc = check_usc(zero_map, 200, 8, seed=0)
        assert usc["sequences"] == 200 and usc["ok"], usc["failures"][:2]
        weak = check_weak_continuity(zero_map, family.c1.endpoints(50), 12)
        assert weak["ok"] and len(weak["witnesses"]) == 50
        assert all(F(w["distance"]) < F(1, 64) for w in weak["witnesses"])
        announce["ok"] = True

    def test_10_lightness_dichotomy(self, zero_map, tent_map, family, announce):
        zrep = check_light(zero_map, 16, 8)
        assert not zrep["light"] and zrep["ok"]
        lo, hi = (F(x) for x in zrep["witness_interval"])
        assert lo < hi and zrep["witness_value"] == "0"
        trep = check_light(tent_map, 16, 8)
        assert trep["light"] and trep["ok"]
        for row in trep["rows"]:
            bound = family.member(F(row["cover_index"])).stage(8).measure()
            assert F(row["cover_measure"]) <= bound
            assert row["tent_point_count"] >= 0
        announce["ok"] = True

    def test_11_verify_all_determinism(self, announce):
        runner = CliRunner()
        args = ["verify", "all", "--stage", "8", "--seed", "0"]
        first = runner.invoke(cli_main, args)
        second = runner.invoke(cli_main, args)
        assert first.exit_code == 0 and second.exit_code == 0
        assert first.output == second.output
        announce["ok"] = True
