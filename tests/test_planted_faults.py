"""Planted faults: each checker must fail on a deliberately broken input."""

import json
from dataclasses import replace
from fractions import Fraction as F

import pytest
from click.testing import CliRunner

from gillab import bonding, cache, cli, dynamics, invlimit
from gillab.bonding import FBracket, check_light, check_not_almost_nonfissile, make_map
from gillab.cantor import DEFAULT_MAX_STAGE, IN, OUT, CantorAddress, Membership, build_family
from gillab.dynamics import Cycle
from gillab.exact import ClosedInterval, IntervalSet


def family_with_hole_on_inner_cover():
    """Level-1 family whose C_{1/2} has one removal anchor moved onto C_1.

    The entry's left anchor becomes the midpoint of the nearest C_1
    stage component left of its hole, so the widened hole swallows that
    component's right end: C_1 is no longer inside C_{1/2}.
    """
    fam = build_family(1, 24, 15)
    mid = fam.member(F(1, 2))
    entries = mid.schedule().entries
    for k, entry in enumerate(entries):
        s = entry.create_stage
        hole_lo, _, q = entry.removal_open(s)
        left = [c for c in fam.c1.stage(s) if c.hi < F(hole_lo, q)]
        if left and isinstance(entry.a, CantorAddress) and s <= 4:
            c = left[-1]
            # entries are frozen, and each keeps its ends once computed,
            # so the planted entry replaces the one it mimics
            entries[k] = replace(entry, a=(c.lo + c.hi) / 2)
            assert mid._stage_memo == []   # covers not yet built
            return fam, s
    raise AssertionError("no entry to plant the fault in")


def test_control_family_nests():
    assert build_family(1, 24, 15).check_nesting(4)["ok"]


def test_hole_on_inner_cover_fails_nesting():
    fam, s = family_with_hole_on_inner_cover()
    rep = fam.check_nesting(4)
    assert not rep["ok"]
    assert {"r": "1", "s": "1/2", "stage": s} in rep["failures"]


def test_hole_on_inner_cover_fails_verify_nesting(tmp_path, monkeypatch):
    fam, _ = family_with_hole_on_inner_cover()
    monkeypatch.setattr(cli, "build_family", lambda level, budget: fam)
    threads = tmp_path / "threads.json"
    threads.write_text("[]")
    res = CliRunner().invoke(cli.main, [
        "verify", "nesting", "--level", "1", "--budget", "24", "--stage", "4",
        "--threads-file", str(threads)])
    assert res.exit_code == cli.EXIT_VERIFY_FAILED, res.output
    report = json.loads(res.output)
    assert not report["ok"] and not report["suites"]["nesting"]["ok"]


def test_hole_on_inner_cover_fails_family_inspect(tmp_path, monkeypatch):
    # the cache file certifies the planted family's own covers, so the
    # rebuild loads and the nesting audit fails, with no error line
    fam, s = family_with_hole_on_inner_cover()
    cache.save_family(fam, 4, tmp_path)
    monkeypatch.setattr(cache, "build_family",
                        lambda *args: family_with_hole_on_inner_cover()[0])
    res = CliRunner().invoke(cli.main, [
        "family", "inspect", "--level", "1", "--budget", "24", "--stage", "4",
        "--cache-dir", str(tmp_path)])
    assert res.exit_code == cli.EXIT_VERIFY_FAILED, res.output
    assert res.stderr == ""
    report = json.loads(res.stdout)
    assert not report["nesting"]["ok"]
    assert {"r": "1", "s": "1/2", "stage": s} in report["nesting"]["failures"]


def test_hole_on_inner_cover_answers_point_queries():
    # the schedule's readers read the planted entry, not the one it
    # replaced: a point just inside its hole leaves C_{1/2} by the hole's
    # create stage, as the cover there says
    fam, s = family_with_hole_on_inner_cover()
    mid = fam.member(F(1, 2))
    planted = mid.schedule().entries[2]
    assert isinstance(planted.a, F) and planted.create_stage == s
    hole_lo, _, q = planted.removal_open(s)
    t = F(hole_lo, q) + F(1, 10 ** 9)
    assert not mid.stage(s).contains_point(t)
    d = mid.first_out(t, s)
    assert d is not None and d <= s
    n, m = t.numerator, t.denominator
    assert [e.index for e in mid.schedule().meeting(n, n, m)] == [2]


POKE_STAGE = 3


def family_with_one_step_poke(end: str):
    """Level-1 family whose C_{1/2} stage-3 cover pokes out of C_0 by
    exactly one grid step 1/(24*3^3) at one component end.

    The first component with that end on C_0's boundary is widened by
    one step, to a point outside C_0's cover; the covers stay on the
    grid, so the next component still starts beyond the new end.
    """
    fam = build_family(1, 24, 15)
    mid, outer = fam.member(F(1, 2)), fam.c0.stage(POKE_STAGE)
    step = F(1, 24 * 3 ** POKE_STAGE)
    comps = list(mid.stage(POKE_STAGE))
    for k, c in enumerate(comps):
        lo, hi = (c.lo - step, c.hi) if end == "lo" else (c.lo, c.hi + step)
        if not (outer.contains_point(lo) and outer.contains_point(hi)):
            comps[k] = ClosedInterval(lo, hi)
            poked = IntervalSet(comps)
            assert len(poked) == len(comps)   # no component merged away
            mid._stage_memo[POKE_STAGE] = poked
            return fam
    raise AssertionError("no component end to widen")


@pytest.mark.parametrize("end", ["lo", "hi"])
def test_one_step_poke_fails_nesting(end):
    rep = family_with_one_step_poke(end).check_nesting(4)
    assert not rep["ok"]
    assert rep["failures"] == [{"r": "1/2", "s": "0", "stage": POKE_STAGE}]


@pytest.mark.parametrize("end", ["lo", "hi"])
def test_one_step_poke_fails_verify_nesting(end, monkeypatch):
    fam = family_with_one_step_poke(end)
    monkeypatch.setattr(cli, "build_family", lambda level, budget: fam)
    res = CliRunner().invoke(cli.main, [
        "verify", "nesting", "--level", "1", "--budget", "24", "--stage", "4"])
    assert res.exit_code == cli.EXIT_VERIFY_FAILED, res.output
    report = json.loads(res.output)
    assert not report["ok"]
    assert report["suites"]["nesting"]["failures"] == [
        {"r": "1/2", "s": "0", "stage": POKE_STAGE}]


def test_graph_below_the_box_fails_not_almost_nonfissile(monkeypatch):
    m = make_map("zero", build_family(1, 24, 15))
    assert check_not_almost_nonfissile(m)["ok"]
    # F(t) = [0, 1/4] everywhere: the graph never enters the box's
    # y-range [1/2, 1], so the box certifies nothing
    monkeypatch.setattr(bonding, "eval_F",
                        lambda m, t, *args: FBracket(F(1, 4), F(1, 4)))
    rep = check_not_almost_nonfissile(m)
    assert rep["sampled_points"] > 0
    assert not rep["ok"] and rep["fissile_failures"]


def test_nonsingleton_on_the_witness_gap_fails_verify_light(monkeypatch):
    args = ["verify", "light", "--level", "1", "--budget", "24", "--stage", "4"]
    m = make_map("zero", build_family(1, 24, 15))
    assert check_light(m, 16, 4)["ok"]
    assert CliRunner().invoke(cli.main, args).exit_code == 0
    original = bonding.eval_F

    # F(1/2) = [0, 1/4]: the midpoint of the zero-mode witness gap
    # (17/36, 19/36) no longer maps to the singleton 0
    def planted(m, t, *args):
        return FBracket(F(0), F(1, 4)) if t == F(1, 2) else original(m, t, *args)

    monkeypatch.setattr(bonding, "eval_F", planted)
    rep = check_light(m, 16, 4)
    assert rep["witness_interval"] == ["17/36", "19/36"]
    assert not rep["ok"]
    res = CliRunner().invoke(cli.main, args)
    assert res.exit_code == cli.EXIT_VERIFY_FAILED, res.output
    report = json.loads(res.output)
    assert not report["ok"] and not report["suites"]["light"]["ok"]
    assert report["suites"]["light"]["tent"]["ok"]


def test_tall_unopened_tents_fail_verify_light(monkeypatch):
    # with every tent 1 tall, a gap the stage cover has not opened yet may
    # hold a tent that reaches each value, and the rows count none of its
    # points
    args = ["verify", "light", "--level", "1", "--budget", "24", "--stage", "4"]
    assert CliRunner().invoke(cli.main, args).exit_code == 0
    monkeypatch.setattr(bonding, "_tent_height", lambda w, q: (1, 1))
    assert not check_light(make_map("tent", build_family(1, 24, 15)), 16, 4)["ok"]
    res = CliRunner().invoke(cli.main, args)
    assert res.exit_code == cli.EXIT_VERIFY_FAILED, res.output
    report = json.loads(res.output)
    assert not report["suites"]["light"]["ok"] and not report["suites"]["light"]["tent"]["ok"]


def test_uncertified_step_fails_verify_arcs(tmp_path):
    # x_0 = 1/64 is not in F(1/32) = {0} in zero mode
    threads = tmp_path / "threads.json"
    threads.write_text('[{"prefix": ["1/64", "1/32", "1/16"], '
                       '"tailPeriod": ["1/4", "3/4"]}]')
    res = CliRunner().invoke(cli.main, [
        "verify", "arcs", "--level", "1", "--budget", "24",
        "--threads-file", str(threads)])
    assert res.exit_code == cli.EXIT_VERIFY_FAILED, res.output
    report = json.loads(res.output)
    assert report["ok"] is False and report["suites"]["arcs"]["ok"] is False
    assert report["suites"]["arcs"]["threads"][0]["valid"] is False


def test_tent_above_min_c0_fails_treelike(monkeypatch):
    # tents as high as 1/4 rise above 1/8 = min C_0, so a value of F off
    # C_0 can land in C_0
    args = ["verify", "treelike", "--mode", "tent", "--level", "1", "--budget", "24"]
    assert invlimit.check_treelike_hypotheses(
        make_map("tent", build_family(1, 24, 15)), 4)["preimage_ok"]
    assert CliRunner().invoke(cli.main, args).exit_code == 0
    monkeypatch.setattr(bonding, "MAX_TENT_HEIGHT", F(1, 4))
    rep = invlimit.check_treelike_hypotheses(
        make_map("tent", build_family(1, 24, 15)), 4)
    assert rep["singleton_sup"] == "1/4"
    assert not rep["preimage_ok"] and not rep["ok"]
    res = CliRunner().invoke(cli.main, args)
    assert res.exit_code == cli.EXIT_VERIFY_FAILED, res.output
    report = json.loads(res.output)
    assert not report["ok"] and not report["suites"]["treelike"]["preimage_ok"]


def _no_witness_on_c1(m, t, *args):
    """eval_F with [0, 1] for F(t) at every point t of C_1: [0, 0] is all
    it certifies there, so no C_1 witness reaches a value y > 0."""
    if m.family.c1.membership(t).is_in:
        return FBracket(F(0), F(1))
    return _eval_F(m, t, *args)


def _inverted_at_one_half(m, t, *args):
    """eval_F with the bracket [0, 1/2] inside [0, 1/4] at t = 1/2, a
    grid point of the ivp shape check and no spot-check witness."""
    if t == F(1, 2):
        return FBracket(F(1, 2), F(1, 4))
    return _eval_F(m, t, *args)


def _family_refusing_one_witness(level, budget):
    """The family, with C_{1/2} refusing the first witness the weak
    continuity check finds for the usc suite's C_1 endpoints: a point of
    C_1, so of every member."""
    fam = build_family(level, budget)
    witnesses = bonding.check_weak_continuity(
        make_map("zero", fam), fam.c1.endpoints(50), DEFAULT_MAX_STAGE)["witnesses"]
    witness = F(witnesses[0]["witness"])
    mid = fam.member(F(1, 2))
    membership = mid.membership
    mid.membership = lambda t, *args: (Membership(OUT, 0) if t == witness
                                       else membership(t, *args))
    return fam


_eval_F = bonding.eval_F
_joint = invlimit.ArcSystem.joint


def _joint_one_zero_too_many(sys, i):
    """y^(i+1) in place of y^i: it has 0 where y^i has x_i, a tail point."""
    return _joint(sys, i + 1)


# fault -> (suite, owner, name, planted replacement): each fault is named
# for the checker it breaks, and the suite must catch it
PLANTED = {
    # every later member seems to keep every scheduled endpoint
    "endpoints": ("endpoints", cli, "point_membership",
                  lambda gen, t, ceiling: Membership(IN)),
    # no graph-cover box holds any (t, y)
    "usc": ("usc", bonding.GraphCover, "contains_point", lambda cover, t, y: False),
    # no witness is nearer than a tolerance of 0
    "weak_continuity": ("usc", bonding, "WEAK_CONTINUITY_TOLERANCE", F(0)),
    # every column of the cover seems filled to height 1
    "interior": ("interior", bonding.GraphCover, "floor", lambda cover, xb: F(1)),
    # the spot checks' witnesses are C_1 endpoints
    "ivp": ("ivp", bonding, "eval_F", _no_witness_on_c1),
    # one grid point's image is no interval anchored at 0
    "ivp_shape": ("ivp", bonding, "eval_F", _inverted_at_one_half),
    # one member loses one witness that every member holds
    "weak_continuity_witness": ("usc", cli, "build_family", _family_refusing_one_witness),
    # 1/4 is in C_1, so each step is certified, but the points coincide
    "cycles": ("cycles", dynamics, "make_cycle", lambda m, n: Cycle((F(1, 4), F(1, 4)))),
    # each joint sits one zero coordinate deeper than both its arcs
    "arcs": ("arcs", invlimit.ArcSystem, "joint", _joint_one_zero_too_many),
}


def planted_report(fault, monkeypatch) -> dict:
    """The report of the fault's suite, which passes, run again with the
    fault planted; it must exit 1."""
    suite, owner, name, planted = PLANTED[fault]
    args = ["verify", suite, "--level", "1", "--budget", "24", "--stage", "4"]
    assert CliRunner().invoke(cli.main, args).exit_code == 0
    monkeypatch.setattr(owner, name, planted)
    res = CliRunner().invoke(cli.main, args)
    assert res.exit_code == cli.EXIT_VERIFY_FAILED, res.output
    return json.loads(res.output)


@pytest.mark.parametrize("fault", sorted(PLANTED))
def test_planted_fault_fails_verify(fault, monkeypatch):
    report = planted_report(fault, monkeypatch)
    suite = PLANTED[fault][0]
    assert not report["ok"] and not report["suites"][suite]["ok"]


def test_usc_fault_marks_every_escaped_limit(monkeypatch):
    # no cover box holds any limit, so each sample's own record fails and
    # names stage 0, where its limit escapes
    usc = planted_report("usc", monkeypatch)["suites"]["usc"]["usc"]
    assert len(usc["failures"]) == usc["sequences"] > 0
    assert all(f["ok"] is False and f["escaped_at_stage"] == 0 for f in usc["failures"])


def test_zero_tolerance_fails_weak_continuity_alone(monkeypatch):
    # the usc suite runs two checkers; a weak-continuity fault fails the
    # second only, at every point, for want of a witness
    usc = planted_report("weak_continuity", monkeypatch)["suites"]["usc"]
    assert usc["usc"]["ok"] and not usc["weak_continuity"]["ok"]
    assert {f["reason"] for f in usc["weak_continuity"]["failures"]} == {
        "witness search exhausted"}


def test_inverted_bracket_fails_the_ivp_shape_check_alone(monkeypatch):
    ivp = planted_report("ivp_shape", monkeypatch)["suites"]["ivp"]
    assert ivp["shape_failures"] == [{"point": "1/2"}] and not ivp["spot_failures"]


def test_refused_witness_fails_weak_continuity_alone(monkeypatch):
    # the witness is refused by C_{1/2} only, and for the endpoint it
    # witnesses only
    usc = planted_report("weak_continuity_witness", monkeypatch)["suites"]["usc"]
    assert usc["usc"]["ok"]
    failures = usc["weak_continuity"]["failures"]
    assert [(f["index"], f["reason"]) for f in failures] == [
        ("1/2", "witness lost certification")]


def test_joint_one_zero_too_many_fails_every_joint_check(zero_map, monkeypatch):
    th = invlimit.make_thread(zero_map, F(0), dynamics.make_cycle(zero_map, 1), 2)
    sys = invlimit.ArcSystem(zero_map, th, 6)
    assert invlimit.verify_arc_chain(sys)["ok"]
    monkeypatch.setattr(invlimit.ArcSystem, "joint", _joint_one_zero_too_many)
    rep = invlimit.verify_arc_chain(sys)
    assert not rep["ok"] and rep["failures"] == rep["checks"]
    assert not any(c["joint_exact"] or c["joint_on_lower_arc"] for c in rep["checks"])
    # the separation fact reads no joint
    assert all(c["separation_ok"] for c in rep["checks"])
