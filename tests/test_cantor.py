import os
import random
import subprocess
import sys
from fractions import Fraction as F
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gillab
from gillab.bonding import eval_F, make_map
from gillab.cantor import (
    C1_BASE,
    DEFAULT_SEARCH_CEILING,
    CantorAddress,
    IN,
    OUT,
    UNKNOWN,
    GapAttachedCantor,
    IntermediateCantor,
    Membership,
    MiddleThirds,
    RemovalSchedule,
    ScheduleEntry,
    build_family,
    point_bracket,
    point_membership,
)
from gillab.cli import _suite_endpoints
from gillab.exact import ClosedInterval, IntervalSet, UNIT
from gillab.thirds import CantorGen, _kept, _ternary_exit

from conftest import (
    attachments,
    bracket,
    hole,
    hull,
    interval,
    near,
    overlapping,
    sample_windows,
    synthetic_intermediate,
    window,
)
from reference import (
    Model,
    built,
    contains_interval,
    fresh_family,
    intersects,
    model,
    ternary_exit,
)


def on_grid(gen, d: int, c: ClosedInterval) -> tuple[int, int]:
    """A stage-d component as numerators over gen.grid(d)."""
    q = gen.grid(d)
    return int(c.lo * q), int(c.hi * q)


def count_thirds(monkeypatch) -> list[int]:
    """From here on, the number of MiddleThirds made, as a one-item list."""
    made = [0]
    init = MiddleThirds.__init__

    def counting(self, base):
        made[0] += 1
        init(self, base)

    monkeypatch.setattr(MiddleThirds, "__init__", counting)
    return made


def walk(gen, d: int, x: F, rightward: bool) -> list[ClosedInterval]:
    return [interval(lo, hi, gen.grid(d))
            for lo, hi in gen.walk({}, d, x.numerator, x.denominator, rightward)]


unit_rationals = st.fractions(min_value=0, max_value=1, max_denominator=3 ** 6)


class TestMiddleThirds:
    def test_stage_covers(self):
        mt = MiddleThirds(ClosedInterval(F(0), F(1)))
        assert mt.stage(1) == IntervalSet.of((0, "1/3"), ("2/3", 1))
        assert len(mt.stage(5)) == 32
        assert mt.stage(5).measure() == F(32, 243)

    def test_c1_stage_covers(self, family):
        c1 = family.c1
        assert c1.stage(0) == IntervalSet.of(("1/4", "3/4"))
        assert c1.stage(1) == IntervalSet.of(("1/4", "5/12"), ("7/12", "3/4"))
        assert c1.stage(2) == IntervalSet.of(
            ("1/4", "11/36"), ("13/36", "5/12"), ("7/12", "23/36"),
            ("25/36", "3/4"))

    @given(unit_rationals)
    @settings(max_examples=150)
    def test_membership_matches_ternary_oracle(self, u):
        mt = MiddleThirds(ClosedInterval(F(0), F(1)))
        assert mt.membership(u).is_in == (ternary_exit(UNIT, u) is None)

    @given(unit_rationals)
    @settings(max_examples=80)
    def test_membership_consistent_with_covers(self, u):
        mt = MiddleThirds(ClosedInterval(F(0), F(1)))
        m = mt.membership(u)
        if m.is_in:
            assert all(mt.stage(d).contains_point(u) for d in range(8))
        elif m.decided_at_stage <= 10:
            # an Out point leaves the cover at its decision depth, and
            # not before
            d = m.decided_at_stage
            assert d >= 1
            assert not mt.stage(d).contains_point(u)
            assert mt.stage(d - 1).contains_point(u)

    def test_known_points(self):
        mt = MiddleThirds(ClosedInterval(F(0), F(1)))
        for p in (F(0), F(1), F(1, 3), F(2, 3), F(1, 9), F(1, 4), F(3, 4)):
            assert mt.membership(p).is_in, p
        for p in (F(1, 2), F(5, 12), F(1, 5)):
            assert mt.membership(p).is_out, p

    def test_gap_of(self):
        mt = MiddleThirds(ClosedInterval(F(0), F(1)))
        assert mt.gap_of(F(1, 2)) == (F(1, 3), F(2, 3))
        assert mt.gap_of(F(1, 5)) == (F(1, 9), F(2, 9))

    @pytest.mark.parametrize("t", [F(1, 4), F(5, 12), F(3, 4)])
    def test_gap_of_is_none_on_a_point_of_the_set(self, t):
        assert MiddleThirds(C1_BASE).gap_of(t) is None

    def test_gap_of_rejects_a_point_outside_the_base(self):
        # the ternary walk of a point outside the base once never ended,
        # so the queries run in a child process with a deadline
        code = ("import sys\n"
                "from fractions import Fraction as F\n"
                "from gillab.cantor import build_family\n"
                "c1 = build_family(0, 8).c1\n"
                "for t in (F(1, 8), F(7, 8), F(-1)):\n"
                "    try:\n"
                "        c1.gap_of(t)\n"
                "    except ValueError:\n"
                "        continue\n"
                "    sys.exit(f'no ValueError at {t}')\n")
        env = dict(os.environ, PYTHONPATH=str(Path(gillab.__file__).parents[1]))
        res = subprocess.run([sys.executable, "-c", code], env=env, timeout=30,
                             capture_output=True, text=True)
        assert res.returncode == 0, res.stderr

    def test_endpoint_discovery_order(self, family):
        pts = family.c1.endpoints(6)
        assert pts == [F(1, 4), F(3, 4), F(5, 12), F(7, 12), F(11, 36), F(13, 36)]

    def test_degenerate_base_rejected(self):
        with pytest.raises(ValueError):
            MiddleThirds(ClosedInterval(F(1, 2), F(1, 2)))

    def test_negative_stage_rejected(self):
        # a negative depth once indexed the memo from its end and
        # returned the deepest cover computed so far
        mt = MiddleThirds(UNIT)
        mt.stage(4)
        with pytest.raises(ValueError):
            mt.stage(-1)


class TestGapAttached:
    def test_stage_zero_components(self, family):
        assert family.c0.stage(0) == IntervalSet.of(
            ("1/8", "1/6"), ("5/24", "19/24"), ("5/6", "7/8"))

    def test_extremes(self, family):
        for d in range(0, 10, 3):
            assert family.c0.stage(d).min() == F(1, 8)
            assert family.c0.stage(d).components[-1].hi == F(7, 8)

    def test_contains_core(self, family):
        for d in range(8):
            assert family.c1.stage(d).issubset(family.c0.stage(d))

    def test_membership(self, family):
        c0 = family.c0
        assert c0.membership(F(1, 8)).is_in
        assert c0.membership(F(7, 8)).is_in
        assert c0.membership(F(1, 4)).is_in       # core point
        assert c0.membership(F(19, 24)).is_in     # attachment endpoint
        assert c0.membership(F(1, 2)).is_out      # middle of central gap
        assert c0.membership(F(1, 16)).is_out     # below the window
        assert c0.membership(F(15, 16)).is_out

    def test_gap_of_central(self, family):
        assert family.c0.gap_of(F(1, 2)) == (F(17, 36), F(19, 36))

    def test_gap_of_outside_window(self, family):
        assert family.c0.gap_of(F(1, 16)) == (F(0), F(1, 8))
        assert family.c0.gap_of(F(15, 16)) == (F(7, 8), F(1))

    # core points, the window ends and an attachment end
    @pytest.mark.parametrize("t", [F(1, 4), F(5, 12), F(1, 8), F(7, 8), F(19, 24)])
    def test_gap_of_is_none_on_a_point_of_the_set(self, family, t):
        assert family.c0.gap_of(t) is None

    # no gap of {0} + C_0 + {1} holds a point outside [0, 1]
    @pytest.mark.parametrize("t", [F(-1), F(2), F(9, 8)])
    def test_gap_of_rejects_a_point_outside_the_unit(self, family, t):
        with pytest.raises(ValueError):
            family.c0.gap_of(t)

    def test_attachment_bases_for_central_gap(self, family):
        q = family.c0.grid(1)   # the gap (5/12, 7/12) of generation 1
        w, a, b = family.c0._attachment_ends(1, 1, 5 * q // 12, 7 * q // 12)
        assert interval(a, a + w, q) == ClosedInterval(F(5, 12), F(17, 36))
        assert interval(b, b + w, q) == ClosedInterval(F(19, 36), F(7, 12))

    def test_endpoints_exclude_core_members(self, family):
        pts = family.c0.endpoints(40)
        assert F(1, 4) not in pts
        assert F(3, 4) not in pts
        assert pts[:6] == [F(1, 8), F(1, 6), F(5, 24), F(19, 24),
                           F(5, 6), F(7, 8)]

    @given(unit_rationals)
    @settings(max_examples=60)
    def test_membership_consistent_with_covers(self, family, u):
        m = family.c0.membership(u)
        if m.is_in:
            assert all(family.c0.stage(d).contains_point(u) for d in range(7))


def root_address(gen, k: int) -> CantorAddress:
    """The address whose stage-0 bracket is root component k."""
    return CantorAddress.for_component(gen, on_grid(gen, 0, gen.stage(0).components[k]), 0)


class TestAddresses:
    def test_brackets_nest_and_shrink(self, family):
        addr = root_address(family.c0, 1)
        widths = []
        for d in range(10):
            br = bracket(addr, d)
            widths.append(br.width)
            if d:
                assert contains_interval(bracket(addr, d - 1), br)
        assert widths[9] < widths[0] / 100

    def test_a_single_child_takes_no_turn(self, monkeypatch):
        # a stage whose bracket has one child takes it and consumes no
        # L/R turn, so the turns after it go on alternating from the last
        c1 = MiddleThirds(C1_BASE)
        addr = root_address(c1, 0)
        children = c1._cached_children
        monkeypatch.setattr(c1, "_cached_children", lambda d, lo, hi: (
            children(d, lo, hi)[:1] if d == 2 else children(d, lo, hi)))
        sides = ["L" if addr.bracket(d) == children(d, *addr.bracket(d - 1))[0] else "R"
                 for d in range(1, 6)]
        assert sides == ["L", "L", "R", "L", "R"]

    def test_limit_point_interior(self, family):
        # alternating tails denote non-endpoints: both bracket ends move
        addr = root_address(family.c0, 1)
        first = bracket(addr, 0)
        later = bracket(addr, 12)
        assert later.lo > first.lo and later.hi < first.hi

    def test_serialize(self, family):
        root = family.c0.stage(0).components[1]
        child = next(c for c in family.c0.stage(1) if contains_interval(root, c))
        addr = CantorAddress.for_component(family.c0, on_grid(family.c0, 1, child), 1)
        assert addr.serialize() == "1.0:(LR)"

    def test_for_component_round_trip(self, family):
        comp = family.c0.stage(3).components[5]
        addr = CantorAddress.for_component(family.c0, on_grid(family.c0, 3, comp), 3)
        assert bracket(addr, 3) == comp

    def test_point_membership_of_address(self, family):
        comp = family.c1.stage(2).components[0]
        addr = CantorAddress.for_component(family.c1, on_grid(family.c1, 2, comp), 2)
        # a point of the smallest set lies in every family member
        assert not point_membership(family.c0, addr).is_out
        assert point_membership(family.c1, addr).is_in

    @pytest.mark.parametrize("level, budget", [(2, 56), (3, 56), (4, 24)])
    def test_anchor_chain_is_read_off_the_covers(self, level, budget):
        # an anchor's brackets through its create stage are the ancestor
        # chain for_component found: the components of the memoised
        # covers that hold its create-stage bracket
        fam = built(level, budget)
        anchors = 0
        for r in fam.grid():
            gen = fam.member(r)
            if not isinstance(gen, IntermediateCantor):
                continue
            for entry in gen.schedule().entries:
                for p in (entry.a, entry.b):
                    if not isinstance(p, CantorAddress):
                        continue
                    anchors += 1
                    e = entry.create_stage
                    lo, hi = p.bracket(e)
                    for d in range(e + 1):
                        cover = p.gen.stage(d)
                        clo, chi = cover.numerators(p.gen.grid(d))
                        f = 3 ** (e - d)
                        chain = [(clo[k], chi[k]) for k in range(len(cover))
                                 if clo[k] * f <= lo and hi <= chi[k] * f]
                        assert [p.bracket(d)] == chain, (r, entry.index, d)
        assert anchors > 100


class TestIntermediate:
    def test_rejects_equal_generators(self, family):
        with pytest.raises(ValueError):
            IntermediateCantor(family.c1, family.c1, 8)

    def test_rejects_budget_below_one(self, family):
        # budget 0 once built a C_{1/2} equal to C_0
        for budget in (0, -3):
            with pytest.raises(ValueError, match="budget"):
                IntermediateCantor(family.c1, family.c0, budget)
            with pytest.raises(ValueError, match="budget"):
                build_family(1, budget)

    def test_schedule_shape(self, family):
        mid = family.member(F(1, 2))
        sched = mid.schedule()
        assert len(sched.entries) + len(sched.reuses) == 56
        assert max(e.create_stage for e in sched.entries) <= 12
        assert sched.entries[0].point == F(1, 8)
        assert isinstance(sched.entries[0].a, F)
        assert sched.entries[0].a == 0

    def test_removals_grow(self, family):
        entry = family.member(F(1, 2)).schedule().entries[1]
        lo1, hi1 = hole(entry, entry.create_stage)
        lo2, hi2 = hole(entry, entry.create_stage + 4)
        assert lo2 <= lo1 and hi1 <= hi2 and lo1 < hi1

    def test_strictly_between_neighbors(self, family):
        mid = family.member(F(1, 2))
        for d in range(7):
            cov = mid.stage(d)
            assert family.c1.stage(d).issubset(cov)
            assert cov.issubset(family.c0.stage(d))
        # strictness: some outer endpoint is removed, some kept point is
        # outside the inner set
        assert mid.membership(F(1, 8), 12).is_out
        assert family.c0.membership(F(1, 8)).is_in

    def test_membership_dichotomy(self, family):
        mid = family.member(F(1, 2))
        assert mid.membership(F(1, 4)).is_in   # smallest-set point
        assert mid.membership(F(1, 2)).is_out  # central gap of the big set
        assert mid.membership(F(7, 8), 12).is_out

    def test_first_out_rejects_an_unbounded_walk(self):
        # an anchor's limit point stays inside every hull, so an IC's
        # first_out needs a depth bound; None once raised TypeError
        mid = build_family(1, 8).member(F(1, 2))
        for t in (F(1, 4), F(1, 2), F(3, 4), F(5, 12)):
            with pytest.raises(ValueError, match="max_stage") as info:
                mid.first_out(t, None)
            assert "\n" not in str(info.value)

    def test_endpoints_are_addresses(self, family):
        eps = family.member(F(1, 2)).endpoints(10)
        assert len(eps) == 10
        assert all(isinstance(p, CantorAddress) for p in eps)


class TestFamily:
    def test_grid(self, family):
        assert family.grid() == [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]

    def test_nesting_exact(self, family):
        rep = family.check_nesting(8)
        assert rep["ok"], rep["failures"][:3]
        assert rep["checked"] == 90

    def test_measures_decrease_in_index(self, family):
        d = 6
        measures = [family.member(r).stage(d).measure() for r in family.grid()]
        assert measures == sorted(measures, reverse=True)
        assert len(set(measures)) == len(measures)

    def test_determinism(self):
        a = build_family(1, 24, 15)
        b = build_family(1, 24, 15)
        for r in a.grid():
            for d in range(6):
                assert a.member(r).stage(d).to_text() == b.member(r).stage(d).to_text()

    def test_level_refinement_preserves_members(self, family):
        small = build_family(1, 56, 15)
        for r in small.grid():
            for d in range(6):
                assert (small.member(r).stage(d).to_text()
                        == family.member(r).stage(d).to_text())

    def test_level_zero(self):
        fam = build_family(0, 8, 15)
        assert fam.grid() == [F(0), F(1)]

    @pytest.mark.parametrize("level", range(6))
    def test_chains_end_at_the_smallest_and_largest_sets(self, level):
        # an intermediate set says IN only through its inner set, so the
        # bottom of every inner chain, C_1, answers for the whole chain,
        # and each intermediate set stores it
        fam = build_family(level, 8, 15)
        ics = [fam.member(r) for r in fam.grid()
               if isinstance(fam.member(r), IntermediateCantor)]
        assert len(ics) == 2 ** level - 1
        for gen in ics:
            inner, outer = gen.inner, gen.outer
            while isinstance(inner, IntermediateCantor):
                inner = inner.inner
            while isinstance(outer, IntermediateCantor):
                outer = outer.outer
            assert inner is fam.c1 and outer is fam.c0, gen.describe()
            assert gen.bottom is fam.c1, gen.describe()


class TestEvalWalks:
    def test_walks_per_query_do_not_grow_with_the_level(self, monkeypatch):
        # one C_0 gap query and one C_1 walk per point; the intermediate
        # members scan their holes, which walks no ternary digits
        rnd = random.Random(3)
        randoms = [F(rnd.randrange(q + 1), q) for q in range(1, 400, 7)]
        walks = []
        for level, budget in ((2, 56), (4, 24)):
            fam = fresh_family(level, budget)
            points = sorted({*fam.c1.endpoints(30), *fam.c0.endpoints(30), *randoms})
            maps = [make_map(mode, fam) for mode in ("zero", "tent")]
            # a first pass makes the brackets the queries meet
            answers = [eval_F(m, t) for m in maps for t in points]
            calls = [0]

            def counting(*args):
                calls[0] += 1
                return _ternary_exit(*args)

            with monkeypatch.context() as patch:
                patch.setattr(gillab.thirds, "_ternary_exit", counting)
                assert [eval_F(m, t) for m in maps for t in points] == answers
            walks.append(calls[0])
        assert walks[0] == walks[1] > 0


# ---------------------------------------------------------------------------
# the one-sweep covers and inner-first membership against the model


class TestSweptCovers:
    def test_every_member_matches_per_hole_reference(self, family):
        ref = model(family)
        overlaps = 0
        for r in family.grid():
            gen = family.member(r)
            for d in range(11):
                assert gen.stage(d).to_text() == ref.cover(gen, d).to_text(), (r, d)
                if isinstance(gen, IntermediateCantor):
                    holes = sorted(ref.hole(e, d) for e in gen.schedule().entries
                                   if e.create_stage <= d)
                    overlaps += sum(c < b for (_, b), (c, _) in zip(holes, holes[1:]))
        # the sweep must carry a running right end: removal holes overlap
        assert overlaps > 0

    def test_level_three_matches_per_hole_reference(self):
        fam = built(3, 24)
        ref = model(fam)
        for r in fam.grid():
            gen = fam.member(r)
            for d in range(7):
                assert gen.stage(d).to_text() == ref.cover(gen, d).to_text(), (r, d)


def hole_points(fam, max_stage: int) -> list[F]:
    """Where a removal hole of an intermediate member can decide a
    verdict: the ends of its hole and hull at each stage from its
    creation to max_stage, their midpoints, and a point inside each
    anchor bracket."""
    points = set()
    for r in fam.grid():
        gen = fam.member(r)
        if not isinstance(gen, IntermediateCantor):
            continue
        for entry in gen.schedule().entries:
            for s in range(entry.create_stage, max_stage + 1):
                lo, hi = hole(entry, s)
                h = hull(entry, s)
                points.update((lo, hi, (lo + hi) / 2, h.lo, h.hi, (h.lo + h.hi) / 2,
                               (h.lo + lo) / 2, (hi + h.hi) / 2))
    return sorted(points)


def probe_points(fam, max_stage: int, seed: int) -> list[F]:
    rnd = random.Random(seed)
    return (fam.c1.endpoints(40) + fam.c0.endpoints(60)
            + [F(rnd.randrange(q + 1), q)
               for q in (rnd.randrange(1, 5000) for _ in range(150))]
            + hole_points(fam, max_stage))


def assert_matches_cover_first(fam, max_stage: int) -> None:
    points = probe_points(fam, max_stage, 11)
    ref = model(fam)
    for r in fam.grid():
        gen = fam.member(r)
        for t in points:
            assert gen.membership(t, max_stage) == ref.membership(gen, t, max_stage), (r, t)


class TestInnerFirstMembership:
    @pytest.mark.parametrize("max_stage", [8, 12])
    def test_matches_cover_first(self, family, max_stage):
        assert_matches_cover_first(family, max_stage)

    def test_matches_cover_first_at_level_three(self):
        assert_matches_cover_first(built(3, 56), 8)

    @pytest.mark.parametrize("max_stage", [8, 12])
    def test_addresses_through_point_membership(self, family, max_stage):
        points = [p for r in family.grid()
                  for p in family.member(r).endpoints(12)]
        points += [CantorAddress.for_component(family.c1, on_grid(family.c1, 3, c), 3)
                   for c in family.c1.stage(3).components[::3]]
        ref = model(family)
        for r in family.grid():
            gen = family.member(r)
            for p in points:
                assert (point_membership(gen, p, max_stage)
                        == ref.membership(gen, p, max_stage)), (r, p)

    def test_deep_stage_builds_no_cover(self):
        # a verdict at depth 20 builds no cover that set-up did not: the
        # search sweeps no depth past 8, and a point query sweeps none
        fam = fresh_family(2, 56)
        memo = {r: len(fam.member(r)._stage_memo) for r in fam.grid()}
        assert max(memo.values()) - 1 <= 8
        fb = eval_F(make_map("tent", fam), F(3781, 12636), 2, 20)
        assert (fb.lower_max, fb.upper_max) == (0, 1)
        for r in fam.grid():
            assert len(fam.member(r)._stage_memo) == memo[r], r

    def test_smallest_set_point_builds_no_cover(self):
        # an endpoint of C_1 lies in every inner set, so no intermediate
        # member needs a stage cover to certify it
        fam = build_family(2, 56, 15)
        p = fam.c1.endpoints(9)[-1]
        fb = eval_F(make_map("zero", fam), p)
        assert fb.lower_max == 1
        for r in fam.grid():
            gen = fam.member(r)
            if isinstance(gen, IntermediateCantor):
                assert gen._stage_memo == [], r


def first_out_points(fam, max_stage: int) -> list[F]:
    c0 = fam.c0
    points = probe_points(fam, max_stage, 12)
    # the window ends, points beyond them and in every side gap
    points += [F(0), F(1), F(1, 16), F(15, 16), c0.window.lo, c0.window.hi,
               F(3, 16), F(13, 16), F(7, 48), F(41, 48)]
    comps = c0.stage(6).components
    return points + [(c.hi + n.lo) / 2 for c, n in zip(comps, comps[1:])]


class TestFirstOut:
    @pytest.mark.parametrize("level, max_stage", [(2, 10), (3, 8)])
    def test_matches_the_cover_walk(self, level, max_stage):
        fam = built(level, 56)
        ref = model(fam)
        c0 = fam.c0
        points = first_out_points(fam, max_stage)
        gens = [fam.member(r) for r in fam.grid()]
        gens += list(attachments(ref, c0, *c0._core_exit(1, 2, None)))
        for gen in gens:
            for t in points:
                want = ref.first_out(gen, t, max_stage)
                # a smaller budget answers only what the walk finds in it
                for m in (0, 1, 4, max_stage):
                    got = gen.first_out(t, m)
                    assert got == (want if want is not None and want <= m else None), (
                        gen.describe(), t, m)
                    # OUT d means t misses stage(d), first at d, for every set
                    verdict = gen.membership(t, m)
                    if verdict.is_in:
                        assert want is None, (gen.describe(), t, m)
                    elif want is not None and want <= m:
                        assert verdict == Membership(OUT, want), (gen.describe(), t, m)

    def test_gap_of_matches_first_out(self, family):
        # gap_of answers None exactly on the points that never leave the
        # covers, and a gap it returns holds t
        c0 = family.c0
        gens = [family.c1, c0, *attachments(model(family), c0, *c0._core_exit(1, 2, None))]
        for gen in gens:
            for t in first_out_points(family, 10):
                if isinstance(gen, MiddleThirds) and not gen.base.contains(t):
                    assert gen.first_out(t, None) == 0, (gen.describe(), t)
                    with pytest.raises(ValueError):
                        gen.gap_of(t)
                    continue
                gap = gen.gap_of(t)
                assert (gap is None) == (gen.first_out(t, None) is None), (gen.describe(), t)
                if gap is not None:
                    assert gap[0] <= t <= gap[1], (gen.describe(), t, gap)

    @given(st.integers(1, 9999).flatmap(
        lambda q: st.tuples(st.integers(0, q), st.just(q))))
    @settings(max_examples=300)
    def test_integer_walks_match_fraction_walks(self, pq):
        u = F(*pq)
        want = ternary_exit(UNIT, u)
        hit = _ternary_exit(u.numerator, u.denominator, None)
        assert (hit is None) == (want is None)
        if want is not None:
            assert hit[0] == want[0]
            for mt in (MiddleThirds(UNIT), MiddleThirds(C1_BASE)):
                t = mt.base.lo + u * mt.base.width
                assert mt.gap_of(t) == ternary_exit(mt.base, t)[1], (mt.describe(), t)


    @given(st.one_of(
        # any p/q in [0, 1], in lowest terms or not
        st.integers(1, 10 ** 6).flatmap(lambda q: st.tuples(st.integers(0, q), st.just(q))),
        # the slot midpoints (2m+1)/(2*3^k), whose walks say which slots
        # _kept(k) keeps
        st.integers(0, 12).flatmap(lambda k: st.tuples(
            st.integers(0, 3 ** k - 1).map(lambda m: 2 * m + 1), st.just(2 * 3 ** k)))),
        st.integers(0, 40))
    @settings(max_examples=300)
    def test_bounded_walks_match_the_reference_walk_cut_at_the_bound(self, pq, digits):
        # a bounded walk keeps no numerators, and says what the unbounded
        # reference walk says about its first `digits` digits
        hit = ternary_exit(UNIT, F(*pq))
        want = None
        if hit is not None and hit[0] < digits:
            k, (lo, _) = hit
            want = (k, (lo * 3 ** (k + 1) - 1) // 3)
        assert _ternary_exit(*pq, digits) == want

    @pytest.mark.parametrize("r", [F(1), F(0), F(1, 2)], ids=["C1", "C0", "C_half"])
    @pytest.mark.parametrize("t", [F(1, 16), F(1, 4), F(1, 2)], ids=["off", "on", "gap"])
    def test_a_negative_bound_is_refused(self, family, r, t):
        # 1/16 lies off C_1's base and C_0's window, 1/4 in every set, and
        # 1/2 in the middle gap of C_1 and of C_0
        gen = family.member(r)
        with pytest.raises(ValueError, match="max_stage must be >= 0, got -1"):
            gen.first_out(t, -1)
        assert gen.first_out(t, 0) == (0 if t == F(1, 16) else None)


class TestCoverGaps:
    def test_cover_gaps_are_maximal_gaps(self, family):
        # C_1, C_0 and the attachments that TestFirstOut probes; no
        # intermediate set claims this
        c0, ref = family.c0, model(family)
        gens = [family.c1, c0, *attachments(ref, c0, *c0._core_exit(1, 2, None))]
        for gen in gens:
            for d in range(10):
                cover = gen.stage(d)
                for c in cover:
                    for e in (c.lo, c.hi):
                        assert gen.membership(e).is_in, (gen.describe(), d, e)
                for seg in cover.complement_in(UNIT):
                    assert (seg.lo, seg.hi) == ref.maximal_gap(gen, (seg.lo + seg.hi) / 2), (
                        gen.describe(), d, seg)


def attachment_probes(ref: Model, c0, g: int) -> list[F]:
    """For each generation-g gap of c0 and the model's attachment pair on
    it: each base's ends and the points 1/q inside and outside them, q =
    grid(g + 8), the midpoint of the gap each attachment opens first, and
    the midpoint between the pair."""
    step = F(1, c0.grid(g + 8))
    points = []
    for gap in c0.gaps_of_generation(g):
        ka, kb = attachments(ref, c0, g, *gap)
        for k in (ka, kb):
            a, b = k.base.lo, k.base.hi
            points += [a - step, a, a + step, (a + b) / 2, b - step, b, b + step]
        points.append((ka.base.hi + kb.base.lo) / 2)
    return points


class TestAttachmentPointQueries:
    @pytest.mark.parametrize("g", range(7))
    def test_every_generation_matches_the_model(self, family, g):
        # a depth bound below 0 is no bound the model's walk can stop at
        c0, ref = family.c0, model(family)
        for t in attachment_probes(ref, c0, g):
            for k in (g - 1, g, g + 3, None):
                if k is None or k >= 0:
                    assert c0.first_out(t, k) == ref.first_out(c0, t, k), (g, t, k)
            assert c0.gap_of(t) == ref.gap_of(c0, t), (g, t)

    def test_c0_point_queries_make_no_middle_thirds(self, monkeypatch):
        # C_0 runs the middle-thirds point rule on each attachment base
        # read off its gap's ends; the family is the test's own, so no
        # earlier query has made an attachment these would meet
        fam = fresh_family(2, 56)
        c0, tent = fam.c0, make_map("tent", fam)
        ref = Model()
        points = first_out_points(fam, 10) + [F(7, 48), F(4, 9), F(17, 54)]
        points += [t for g in range(4) for t in attachment_probes(ref, c0, g)]
        made = count_thirds(monkeypatch)
        for t in points:
            for m in (0, 4, 10, None):
                c0.first_out(t, m)
            c0.gap_of(t)
            c0.membership(t)
            eval_F(tent, t)
        assert made == [0]


def meeting_windows(sched: RemovalSchedule, rnd: random.Random) -> list[ClosedInterval]:
    windows = [UNIT]
    for _ in range(60):
        a, b = sorted(F(rnd.randrange(4097), 4096) for _ in range(2))
        windows += [ClosedInterval(a, b), ClosedInterval(a, a)]
    for entry in sched.entries:
        h = interval(*entry.widest_hull)   # windows at, inside and just beside a hull
        windows += [ClosedInterval(h.lo, h.lo), ClosedInterval(h.hi, h.hi),
                    ClosedInterval(h.hi + F(1, 3 ** 12), h.hi + F(1, 3 ** 11)),
                    ClosedInterval(h.lo - F(1, 3 ** 11), h.lo - F(1, 3 ** 12)),
                    ClosedInterval((h.lo + h.hi) / 2, h.hi + F(1, 64))]
    return windows


class TestHoleIndex:
    @pytest.mark.parametrize("source", ["level 2", "level 3", "synthetic"])
    def test_meeting_matches_the_linear_scan(self, source):
        if source == "synthetic":
            ref = Model()
            scheds = [synthetic_intermediate(seed).schedule() for seed in range(4)]
        else:
            fam = built(2 if source == "level 2" else 3, 56)
            ref = model(fam)
            scheds = [fam.member(r).schedule() for r in fam.grid()
                      if isinstance(fam.member(r), IntermediateCantor)]
        rnd = random.Random(source)
        hits = 0
        for sched in scheds:
            windows = meeting_windows(sched, rnd)
            for w in windows:
                for live_at in [None, *range(16)]:
                    want = ref.scan_meeting(sched, w, live_at)
                    assert list(sched.meeting(*window(w), live_at)) == want, (w, live_at)
                    hits += len(want)
            # the scan reads each appended entry, as while the search builds it
            grown = RemovalSchedule()
            for entry in sched.entries:
                grown.entries.append(entry)
                for w in windows[::7]:
                    for live_at in (None, entry.create_stage, 15):
                        assert (list(grown.meeting(*window(w), live_at))
                                == ref.scan_meeting(grown, w, live_at)), (w, live_at)
        assert hits > 0


# ---------------------------------------------------------------------------
# local cover queries against the whole memoised covers


def assert_near_matches(level: int, max_depth: int) -> None:
    ref, fam = built(level, 56), fresh_family(level, 56)
    gens = [fam.member(r) for r in fam.grid()]
    # forget every cover the schedule search left behind, so that each
    # query below descends from stage 0 before its depth is materialised
    for gen in gens:
        gen._stage_memo.clear()
    for materialised in (False, True):
        for r, gen in zip(fam.grid(), gens):
            for d in range(max_depth + 1):
                cover = ref.member(r).stage(d)
                if materialised:
                    assert gen.stage(d) == cover, (r, d)
                else:
                    assert len(gen._stage_memo) <= max(d, 1), (r, d)
                windows = sample_windows(cover)
                if d <= 6:
                    windows.append(UNIT)
                for w in windows:
                    assert near(gen, d, w) == overlapping(cover, w), (r, d, w)


class TestNear:
    def test_level_two_members_to_depth_ten(self):
        assert_near_matches(2, 10)

    def test_level_three_members_to_depth_eight(self):
        assert_near_matches(3, 8)

    def test_negative_depth_rejected(self, family):
        with pytest.raises(ValueError):
            family.c1.near(-1, 0, 1, 1)

    def test_c0_past_depth_ten_matches_the_model(self):
        # C_0 refines one component at a time from its stage-0 cover, on
        # narrow windows at its component ends, across the gaps it opens
        # and at the brackets of C_{1/2}'s address anchors (the model
        # descends its own tree of C_0's anchors to give those)
        fam, ref = built(2, 56), Model()
        c0 = build_family(2, 56).c0
        anchors = [x for entry in fam.member(F(1, 2)).schedule().entries[::4]
                   for x in (entry.a, entry.b) if isinstance(x, CantorAddress)]
        # the first six gaps the model's stage-s cover opens, s = 1..4
        opened = [{(c.hi, n.lo) for c, n in zip(cover, cover[1:])}
                  for cover in (ref.cover(c0, s).components for s in range(5))]
        gaps = [ClosedInterval(lo, hi) for s in range(1, 5)
                for lo, hi in sorted(opened[s] - opened[s - 1])[:6]]
        for d in range(11, 25):
            step = F(1, c0.grid(d))
            windows = [ClosedInterval(e - step, e + step) for e in fam.c0.endpoints(40)]
            windows += gaps + [ClosedInterval(g.lo - step, g.lo + g.width / 2) for g in gaps]
            windows += [ref.bracket(x, d) for x in anchors]
            for w in windows:
                got = near(c0, d, w)
                assert got and got == ref.near(c0, d, w), (d, w)
                for lo, hi in c0.near(d - 1, *window(w)):
                    parent = interval(lo, hi, c0.grid(d - 1))
                    assert ([interval(*c, c0.grid(d)) for c in c0._children_of(d, lo, hi)]
                            == ref.near(c0, d, parent)), (d, parent)
        assert len(c0._stage_memo) == 1

    def test_ic_past_depth_ten_matches_the_model(self, monkeypatch):
        # an intermediate set refines one component at a time from its
        # deepest memoised cover (depth 7 for C_{1/2}, which the search
        # swept, and stage 0 for C_{1/4}, which no search walks), at the
        # hulls of its holes and the brackets of its address anchors; each
        # child list reads the outer set's children of the component
        # holding the parent, and only a parent off that cover asks
        # outer.near
        fam, ref = fresh_family(2, 56), Model()
        c0 = fam.c0
        asked = []
        near_c0 = c0.near
        monkeypatch.setattr(c0, "near", lambda *args: asked.append(args) or near_c0(*args))
        for r in (F(1, 2), F(1, 4)):
            ic = fam.member(r)
            top = len(ic._stage_memo)
            assert ic.outer is c0 and top == (8 if r == F(1, 2) else 0), (r, top)
            entries = ic.schedule().entries
            anchors = [x for entry in entries for x in (entry.a, entry.b)
                       if isinstance(x, CantorAddress)]
            checked = met = 0
            for d in range(11, 17):
                step = F(1, ic.grid(d))
                windows = [ref.bracket(x, d) for x in anchors]
                windows += [ClosedInterval(h.lo - step, h.hi + step)
                            for h in (ref.hull(entry, d) for entry in entries)]
                for w in windows:
                    got = near(ic, d, w)
                    assert got == ref.near(ic, d, w), (r, d, w)
                    met += bool(got)
                    for lo, hi in ic.near(d - 1, *window(w)):
                        parent = interval(lo, hi, ic.grid(d - 1))
                        before = len(asked)
                        children = ic._children_of(d, lo, hi)
                        assert len(asked) == before, (r, d, parent)
                        assert ([interval(*c, ic.grid(d)) for c in children]
                                == ref.near(ic, d, parent)), (r, d, parent)
                        checked += 1
            assert len(ic._stage_memo) == max(top, 1) and met > 200 and checked > 300, (
                r, met, checked)
        # the children of the deepest memoised cover's components, one
        # outer.near each at most
        assert 0 < len(asked) <= sum(len(fam.member(r)._stage_memo[-1]) for r in (F(1, 2), F(1, 4)))

    def test_deep_descent_is_a_loop(self):
        # a descent 1200 levels deep needs no stack frame per level; a
        # non-endpoint of C_1 lies in exactly one component at any depth
        comps = MiddleThirds(C1_BASE).near(1200, 3, 3, 8)
        assert len(comps) == 1

    def test_walk_matches_the_cover(self, family, monkeypatch):
        # no walk sweeps a cover, so the walks not materialised descend
        monkeypatch.setattr(gillab.thirds, "SWEEP_RATIO", 0)
        gen = build_family(2, 56, 15).member(F(1, 2))
        for materialised in (False, True):
            for d in (3, 7):
                cover = family.member(F(1, 2)).stage(d).components
                if materialised:
                    gen.stage(d)
                for c in cover[::max(1, len(cover) // 8)]:
                    for x in (c.lo, (c.lo + c.hi) / 2, c.hi):
                        right = [k for k in cover if k.hi >= x]
                        left = [k for k in reversed(cover) if k.lo <= x]
                        assert walk(gen, d, x, True) == right, (d, x)
                        assert walk(gen, d, x, False) == left, (d, x)


class TestSyntheticSchedules:
    @pytest.mark.parametrize("seed", range(4))
    def test_near_and_walk_where_holes_cut_components(self, seed, monkeypatch):
        # no walk sweeps a cover, so every answer comes from the tree
        monkeypatch.setattr(gillab.thirds, "SWEEP_RATIO", 0)
        ref, gen = synthetic_intermediate(seed), synthetic_intermediate(seed)
        rnd = random.Random(seed)
        degenerate = 0
        for d in range(7):
            cover = ref.stage(d)
            comps = cover.components
            degenerate += sum(c.is_degenerate for c in comps)
            windows = sample_windows(cover, len(comps)) + [UNIT]
            for _ in range(40):
                a, b = sorted(F(rnd.randrange(163), 162) for _ in range(2))
                windows.append(ClosedInterval(a, b))
            for w in windows:
                assert near(gen, d, w) == overlapping(cover, w), (d, w)
            for w in windows[::3]:
                x = w.lo
                assert walk(gen, d, x, True) == [c for c in comps if c.hi >= x]
                assert walk(gen, d, x, False) == [c for c in reversed(comps) if c.lo <= x]
            assert len(gen._stage_memo) == 1
        assert degenerate > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_free_gap_around_degenerate_inner_components(self, seed):
        rnd = random.Random(100 + seed)
        hosts = [IntermediateCantor(synthetic_intermediate(seed), MiddleThirds(UNIT), 1)
                 for _ in range(2)]
        hulls = []
        for i in range(6):
            lo = F(rnd.randrange(1, 160), 162)
            hulls.append(ScheduleEntry(i, lo, lo, lo + F(rnd.randrange(1, 9), 324),
                                       rnd.randrange(4)))
        sched = RemovalSchedule(entries=hulls)
        ref = Model()
        found = 0
        for e in range(6):
            live = [entry for entry in hulls if entry.create_stage <= e]
            inner = hosts[1].inner.stage(e).components
            points = [p for c in inner for p in (c.lo, c.hi)]
            points += [F(rnd.randrange(163), 162) for _ in range(60)]
            for x in points:
                for br in (ClosedInterval(x, x), ClosedInterval(x, x + F(1, 729))):
                    got = hosts[0]._free_gap(sched, window(br), e, {})
                    got = got and (F(got[0], got[2]), F(got[1], got[2]))
                    assert got == ref.reference_gap(hosts[1], live, br, e), (e, br)
                    found += got is not None
        assert found > 50

    @pytest.mark.parametrize("seed", range(4))
    def test_component_persists_where_hulls_touch_and_overlap(self, seed):
        gen = synthetic_intermediate(seed)
        rnd = random.Random(200 + seed)
        windows = [ClosedInterval(*sorted(F(rnd.randrange(163), 162) for _ in range(2)))
                   for _ in range(200)]
        for entry in gen.schedule().entries:
            h = interval(*entry.widest_hull)   # windows touching a hull at one end
            windows += [ClosedInterval(h.hi, h.hi + F(1, 729)),
                        ClosedInterval(h.lo - F(1, 729), h.lo)]
        assert_persists_matches_scan(gen, windows, range(6), Model())


def assert_persists_matches_scan(gen: IntermediateCantor, windows, depths, ref: Model):
    """component_persists equals a scan of every entry's stage-d hull in
    the model, and answers both ways."""
    seen = set()
    for d in depths:
        for w in windows:
            want = gen.outer.component_persists(d, *window(w)) and not any(
                intersects(ref.hull(entry, d), w) for entry in gen.schedule().entries)
            assert gen.component_persists(d, *window(w)) == want, (d, w)
            seen.add(want)
    assert seen == {True, False}


class TestOrderedGapAttachedCover:
    @pytest.mark.parametrize("base", [C1_BASE, ClosedInterval(F(1, 3), F(2, 3)),
                                      ClosedInterval(F(3, 10), F(7, 10))],
                             ids=["C1_BASE", "thirds", "tenths"])
    def test_matches_sorted_reference(self, base):
        ga = GapAttachedCantor(MiddleThirds(base))
        ref = Model()
        for d in range(13):
            assert ga.stage(d).components == ref.cover(ga, d).components, d
            assert ga.stage(d).q == ga.grid(d), d

    def test_cover_paths_make_no_attachment(self, monkeypatch):
        # the whole-cover sweep and the one-component refinement read each
        # attachment's pieces off its gap's ends, the refinement by one
        # slot step of the local rule _kept_children per base
        c0 = build_family(2, 56).c0
        made = count_thirds(monkeypatch)
        c0.stage(8)
        assert c0.near(12, 5, 5, 12) and made == [0]

    def test_c0_asks_nothing_of_c1(self, monkeypatch):
        # C_0 reads its core's base when it is made and no C_1 method
        # after that: with every query of the C_1 instance refused, its
        # covers, endpoints, local tree and point queries answer as an
        # untouched family's C_0 does
        want, fam = build_family(2, 56).c0, build_family(2, 56)
        c0 = fam.c0

        def refused(*args, **kwargs):
            raise AssertionError("C_0 asked C_1")

        for name in ("near", "walk", "_cached_children", "_children_of", "stage",
                     "new_endpoints", "first_out", "gap_of", "membership", "endpoints"):
            monkeypatch.setattr(fam.c1, name, refused)
        for d in range(9):
            assert c0.stage(d) == want.stage(d), d
        for s in range(7):
            assert c0.new_endpoints(s) == want.new_endpoints(s), s
        points = want.endpoints(40)
        for d in (12, 24):
            step = F(1, c0.grid(d))
            for t in points:
                w = window(ClosedInterval(t - step, t + step))
                assert c0.near(d, *w) == want.near(d, *w), (d, t)
        for t in points + first_out_points(built(2, 56), 10):
            for m in (0, 4, 12, None):
                assert c0.first_out(t, m) == want.first_out(t, m), (t, m)
            assert c0.gap_of(t) == want.gap_of(t), t

    def test_new_endpoints_are_the_new_cover_ends(self, monkeypatch):
        # for C_1 and C_0 kinds on three bases: an endpoint first found at
        # stage s ends a stage-s component of the model's cover and no
        # stage-(s - 1) one; the endpoint stream makes no attachment
        # object (the model makes its own, so its covers come first)
        ref = Model()
        gens, covers = [], []
        for base in (C1_BASE, ClosedInterval(F(1, 3), F(2, 3)), ClosedInterval(F(3, 10), F(7, 10))):
            mt = MiddleThirds(base)
            for gen in (mt, GapAttachedCantor(mt)):
                gens.append(gen)
                covers.append([ref.cover(gen, s).components for s in range(9)])
        made = count_thirds(monkeypatch)
        for gen, cover in zip(gens, covers):
            old_ends = set()
            for s in range(9):
                ends = {x for comp in cover[s] for x in (comp.lo, comp.hi)}
                assert gen.new_endpoints(s) == sorted(ends - old_ends), (gen.describe(), s)
                old_ends = ends
            gen.endpoints(200)
        assert made == [0]

    def test_kept_matches_the_digit_walk(self):
        # the local rule applied stage by stage keeps the slots whose
        # ternary digits are all 0 or 2, on every slot for k <= 12
        for k in range(13):
            assert _kept(k) == tuple(
                m for m in range(3 ** k)
                if _ternary_exit(2 * m + 1, 2 * 3 ** k, k) is None), k

    def test_the_cover_rule_matches_the_point_rule_at_depth(self):
        # C_0's one-component refinement against its point rule: the
        # stage-k components near the midpoint t = n/m of a depth-j slot
        # of the core's base or of an attachment base of generation g <= 2
        # (k = g + j) are there iff first_out(t, k) is None.  The digits
        # of a slot are 0 or 2 but for at most one 1, so t falls into a
        # middle third at most once: on an attachment base a gap of C_0,
        # on the core's base a core gap, whose attachments may hold t.  A
        # fresh C_0 has no memoised cover past stage 0, so every step is
        # _children_of
        c0 = build_family(2, 56).c0
        (_, a), (b, _) = c0._side_gaps
        bases = [(0, a, b - a)]
        for g in range(3):
            for gap in c0.gaps_of_generation(g):
                w, *ends = c0._attachment_ends(g, g, *gap)
                bases += [(g, x, w) for x in ends]
        rnd = random.Random(23)
        seen = set()
        for _ in range(40):
            g, x, w = rnd.choice(bases)
            j = rnd.randrange(601)
            digits = [rnd.choice("02") for _ in range(j)]
            if j and rnd.random() < 2 / 3:
                digits[rnd.randrange(j)] = "1"
            slot = int("".join(digits), 3) if j else 0
            n, m = 2 * 3 ** j * x + (2 * slot + 1) * w, 2 * 3 ** j * c0.grid(g)
            inside = c0.first_out(F(n, m), g + j) is None
            assert bool(c0.near(g + j, n, n, m)) == inside, (g, x, j, digits.count("1"))
            seen.add((g > 0, inside))
        assert seen == {(False, False), (False, True), (True, False), (True, True)}

    def test_a_gap_off_the_thirds_grid_is_refused(self):
        # an attachment's pieces are a third of its gap wide on grid(d);
        # a gap whose width is no multiple of 3 is refused, not floored
        ga = GapAttachedCantor(MiddleThirds(C1_BASE))
        lo, hi = ga._side_gaps[0]
        ga._side_gaps[0] = (lo, hi + 1)
        with pytest.raises(ValueError, match="not a multiple of 3 wide"):
            ga.stage(0)

    def test_generation_of_every_gap(self, family):
        c0 = family.c0
        for g in range(8):
            for gap in c0.gaps_of_generation(g):
                assert c0._core_exit(gap[0] + gap[1], 2 * c0.grid(g), g) == (g, *gap), (g, gap)


class TestScheduleSearch:
    @pytest.mark.parametrize("level", [2, 3])
    def test_every_try_matches_the_whole_cover_lookup(self, level, monkeypatch):
        free_gap, try_stage = IntermediateCantor._free_gap, IntermediateCantor._try_stage
        tries = {"gap": 0, "reuse": 0}
        ref = Model()

        def checked_gap(self, sched, br, e, walks):
            got = free_gap(self, sched, br, e, walks)
            live = [entry for entry in sched.entries if entry.create_stage <= e]
            assert (got and (F(got[0], got[2]), F(got[1], got[2]))) == ref.reference_gap(
                self, live, interval(*br), e), (self.describe(), br, e)
            tries["gap"] += 1
            return got

        def checked_try(self, sched, p, br, e, walks):
            want = ref.reference_reuse(sched, interval(*br), e)
            before, entries_before = len(sched.reuses), len(sched.entries)
            recorded = try_stage(self, sched, p, br, e, walks)
            # a try records one thing or nothing: a reuse, or a new entry
            assert len(sched.entries) == entries_before + (recorded and want is None)
            if want is None:
                assert sched.reuses[before:] == []
            else:
                assert recorded and sched.reuses[before:] == [(p, want)]
                tries["reuse"] += 1
            return recorded

        monkeypatch.setattr(IntermediateCantor, "_free_gap", checked_gap)
        monkeypatch.setattr(IntermediateCantor, "_try_stage", checked_try)
        fam = fresh_family(level, 56)
        assert tries["gap"] > 100 and tries["reuse"] > 50, tries
        for r in fam.grid():
            gen = fam.member(r)
            if isinstance(gen, IntermediateCantor):
                entries = gen.schedule().entries
                assert [entry.index for entry in entries] == list(range(len(entries)))

    @pytest.mark.parametrize("level", [2, 3])
    @pytest.mark.parametrize("order", ["set-up", "covers"])
    def test_every_anchor_matches_the_model(self, level, order, monkeypatch):
        # set-up order builds schedules first, and the searches sweep the
        # covers their walks pay for; covers order builds every cover to
        # depth 8 member by member, so each search reads its neighbours'
        # covers memoised.  Either way many tries bisect a memoised outer
        # cover, and some walk past the deepest one
        anchor = IntermediateCantor._anchor
        kinds = {"address": 0, "edge": 0, "none": 0}
        paths = {"memo": 0, "past": 0}
        ref = Model()

        def checked_anchor(self, walk, lo, hi, q, e, left):
            paths["past" if e >= len(self.outer._stage_memo) else "memo"] += 1
            got = anchor(self, walk, lo, hi, q, e, left)
            want = ref.reference_anchor(self, F(lo, q), F(hi, q), e, left)
            if isinstance(got, tuple):   # an outer component, made an address
                assert interval(*got, self.outer.grid(e)) == want, (lo, hi, q, e)
                kinds["address"] += 1
            else:
                assert got == want, (self.describe(), lo, hi, q, e)
                kinds["edge" if got is not None else "none"] += 1
            return got

        monkeypatch.setattr(IntermediateCantor, "_anchor", checked_anchor)
        if order == "set-up":
            fresh_family(level, 56)
        else:
            for _ in build_family(level, 56, DEFAULT_SEARCH_CEILING).covers(8):
                pass
        assert kinds["address"] > 100 and kinds["edge"] > 10 and kinds["none"] > 100, kinds
        # at level 2 every try in covers order is at depth 8 or less
        assert paths["memo"] > 300 and (paths["past"] > 10 if (level, order) != (2, "covers")
                                        else paths["past"] == 0), paths

    @pytest.mark.parametrize("level", [2, 3])
    def test_carried_walks_match_fresh_walks(self, level):
        # each endpoint's walks, carried from stage to stage as its bracket
        # nests, equal the walks made afresh at every stage: rightward from
        # the bracket's lo and leftward from its hi
        fam = fresh_family(level, 56)
        checked = 0
        for r in fam.grid():
            ic = fam.member(r)
            if not isinstance(ic, IntermediateCantor):
                continue
            for p in ic.outer.endpoints(12):
                held = {}
                for e in range(2, 11):
                    br = point_bracket(p, e)
                    for gen in (ic.inner, ic.outer):
                        for rightward in (True, False):
                            start = br[0] if rightward else br[1]
                            got = list(islice(gen.walk(held, e, start, br[2], rightward), 6))
                            assert got == list(islice(gen.walk({}, e, start, br[2], rightward),
                                                      6)), (
                                r, p, e, rightward)
                            checked += br[0] < br[1]
        assert checked > 300

    @pytest.mark.parametrize("level, budget, c0_depth, c0_walked", [(3, 56, 8, 10), (5, 24, 8, 13)])
    def test_the_sweeps_stay_below_the_deepest_walk(self, level, budget, c0_depth,
                                                     c0_walked, monkeypatch):
        # set-up order: a search sweeps a depth of a generator only once
        # its walks there have paid for it, so no cover is memoised deeper
        # than the deepest stage a try walked, and C_0's few walks at
        # depths 9 and up keep descending
        walked, original = {}, CantorGen.walk

        def recorded(gen, held, e, n, q, rightward):
            walked[gen] = max(walked.get(gen, 0), e)
            return original(gen, held, e, n, q, rightward)

        monkeypatch.setattr(CantorGen, "walk", recorded)
        fam = fresh_family(level, budget)
        for r in fam.grid():
            gen = fam.member(r)
            assert len(gen._stage_memo) - 1 <= walked.get(gen, -1), r
        assert (len(fam.c0._stage_memo) - 1, walked[fam.c0]) == (c0_depth, c0_walked)

    def test_a_search_sweeps_once_its_walks_pay(self, monkeypatch):
        # the level-3 searches in set-up order made 1,441 _children_of
        # calls when every walk past the memoised covers descended
        calls = []

        def counted(children_of):
            def wrapper(gen, d, lo, hi):
                calls.append(d)
                return children_of(gen, d, lo, hi)
            return wrapper

        for cls in (MiddleThirds, GapAttachedCantor, IntermediateCantor):
            monkeypatch.setattr(cls, "_children_of", counted(cls._children_of))
        fresh_family(3, 56)
        assert 0 < len(calls) <= 540

    def test_level_three_build_stays_local(self):
        # the schedule search sweeps only covers its walks paid for, and
        # membership is point-local: no cover deeper than depth 8 is
        # built, and none of a member that no search walks
        fam = fresh_family(3, 56)
        gens = [fam.member(r) for r in fam.grid()]
        assert max(len(gen._stage_memo) - 1 for gen in gens) <= 8
        walked = {gen for ic in gens if isinstance(ic, IntermediateCantor)
                  for gen in (ic.inner, ic.outer)}
        assert len(walked) == 5
        assert all(gen._stage_memo == [] for gen in gens if gen not in walked)
        scheds = [fam.member(r).schedule() for r in fam.grid()
                  if isinstance(fam.member(r), IntermediateCantor)]
        assert len(scheds) == 7
        assert sum(len(s.entries) for s in scheds) == 149
        assert sum(len(s.reuses) for s in scheds) == 189


class TestComponentPersists:
    def test_level_two_members(self):
        fam = built(2, 56)
        ref = model(fam)
        for r in fam.grid():
            gen = fam.member(r)
            if not isinstance(gen, IntermediateCantor):
                continue
            for d in (2, 4, 6, 8):
                # spread components, and those near each hole, where the
                # schedule search asks
                windows = sample_windows(gen.outer.stage(min(d, 6)), 20)
                windows += [c for entry in gen.schedule().entries
                            for c in near(gen.outer, d, interval(*entry.widest_hull))]
                assert_persists_matches_scan(gen, windows, [d], ref)


def outcome(query, *args):
    """The answer, or the text of the ValueError raised instead."""
    try:
        return query(*args)
    except ValueError as exc:
        return "ValueError", str(exc)


def point_query_gens(fam) -> list:
    """Every member, plus the model's attachment pairs of C_0's central
    gap and of its left side gap."""
    c0, ref = fam.c0, model(fam)
    return ([fam.member(r) for r in fam.grid()]
            + list(attachments(ref, c0, *c0._core_exit(1, 2, None)))
            + list(attachments(ref, c0, 0, *c0._side_gaps[0])))


def end_points(fam) -> list[F]:
    """0, 1 and every base, window and attachment end, with the points
    1/q outside and inside each, q its denominator or 3^9 times it."""
    ends = {F(0), F(1), fam.c0.window.lo, fam.c0.window.hi}
    for gen in point_query_gens(fam):
        if isinstance(gen, MiddleThirds):
            ends |= {gen.base.lo, gen.base.hi}
    return sorted({e + sign * F(1, q) for e in ends for sign in (-1, 0, 1)
                   for q in (e.denominator, 3 ** 9 * e.denominator)})


# point queries on int numerators, against the model's


def assert_point_queries_match(fam, t: F) -> None:
    ref = model(fam)
    for gen in point_query_gens(fam):
        for max_stage in (0, 1, 4, 12):
            assert gen.first_out(t, max_stage) == ref.first_out(gen, t, max_stage), (
                gen.describe(), t, max_stage)
        for max_stage in (4, 12):
            assert gen.membership(t, max_stage) == ref.membership(gen, t, max_stage), (
                gen.describe(), t, max_stage)
        if not isinstance(gen, IntermediateCantor):
            assert gen.first_out(t, None) == ref.first_out(gen, t, None), (gen.describe(), t)
            assert outcome(gen.gap_of, t) == outcome(ref.gap_of, gen, t), (gen.describe(), t)


class TestIntPointQueries:
    @given(unit_rationals)
    @settings(max_examples=60, deadline=None)
    def test_match_fraction_entry_checks(self, t):
        for fam in (built(2, 56), built(3, 56)):
            assert_point_queries_match(fam, t)

    @pytest.mark.parametrize("level", [2, 3])
    def test_match_fraction_entry_checks_at_every_end(self, level):
        fam = built(level, 56)
        for t in end_points(fam):
            assert_point_queries_match(fam, t)

    def test_answer_with_fraction_order_disabled(self, monkeypatch):
        # the family, its schedules and the model's attachment pairs are
        # made, and the first pass fills the memos the queries read
        fam = built(3, 56)
        m = make_map("tent", fam)
        points = probe_points(fam, 8, 13) + end_points(fam)
        points = [t for t in points if 0 <= t <= 1]
        gens = point_query_gens(fam)

        def answers():
            out = []
            for t in points:
                for gen in gens:
                    out += [gen.first_out(t, 8), gen.membership(t, 8)]
                    if not isinstance(gen, IntermediateCantor):
                        out += [gen.first_out(t, None), outcome(gen.gap_of, t)]
                out.append(eval_F(m, t, 3, 8))
            return out

        want = answers()

        def refuse(self, other):
            raise AssertionError("a point query compared Fractions")

        for name in ("__lt__", "__le__", "__gt__", "__ge__"):
            monkeypatch.setattr(F, name, refuse)
        assert answers() == want


def per_depth_near(gen, p: CantorAddress, max_stage: int) -> Membership:
    """An address's verdict from one `near` at its bracket per depth, each
    descending from the deepest memoised cover."""
    if p.gen is gen:
        return Membership(IN, 0)
    for d in range(max_stage + 1):
        if not gen.near(d, *point_bracket(p, d)):
            return Membership(OUT, d)
    return Membership(UNKNOWN, None)


class TestPointMembershipDescent:
    @pytest.mark.parametrize("level, budget", [(2, 56), (3, 56), (4, 24)])
    def test_one_descent_matches_the_per_depth_near_loop(self, level, budget):
        # every schedule anchor that is an address, in every member
        fam = fresh_family(level, budget)
        gens = [fam.member(r) for r in fam.grid()]
        anchors = [x for gen in gens if isinstance(gen, IntermediateCantor)
                   for entry in gen.schedule().entries for x in (entry.a, entry.b)
                   if isinstance(x, CantorAddress)]
        got = [point_membership(gen, p, DEFAULT_SEARCH_CEILING) for gen in gens for p in anchors]
        assert {m.verdict for m in got} == {IN, OUT, UNKNOWN}
        assert got == [per_depth_near(gen, p, DEFAULT_SEARCH_CEILING)
                       for gen in gens for p in anchors]

    @pytest.mark.parametrize("level", [2, 3])
    def test_address_verdicts_do_not_depend_on_the_memo_depth(self, level):
        # near starts at the deepest memoised cover: every anchor's verdict
        # in every member is the model's on a fresh family, whose search
        # swept covers to depth 8 at most and none of a member it does not
        # walk, and again once the covers are memoised to depth 9 and to
        # depth 11
        fam = fresh_family(level, 56)
        ref = Model()
        gens = [fam.member(r) for r in fam.grid()]
        anchors = [x for gen in gens if isinstance(gen, IntermediateCantor)
                   for entry in gen.schedule().entries for x in (entry.a, entry.b)
                   if isinstance(x, CantorAddress)]
        want = [ref.membership(gen, p, DEFAULT_SEARCH_CEILING) for gen in gens for p in anchors]
        assert {m.verdict for m in want} == {"in", "out", "unknown"}
        for depth in (None, 9, 11):
            if depth is not None:
                for _ in fam.covers(depth):
                    pass
            memo = [len(gen._stage_memo) - 1 for gen in gens]
            assert (max(memo) <= 8 and min(memo) == -1) if depth is None else set(memo) == {depth}
            assert [point_membership(gen, p, DEFAULT_SEARCH_CEILING)
                    for gen in gens for p in anchors] == want, depth

    @pytest.mark.parametrize("level", [2, 3])
    def test_matches_per_depth_near_on_the_endpoint_suite(self, level):
        # every pair `verify endpoints` checks: the first endpoints of
        # C_0 and C_{1/2} against each smaller member
        fam = built(level, 56)
        ref = model(fam)
        checked = 0
        for src in (F(0), F(1, 2)):
            for p in fam.member(src).endpoints(min(50, fam.stage_budget)):
                for r in fam.grid():
                    if r > src:
                        gen = fam.member(r)
                        checked += 1
                        assert (point_membership(gen, p, DEFAULT_SEARCH_CEILING)
                                == ref.membership(gen, p, DEFAULT_SEARCH_CEILING)
                                ), (src, r, p)
        assert checked == _suite_endpoints(fam, None, 0, 0, None)["checked"]
