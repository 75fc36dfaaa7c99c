from fractions import Fraction as F

import pytest

from gillab import dynamics
from gillab.dynamics import (
    certify_step,
    iterate_f,
    make_cycle,
    verify_cycle,
    verify_orbit,
)
from gillab.invlimit import Thread, verify_thread

# (x, y, kind, bound, ok) for the claim y in F(x), zero mode
STEPS = [
    (F(1, 4), F(1), "lower-bracket", F(1), True),      # F(1/4) = [0, 1]
    (F(1, 2), F(0), "singleton", F(0), True),          # F(1/2) = {0}
    (F(1, 2), F(1, 4), "singleton", F(0), False),      # wrong singleton
    (F(1, 8), F(1, 2), "lower-bracket", F(0), False),  # bracket shortfall
]


class TestCertifyStep:
    @pytest.mark.parametrize("x, y, kind, bound, ok", STEPS)
    def test_every_caller_gives_the_same_verdict(self, zero_map, x, y, kind,
                                                 bound, ok):
        cert = certify_step(zero_map, x, y)
        assert (cert.kind, cert.bound, cert.ok) == (kind, bound, ok)
        assert verify_orbit(zero_map, [x, y])["ok"] is ok
        # a thread's first step claims x_0 in F(x_1)
        assert verify_thread(zero_map, Thread((y,), (x,)), depth=1)["ok"] is ok


class TestMakeCycle:
    def test_period_one(self, zero_map):
        cyc = make_cycle(zero_map, 1)
        assert cyc.points == (F(1, 4),)
        assert cyc.period == 1

    def test_period_three(self, zero_map):
        cyc = make_cycle(zero_map, 3)
        assert cyc.points == (F(1, 4), F(5, 12), F(3, 4))

    def test_all_periods_verify(self, zero_map):
        for n in range(1, 13):
            cyc = make_cycle(zero_map, n)
            assert len(set(cyc.points)) == n
            rep = verify_cycle(zero_map, cyc)
            assert rep["ok"], (n, rep["failures"])
            assert rep["least_rotation_period"] == n

    def test_tent_mode_too(self, tent_map):
        rep = verify_cycle(tent_map, make_cycle(tent_map, 5))
        assert rep["ok"]

    def test_invalid_period(self, zero_map):
        with pytest.raises(ValueError):
            make_cycle(zero_map, 0)

    def test_every_step_certified_by_verify_cycle(self, zero_map):
        steps = verify_cycle(zero_map, make_cycle(zero_map, 4))["steps"]
        assert len(steps) == 4
        for step in steps:
            assert step["kind"] == "lower-bracket" and step["bound"] == "1"

    def test_make_cycle_certifies_nothing(self, zero_map, monkeypatch):
        # verify_cycle is the one place a cycle's steps are certified
        calls = []
        certify = dynamics.certify_step
        monkeypatch.setattr(dynamics, "certify_step",
                            lambda *args: calls.append(args) or certify(*args))
        assert make_cycle(zero_map, 5).period == 5
        assert calls == []


class TestIterateF:
    def test_zero_mode(self, zero_map):
        assert iterate_f(zero_map, F(1, 2), 4) == [0, 0, 0, 0]

    def test_tent_dyadic_decay(self, tent_map):
        assert iterate_f(tent_map, F(1, 16), 4) == [
            F(1, 32), F(1, 64), F(1, 128), F(1, 256)]

    def test_tent_big_set_collapses(self, tent_map):
        assert iterate_f(tent_map, F(1, 4), 3) == [0, 0, 0]

    def test_fixed_point_zero(self, tent_map):
        assert iterate_f(tent_map, F(0), 3) == [0, 0, 0]

    def test_strictly_decreasing_once_positive(self, tent_map):
        vals = iterate_f(tent_map, F(1, 2), 6)
        positive = [v for v in vals if v > 0]
        assert positive == sorted(positive, reverse=True)
        assert all(v < F(1, 8) for v in vals)


class TestVerifyOrbit:
    def test_constant_zero(self, zero_map):
        assert verify_orbit(zero_map, [F(0), F(0), F(0)])["ok"]

    def test_period_two_repetition(self, zero_map):
        rep = verify_orbit(zero_map, [F(1, 4), F(3, 4), F(1, 4), F(3, 4)])
        assert rep["ok"]
        assert rep["repeated_values"]

    def test_invalid_step_located(self, zero_map):
        rep = verify_orbit(zero_map, [F(1, 2), F(3, 4)])
        assert not rep["ok"]
        assert rep["failures"][0]["index"] == 0
        assert rep["failures"][0]["bound"] == "0"
        # the failing step's own entry says so, with F's upper end
        step = rep["steps"][0]
        assert step["ok"] is False and step["upper"] == "0"

    def test_repeat_inside_nonperiodic_orbit_is_legal(self, zero_map):
        # repeated values inside a valid orbit are flagged but not errors
        rep = verify_orbit(zero_map, [F(0), F(0), F(1, 4), F(0), F(1, 4)])
        assert not rep["ok"]  # 1/4 not in F(0) = {0}
        assert [s["ok"] for s in rep["steps"]] == [True, False, True, False]
        assert all("upper" in s for s in rep["steps"] if not s["ok"])
        rep = verify_orbit(zero_map, [F(1, 4), F(1, 4), F(3, 4), F(1, 4)])
        assert rep["ok"] and rep["repeated_values"]
