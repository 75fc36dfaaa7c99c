"""Tests of the benchmark's own parts: the point generator and the tracer."""

import json
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import points
import tracing

BENCH = Path(__file__).resolve().parent
VERIFY_ALL_SEED0_SHA256 = (
    "dd0497be4aec4d5257bf0568c48071cafc3f93172a16798010df8a00691c4262")


def test_points_are_deterministic_per_seed_and_never_import_gillab():
    probe = (
        "import sys; import points\n"
        "a = points.generate(3, 300)\n"
        "assert a == points.generate(3, 300)\n"
        "assert a != points.generate(4, 300)\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'gillab']\n")
    subprocess.run([sys.executable, "-c", probe], cwd=BENCH, check=True)


def test_point_mix_matches_the_stated_shares():
    from gillab.cantor import build_family
    fam = build_family(0, 8)
    queries = points.generate(1, 600)
    assert Counter(k for k, _ in queries) == {"c1": 200, "c0": 200, "gap": 200}
    for kind, t in queries:
        assert Fraction(0) <= t <= Fraction(1)
        in_c1 = fam.c1.membership(t).is_in
        in_c0 = fam.c0.membership(t).is_in
        if kind == "c1":
            assert in_c1
        elif kind == "c0":
            assert in_c0 and not in_c1
    gap_outside = sum(not fam.c0.membership(t).is_in
                      for k, t in queries if k == "gap")
    assert gap_outside >= 0.9 * 200


def _bindings():
    """Identity of every gillab module global, dict entry and class attribute."""
    seen = {}
    for mod in tracing.gillab_modules():
        for key, value in vars(mod).items():
            seen[(mod.__name__, key)] = id(value)
            if isinstance(value, dict) and key != "__builtins__":
                for k, v in value.items():
                    seen[(mod.__name__, key, repr(k))] = id(v)
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for k, v in vars(value).items():
                    seen[(mod.__name__, key, "." + k)] = id(v)
    return seen


def test_traced_run_leaves_no_gillab_binding_patched():
    from gillab import bonding, cantor, cli
    before = _bindings()
    tracer = tracing.Tracer("test")
    patches = tracing.install(tracer)
    try:
        assert _bindings() != before
        fam = cantor.build_family(1, 8, 15)
        m = bonding.make_map("tent", fam)
        for t in (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)):
            bonding.eval_F(m, t, 1, 4)
        cli.SUITES["nesting"](fam, m, 3, 0, [])
    finally:
        patches.restore()
    assert _bindings() == before
    got = tracing.layer_metrics(tracer)
    assert got["bonding.eval_F.calls"] == 3
    assert got["cli.suite.nesting.calls"] == 1
    assert got["cantor.schedule.entries"] > 0
    assert got["cantor.stage.ic.max_depth"] >= 3
    assert all(isinstance(s, list) and s[1] <= s[2] for s in tracer.spans)


def test_verify_all_reference_is_the_recorded_report_hash():
    refs = json.loads((BENCH / "refs.json").read_text())
    assert refs["verify-all"]["0"]["stdout"] == VERIFY_ALL_SEED0_SHA256


def test_verify_all_excludes_exactly_the_seeds_hit_by_the_ivp_witness_defect():
    """`check_ivp_consistency` pairs a random C_1 endpoint x1 with
    x2 = 1/2, which lies in C_1's middle gap (5/12, 7/12).  When x1 is
    5/12 or 7/12 no witness exists between them, so `verify all` exits 1
    for that seed.  The verify-all references skip exactly those seeds;
    once the checker is fixed this test fails until refs.json is rebuilt
    with `bench/make_refs.py`."""
    from gillab.bonding import check_ivp_consistency, make_map
    from gillab.cantor import build_family
    refs = json.loads((BENCH / "refs.json").read_text())
    excluded = sorted(int(s) for s in refs.get("excluded", {}).get("verify-all", {}))
    top = max(int(s) for s in refs["verify-all"])
    m = make_map("zero", build_family(0, 8))   # the spot checks use C_1 only
    failing = [s for s in range(top + 1)
               if check_ivp_consistency(m, 1, seed=s)["spot_failures"]]
    assert excluded == failing
