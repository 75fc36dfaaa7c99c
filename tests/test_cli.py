import hashlib
import json

import pytest
from click.testing import CliRunner

import gillab
from gillab import cache, cli, invlimit
from gillab.cantor import CantorFamily, IntermediateCantor
from gillab.cli import main
from gillab.errors import BoxCountError
from gillab.exact import IntervalSet

runner = CliRunner()

FAMILY = ["--level", "1", "--budget", "24"]
SMALL = FAMILY + ["--stage", "4"]


def invoke(*args):
    return runner.invoke(main, list(args))


class TestEval:
    def test_smallest_set_point(self):
        res = invoke("eval", "1/4", *SMALL)
        assert res.exit_code == 0
        obj = json.loads(res.output)
        assert obj["lowerMax"] == "1" and obj["upperMax"] == "1"
        assert not obj["singleton"]

    def test_zero(self):
        obj = json.loads(invoke("eval", "0", *SMALL).output)
        assert obj["singleton"] and obj["pointValue"] == "0"

    def test_gap_point_tent(self):
        obj = json.loads(invoke("eval", "1/2", "--mode", "tent", *SMALL).output)
        assert obj["singleton"] and obj["pointValue"] == "1/72"

    def test_bad_rational(self):
        assert invoke("eval", "pi", *SMALL).exit_code == 2

    def test_out_of_range(self):
        assert invoke("eval", "3/2", *SMALL).exit_code == 2


class TestVerify:
    def test_cycles_pass(self):
        res = invoke("verify", "cycles", "--max-period", "6", *SMALL)
        assert res.exit_code == 0
        obj = json.loads(res.output)
        assert obj["ok"] and len(obj["suites"]["cycles"]["cycles"]) == 6

    def test_nesting_pass(self):
        res = invoke("verify", "nesting", *SMALL)
        assert res.exit_code == 0
        assert json.loads(res.output)["suites"]["nesting"]["ok"]

    def test_unknown_suite_usage_error(self):
        assert invoke("verify", "nonsense", *SMALL).exit_code == 2

    @pytest.mark.parametrize("level", ["2", "4"])
    def test_endpoints_pass_below_the_suite_count(self, level):
        # budget 24 schedules fewer endpoints than the 50 the suite
        # checks at the default budget; only scheduled ones are checked
        res = invoke("verify", "endpoints", "--level", level,
                     "--budget", "24", "--stage", "8")
        assert res.exit_code == 0, res.output[-400:]
        assert json.loads(res.output)["suites"]["endpoints"]["ok"]

    def test_tent_report_bytes(self):
        # the tent branches of eval_f, the graph cover and check_light, pinned
        # at the default level, budget and seed
        res = invoke("verify", "all", "--stage", "8", "--mode", "tent")
        assert res.exit_code == 0
        assert hashlib.sha256(res.stdout_bytes).hexdigest() == (
            "b5c378ba6fc8b3626dbad9460f47abd9a1bfec380cd6012ba4b4cfa359162a42")

    def test_deterministic_bytes(self):
        a = invoke("verify", "treelike", "--seed", "5", *SMALL).output
        b = invoke("verify", "treelike", "--seed", "5", *SMALL).output
        assert a == b


@pytest.mark.parametrize("args, filled", [
    (["verify", "nesting", *SMALL], 4),
    (["verify", "interior", *SMALL], 4),
    (["verify", "usc", *SMALL], 4),
    (["verify", "cycles", "--max-period", "3", *SMALL], None),
    (["verify", "endpoints", *SMALL], 4),
    (["export", "graph", *FAMILY, "--stage", "3"], 3),
    (["export", "mahavier", *FAMILY, "--stage", "2", "--n", "2"], 2),
    (["export", "cantor", *FAMILY, "--stage", "2"], None),
])
def test_covers_are_filled_before_searches_only_where_all_are_read(
        monkeypatch, args, filled):
    # a command that reads every member's covers through --stage, or runs
    # every member's schedule search, builds them first, in build order,
    # so each search finds its inner and outer covers memoised that
    # deep; any other builds none
    fills, searched_over = [], []
    covers = CantorFamily.covers
    build_schedule = IntermediateCantor._build_schedule

    def recorded_covers(fam, stage):
        fills.append(stage)
        return covers(fam, stage)

    def recorded_build(gen):
        searched_over.append(min(len(gen.inner._stage_memo), len(gen.outer._stage_memo)))
        return build_schedule(gen)

    monkeypatch.setattr(CantorFamily, "covers", recorded_covers)
    monkeypatch.setattr(IntermediateCantor, "_build_schedule", recorded_build)
    assert invoke(*args).exit_code == 0
    if filled is None:
        assert fills == []
    else:
        assert fills == [filled]
        assert searched_over and all(n == filled + 1 for n in searched_over)


class TestFamily:
    def test_build_then_inspect(self, tmp_path):
        res = invoke("family", "build", "--cache-dir", str(tmp_path), *SMALL)
        assert res.exit_code == 0
        built = json.loads(res.output)
        assert built["members"] == ["0", "1/2", "1"]
        res = invoke("family", "inspect", "--cache-dir", str(tmp_path), *SMALL)
        assert res.exit_code == 0
        obj = json.loads(res.output)
        assert obj["nesting"]["ok"]
        assert "1/2" in obj["members"]

    def test_inspect_missing_cache(self, tmp_path):
        res = invoke("family", "inspect", "--cache-dir", str(tmp_path / "x"), *SMALL)
        assert res.exit_code == 3
        assert "not built" in res.output

    def test_inspect_tampered_cache(self, tmp_path):
        invoke("family", "build", "--cache-dir", str(tmp_path), *SMALL)
        path, = tmp_path.iterdir()
        payload = json.loads(path.read_text())
        payload["stages"] = 2   # not covered by the content hash
        path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        res = invoke("family", "inspect", "--cache-dir", str(tmp_path), *SMALL)
        assert res.exit_code == 3
        assert "differs from cache" in res.output

    def test_build_requires_cache_dir(self):
        assert invoke("family", "build", *SMALL).exit_code == 2

    def test_inspect_bytes(self, tmp_path):
        # level 2, budget 56, stage 8, pinned when covers held Fraction
        # components: every cover text renders n/q in lowest terms
        args = ["--cache-dir", str(tmp_path), "--level", "2", "--budget", "56",
                "--stage", "8"]
        assert invoke("family", "build", *args).exit_code == 0
        res = invoke("family", "inspect", *args)
        assert res.exit_code == 0, res.output
        assert hashlib.sha256(res.stdout_bytes).hexdigest() == (
            "b43692ae5a975b5d11ef53b4a643cffce19b6683eee68c43069192b766ff12c4")

    def test_inspect_renders_each_cover_once(self, tmp_path, monkeypatch):
        # the load certifies the file by rendering each of its covers once,
        # and the report reads their texts back from the certified file;
        # only depths past the file's are rendered for the report
        shallow, deep = tmp_path / "shallow", tmp_path / "deep"
        params = ["--level", "2", "--budget", "56"]
        assert invoke("family", "build", "--cache-dir", str(shallow), *params,
                      "--stage", "6").exit_code == 0
        assert invoke("family", "build", "--cache-dir", str(deep), *params,
                      "--stage", "8").exit_code == 0
        to_text = IntervalSet.to_text
        calls = []
        monkeypatch.setattr(IntervalSet, "to_text",
                            lambda cover, table=None: calls.append(cover) or to_text(cover, table))
        reports = {}
        # 5 members at level 2, each with its covers at depths 0..6 on file
        for stage, rendered in ((6, 35), (4, 35), (8, 45)):
            calls.clear()
            res = invoke("family", "inspect", "--cache-dir", str(shallow), *params,
                         "--stage", str(stage))
            assert res.exit_code == 0, res.output
            assert len(calls) == rendered, stage
            covers = [m["covers"] for m in json.loads(res.output)["members"].values()]
            assert {len(c) for c in covers} == {stage + 1}
            reports[stage] = res.stdout_bytes
        res = invoke("family", "inspect", "--cache-dir", str(deep), *params, "--stage", "8")
        assert res.exit_code == 0 and res.stdout_bytes == reports[8]

    def test_rebuild_byte_identical(self, tmp_path):
        invoke("family", "build", "--cache-dir", str(tmp_path), *SMALL)
        files = list(tmp_path.iterdir())
        assert len(files) == 1
        first = files[0].read_bytes()
        invoke("family", "build", "--cache-dir", str(tmp_path), *SMALL)
        assert files[0].read_bytes() == first


class TestExport:
    def test_cantor_text(self):
        res = invoke("export", "cantor", "--member", "1/2", "--stage", "2", *SMALL)
        assert res.exit_code == 0
        assert ".." in res.output and ";" in res.output

    def test_graph_csv(self, tmp_path):
        out = tmp_path / "g.csv"
        res = invoke("export", "graph", "--stage", "3", "--out", str(out), *SMALL)
        assert res.exit_code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x_lo,x_hi,y_lo,y_hi"
        assert len(lines) > 3

    def test_graph_svg(self):
        res = invoke("export", "graph", "--stage", "2", "--format", "svg",
                     "--mode", "tent", *SMALL)
        assert res.exit_code == 0
        assert res.output.startswith("<svg") and "</svg>" in res.output

    def test_graph_json(self):
        res = invoke("export", "graph", "--stage", "2", "--format", "json", *SMALL)
        assert res.exit_code == 0
        assert "boxes" in json.loads(res.output)

    def test_mahavier_csv(self):
        res = invoke("export", "mahavier", "--n", "2", "--stage", "2", *SMALL)
        assert res.exit_code == 0
        assert res.output.splitlines()[0] == "x0_lo,x0_hi,x1_lo,x1_hi,x2_lo,x2_hi"

    def test_arc_csv(self):
        res = invoke("export", "arc", "--arc-n", "1", "--coords", "0,1", *FAMILY)
        assert res.exit_code == 0
        assert res.output.splitlines()[0] == "param,coord_0,coord_1"

    def test_arc_csv_past_the_arc_index(self):
        # coordinate 2 lies past arc 1, so every point of the arc carries
        # the thread's own x_2 = 1/4 there
        res = invoke("export", "arc", "--arc-n", "1", "--coords", "0,2", *FAMILY)
        assert res.exit_code == 0, res.output
        rows = res.output.splitlines()
        assert rows[0] == "param,coord_0,coord_2"
        assert [row.split(",")[2] for row in rows[1:]] == ["1/4"] * 3

    def test_bad_coords(self):
        assert invoke("export", "arc", "--coords", "zz", *FAMILY).exit_code == 2

    def test_unknown_member(self):
        assert invoke("export", "cantor", "--member", "1/3", *SMALL).exit_code == 2


# a zero thread, then one that is a thread in tent mode
ARC_THREADS = ('[{"isZero": true}, {"prefix": ["1/64", "1/32", "1/16"], '
               '"tailPeriod": ["1/4", "3/4"]}]')


@pytest.mark.parametrize("args, threads, digest", [
    (["graph", "--stage", "3"], None,
     "a2d17d16ac19411e7dbed19b7bd18345a1bdb5ecd4dd05f6479ca210ce480474"),
    (["graph", "--stage", "3", "--format", "json"], None,
     "212b1f46218ab99627565c0bae1115ccd64506765975164c4b4dc72d215d723e"),
    (["graph", "--stage", "3", "--format", "svg", "--mode", "tent"], None,
     "ed4bb3925ea9b566993b3f849368c2b6b12f2e051dc223525b2ff3b76cb5fe1e"),
    (["mahavier", "--stage", "2", "--n", "2"], None,
     "0759d99e871fd058e30eaee000a46e94c686ce884e53fbe160522dab31487e86"),
    (["arc", "--arc-n", "1", "--coords", "0,1"], None,
     "6617ee1ef5e60af8adea7ba9c5007125b7416bfb089636af1d119434112e4c37"),
    (["arc", "--arc-n", "3", "--coords", "1,3", "--mode", "tent"], ARC_THREADS,
     "794ee0749623ae2e24d51979368f66927a0546fef3f7696ce52ad1a51fe4fcd2"),
    (["cantor", "--stage", "3", "--member", "1/2"], None,
     "75167438e302f5cff7ff8bb65545401849343ebaa3bb4019ebdd2b6e551b1c7d"),
    # tent heights have denominators that do not divide the cover's q
    (["graph", "--stage", "3", "--mode", "tent"], None,
     "e0e1d42574a13ab1c6d1b05b5e7c62c5d579243de71fdd0edff0e8bf8bc20592"),
    (["mahavier", "--stage", "2", "--n", "2", "--mode", "tent"], None,
     "959d184047818d6dc33810192904a54ff5b2059ff26f9f011fe4ded5a8600962"),
])
def test_export_bytes(tmp_path, args, threads, digest):
    # each kind's output at level 1, budget 24, pinned when one command
    # served every kind
    if threads is not None:
        path = tmp_path / "threads.json"
        path.write_text(threads)
        args = args + ["--threads-file", str(path)]
    res = invoke("export", args[0], *FAMILY, *args[1:])
    assert res.exit_code == 0, res.output
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == digest


@pytest.mark.parametrize("args, threads", [
    (["export", "cantor", "--stage", "-1"], None),
    (["eval", "1/4", "--level", "-1"], None),
    (["export", "arc", "--arc-n", "-1"], None),
    (["export", "mahavier", "--n", "0"], None),
    (["verify", "cycles", "--max-period", "0"], None),
    (["verify", "arcs"], "{"),
    (["verify", "arcs"], "[1]"),
    (["verify", "arcs"], '[{"prefix": ["abc"]}]'),
    (["verify", "arcs"], '[{"prefix": ["1/16"], "tailPeriod": []}]'),
    (["verify", "arcs"], '[{"prefix": ["1/4"], "tailPeriod": ["1/4"]}]'),
    (["verify", "arcs"], '[{"prefix": ["5"], "tailPeriod": ["1/4"]}]'),
    (["export", "arc"], '[{"isZero": true}]'),
    (["export", "arc", "--coords", "-1,0"], None),
    (["export", "arc", "--arc-n", "0"],
     '[{"prefix": ["1/64", "1/32", "1/16"], "tailPeriod": ["1/4", "3/4"]}]'),
    (["verify", "nesting", "--budget", "0"], None),
    (["eval", "1/4", "--budget", "-3"], None),
    (["verify", "arcs"], '[{"isZero": "false"}]'),
    (["export", "cantor", "--member", "1/0"], None),
    (["export", "cantor", "--format", "json"], None),
    (["export", "arc", "--format", "svg"], None),
    (["export", "mahavier", "--format", "json"], None),
    # x_0 = 1/64 is not in F(1/32) = {0}: zero mode certifies no step
    (["export", "arc", "--arc-n", "3"],
     '[{"prefix": ["1/64", "1/32", "1/16"], "tailPeriod": ["1/4", "3/4"]}]'),
    # coordinates are JSON strings: no float, bare string or bool
    (["verify", "arcs"], '[{"prefix": [0.1], "tailPeriod": ["1/4", "3/4"]}]'),
    (["verify", "arcs"], '[{"prefix": "0", "tailPeriod": ["1/4", "3/4"]}]'),
    (["verify", "arcs"], '[{"prefix": [true], "tailPeriod": ["1/4", "3/4"]}]'),
    # only the keys to_json_obj writes: a misspelled prefix is no empty one
    (["verify", "arcs"], '[{"prefx": ["1/64", "1/32", "1/16"], "tailPeriod": ["1/4", "3/4"]}]'),
    (["verify", "arcs"], '[{"prefix": [], "tailStart": 2, "tailPeriod": ["1/4", "3/4"]}]'),
    # every coordinate of the zero thread is 0: it carries none of its own
    (["verify", "arcs"], '[{"isZero": true, "prefix": ["1/2"], "tailPeriod": ["1/4", "3/4"]}]'),
])
def test_bad_input_exits_2_with_one_line(tmp_path, args, threads):
    if threads is not None:
        path = tmp_path / "threads.json"
        path.write_text(threads)
        args = args + ["--threads-file", str(path)]
    # SMALL goes after the command (and the kind of an export), where it
    # is accepted, and the bad value comes last, so it overrides SMALL's;
    # arc reads no --stage
    cut = 2 if args[0] == "export" else 1
    small = FAMILY if args[:2] == ["export", "arc"] else SMALL
    res = invoke(*args[:cut], *small, *args[cut:])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr.startswith("Error: ") and res.stderr.count("\n") == 1
    # the row fails on its own value, not on an option SMALL added
    assert not [opt for opt in small[::2] if opt in res.stderr and opt not in args]


@pytest.mark.parametrize("args", [
    ["cantor", "--member", "1/0"],
    ["cantor", "--format", "svg"],
    ["arc", "--format", "json"],
    ["mahavier", "--format", "json"],
])
def test_export_input_is_checked_before_the_family_is_built(monkeypatch, args):
    def unreachable(*a, **k):
        raise AssertionError("family built before the input was checked")

    monkeypatch.setattr(cli, "build_family", unreachable)
    assert invoke("export", *args).exit_code == 2


@pytest.mark.parametrize("out, reason", [
    ("nodir/x.svg", "No such file or directory"),
    (".", "Is a directory"),
])
def test_unwritable_out_exits_2_with_one_line(tmp_path, out, reason):
    out = tmp_path / out
    res = invoke("export", "graph", "--level", "1", "--stage", "2", "--out", str(out))
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr == f"Error: cannot write --out {out}: {reason}\n"


@pytest.mark.parametrize("sub", ["", "sub"])
def test_cache_dir_on_a_file_exits_3_with_one_line(tmp_path, sub):
    # the directory, or a parent of it, is a file
    (tmp_path / "file").write_text("")
    res = invoke("family", "build", "--cache-dir", str(tmp_path / "file" / sub), *SMALL)
    assert res.exit_code == 3
    assert res.stdout == ""
    assert res.stderr.startswith("cache error: cannot make cache directory ")
    assert res.stderr.count("\n") == 1


def test_library_error_exits_1_with_one_line(monkeypatch):
    def too_many(*args, **kwargs):
        raise BoxCountError("box count over the ceiling")

    monkeypatch.setattr(invlimit, "mahavier_cover", too_many)
    res = invoke("export", "mahavier", "--n", "2", "--stage", "2", *SMALL)
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert res.stdout == ""
    assert res.stderr == "error: box count over the ceiling\n"


def test_search_exhaustion_exits_1_with_one_line():
    # at level 6 one member's schedule search finds no stage that
    # isolates its outer endpoint 11/72 by the search ceiling
    res = invoke("eval", "19763/23328", "--level", "6", "--budget", "24")
    assert res.exit_code == 1
    assert res.stdout == ""
    assert res.stderr == ("error: bracket search for endpoint Fraction(11, 72) "
                          "exhausted at stage 15\n")


def test_arc_index_below_the_thread_exits_2_with_one_line(tmp_path):
    # canned thread 3 has tail start 3, so its first arc index is 2
    path = tmp_path / "threads.json"
    path.write_text(json.dumps([{"prefix": ["0", "0", "1/16"], "tailStart": 3,
                                 "tailPeriod": ["1/4", "5/12", "3/4"], "isZero": False}]))
    res = invoke("export", "arc", *FAMILY, "--arc-n", "1", "--threads-file", str(path))
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr == "Error: --arc-n must be >= 2 for this thread\n"


def test_zero_thread_has_no_arc_chain(tmp_path):
    path = tmp_path / "threads.json"
    path.write_text('[{"isZero": true}]')
    res = invoke("verify", "arcs", *FAMILY, "--threads-file", str(path))
    assert res.exit_code == 0, res.output
    assert res.stderr == ""
    entry, = json.loads(res.stdout)["suites"]["arcs"]["threads"]
    assert entry["valid"] and entry["arc_chain"] == "rejected (zero thread)"


def test_cache_with_no_members_exits_3_with_one_line(tmp_path):
    # the content hash covers the empty member map, so the load gets as
    # far as reading the cover depth off it
    payload = {"version": cache.FORMAT_VERSION, "level": 1, "budget": 8,
               "stages": 4, "members": {}}
    payload["contentHash"] = cache._content_hash(payload)
    path = tmp_path / cache.family_filename(1, 8)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    res = invoke("family", "inspect", "--level", "1", "--budget", "8",
                 "--cache-dir", str(tmp_path))
    assert res.exit_code == 3
    assert res.stdout == ""
    assert res.stderr == f"cache error: cache file {path} holds no stage covers\n"


@pytest.mark.parametrize("args", [
    ["family", "build", "--mode", "tent"],
    ["family", "build", "--seed", "3"],
    ["family", "inspect", "--mode", "tent"],
    ["family", "inspect", "--seed", "3"],
    ["eval", "1/4", "--seed", "3"],
    ["eval", "1/4", "--cache-dir", "x"],
    ["export", "cantor", "--seed", "3"],
    ["export", "cantor", "--cache-dir", "x"],
    ["verify", "nesting", "--cache-dir", "x"],
    ["export", "graph", "--stage", "1", "--member", "1/0"],
    ["export", "graph", "--stage", "1", "--coords", "zz"],
    ["export", "cantor", "--stage", "1", "--n", "7", "--arc-n", "9"],
    ["export", "arc", "--stage", "4"],
])
def test_options_a_command_ignores_are_rejected(args):
    res = invoke(*args)
    assert res.exit_code == 2
    assert res.stderr.startswith("Error: No such option") and res.stderr.count("\n") == 1


def test_every_public_name_resolves():
    assert all(hasattr(gillab, name) for name in gillab.__all__)
