"""Command-line front door: build families, evaluate F, run verification
suites, and export covers and arcs as CSV/JSON/SVG artifacts."""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import click

from . import bonding, cache, dynamics, invlimit
from .cantor import DEFAULT_MAX_STAGE, DEFAULT_SEARCH_CEILING, build_family, point_membership
from .errors import CacheError, GillabError
from .exact import rat

EXIT_VERIFY_FAILED = 1
EXIT_CACHE = 3

DEFAULT_LEVEL = 2
DEFAULT_BUDGET = 56
DEFAULT_STAGE = 8


_OPTIONS = {
    "level": click.option("--level", type=click.IntRange(min=0),
                          default=DEFAULT_LEVEL, show_default=True,
                          help="Dyadic grid level."),
    "budget": click.option("--budget", type=click.IntRange(min=1),
                           default=DEFAULT_BUDGET, show_default=True,
                           help="Endpoints scheduled per intermediate set."),
    "stage": click.option("--stage", type=click.IntRange(min=0),
                          default=DEFAULT_STAGE, show_default=True,
                          help="Cover refinement depth."),
    "mode": click.option("--mode", type=click.Choice(bonding.MODES),
                         default="zero", show_default=True,
                         help="Base map mode."),
    "seed": click.option("--seed", type=int, default=0, show_default=True,
                         help="Seed for sampled checks."),
    "cache_dir": click.option("--cache-dir", type=click.Path(path_type=Path),
                              envvar="GILLAB_CACHE", default=None,
                              help="Family cache directory (env GILLAB_CACHE)."),
    "threads_file": click.option(
        "--threads-file", type=click.Path(exists=True, dir_okay=False, path_type=Path),
        default=None, help="JSON list of threads (default: the canned threads)."),
    "out": click.option("--out", type=click.Path(path_type=Path), default=None,
                        help="Output path (default: stdout)."),
}


def _options(*names):
    """Attach the named shared options; a command takes only those it reads."""
    def attach(fn):
        for name in names:
            fn = _OPTIONS[name](fn)
        return fn
    return attach


def _fill_covers(fam, stage: int) -> None:
    """Build every member's covers through stage, in build order, so that
    each removal-schedule search reads its neighbours' covers memoised.
    Only for a command that reads all of them anyway, or that runs every
    member's search, as ``endpoints`` does: it reads no cover, but the
    fill and searches that read memoised covers cost less than the
    searches alone.  A search left to itself sweeps the covers its walks
    pay for."""
    for _ in fam.covers(stage):
        pass


def _emit(obj) -> None:
    click.echo(json.dumps(obj, sort_keys=True, indent=2))


def _rational(text: str) -> Fraction:
    try:
        return rat(text)
    except (ValueError, ZeroDivisionError):
        raise click.UsageError(f"not a rational: {text!r}")


class _Group(click.Group):
    """Command group whose errors print as one line: usage errors exit 2,
    cache errors 3 and any other library error 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as ex:
            ex.ctx = None  # without a context click omits the usage banner
            raise
        except CacheError as ex:
            click.echo(f"cache error: {ex}", err=True)
            sys.exit(EXIT_CACHE)
        except GillabError as ex:
            click.echo(f"error: {ex}", err=True)
            sys.exit(EXIT_VERIFY_FAILED)


@click.group(cls=_Group)
def main():
    """Exact-arithmetic lab for a nested Cantor family, its set-valued
    bonding map, and the resulting generalized inverse limit."""


# ---------------------------------------------------------------------------
# family


@main.group()
def family():
    """Build or inspect the cached dyadic family."""


@family.command("build")
@_options("level", "budget", "stage", "cache_dir")
def family_build(level, budget, stage, cache_dir):
    """Build the family and write its cover cache."""
    if cache_dir is None:
        raise click.UsageError("family build needs --cache-dir or GILLAB_CACHE")
    fam = build_family(level, budget)
    path = cache.save_family(fam, stage, cache_dir)
    _emit({"built": True, "cacheFile": str(path),
           "members": [str(r) for r in fam.grid()], "stages": stage})


@family.command("inspect")
@_options("level", "budget", "stage", "cache_dir")
def family_inspect(level, budget, stage, cache_dir):
    """Print per-member stage covers and a nesting audit from the cache."""
    if cache_dir is None:
        raise click.UsageError("family inspect needs --cache-dir or GILLAB_CACHE")
    fam, stored = cache.load_certified(level, budget, cache_dir)
    table: dict = {}

    def covers(r) -> list[str]:
        # the certified file's texts, and past its depth fresh ones
        texts = stored[str(r)][:stage + 1]
        return texts + [fam.member(r).stage(d).to_text(table)
                        for d in range(len(texts), stage + 1)]

    report = {
        "members": {str(r): {"describe": fam.member(r).describe(), "covers": covers(r)}
                    for r in fam.grid()},
        "nesting": fam.check_nesting(stage),
    }
    _emit(report)
    if not report["nesting"]["ok"]:
        sys.exit(EXIT_VERIFY_FAILED)


# ---------------------------------------------------------------------------
# eval


@main.command("eval")
@click.argument("t")
@_options("level", "budget", "stage", "mode")
def cmd_eval(t, level, budget, stage, mode):
    """Certified bracket for F(T) at an exact rational T."""
    point = _rational(t)
    if point < 0 or point > 1:
        raise click.UsageError("T must lie in [0, 1]")
    fam = build_family(level, budget)
    fb = bonding.eval_F(bonding.make_map(mode, fam), point, level, stage)
    _emit({"t": str(point), "singleton": fb.is_singleton,
           "pointValue": str(fb.point_value) if fb.is_singleton else None,
           "lowerMax": str(fb.lower_max), "upperMax": str(fb.upper_max)})


# ---------------------------------------------------------------------------
# verify


def _canned_threads(m: bonding.SetValuedMap) -> list[invlimit.Thread]:
    mk, cyc = invlimit.make_thread, dynamics.make_cycle
    return [
        mk(m, None, cyc(m, 2), 0),
        mk(m, Fraction(0), cyc(m, 1), 2),
        mk(m, Fraction(1, 16), cyc(m, 2), 1),
        mk(m, Fraction(1, 16), cyc(m, 3), 3),
        mk(m, Fraction(1, 2), cyc(m, 4), 1),
    ]


def _load_threads(m, threads_file) -> list[invlimit.Thread]:
    """The canned threads, or the file's threads checked as outside input."""
    if threads_file is None:
        return _canned_threads(m)
    try:
        data = json.loads(Path(threads_file).read_text())
        if not (isinstance(data, list)
                and all(isinstance(obj, dict) for obj in data)):
            raise ValueError("expected a JSON list of thread objects")
        threads = [invlimit.Thread.from_json_obj(obj) for obj in data]
        for th in threads:
            if not th.is_zero:
                invlimit.tail_index(m, th)
    except (ValueError, TypeError, ZeroDivisionError) as ex:
        raise click.UsageError(f"bad threads file {threads_file}: {ex}")
    return threads


def _suite_nesting(fam, m, stage, seed, threads):
    return fam.check_nesting(stage)


def _suite_endpoints(fam, m, stage, seed, threads):
    failures = []
    checked = 0
    for src in (Fraction(0), Fraction(1, 2)):
        if src not in fam.members:
            continue
        # only the first budget endpoints are scheduled for removal, and
        # a removal can take effect as deep as the search ceiling
        for p in fam.member(src).endpoints(min(50, fam.stage_budget)):
            for r in fam.grid():
                if r <= src:
                    continue
                checked += 1
                verdict = point_membership(fam.member(r), p,
                                           DEFAULT_SEARCH_CEILING)
                if not verdict.is_out:
                    failures.append({"source": str(src), "target": str(r),
                                     "verdict": verdict.verdict})
    return {"checked": checked, "failures": failures, "ok": not failures}


def _suite_usc(fam, m, stage, seed, threads):
    usc = bonding.check_usc(m, 200, stage, seed=seed)
    weak = bonding.check_weak_continuity(m, fam.c1.endpoints(50), DEFAULT_MAX_STAGE)
    return {"usc": usc, "weak_continuity": weak,
            "ok": usc["ok"] and weak["ok"]}


def _suite_ivp(fam, m, stage, seed, threads):
    return bonding.check_ivp_consistency(m, 64, seed=seed)


def _suite_light(fam, m, stage, seed, threads):
    zero = bonding.check_light(bonding.make_map("zero", fam), 16, stage)
    tent = bonding.check_light(bonding.make_map("tent", fam), 16, stage)
    ok = zero["ok"] and tent["ok"] and not zero["light"] and tent["light"]
    return {"zero": zero, "tent": tent, "ok": ok}


def _suite_cycles(fam, m, stage, seed, threads, max_period=12):
    reports = []
    ok = True
    for n in range(1, max_period + 1):
        rep = dynamics.verify_cycle(m, dynamics.make_cycle(m, n))
        reports.append({"period": n, "ok": rep["ok"],
                        "least_rotation_period": rep["least_rotation_period"]})
        ok = ok and rep["ok"]
    return {"cycles": reports, "ok": ok}


def _suite_arcs(fam, m, stage, seed, threads):
    reports = []
    ok = True
    for i, th in enumerate(threads):
        valid = invlimit.verify_thread(m, th)
        entry = {"thread": th.to_json_obj(), "valid": valid["ok"]}
        if th.is_zero:
            entry["arc_chain"] = "rejected (zero thread)"
        else:
            # ArcSystem validates the thread, so tail_start is its tail index
            chain = invlimit.verify_arc_chain(
                invlimit.ArcSystem(m, th, max(6, th.tail_start)))
            entry["tail_index"] = th.tail_start
            entry["arc_chain_ok"] = chain["ok"]
            ok = ok and chain["ok"]
        ok = ok and valid["ok"]
        reports.append(entry)
    return {"threads": reports, "ok": ok}


def _suite_treelike(fam, m, stage, seed, threads):
    return invlimit.check_treelike_hypotheses(m, stage)


def _suite_interior(fam, m, stage, seed, threads):
    return bonding.check_empty_interior(m, stage)


# the suites that read every member's covers at every depth through
# --stage, and endpoints, which runs every member's schedule search
READS_EVERY_COVER = {"nesting", "interior", "usc", "endpoints"}

SUITES = {
    "nesting": _suite_nesting,
    "endpoints": _suite_endpoints,
    "usc": _suite_usc,
    "ivp": _suite_ivp,
    "light": _suite_light,
    "cycles": _suite_cycles,
    "arcs": _suite_arcs,
    "treelike": _suite_treelike,
    "interior": _suite_interior,
}


@main.command("verify")
@click.argument("suite", type=click.Choice(sorted(SUITES) + ["all"]))
@_options("level", "budget", "stage", "mode", "seed", "threads_file")
@click.option("--max-period", type=click.IntRange(min=1), default=12,
              show_default=True, help="Largest cycle period for the cycles suite.")
def cmd_verify(suite, level, budget, stage, mode, seed, max_period,
               threads_file):
    """Run a verification suite; exit 0 iff every check passes."""
    fam = build_family(level, budget)
    names = sorted(SUITES) if suite == "all" else [suite]
    # a suite that reads every member's covers builds them first, in
    # build order, so that each search reads its neighbours' covers
    # memoised; the other suites leave each search to sweep its own
    if READS_EVERY_COVER.intersection(names):
        _fill_covers(fam, stage)
    m = bonding.make_map(mode, fam)
    threads = _load_threads(m, threads_file)
    results = {name: _suite_cycles(fam, m, stage, seed, threads, max_period)
               if name == "cycles" else SUITES[name](fam, m, stage, seed, threads)
               for name in names}
    ok = all(rep["ok"] for rep in results.values())
    _emit({"config": dict(level=level, budget=budget, stage=stage, mode=mode,
                          seed=seed, suite=suite, maxPeriod=max_period),
           "suites": results, "ok": ok})
    if not ok:
        sys.exit(EXIT_VERIFY_FAILED)


# ---------------------------------------------------------------------------
# export


def _svg_boxes(boxes, size=1000):
    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {size} {size}">',
             f'<rect width="{size}" height="{size}" fill="white"/>']
    for xb, yb in boxes:
        # rationals are rounded only here, at the final pixel mapping
        x = round(float(xb.lo) * size, 2)
        w = round(float(xb.width) * size, 2)
        y = round((1 - float(yb.hi)) * size, 2)
        h = round(float(yb.width) * size, 2)
        lines.append(f'<rect x="{x}" y="{y}" width="{w}" height="{h}" '
                     f'fill="steelblue" fill-opacity="0.5" stroke="navy" '
                     f'stroke-width="0.3"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _write(text: str, out) -> None:
    if out is None:
        click.echo(text, nl=False)
    else:
        try:
            Path(out).write_text(text)
        except OSError as ex:
            raise click.UsageError(f"cannot write --out {out}: {ex.strerror or ex}")
        click.echo(f"wrote {out}")


@main.group()
def export():
    """Emit a cover, arc projection, or member set as a file artifact."""


@export.command("graph")
@_options("level", "budget", "stage", "mode", "out")
@click.option("--format", "fmt", type=click.Choice(["csv", "json", "svg"]),
              default="csv", show_default=True)
def export_graph(level, budget, stage, mode, out, fmt):
    """Outer box cover of the graph of F."""
    fam = build_family(level, budget)
    # the graph cover reads every member's covers through stage
    _fill_covers(fam, stage)
    cover = bonding.make_map(mode, fam).graph_cover(stage, level)
    if fmt == "svg":
        text = _svg_boxes(cover.boxes)
    elif fmt == "json":
        text = json.dumps({"stage": stage, "level": level, "boxes": [
            [str(xb.lo), str(xb.hi), str(yb.lo), str(yb.hi)]
            for xb, yb in cover.boxes]}, sort_keys=True, indent=2) + "\n"
    else:
        text = "\n".join(cover.csv_rows()) + "\n"
    _write(text, out)


@export.command("mahavier")
@_options("level", "budget", "stage", "mode", "out")
@click.option("--n", "n_coords", type=click.IntRange(min=1), default=2,
              show_default=True, help="Last coordinate index.")
def export_mahavier(level, budget, stage, mode, out, n_coords):
    """Box cover of the Mahavier product on coordinates 0..n."""
    fam = build_family(level, budget)
    # the graph cover under the chains reads every member's covers through stage
    _fill_covers(fam, stage)
    cover = invlimit.mahavier_cover(bonding.make_map(mode, fam), n_coords, stage, level)
    _write("\n".join(cover.csv_rows()) + "\n", out)


@export.command("arc")
@_options("level", "budget", "mode", "threads_file", "out")
@click.option("--arc-n", type=click.IntRange(min=0), default=1,
              show_default=True, help="Arc index.")
@click.option("--coords", default="0,1", show_default=True,
              help="Comma-separated coordinate pair.")
def export_arc(level, budget, mode, threads_file, out, arc_n, coords):
    """Points of one arc through the first nonzero thread."""
    try:
        i, j = (int(c) for c in coords.split(","))
    except ValueError:
        raise click.UsageError("--coords must look like 0,1")
    if min(i, j) < 0:
        raise click.UsageError("--coords must be nonnegative")
    m = bonding.make_map(mode, build_family(level, budget))
    th = next((t for t in _load_threads(m, threads_file) if not t.is_zero), None)
    if th is None:
        raise click.UsageError("arc export needs a nonzero thread")
    failures = invlimit.verify_thread(m, th)["failures"]
    if failures:
        k = failures[0]["i"]
        raise click.UsageError(
            f"not a thread of F: x_{k - 1} in F(x_{k}) is not certified")
    sysm = invlimit.ArcSystem(m, th, max(6, th.tail_start))
    first = sysm.first_arc
    if arc_n < first:
        raise click.UsageError(f"--arc-n must be >= {first} for this thread")
    pts = invlimit.arc_points(sysm, arc_n, invlimit.arc_params(sysm, arc_n), (i, j))
    rows = [f"param,coord_{i},coord_{j}"] + [f"{t},{a},{b}" for t, a, b in pts]
    _write("\n".join(rows) + "\n", out)


@export.command("cantor")
@_options("level", "budget", "stage", "out")
@click.option("--member", default="1/2", show_default=True,
              help="Family index, a rational on the grid.")
def export_cantor(level, budget, stage, out, member):
    """Stage cover of one member set, in its text form."""
    r = _rational(member)
    fam = build_family(level, budget)
    if r not in fam.members:
        raise click.UsageError(f"unknown family index {member!r}")
    _write(fam.member(r).stage(stage).to_text() + "\n", out)


def run() -> None:
    main()


if __name__ == "__main__":
    run()
