"""One repetition of one workload, in a fresh interpreter.

Usage: python3 worker.py WORKLOAD --seed N --work-dir DIR --spawned-at T
       [--setup-only] [--trace SPANS.jsonl]

Prints one JSON line: the time of set-up (from the parent's spawn, so
from a fresh interpreter) and of each timed phase, both raw and at the
reference machine's speed (see SpeedProbe), the sha256 of every timed
output, pass/fail checks, and the worker's peak RSS.  With --trace,
gillab's layer boundaries are wrapped for the whole repetition, the
per-layer metrics ride along in the JSON line and the spans go to
SPANS.jsonl.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import points

BUDGET = 56
CEILING = 15          # the CLI's search ceiling
EVAL_LEVEL = 2
EVAL_STAGE = 8        # `gillab eval` default --stage
EVAL_QUERIES = 3000
EXPORT_LEVEL = 3
EXPORT_STAGE = 8
MAHAVIER = dict(n=3, stage=3, level=3)

CAL_INTERVAL_S = 0.1
CAL_REF_S = 0.0025    # calibration loop time on the reference machine

SETUP = {"verify-all": (2, "zero"), "eval-points": (EVAL_LEVEL, "tent"),
         "family-export": (EXPORT_LEVEL, "zero")}


def _calibration_loop() -> None:
    x = Fraction(0)
    for k in range(1, 1000):
        x += Fraction(1, k % 97 + 1)


class SpeedProbe:
    """Machine speed, sampled all through a repetition.

    On a shared machine the speed of one core drifts by up to 2x over
    tens of seconds, far more than the run-to-run noise of the work
    itself.  Every CAL_INTERVAL_S a SIGALRM handler times a fixed stdlib
    Fraction loop, with the garbage collector off so that no collection
    moves out of the workload.  A timed region reports its wall time
    minus the probe's own time ("raw"), and that scaled by CAL_REF_S
    over the mean probe time inside the region: seconds at the
    reference machine's speed.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def _tick(self, signum, frame):
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        _calibration_loop()
        t1 = time.perf_counter()
        if collecting:
            gc.enable()
        self.samples.append((t0, t1 - t0))

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def speed(self, start=float("-inf"), end=float("inf")) -> float:
        inside = [d for t, d in self.samples if start <= t < end]
        return CAL_REF_S / statistics.fmean(inside) if inside else 1.0

    def region(self, start: float, end: float) -> tuple[float, float]:
        """(raw, reference-speed) seconds spent in [start, end)."""
        raw = end - start - sum(d for t, d in self.samples if start <= t < end)
        return raw, raw * self.speed(start, end)


def sha256(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


def set_up(level: int, mode: str):
    """The family and map a workload queries, with every schedule built."""
    from gillab import bonding, cantor
    fam = cantor.build_family(level, BUDGET, CEILING)
    for r in fam.grid():
        gen = fam.member(r)
        if isinstance(gen, cantor.IntermediateCantor):
            gen.schedule()
    return fam, bonding.make_map(mode, fam)


def bracket_text(t, fb) -> str:
    if fb.is_singleton:
        return f"{t}:{{{fb.point_value}}}"
    return f"{t}:[{fb.lower_max},{fb.upper_max}]"


def run_verify_all(rec, seed, work_dir, fam, m):
    from click.testing import CliRunner
    from gillab import cli
    args = ["verify", "all", "--stage", "8", "--seed", str(seed),
            "--level", "2", "--budget", str(BUDGET), "--mode", "zero"]
    t0 = time.perf_counter()
    res = CliRunner().invoke(cli.main, args)
    rec["regions"]["verify_s"] = (t0, time.perf_counter())
    if res.exception is not None and not isinstance(res.exception, SystemExit):
        raise res.exception
    rec["outputs"]["stdout"] = sha256(res.stdout_bytes)
    report = json.loads(res.stdout)
    rec["checks"]["exit_0"] = res.exit_code == 0
    rec["checks"]["report_ok"] = report.get("ok") is True
    for name, suite in report.get("suites", {}).items():
        rec["checks"]["suite_" + name] = suite.get("ok") is True


def run_eval_points(rec, seed, work_dir, fam, m):
    from gillab import bonding
    queries = points.generate(seed, EVAL_QUERIES)
    t0 = time.perf_counter()
    lines = [bracket_text(t, bonding.eval_F(m, t, EVAL_LEVEL, EVAL_STAGE))
             for _, t in queries]
    rec["regions"]["eval_s"] = (t0, time.perf_counter())
    rec["outputs"]["brackets"] = sha256("\n".join(lines))


def run_family_export(rec, seed, work_dir, fam, m):
    from gillab import cache, invlimit
    cache_dir = work_dir / "cache"
    t0 = time.perf_counter()
    path = cache.save_family(fam, EXPORT_STAGE, cache_dir)
    t1 = time.perf_counter()
    cover = invlimit.mahavier_cover(m, MAHAVIER["n"], MAHAVIER["stage"],
                                    MAHAVIER["level"])
    csv = "\n".join(cover.csv_rows()) + "\n"
    t2 = time.perf_counter()
    cache.load_family(EXPORT_LEVEL, BUDGET, cache_dir, CEILING)
    t3 = time.perf_counter()
    rec["regions"].update(cache_save_s=(t0, t1), mahavier_s=(t1, t2),
                          cache_load_s=(t2, t3))
    rec["outputs"]["cache"] = sha256(path.read_bytes())
    rec["outputs"]["mahavier"] = sha256(csv)


RUNNERS = {"verify-all": run_verify_all, "eval-points": run_eval_points,
           "family-export": run_family_export}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=sorted(RUNNERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work-dir", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", type=Path, default=None)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="the parent's perf_counter() just before the spawn")
    args = ap.parse_args(argv)

    probe = SpeedProbe()
    probe.start()
    rec = {"regions": {}, "outputs": {}, "checks": {}, "error": None}
    tracer = patches = None
    args.work_dir.mkdir(parents=True, exist_ok=True)
    try:
        import gillab  # noqa: F401  (set-up includes the import)
        if args.trace is not None:
            import tracing
            tracer = tracing.Tracer(f"{args.workload}:{args.seed}")
            patches = tracing.install(tracer)
        # the verify command builds its own family, so its repetition
        # stops the set-up clock after the import
        fam = m = None
        if args.setup_only or args.workload != "verify-all":
            fam, m = set_up(*SETUP[args.workload])
        rec["regions"]["setup_s"] = (args.spawned_at, time.perf_counter())
        if not args.setup_only:
            RUNNERS[args.workload](rec, args.seed, args.work_dir, fam, m)
    except Exception as ex:     # reported to the parent as a failed repetition
        traceback.print_exc()
        rec["error"] = f"{type(ex).__name__}: {ex}"
    finally:
        if patches is not None:
            patches.restore()
        shutil.rmtree(args.work_dir, ignore_errors=True)
    probe.stop()
    rec["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    timed = {k: probe.region(*span) for k, span in rec.pop("regions").items()}
    rec["raw"] = {k: raw for k, (raw, _) in timed.items()}
    rec["times"] = {k: ref for k, (_, ref) in timed.items()}
    rec["speed"] = probe.speed()
    if tracer is not None:
        rec["layers"] = {k: v * rec["speed"] if k.endswith(".s") else v
                         for k, v in tracing.layer_metrics(tracer).items()}
        tracer.write_jsonl(args.trace)
    print(json.dumps(rec, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
