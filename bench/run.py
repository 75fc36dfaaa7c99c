"""gillab benchmark: one workload, timed end to end or traced by layer.

Usage, from the repository root:

    python3 bench/run.py --workload verify-all --seed 0 --seconds 10 --trace 0

Every repetition runs in a fresh worker process (bench/worker.py), one
at a time, so stage memos and lru_caches never carry over.  Untraced
(--trace 0), the workload repeats until --seconds have passed (at least
`min_reps` times) and the end-to-end metrics are medians over the
repetitions.  Times are seconds at the reference machine's speed,
measured inside each worker (see worker.SpeedProbe); the raw seconds
are printed beside them.  Traced (--trace 1), one untraced and one
traced repetition run back to back; the per-layer metrics come from the
traced one and `overhead.*` is traced minus untraced.  Every timed output is
hashed and compared with bench/refs.json; any mismatch, exception,
nonzero exit or failed report check counts as a failed repetition.

The last stdout line is one JSON object: correct, attempted, failed and
the metrics named in BENCHMARK.json.  Inputs come from the seed: seed s
selects input seed number s mod n of the n input seeds that have
references in bench/refs.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
REF_SEEDS = 8          # input seeds with references, per seeded workload
RUN_LIMIT_S = 170      # the whole run, traced or not, must end by then
COUNT_UNITS = ("count", "B")   # per-layer units that must repeat exactly


@dataclass(frozen=True)
class Workload:
    seeded: bool          # does the seed change the inputs?
    min_reps: int         # repetitions per untraced run, at least
    setup_reps: int       # extra set-up-only repetitions for setup_s
    phases: tuple[str, ...]


# why each workload exists is recorded in bench/README.md
WORKLOADS = {
    "verify-all": Workload(True, 1, 3, ("verify_s",)),
    "eval-points": Workload(True, 3, 0, ("eval_s",)),
    "family-export": Workload(False, 1, 0,
                              ("cache_save_s", "mahavier_s", "cache_load_s")),
}
PHASES = tuple(ph for wl in WORKLOADS.values() for ph in wl.phases)


class Runner:
    """Spawns workers for one workload and checks what they return."""

    def __init__(self, root: Path, workload: str, seed: int, refs=None):
        self.root = root
        self.name = workload
        self.spec = WORKLOADS[workload]
        if refs is None:
            by_seed = json.loads((BENCH / "refs.json").read_text())[workload]
            inputs = sorted(by_seed, key=int)
            self.input_seed = int(inputs[seed % len(inputs)])
            refs = by_seed[str(self.input_seed)]
        else:
            self.input_seed = seed
        self.refs = refs
        self.work = root / ".bench_work"
        self.attempted = 0
        self.failures: list[str] = []
        self.started = time.perf_counter()
        self.env = {**os.environ, "PYTHONPATH": str(root / "src"),
                    "PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1"}

    def spawn(self, setup_only=False, trace=False) -> dict | None:
        """One checked repetition: the worker's record, or None if it failed."""
        self.attempted += 1
        tag = f"{self.name}-{self.input_seed}-{os.getpid()}-{self.attempted}"
        cmd = [sys.executable, "-B", str(BENCH / "worker.py"), self.name,
               "--seed", str(self.input_seed),
               "--work-dir", str(self.work / tag)]
        if setup_only:
            cmd.append("--setup-only")
        if trace:
            cmd += ["--trace", str(self.work / f"spans-{self.name}.jsonl")]
        budget = RUN_LIMIT_S - (time.perf_counter() - self.started)
        cmd += ["--spawned-at", repr(time.perf_counter())]
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, text=True,
                                  capture_output=True, timeout=max(budget, 1))
        except subprocess.TimeoutExpired:
            return self._fail(tag, "timed out")
        if proc.returncode != 0 or not proc.stdout.strip():
            sys.stderr.write(proc.stderr)
            return self._fail(tag, f"exit code {proc.returncode}")
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        if rec["error"]:
            sys.stderr.write(proc.stderr)
            return self._fail(tag, rec["error"])
        bad = [k for k, ok in rec["checks"].items() if not ok]
        if not setup_only:
            bad += [k for k, ref in self.refs.items() if rec["outputs"].get(k) != ref]
        if bad:
            return self._fail(tag, "failed checks: " + ", ".join(bad))
        for key in ("times", "raw"):
            rec[key]["run_s"] = sum(v for k, v in rec[key].items() if k != "setup_s")
        rec["run_s"] = rec["times"]["run_s"]
        return rec

    def _fail(self, tag, why):
        self.failures.append(f"{tag}: {why}")
        return None

    def elapsed(self) -> float:
        return time.perf_counter() - self.started


def median(values):
    return statistics.median(values) if values else 0.0


def untraced(r: Runner, seconds: float) -> dict[str, float]:
    setups = [r.spawn(setup_only=True) for _ in range(r.spec.setup_reps)]
    reps, last = [], 0.0
    while len(reps) < r.spec.min_reps or r.elapsed() < seconds:
        if r.elapsed() + last > RUN_LIMIT_S:
            break
        t0 = r.elapsed()
        rep = r.spawn()
        if rep is None:
            break
        reps.append(rep)
        last = r.elapsed() - t0
    setups = [s for s in setups if s] if r.spec.setup_reps else reps
    out = {"setup_s": median([s["times"]["setup_s"] for s in setups]),
           "run_s": median([rep["run_s"] for rep in reps]),
           "peak_rss_mb": median([rep["rss_mb"] for rep in reps]),
           "speed": median([rep["speed"] for rep in reps + setups])}
    for ph in r.spec.phases:
        out[ph] = median([rep["times"][ph] for rep in reps])
        out["raw." + ph] = median([rep["raw"][ph] for rep in reps])
    out["raw.setup_s"] = median([s["raw"]["setup_s"] for s in setups])
    out["raw.run_s"] = median([rep["raw"]["run_s"] for rep in reps])
    return out


def traced(r: Runner) -> dict[str, float]:
    setup_pair = None
    if r.spec.setup_reps:
        setup_pair = (r.spawn(setup_only=True), r.spawn(setup_only=True, trace=True))
    plain, tr = r.spawn(), r.spawn(trace=True)
    if plain is None or tr is None or (setup_pair and None in setup_pair):
        return {}
    out = dict(tr["layers"])
    base, top = setup_pair or (plain, tr)
    out["overhead.setup_s"] = top["times"]["setup_s"] - base["times"]["setup_s"]
    out["overhead.run_s"] = tr["run_s"] - plain["run_s"]
    out["overhead.peak_rss_mb"] = tr["rss_mb"] - plain["rss_mb"]
    for ph in PHASES:
        out[ph] = plain["times"].get(ph, 0.0)
    out["speed"] = tr["speed"]
    return out


def check_fingerprint(workload: str, input_seed: int, layers: dict, units: dict):
    """Report (stderr) whether the count metrics repeat the stored ones."""
    stored = json.loads((BENCH / "fingerprint.json").read_text())
    ref = stored.get(workload, {}).get(str(input_seed))
    if ref is None:
        return
    diff = {k: (v, layers.get(k, 0)) for k, v in ref.items()
            if layers.get(k, 0) != v}
    counts = sum(1 for u in units.values() if u in COUNT_UNITS)
    print(f"count fingerprint: {counts - len(diff)}/{counts} match"
          + "".join(f"\n  {k}: stored {a}, now {b}" for k, (a, b) in diff.items()),
          file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "gillab" / "__init__.py").is_file():
        print(f"bench: no gillab sources under {root / 'src'}; run from the "
              "repository root", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    r = Runner(root, args.workload, args.seed)
    values = traced(r) if args.trace else untraced(r, args.seconds)
    failed = len(r.failures)
    for why in r.failures:
        print(f"FAILED {why}", file=sys.stderr)
    print(f"workload={args.workload} seed={args.seed} input_seed={r.input_seed} "
          f"trace={args.trace} repetitions={r.attempted} "
          f"elapsed={r.elapsed():.1f} s machine_speed={values.get('speed', 0):.3f}")
    if not args.trace:
        shown = ["setup_s", *r.spec.phases, "run_s"]
        for name in shown:
            print(f"  {name} = {values.get(name, 0.0):.4f} s "
                  f"(raw {values.get('raw.' + name, 0.0):.4f} s)")
        print(f"  peak_rss_mb = {values.get('peak_rss_mb', 0.0):.1f} MiB")
        print(f"  failed_frac = {failed / r.attempted:.4f} "
              f"({failed}/{r.attempted} repetitions)")
    elif values:
        check_fingerprint(args.workload, r.input_seed, values, units)
    result = {"correct": failed == 0, "attempted": r.attempted, "failed": failed,
              "metrics": {name: {"value": values.get(name, 0.0), "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
