"""Repeat the benchmark over seeds and report each metric's spread.

Usage, from the repository root:

    python3 bench/spread.py --workload eval-points --runs 10 [--first-seed 0]
                            [--out FILE.json]

Runs `bench/run.py --trace 0` once per seed, one after another, and
prints, for every end-to-end metric and every phase time the run prints,
the median, the quartiles from `statistics.quantiles(values, n=4)` and
their distance as a share of the median -- for the end-to-end metrics
the figure that must stay below a third of the bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    walls, failed = [], 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", "0"], capture_output=True, text=True)
        walls.append(time.perf_counter() - t0)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        failed += result["failed"] + (proc.returncode != 0)
        for name, value in result["metrics"].items():
            values.setdefault(name, []).append(value["value"])
        for line in lines[:-1]:
            m = re.match(r"\s+(\w+_s) = ([\d.]+) s", line)
            if m and m[1] not in result["metrics"]:
                values.setdefault(m[1], []).append(float(m[2]))
        print(f"seed {seed}: wall {walls[-1]:.1f} s "
              + " ".join(f"{k}={v[-1]:.4f}" for k, v in values.items()), flush=True)
    report = {"workload": args.workload, "runs": args.runs, "failed": failed,
              "wall_s": summarize(walls),
              "metrics": {k: summarize(v) for k, v in values.items()}}
    for name, s in report["metrics"].items():
        limit = f"{bounds[name] / 3:.4f}" if name in bounds else "-"
        print(f"{name}: median {s['median']:.4f} q1 {s['q1']:.4f} q3 {s['q3']:.4f} "
              f"spread {s['spread']:.4f} (bound/3 {limit})")
    print(f"wall per run: median {report['wall_s']['median']:.1f} s; failed {failed}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
