"""Regenerate bench/refs.json and bench/fingerprint.json.

Usage, from the repository root:  python3 bench/make_refs.py

refs.json holds the sha256 of every timed output per workload and input
seed.  A seeded workload gets the first REF_SEEDS seeds, counting from 0,
whose repetition passes every check; a seed that fails is listed under
"excluded" with the checks it failed, and bench/test_bench.py ties that
list to the known defect behind it.  fingerprint.json holds the
count-type per-layer metrics of one traced repetition per workload at
the first input seed.  Run this only when an output or a count is meant
to change, and say why in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import BENCH, COUNT_UNITS, REF_SEEDS, WORKLOADS, Runner


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    counted = [m["name"] for m in spec["per_layer"] if m["unit"] in COUNT_UNITS]
    refs, excluded, prints = {}, {}, {}
    for name, wl in WORKLOADS.items():
        refs[name], excluded[name] = {}, {}
        wanted = REF_SEEDS if wl.seeded else 1
        for seed in range(4 * wanted):
            if len(refs[name]) == wanted:
                break
            runner = Runner(root, name, seed, refs={})
            rec = runner.spawn()
            if rec is None:
                excluded[name][str(seed)] = runner.failures[-1].split(": ", 1)[1]
            else:
                refs[name][str(seed)] = rec["outputs"]
            print(name, seed, rec and rec["outputs"], runner.failures, flush=True)
        if len(refs[name]) < wanted:
            print(f"{name}: too few passing seeds", file=sys.stderr)
            return 1
        first = min(refs[name], key=int)
        rec = Runner(root, name, int(first), refs=refs[name][first]).spawn(trace=True)
        if rec is None:
            print(f"{name}: traced repetition failed", file=sys.stderr)
            return 1
        prints[name] = {first: {k: rec["layers"].get(k, 0) for k in counted}}
    refs["excluded"] = {k: v for k, v in excluded.items() if v}
    (BENCH / "refs.json").write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")
    (BENCH / "fingerprint.json").write_text(
        json.dumps(prints, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
