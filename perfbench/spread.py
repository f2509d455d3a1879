#!/usr/bin/env python3
"""Spread report: run the benchmark over several seeds and summarise.

From the repository root::

    python3 perfbench/spread.py --workloads fig5-sweep,serve-fresh --seeds 1-10
    python3 perfbench/spread.py --seeds 11-20 --compare .bench_build/perfbench/spread-A.json

For each workload and metric it prints the run count, median,
quartiles (``statistics.quantiles(values, n=4)``), min and max, and the
interquartile range as a share of the median next to the metric's
``bound`` from ``BENCHMARK.json``.  ``--compare`` adds the change of
each median against an earlier report.  Raw results are written to
``--out`` (default ``.bench_build/perfbench/spread-<time>.json``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def seed_range(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", default=None, help="earlier --out file")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    metric_spec = spec["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metric_spec}
    runs = {}
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in seed_range(args.seeds):
            result = run_once(workload, seed, args.seconds, args.trace)
            runs[workload].append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"wall={result['wall_s']:.1f}s", flush=True)

    earlier = json.loads(Path(args.compare).read_text()) if args.compare else {}
    print(f"\n{'workload':<13} {'metric':<24} {'n':>3} {'median':>11} {'q1':>11} "
          f"{'q3':>11} {'min':>11} {'max':>11} {'iqr/med':>8} {'bound':>6}"
          + (f" {'drift':>7}" if earlier else ""))
    for workload, results in runs.items():
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds[name]
            row = (f"{workload:<13} {name:<24} {len(values):>3} {med:>11.5g} {q1:>11.5g} "
                   f"{q3:>11.5g} {min(values):>11.5g} {max(values):>11.5g} {spread:>8.4f} "
                   f"{bound if bound is not None else '-':>6}")
            if workload in earlier:
                old = statistics.median(r["metrics"][name]["value"] for r in earlier[workload])
                row += f" {(med - old) / old if old else 0.0:>+7.4f}"
            print(row)
        walls = [r["wall_s"] for r in results]
        print(f"{workload:<13} {'(run wall time, s)':<24} {len(walls):>3} "
              f"{statistics.median(walls):>11.5g} {'':>11} {'':>11} {min(walls):>11.5g} "
              f"{max(walls):>11.5g}")

    out = Path(args.out).resolve() if args.out else (
        ROOT / ".bench_build" / "perfbench" / f"spread-{time.strftime('%Y%m%d-%H%M%S')}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(runs, indent=1))
    print(f"\nraw results: {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
