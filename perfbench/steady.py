#!/usr/bin/env python3
"""Steadiness of the benchmark's end-to-end metrics.

    python3 perfbench/steady.py [--first-seed 1]

Runs ``run.py`` once for each of RUNS seeds on every workload of
BENCHMARK.json, with its run length, and prints per workload and metric
the median, the quartiles (``statistics.quantiles(n=4)``) and the spread
(q3 - q1) / median against the metric's bound.  A spread under a third
of its bound is marked ``ok``.  Every run's share of failed operations
is printed too.  The raw results go to
``.perfbench_work/steady-<first seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def run_once(workload, seed, seconds) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    results = {}
    steady = True
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in range(args.first_seed, args.first_seed + RUNS):
            runs.append(run_once(workload, seed, bench["run_seconds"]))
            print(f"{workload} seed {seed}: {json.dumps(runs[-1])}", file=sys.stderr)
        results[workload] = runs
        shares = sorted({f"{r['failed']}/{r['attempted']}" for r in runs})
        correct = all(r["correct"] for r in runs)
        print(f"\n{workload}: correct in every run: {correct}; failed/attempted: {', '.join(shares)}")
        print(f"  {'metric':<14}{'median':>11}{'q1':>11}{'q3':>11}{'spread':>9}{'bound':>7}  verdict")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            median, q1, q3, spread = summarize(values)
            ok = spread < bound / 3
            steady &= ok and correct
            print(f"  {name:<14}{median:>11.4f}{q1:>11.4f}{q3:>11.4f}"
                  f"{spread:>9.3f}{bound:>7.2f}  {'ok' if ok else 'WIDE'}")
    out = ROOT / ".perfbench_work" / f"steady-{args.first_seed}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results))
    print(f"\nraw results: {out}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
