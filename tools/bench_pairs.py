#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, written to BENCH_<tag>.json.

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --tag pr10 \\
        --workloads level-table cli-test --first-seed 3001 --pairs 10

Extracts each revision with ``git archive`` into its own directory, so
both sides run committed files only.  For every workload and seed it runs
``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0``
once per side, the parent first on even pair indices and the change first
on odd ones, and keeps each run's last output line (a JSON object) tagged
with its side, commit, workload and seed.  ``--traced-seed S1 S2 ...``
adds one ``--trace 1`` run per side, workload and seed, in the same
alternating order, and records each side's median of every per-layer
metric over those seeds (one traced run's layers swing too much to
compare).  The file records the host (CPU count and model, Python, numpy
and scipy versions) and, per workload and end-to-end metric, each side's
quartiles, the relative change of the median, the pairs in which the
change is lower and the parent's interquartile range.  Standard library
only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = ("setup_s", "wall_s", "cpu_s", "peak_rss_mb", "cold_start_s")


def git(*args: str) -> str:
    return subprocess.run(("git", *args), cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def extract(commit: str, into: Path) -> Path:
    """The tree of ``commit`` under ``into``, from ``git archive``."""
    tar = into.with_suffix(".tar")
    git("archive", "--format=tar", "-o", str(tar), commit)
    # the "data" filter exists from Python 3.11.4 and 3.10.12
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(tar) as archive:
        archive.extractall(into, **safe)
    tar.unlink()
    return into


def host() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    versions = {}
    for name in ("numpy", "scipy"):
        try:
            versions[name] = metadata.version(name)
        except metadata.PackageNotFoundError:
            versions[name] = None
    return {"nproc": nproc, "cpu": cpu,
            "python": platform.python_version(), **versions}


def run(tree: Path, workload: str, seed: int, seconds: float,
        trace: int) -> dict:
    """One ``perfbench/run.py`` run: its last line, or why there is none."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=60 * seconds + 600)
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        record = {"correct": False, "error": proc.stderr[-2000:]}
    return {"returncode": proc.returncode, **record}


def quartiles(values: list[float]) -> list[float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, median, q3]


def summarize(runs: list[dict], workload: str) -> dict:
    pairs: dict[int, dict] = {}
    for r in runs:
        if r["workload"] == workload:
            pairs.setdefault(r["seed"], {})[r["side"]] = r
    seeds = sorted(s for s, p in pairs.items() if len(p) == 2)
    out: dict = {"pairs": len(seeds), "seeds": seeds}
    for metric in END_TO_END:
        try:
            parent = [pairs[s]["parent"]["metrics"][metric]["value"] for s in seeds]
            change = [pairs[s]["change"]["metrics"][metric]["value"] for s in seeds]
        except KeyError:
            continue
        if len(seeds) < 2:
            continue
        p, c = quartiles(parent), quartiles(change)
        out[metric] = {
            "parent_q1_median_q3": p,
            "change_q1_median_q3": c,
            "median_change": c[1] / p[1] - 1.0,
            "change_lower_in_pairs": sum(b < a for a, b in zip(parent, change)),
            "parent_iqr": p[2] - p[0],
        }
    for side in ("parent", "change"):
        out[f"{side}_failed_of_attempted"] = [
            [pairs[s][side].get("failed"), pairs[s][side].get("attempted")]
            for s in seeds]
        out[f"{side}_correct"] = all(pairs[s][side].get("correct") for s in seeds)
    return out


def layer_medians(traced: list[dict], workload: str) -> dict:
    """Each side's median, over the traced seeds, of every per-layer
    metric of ``workload``."""
    runs = [r for r in traced if r["workload"] == workload]
    out: dict = {"seeds": sorted({r["seed"] for r in runs})}
    for side in ("parent", "change"):
        values: dict[str, list[float]] = {}
        for r in runs:
            if r["side"] == side:
                for metric, m in r.get("metrics", {}).items():
                    if metric not in END_TO_END:
                        values.setdefault(metric, []).append(m["value"])
        out[side] = {metric: statistics.median(v) for metric, v in values.items()}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="base revision")
    parser.add_argument("--change", required=True, help="changed revision")
    parser.add_argument("--tag", required=True, help="writes BENCH_<tag>.json")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--traced-seed", type=int, nargs="+", default=[],
                        help="also one --trace 1 run per side, workload and "
                             "seed, with per-layer medians per side")
    parser.add_argument("--out", type=Path,
                        help="output file (default BENCH_<tag>.json at the root)")
    args = parser.parse_args(argv)

    commits = {"parent": git("rev-parse", args.parent),
               "change": git("rev-parse", args.change)}
    seeds = range(args.first_seed, args.first_seed + args.pairs)
    out = args.out or ROOT / f"BENCH_{args.tag}.json"
    result = {
        "command": f"python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {args.seconds:g} --trace 0",
        "pairs": "parent first on even pair indices, change first on odd "
                 "ones; each side in its own git archive tree",
        "commits": commits,
        "host": host(),
        "summary": {},
        "runs": [],
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: extract(commit, Path(tmp) / side)
                 for side, commit in commits.items()}
        for workload in args.workloads:
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    record = run(trees[side], workload, seed, args.seconds, 0)
                    result["runs"].append({"side": side, "commit": commits[side],
                                           "workload": workload, "seed": seed,
                                           **record})
                    print(f"{workload} seed {seed} {side}: "
                          f"rc={record['returncode']} "
                          f"correct={record.get('correct')} "
                          f"failed={record.get('failed')}/{record.get('attempted')}",
                          flush=True)
            result["summary"][workload] = summarize(result["runs"], workload)
            out.write_text(json.dumps(result, indent=1) + "\n")
        if args.traced_seed:
            result["traced_command"] = (
                f"python3 perfbench/run.py --workload W --seed S "
                f"--seconds {args.seconds:g} --trace 1")
            result["traced_runs"] = [
                {"side": side, "commit": commits[side], "workload": workload,
                 "seed": seed,
                 **run(trees[side], workload, seed, args.seconds, 1)}
                for workload in args.workloads
                for i, seed in enumerate(args.traced_seed)
                for side in (("parent", "change") if i % 2 == 0
                             else ("change", "parent"))]
            result["traced_summary"] = {
                workload: layer_medians(result["traced_runs"], workload)
                for workload in args.workloads}
    out.write_text(json.dumps(result, indent=1) + "\n")

    for workload, summary in result["summary"].items():
        seeds = summary["seeds"]
        print(f"\n{workload}: {summary['pairs']} pairs"
              + (f", seeds {seeds[0]}-{seeds[-1]}" if seeds else ""))
        for metric in END_TO_END:
            if metric not in summary:
                continue
            m = summary[metric]
            p, c = m["parent_q1_median_q3"], m["change_q1_median_q3"]
            print(f"  {metric:13s} parent {p[1]:.4g} [{p[0]:.4g}-{p[2]:.4g}]"
                  f" -> change {c[1]:.4g} [{c[0]:.4g}-{c[2]:.4g}]"
                  f"  {100 * m['median_change']:+.1f}%"
                  f"  change lower in {m['change_lower_in_pairs']}/{summary['pairs']}"
                  f"  parent iqr {m['parent_iqr']:.4g}")
        for side in ("parent", "change"):
            failed = summary[f"{side}_failed_of_attempted"]
            print(f"  {side}: correct={summary[f'{side}_correct']}, failed "
                  f"{sum(f or 0 for f, _ in failed)} of "
                  f"{sum(a or 0 for _, a in failed)} operations")
    for r in result.get("traced_runs", []):
        print(f"traced {r['workload']} seed {r['seed']} {r['side']}: "
              f"correct={r.get('correct')} "
              f"failed={r.get('failed')}/{r.get('attempted')}")
    for workload, layers in result.get("traced_summary", {}).items():
        print(f"\n{workload}: per-layer medians over traced seeds "
              f"{layers['seeds']} (parent -> change)")
        for metric, value in layers["parent"].items():
            change = layers["change"].get(metric)
            if value or change:
                print(f"  {metric:45s} {value:.4g} -> "
                      + ("n/a" if change is None else f"{change:.4g}"))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
