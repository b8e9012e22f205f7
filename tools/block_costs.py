#!/usr/bin/env python3
"""Per-block cost of a table reproduction, measured where each block ran.

    python3 tools/block_costs.py tab2 --k 20 50 --reps 2000 --workers 2
    python3 tools/block_costs.py powerCM --k 50 --sizes 5,10 --d 5 \\
        --reps 32 --block-size 16 --workers 2
    python3 tools/block_costs.py tab4 --k 750 --sizes 30,30 --reps 266 \\
        --workers 2 --src ../parent/src

Runs ``grouphom.simulate.reproduce_table`` on the restricted grid with
``simulate._run_block`` wrapped, so that the process that runs a block
(a pool worker, or this process at one worker) measures it: wall time,
CPU time of the whole process (its bootstrap threads included), minor
page faults and the process's peak RSS after the block, with the number
of blocks that process ran before it (a first block also pays for the
heap it grows).  Prints one line per block, sorted by cell (setting, d,
k, sizes, pi0) and replicates, then each process's block count and peak
RSS.
``--block-size`` splits every cell into blocks of that many replicates
(the outputs do not depend on it), so that small runs reach the pool.
``--src`` imports grouphom from another checkout's ``src`` directory, to
compare two revisions with the same script.  Standard library and the
package only; Linux or another system with ``fork`` and ``resource``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Set in main() before the table runs, so forked workers inherit them.
_run_block = None
_log = None
_blocks_before = 0  # blocks this process measured so far


def measured_block(task):
    """``_run_block(task)``, with its costs appended to the log file."""
    global _blocks_before
    faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    cpu0, t0 = time.process_time(), time.perf_counter()
    out = _run_block(task)
    wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    usage = resource.getrusage(resource.RUSAGE_SELF)
    spec = task.spec
    record = {"pid": os.getpid(), "before": _blocks_before,
              "cell": [spec.setting, spec.d, spec.k, spec.n1, spec.n2, spec.pi0],
              "replicates": [task.start, task.stop], "processes": task.processes,
              "wall_ms": 1e3 * wall, "cpu_ms": 1e3 * cpu,
              "minor_faults": usage.ru_minflt - faults0,
              "peak_rss_mb": usage.ru_maxrss / 1024.0}
    with open(_log, "a") as fh:  # one short append per block
        fh.write(json.dumps(record) + "\n")
    _blocks_before += 1
    return out


def main(argv=None) -> int:
    global _run_block, _log
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("table", help="table id, e.g. tab2")
    parser.add_argument("--k", type=int, nargs="+", help="k values")
    parser.add_argument("--sizes", nargs="+", help="size pairs as N1,N2")
    parser.add_argument("--d", type=int, nargs="+", help="d values")
    parser.add_argument("--reps", type=int, required=True)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--block-size", type=int,
                        help="replicates per block (default: the engine's)")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the grouphom package")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(args.src.resolve()))
    from grouphom import simulate

    _run_block = simulate._run_block
    simulate._run_block = measured_block
    if args.block_size is not None:
        simulate._block_size = lambda spec: args.block_size
    sizes = [tuple(int(n) for n in s.split(",")) for s in args.sizes or ()]
    with tempfile.TemporaryDirectory(prefix="block-costs-") as tmp:
        _log = os.path.join(tmp, "blocks.jsonl")
        open(_log, "w").close()
        t0 = time.perf_counter()
        simulate.reproduce_table(args.table, reps=args.reps,
                                 workers=args.workers, k_values=args.k,
                                 size_pairs=sizes or None, d_values=args.d)
        total = time.perf_counter() - t0
        with open(_log) as fh:
            records = [json.loads(line) for line in fh]

    print(f"grouphom from {Path(simulate.__file__).parent}; {args.table}, "
          f"{args.reps} replicates, {args.workers} workers: {total:.3f} s")
    print("pid      before setting  d     k  n1  n2  pi0  replicates   processes"
          "  wall ms   cpu ms  minor faults  peak RSS MB")
    main_pid = os.getpid()
    for r in sorted(records, key=lambda r: ([-1 if v is None else v for v in r["cell"]],
                                            r["replicates"])):
        setting, d, k, n1, n2, pi0 = r["cell"]
        start, stop = r["replicates"]
        print(f"{r['pid']:<8d} {r['before']:6d} {setting:7d} {d:2d} {k:5d} "
              f"{n1:3d} {n2:3d} {'-' if pi0 is None else pi0:>4} "
              f"{start:5d}-{stop:<5d} {r['processes']:10d} "
              f"{r['wall_ms']:8.1f} {r['cpu_ms']:8.1f} "
              f"{r['minor_faults']:13d} {r['peak_rss_mb']:12.1f}")
    for pid in sorted({r["pid"] for r in records}):
        mine = [r for r in records if r["pid"] == pid]
        where = "this process" if pid == main_pid else "pool worker"
        print(f"{where} {pid}: {len(mine)} blocks, peak RSS "
              f"{max(r['peak_rss_mb'] for r in mine):.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
