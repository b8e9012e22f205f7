#!/usr/bin/env python3
"""Cost of ``grouphom.load_dataset`` on setting-3 CSVs of k groups.

    python3 tools/load_costs.py --k 1000 10000 100000
    python3 tools/load_costs.py --k 10000 --repeats 7 --src ../parent/src

Writes one CSV per k (setting 3, d = 5, sizes (5, 10), pi0 = 2,
replicate 0 of seed 2501, in the package's own CSV format) to a
temporary directory, then loads each in forked children of this process,
which has already imported the package, so no load pays for imports.
Each of ``--repeats`` children times one ``load_dataset`` call (wall
clock) and reports its peak RSS growth (``ru_maxrss`` after the load
less before it); one more child reports the tracemalloc peak of a load.
Prints, per k, the file size, the median wall time, the median RSS
growth and the tracemalloc peak.  ``--src`` imports grouphom from
another checkout's ``src`` directory, to compare two revisions with the
same script and the same files.  Standard library and the package only;
Linux or another system with ``fork`` and ``resource``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 2501


def in_child(measure):
    """``measure()`` run in a forked child; its JSON-able result."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: measure, report, leave without cleanup
        os.close(read)
        code = 0
        try:
            os.write(write, json.dumps(measure()).encode())
        except BaseException:
            code = 1
        finally:
            os._exit(code)
    os.close(write)
    with os.fdopen(read, "rb") as fh:
        out = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"child {pid} failed with status {status}")
    return json.loads(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--k", type=int, nargs="+", default=[1000, 10000, 100000],
                        help="group counts (default: 1000 10000 100000)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed children per k (default: 5)")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the grouphom package")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    sys.path.insert(0, str(args.src.resolve()))
    import grouphom
    from grouphom.data import load_dataset, write_dataset_csv
    from grouphom.simulate import SettingSpec, generate_replicate

    def timed(path):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        t0 = time.perf_counter()
        load_dataset(path)
        wall = time.perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {"wall_s": wall, "rss_growth_mb": (after - before) / 1024.0}

    def traced(path):
        tracemalloc.start()
        load_dataset(path)
        return {"peak_mb": tracemalloc.get_traced_memory()[1] / 2**20}

    print(f"grouphom from {Path(grouphom.__file__).parent}; "
          f"{args.repeats} timed loads per k")
    print("       k   file MB   median ms   RSS growth MB   tracemalloc MB")
    with tempfile.TemporaryDirectory(prefix="load-costs-") as tmp:
        for k in args.k:
            path = os.path.join(tmp, f"setting3-k{k}.csv")
            ds, _ = generate_replicate(SettingSpec(3, 5, k, 5, 10, pi0=2,
                                                   master_seed=SEED), 0)
            write_dataset_csv(ds, path)
            runs = [in_child(lambda: timed(path)) for _ in range(args.repeats)]
            peak = in_child(lambda: traced(path))["peak_mb"]
            wall = statistics.median(r["wall_s"] for r in runs)
            growth = statistics.median(r["rss_growth_mb"] for r in runs)
            print(f"{k:8d} {os.path.getsize(path) / 2**20:9.2f} "
                  f"{1e3 * wall:11.1f} {growth:15.2f} {peak:16.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
