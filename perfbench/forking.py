"""Run one operation in a forked child and measure it there.

Kept apart from the workloads so that ``run.py`` can time whole set-ups
in children forked before numpy, scipy or grouphom are imported.
"""

from __future__ import annotations

import os
import pickle
import resource
import sys
import time
import traceback


def cpu_seconds() -> float:
    """User plus system time of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def forked(fn):
    """Run ``fn()`` in a forked child; return its result with the child's
    wall time, CPU time (its reaped children included) and peak RSS in MB."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        status = 1
        try:
            cpu0, t0 = cpu_seconds(), time.perf_counter()
            output = fn()
            wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            payload = pickle.dumps((True, (output, wall, cpu, rss)))
        except Exception:
            payload = pickle.dumps((False, traceback.format_exc()))
        try:
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(payload)
            status = 0
        finally:
            # Never return into the parent's code.
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        payload = fh.read()
    os.waitpid(pid, 0)
    if not payload:
        raise RuntimeError("forked operation ended without a result")
    ok, result = pickle.loads(payload)
    if not ok:
        raise RuntimeError(f"forked operation failed:\n{result}")
    return result
