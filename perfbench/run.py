#!/usr/bin/env python3
"""grouphom benchmark: CSV-to-verdict and Monte Carlo table workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload from a source checkout (grouphom is imported from
``src/`` beside this directory), drives the package only through its
public functions and ``grouphom.cli.main``, checks every output against
independent computations (``checks.py``) and prints, as the last line of
standard output, a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs the traced pass and reports the per-layer metrics.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import forking
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("cli-test", "cli-pergroup", "level-table", "resample-cell")
SETUP_REPEATS = 5
# Alternating pairs behind simulate.worker_speedup and trace.overhead_s.
PAIRS = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "cold_start_s": "s",
}
PER_LAYER = {
    "data.read_counts_csv_s": "s",
    "data.validate_dataset_s": "s",
    "data.load_peak_mb": "MB",
    "ustat.aggregate_statistic_s": "s",
    "ustat.aggregate_statistic_calls": "count",
    "ustat.group_ustat_calls": "count",
    "batch.var_group_s": "s",
    "batch.tu_group_s": "s",
    "batch.chi2_group_s": "s",
    "batch.lrt_group_s": "s",
    "variance.var0_bootstrap_s": "s",
    "classical.chi_square_pooled_s": "s",
    "classical.moments_oracle_s": "s",
    "decision.run_global_test_self_s": "s",
    "decision.pergroup_bootstrap_pvalues_self_s": "s",
    "decision.adjust_pvalues_s": "s",
    "cli.self_s": "s",
    "cli.import_s": "s",
    "cli.import_scipy_stats_s": "s",
    "simulate.replicate_rng_s": "s",
    "simulate.rng_constructions": "count",
    "simulate.conditional_binomial_s": "s",
    "simulate.conditional_binomial_calls": "count",
    "simulate.draw_replicate_self_s": "s",
    "simulate.run_block_self_s": "s",
    "simulate.bootstrap_vectors_per_s": "1/s",
    "simulate.blocks": "count",
    "simulate.run_cell_self_s": "s",
    "simulate.pool_starts": "count",
    "simulate.reproduce_table_self_s": "s",
    "simulate.worker_speedup": "ratio",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def import_grouphom() -> dict:
    """Import grouphom from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    from grouphom import _batch, classical, cli, data, decision, simulate, ustat

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"grouphom imported from {cli.__file__}, not {SRC}")
    return {
        "_batch": _batch, "classical": classical, "cli": cli, "data": data,
        "decision": decision, "simulate": simulate, "ustat": ustat,
    }


def setup(args, workdir):
    """Import grouphom, write the inputs and warm up.  An untraced run
    first does the whole set-up SETUP_REPEATS - 1 times in children forked
    from this process, which has imported neither grouphom nor numpy,
    then once here, and reports the median wall time as ``setup_s``."""
    names = WORKLOADS if args.trace else (args.workload,)

    def set_up():
        gh = import_grouphom()
        import workloads as wl

        loads = {n: wl.CLASSES[n](n, gh, args.seed, ROOT, workdir) for n in names}
        for w in loads.values():
            w.prepare()
        loads[args.workload].warm_up()
        return wl, gh, loads

    def set_up_and_discard():
        set_up()

    if args.trace:
        return (*set_up(), None)
    times = [forking.forked(set_up_and_discard)[1] for _ in range(SETUP_REPEATS - 1)]
    t0 = time.perf_counter()
    loaded = set_up()
    times.append(time.perf_counter() - t0)
    print("set-ups: " + ", ".join(f"{t:.3f}" for t in times), file=sys.stderr)
    return (*loaded, statistics.median(times))


def measure(args, workdir):
    wl, _, loads, setup_s = setup(args, workdir)
    w = loads[args.workload]
    ops = wl.Ops()
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        rounds.append(w.round(ops))
        print(f"round {len(rounds)}: " + ", ".join(f"{m} {v:.4f}" for m, v in rounds[-1].items()),
              file=sys.stderr)
    if isinstance(w, wl.LevelTable):
        ops.errors.extend(w.check_workers())
    metrics = {"setup_s": setup_s}
    for name in END_TO_END:
        if name != "setup_s":
            metrics[name] = statistics.median(r[name] for r in rounds if name in r)
    return ops, metrics


def level_table_pools(level, simulate, workers):
    """The level table at ``workers`` workers, with the pools it starts."""
    pools = tracing.PoolCounter(simulate.multiprocessing)
    with tracing.patched([(simulate, "multiprocessing", pools)]):
        return level.run(workers=workers), pools.pools


def traced_main(w, gh):
    """The main operation under a fresh tracer; returns both."""
    tracer = tracing.Tracer()
    with tracing.patched(tracing.grouphom_targets(tracer, gh)):
        with tracer.trace(w.name):
            # One worker for the table, so no span is lost in a pool worker.
            output = w.run(workers=1) if w.name == "level-table" else w.run()
    return output, tracer


def measure_traced(args, workdir):
    """One untraced round of the named workload, counted like any run;
    PAIRS alternating pairs of untraced level tables at one and two
    workers; PAIRS alternating pairs of the named workload's main
    operation untraced and traced; then every workload's main operation
    once under the tracer.  Every timed operation runs in a child forked
    from the same set-up state, so all start from the same heap."""
    wl, gh, loads, _ = setup(args, workdir)
    own = loads[args.workload]
    ops = wl.Ops()
    own.round(ops)

    level = loads["level-table"]
    walls = {1: [], wl.LEVEL_WORKERS: []}
    outputs = {}
    pools = 0
    for pair in range(PAIRS):
        order = (1, wl.LEVEL_WORKERS) if pair % 2 == 0 else (wl.LEVEL_WORKERS, 1)
        for workers in order:
            (rows, pool_count), wall, _, _ = forking.forked(
                lambda: level_table_pools(level, gh["simulate"], workers)
            )
            walls[workers].append(wall)
            outputs.setdefault(workers, rows)
            if workers > 1:
                pools = pool_count
    if outputs[1] != outputs[wl.LEVEL_WORKERS]:
        ops.errors.append("tab2 rows differ between one and two workers")
    speedup = statistics.median(a / b for a, b in zip(walls[1], walls[wl.LEVEL_WORKERS]))

    def main_op(traced):
        if traced:
            return traced_main(own, gh)
        return own.run(workers=1) if own is level else own.run()

    overheads = []
    for pair in range(PAIRS):
        wall = {}
        for traced in ((False, True) if pair % 2 == 0 else (True, False)):
            wall[traced] = forking.forked(lambda: main_op(traced))[1]
        overheads.append(wall[True] - wall[False])

    tracer = tracing.Tracer()
    traced_wall = {}
    for w in loads.values():
        (output, part), traced_wall[w.name], _, _ = forking.forked(lambda: traced_main(w, gh))
        tracer.merge(part)
        errors = w.checked(output)
        if w.first is not None and not w.same(output):
            errors.append("differs from the untraced output")
        ops.errors.extend(f"traced {w.name}: {e}" for e in errors)

    env = dict(os.environ, PYTHONPATH=str(SRC))
    import_s, import_scipy_s = tracing.import_times(sys.executable, env, ROOT)
    load_peak_mb = traced_load_peak(gh, loads["cli-test"].csv)

    total = tracer.total_self_time
    calls = tracer.calls
    resample_vectors = wl.RESAMPLE_REPS * wl.RESAMPLE_K * 2 * (wl.TEST7_B + wl.MINP_B)
    metrics = {
        "data.read_counts_csv_s": total("data.read_counts_csv"),
        "data.validate_dataset_s": total("data.validate_dataset"),
        "data.load_peak_mb": load_peak_mb,
        "ustat.aggregate_statistic_s": total("ustat.aggregate_statistic"),
        "ustat.aggregate_statistic_calls": calls["ustat.aggregate_statistic"],
        "ustat.group_ustat_calls": calls["ustat.group_ustat"],
        "batch.var_group_s": total("batch.var_group"),
        "batch.tu_group_s": total("batch.tu_group"),
        "batch.chi2_group_s": total("batch.chi2_group"),
        "batch.lrt_group_s": total("batch.lrt_group"),
        "variance.var0_bootstrap_s": total("variance.var0_bootstrap"),
        "classical.chi_square_pooled_s": total("classical.chi_square_pooled"),
        "classical.moments_oracle_s": total("classical.moments_oracle"),
        "decision.run_global_test_self_s": total("decision.run_global_test"),
        "decision.pergroup_bootstrap_pvalues_self_s": total("decision.pergroup_bootstrap_pvalues"),
        "decision.adjust_pvalues_s": total("decision.adjust_pvalues"),
        "cli.self_s": total("cli.main"),
        "cli.import_s": import_s,
        "cli.import_scipy_stats_s": import_scipy_s,
        "simulate.replicate_rng_s": total("simulate.replicate_rng"),
        "simulate.rng_constructions": calls["simulate.replicate_rng"],
        "simulate.conditional_binomial_s": total("simulate.conditional_binomial"),
        "simulate.conditional_binomial_calls": calls["simulate.conditional_binomial"],
        "simulate.draw_replicate_self_s": total("simulate.draw_replicate"),
        "simulate.run_block_self_s": total("simulate.run_block"),
        "simulate.bootstrap_vectors_per_s": resample_vectors
        / tracer.self_time[("resample-cell", "simulate.run_block")],
        "simulate.blocks": calls["simulate.run_block"],
        "simulate.run_cell_self_s": total("simulate.run_cell"),
        "simulate.pool_starts": pools,
        "simulate.reproduce_table_self_s": total("simulate.reproduce_table"),
        "simulate.worker_speedup": speedup,
        "trace.overhead_s": statistics.median(overheads),
        "trace.spans": len(tracer.spans),
    }
    tracer.write(
        WORK / f"trace-{args.workload}-seed{args.seed}.json",
        {"workload": args.workload, "seed": args.seed, "traced_wall_s": traced_wall,
         "overhead_pairs_s": overheads, "metrics": metrics},
    )
    return ops, metrics


def traced_load_peak(gh, path) -> float:
    """tracemalloc peak of one CSV load, in MB."""
    import tracemalloc

    tracemalloc.start()
    try:
        gh["data"].load_dataset(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "grouphom").is_dir():
        print(f"error: no grouphom package under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        ops, metrics = (measure_traced if args.trace else measure)(args, workdir)
    except ImportError as exc:
        print(f"error: cannot import grouphom from {SRC}: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    for error in ops.errors:
        print(f"check failed: {error}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(f"{args.workload} operations: {ops.attempted} attempted, {ops.failed} failed")
    print(json.dumps({
        "correct": not ops.errors,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {n: {"value": float(v), "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
