"""The four workloads: inputs, main operation, small operations, checks.

A round is the workload's main operation, then a cold-start CLI call in a
fresh interpreter (in every round of the CLI workloads, in the first
three of the others), then for the CLI workloads one small fixed
operation: for ``cli-test`` the same small test on a CSV whose header
starts with a UTF-8 byte-order mark, for ``cli-pergroup`` per-group
p-values of twelve tie-heavy groups.
The first round's output is checked against ``checks.py``; later rounds
must reproduce it.

The main operation runs in a child forked from the set-up process, so
every round starts from the same heap, as a CLI call starts from a fresh
one.  Repeated in one process, ``grouphom test`` at k = 10^4 slowed by a
third over five calls: validation scans a list of group-id strings that
later calls allocate ever more scattered.

The CLI and resample operations are half the size the workloads were
first sized at (k = 10^4 and 5000 groups, 100 replicates): back-to-back
calls vary by 10-15% on a shared 2-core machine, and a run needs as many
rounds as it can hold for its medians to hold still.  The level table keeps 2000
replicates: at 1024 or fewer a cell is one block, and the engine starts
no worker pool at all.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import checks
import forking
import inputs

LEVEL_REPS = 2000
LEVEL_K = (20, 50)
LEVEL_WORKERS = 2
RESAMPLE_TESTS = ("test7", "minp", "chi2", "wk", "vk", "wkprime", "vkprime")
RESAMPLE_REPS = 50
RESAMPLE_K = 50
TEST7_B = 200
MINP_B = 1000
PERGROUP_B = 1000
EXACT_SAMPLE = 40
# The tie operation: bootstrap size and the seed handed to grouphom, fixed
# so that its outcome does not depend on --seed.
TIES_B = 20_000
TIES_SEED = 1


class Ops:
    """Counts operations attempted and failed, and collects check errors."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, ok: bool, errors=()):
        self.attempted += 1
        self.failed += not ok
        self.errors.extend(errors)


class Workload:
    # Rounds that also time the cold-start call; None means every round.
    cold_start_rounds = None

    def __init__(self, name, gh, seed, root: Path, workdir: Path):
        self.name = name
        self.gh = gh
        self.seed = seed
        self.root = root
        self.dir = workdir / name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.program_seed = inputs.program_seed(seed, name)
        self.first = None
        self.rounds = 0

    def prepare(self):
        """Write this workload's inputs (always the same for one seed)."""
        self.small = inputs.setting3_counts(
            inputs.input_rng(self.seed, "small"), inputs.K_SMALL
        )
        self.small_csv = self.dir / "small.csv"
        inputs.write_counts_csv(self.small_csv, *self.small)

    def warm_up(self):
        raise NotImplementedError

    def run(self):
        """The main operation; its output is what ``check`` reads."""
        raise NotImplementedError

    def succeeded(self, output) -> bool:
        return True

    def check(self, output) -> list[str]:
        raise NotImplementedError

    def checked(self, output) -> list[str]:
        """``check``, with a check that raises reported as a failed check."""
        try:
            return self.check(output)
        except Exception:
            return [f"{self.name}: check raised {traceback.format_exc()}"]

    def same(self, output) -> bool:
        return output == self.first

    def cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.gh["cli"].main([str(a) for a in argv])
        return rc, out.getvalue(), err.getvalue()

    def small_test_argv(self, path):
        return ["test", path, "--estimator", "all", "--format", "json",
                "--seed", self.program_seed]

    def cold_start(self, ops: Ops) -> float:
        """``grouphom test SMALL.csv --estimator all`` in a fresh process."""
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        argv = [sys.executable, "-m", "grouphom.cli"]
        argv += [str(a) for a in self.small_test_argv(self.small_csv)]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                              cwd=self.root, timeout=120)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            ops.record(False, [f"cold start exit {proc.returncode}: {proc.stderr[-300:]}"])
        else:
            ops.record(True, checks.check_statistic(json.loads(proc.stdout), *self.small))
        return elapsed

    def small_ops(self, ops: Ops):
        pass

    def round(self, ops: Ops) -> dict:
        """The main operation, timed, then the small operations."""
        output, wall, cpu, rss = forking.forked(self.run)
        if self.first is None:
            self.first = output
            errors = self.checked(output)
        else:
            errors = [] if self.same(output) else [f"{self.name}: output differs from round 1"]
        ops.record(self.succeeded(output), errors)
        self.rounds += 1
        times = {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss}
        if self.cold_start_rounds is None or self.rounds <= self.cold_start_rounds:
            times["cold_start_s"] = self.cold_start(ops)
        self.small_ops(ops)
        return times


class CliWorkload(Workload):
    def succeeded(self, output):
        return output[0] == 0

    def payload(self, output):
        rc, out, err = output
        if rc != 0:
            return None, [f"{self.name}: exit {rc}: {err.strip()[-300:]}"]
        return json.loads(out), []


class CliTest(CliWorkload):
    """``grouphom test CSV --estimator all`` at k = 5000: ingest, the six
    closed-form estimators and the library test7 bootstrap."""

    def prepare(self):
        super().prepare()
        self.counts = inputs.setting3_counts(
            inputs.input_rng(self.seed, self.name), inputs.K_TEST
        )
        self.csv = self.dir / "test.csv"
        inputs.write_counts_csv(self.csv, *self.counts)
        self.bom_csv = self.dir / "small_bom.csv"
        inputs.write_counts_csv(self.bom_csv, *self.small, bom=True)

    def warm_up(self):
        self.cli(self.small_test_argv(self.small_csv))

    def run(self):
        return self.cli(self.small_test_argv(self.csv))

    def check(self, output):
        payload, errors = self.payload(output)
        return errors or checks.check_test_payload(payload, *self.counts, bootstrap_b=TEST7_B)

    def small_ops(self, ops):
        # Spreadsheet programs write a UTF-8 byte-order mark before the
        # header; the same data must give the same statistic.
        try:
            rc, out, _ = self.cli(self.small_test_argv(self.bom_csv))
        except Exception:
            rc = None
        if rc != 0:
            ops.record(False)
        else:
            ops.record(True, checks.check_statistic(json.loads(out), *self.small))


class CliPergroup(CliWorkload):
    """``grouphom pergroup CSV`` at k = 2500 with the default B = 1000."""

    def prepare(self):
        super().prepare()
        rng = inputs.input_rng(self.seed, self.name)
        self.counts = inputs.setting3_counts(rng, inputs.K_PERGROUP)
        self.sample = rng.choice(inputs.K_PERGROUP, EXACT_SAMPLE, replace=False)
        self.csv = self.dir / "pergroup.csv"
        inputs.write_counts_csv(self.csv, *self.counts)
        self.ties = inputs.tie_counts()
        self.ties_csv = self.dir / "ties.csv"
        inputs.write_counts_csv(self.ties_csv, *self.ties)

    def argv(self, path):
        return ["pergroup", path, "--seed", self.program_seed, "--format", "json"]

    def warm_up(self):
        self.cli(self.argv(self.small_csv))

    def run(self):
        return self.cli(self.argv(self.csv))

    def check(self, output):
        payload, errors = self.payload(output)
        if errors:
            return errors
        # Some of the sampled groups carry enough tie mass for the tie
        # fault (see small_ops) to show, so here a tie may count either way.
        return checks.check_pergroup_payload(payload, *self.counts) + checks.tail_misses(
            payload, *self.counts, self.sample, PERGROUP_B, ties_either_way=True
        )

    def small_ops(self, ops):
        # p_raw is the share of bootstrap statistics strictly above the
        # observed one; on these groups, counting ties as exceedances
        # moves it by many binomial standard errors.
        output = self.cli(["pergroup", self.ties_csv, "--seed", TIES_SEED,
                           "--bootstrap-b", TIES_B, "--format", "json"])
        payload, errors = self.payload(output)
        if errors:
            ops.record(False, errors)
            return
        errors = checks.check_pergroup_payload(payload, *self.ties)
        groups = range(len(inputs.TIE_GROUPS))
        misses = checks.tail_misses(payload, *self.ties, groups, TIES_B)
        ops.record(not misses, errors)
        if misses and self.rounds == 1:
            print("tie operation failed: " + "; ".join(misses), file=sys.stderr)


class LevelTable(Workload):
    """``reproduce_table("tab2")`` on k in (20, 50): 8 cells of 2000
    replicates; the engine draw and the worker fan-out."""

    cold_start_rounds = 3

    def table(self, workers, reps=LEVEL_REPS, k_values=LEVEL_K, size_pairs=None):
        outdir = Path(tempfile.mkdtemp(dir=self.dir))
        try:
            result = self.gh["simulate"].reproduce_table(
                "tab2", reps=reps, k_values=k_values, size_pairs=size_pairs,
                workers=workers, outdir=outdir, seed=self.program_seed,
            )
            with open(result.csv_path) as fh:
                lines = fh.read().splitlines()
        finally:
            shutil.rmtree(outdir)
        return result.rows, lines

    def warm_up(self):
        self.table(LEVEL_WORKERS, reps=50, k_values=(20,), size_pairs=((5, 10),))

    def run(self, workers=LEVEL_WORKERS):
        return self.table(workers)

    def check(self, output):
        rows, lines = output
        errors = checks.check_level_rows(rows, LEVEL_REPS)
        if len(lines) != len(rows) + 1:
            errors.append(f"table CSV has {len(lines)} lines for {len(rows)} rows")
        return errors

    def check_workers(self) -> list[str]:
        """Rates must not depend on the worker count: the first cell, run
        alone at one worker, has the seed of the table's first cell and
        must give its row."""
        rows, _ = self.table(1, k_values=LEVEL_K[:1], size_pairs=(inputs.SIZES,))
        if rows != self.first[0][:1]:
            return ["the first tab2 cell differs between one and two workers"]
        return []


class ResampleCell(Workload):
    """One Setting-1 cell (d = 5, k = 50, sizes (5, 10), 50 replicates)
    with the engine's bootstrap tests, at one worker."""

    cold_start_rounds = 3

    def cell(self, reps):
        spec = self.gh["simulate"].SettingSpec(
            1, 5, RESAMPLE_K, 5, 10, master_seed=self.program_seed
        )
        return self.gh["simulate"].estimate_rejection_rate(
            spec, RESAMPLE_TESTS, reps=reps, workers=1,
            bootstrap_B=TEST7_B, minp_B=MINP_B,
        )

    def warm_up(self):
        self.cell(2)

    def run(self):
        return self.cell(RESAMPLE_REPS)

    def check(self, output):
        return checks.check_resample_results(output, RESAMPLE_REPS)

    def same(self, output):
        def key(res):
            return {t: (r.rejections, r.degenerate) for t, r in res.items()}

        return key(output) == key(self.first)


CLASSES = {
    "cli-test": CliTest,
    "cli-pergroup": CliPergroup,
    "level-table": LevelTable,
    "resample-cell": ResampleCell,
}
