"""Monte Carlo engine for the level and power study.

Five data-generating settings over ``k`` groups of paired multinomial
samples:

1. every group equiprobable over ``d`` categories (null);
2. every group's shared vector drawn uniformly from the five-vector
   library (null);
3. four null branches (vectors 1-4, probability 0.2 each) plus one
   alternative branch pairing vector 1 with a designated vector
   ``pi0`` (probability 0.2);
4. like 3 but the alternative probability is split evenly between
   ``pi0`` and its element-reversed copy;
5. the two populations' vectors drawn independently and uniformly from
   the library (null on a group iff the draws coincide).

Determinism contract: replicate ``r`` of a cell consumes only the
counter-based Philox stream keyed by ``SeedSequence(master_seed, (r,))``,
with a fixed draw order inside the replicate (mixture picks, then
sample-1 categories ``0..d-2``, then sample-2 categories), each phase one
group-vectorized call.  Within-replicate bootstrap procedures use the
side keys ``(r, 1)`` and ``(r, 2)``.  Results are therefore independent
of block sizes and of the worker count.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import subprocess
import time
from dataclasses import dataclass, replace
from datetime import datetime, timezone

import numpy as np
from scipy.stats import chi2 as _chi2_dist

from . import _batch, classical
from .data import CountVector, GroupedDataset, ProbVector
from .decision import ESTIMATORS, run_global_test
from .errors import (
    InvalidReps,
    OutOfRange,
    SampleTooSmall,
    UnknownTable,
    UnsupportedDimension,
)
from .normal import normal_quantile

__all__ = [
    "PiLibrary",
    "SettingSpec",
    "MCResult",
    "TableResult",
    "pi_library",
    "sample_multinomial",
    "generate_replicate",
    "estimate_rejection_rate",
    "null_z_scores",
    "reproduce_table",
    "benchmark_statistics",
    "TABLE_IDS",
]

# ---------------------------------------------------------------------------
# Probability-vector library (five vectors per dimension, increasingly far
# from the equiprobable reference; the tag is the printed squared distance
# to vector 1).
# ---------------------------------------------------------------------------

_VECTORS = {
    5: (
        (0.2, 0.2, 0.2, 0.2, 0.2),
        (0.1, 0.15, 0.2, 0.25, 0.3),
        (0.05, 0.125, 0.2, 0.275, 0.35),
        (0.05, 0.05, 0.2, 0.35, 0.35),
        (0.05, 0.125, 0.125, 0.125, 0.575),
    ),
    10: (
        (0.1,) * 10,
        (0.02, 0.04, 0.06, 0.08, 0.10, 0.10, 0.12, 0.14, 0.16, 0.18),
        (0.01, 0.01, 0.03, 0.03, 0.10, 0.10, 0.12, 0.2, 0.2, 0.2),
        (0.01, 0.01, 0.02, 0.03, 0.03, 0.03, 0.21, 0.22, 0.22, 0.22),
        (0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.10, 0.20, 0.20, 0.44),
    ),
}

_DISTANCE_TAGS = {
    5: (0.0, 0.025, 0.056, 0.090, 0.180),
    10: (0.0, 0.024, 0.056, 0.092, 0.184),
}


@dataclass(frozen=True)
class PiLibrary:
    """The five library vectors for one dimension with their distance tags."""

    d: int
    vectors: np.ndarray  # (5, d)
    tags: tuple[float, ...]

    def vector(self, i: int) -> ProbVector:
        """Library vector ``i`` in 1..5 as a validated probability vector."""
        if not 1 <= i <= 5:
            raise OutOfRange(f"library index must be in 1..5, got {i}")
        return ProbVector(self.vectors[i - 1])


def pi_library(d: int) -> PiLibrary:
    """Library for dimension ``d`` (5 or 10).

    Raises
    ------
    UnsupportedDimension
        For any other ``d``.
    """
    if d not in _VECTORS:
        raise UnsupportedDimension(
            f"the vector library is defined for d in (5, 10), got d={d}"
        )
    arr = np.array(_VECTORS[d], dtype=np.float64)
    arr.flags.writeable = False
    return PiLibrary(d=d, vectors=arr, tags=_DISTANCE_TAGS[d])


# ---------------------------------------------------------------------------
# Setting specification and sampling primitives.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SettingSpec:
    """One simulation cell: setting, dimension, group count, sizes, seed."""

    setting: int
    d: int
    k: int
    n1: int
    n2: int
    pi0: int | None = None
    master_seed: int = 0

    def __post_init__(self):
        if self.setting not in (1, 2, 3, 4, 5):
            raise OutOfRange(f"setting must be 1..5, got {self.setting}")
        if self.d < 2:
            raise OutOfRange(f"need d >= 2, got {self.d}")
        if self.setting != 1 and self.d not in _VECTORS:
            raise UnsupportedDimension(
                f"setting {self.setting} is defined for d in (5, 10), "
                f"got d={self.d}"
            )
        if self.k < 1:
            raise OutOfRange(f"need k >= 1, got {self.k}")
        if self.n1 < 1 or self.n2 < 1:
            raise OutOfRange(
                f"sample sizes must be >= 1, got ({self.n1}, {self.n2})"
            )
        if self.setting in (3, 4):
            if self.pi0 not in (2, 4):
                raise OutOfRange(
                    f"setting {self.setting} needs pi0 in (2, 4), "
                    f"got {self.pi0}"
                )
        elif self.pi0 is not None:
            raise OutOfRange(
                f"pi0 only applies to settings 3 and 4 (got setting "
                f"{self.setting} with pi0={self.pi0})"
            )


def _conditional_binomial(rng, n, pvals: np.ndarray) -> np.ndarray:
    """Draw one multinomial vector per row of ``pvals`` by the sequential
    conditional-binomial method: category ``j`` is binomial on the trials
    left with the renormalized tail probability, so each vector costs
    ``d - 1`` binomial draws."""
    k, d = pvals.shape
    out = np.empty((k, d), dtype=np.int64)
    remaining = np.broadcast_to(np.asarray(n, dtype=np.int64), (k,)).copy()
    rest = np.ones(k, dtype=np.float64)
    for j in range(d - 1):
        pj = np.divide(
            pvals[:, j], rest, out=np.zeros(k, dtype=np.float64),
            where=rest > 0,
        )
        np.clip(pj, 0.0, 1.0, out=pj)
        cj = rng.binomial(remaining, pj)
        out[:, j] = cj
        remaining -= cj
        rest = rest - pvals[:, j]
    out[:, d - 1] = remaining
    return out


def sample_multinomial(n: int, pi, rng) -> CountVector:
    """One multinomial draw by the conditional-binomial method.

    ``pi`` may be a :class:`ProbVector` or a plain array; ``rng`` is a
    numpy Generator.
    """
    if n < 0:
        raise OutOfRange(f"need n >= 0, got {n}")
    p = pi.probs if isinstance(pi, ProbVector) else np.asarray(pi, np.float64)
    return CountVector(_conditional_binomial(rng, n, p[None, :])[0])


def _replicate_rng(spec: SettingSpec, r: int, salt: int | None = None):
    key = (r,) if salt is None else (r, salt)
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(spec.master_seed, spawn_key=key))
    )


def _draw_replicate(spec: SettingSpec, rng):
    """Draw one replicate's counts.

    Returns ``(counts1, counts2, picks, null_flags)`` where ``picks`` is
    the per-group library index of the shared (null) vector, or -1 on
    alternative groups; for setting 1 all picks are 0.
    """
    k, d = spec.k, spec.d
    if spec.setting == 1:
        pi1 = pi2 = np.full((k, d), 1.0 / d)
        picks = np.zeros(k, dtype=np.int64)
        null_flags = np.ones(k, dtype=bool)
    else:
        lib = pi_library(d).vectors
        if spec.setting == 2:
            picks = rng.integers(0, 5, size=k)
            pi1 = pi2 = lib[picks]
            null_flags = np.ones(k, dtype=bool)
        elif spec.setting == 3:
            raw = rng.integers(0, 5, size=k)
            null_flags = raw < 4
            picks = np.where(null_flags, raw, -1)
            pi1 = np.where(null_flags[:, None], lib[raw % 4], lib[0])
            pi2 = np.where(
                null_flags[:, None], lib[raw % 4], lib[spec.pi0 - 1]
            )
        elif spec.setting == 4:
            raw = rng.integers(0, 10, size=k)
            null_flags = raw < 8
            picks = np.where(null_flags, raw // 2, -1)
            alt2 = np.where(
                (raw == 8)[:, None],
                lib[spec.pi0 - 1],
                lib[spec.pi0 - 1][::-1],
            )
            pi1 = np.where(null_flags[:, None], lib[(raw // 2) % 4], lib[0])
            pi2 = np.where(null_flags[:, None], lib[(raw // 2) % 4], alt2)
        else:
            raw1 = rng.integers(0, 5, size=k)
            raw2 = rng.integers(0, 5, size=k)
            null_flags = raw1 == raw2
            picks = np.where(null_flags, raw1, -1)
            pi1 = lib[raw1]
            pi2 = lib[raw2]
    counts1 = _conditional_binomial(rng, spec.n1, pi1)
    counts2 = _conditional_binomial(rng, spec.n2, pi2)
    return counts1, counts2, picks, null_flags


def generate_replicate(
    spec: SettingSpec, replicate_index: int
) -> tuple[GroupedDataset, np.ndarray]:
    """Materialize replicate ``replicate_index`` as a dataset.

    Returns the dataset and the per-group truth flags (True where the two
    populations share a vector).  Bit-identical to what the rejection-rate
    engine consumes for the same spec and index.
    """
    if replicate_index < 0:
        raise OutOfRange(f"replicate index must be >= 0, got {replicate_index}")
    rng = _replicate_rng(spec, replicate_index)
    counts1, counts2, _, null_flags = _draw_replicate(spec, rng)
    width = max(3, len(str(spec.k)))
    ids = [f"g{r + 1:0{width}d}" for r in range(spec.k)]
    return GroupedDataset.from_counts(counts1, counts2, ids), null_flags


# ---------------------------------------------------------------------------
# Rejection-rate engine.
# ---------------------------------------------------------------------------

#: Minimum per-population sample total required by each test id.
TEST_MINIMUM = {
    **ESTIMATORS, "chi2": 1, "wk": 1, "wkprime": 1, "vk": 1, "vkprime": 1,
    "minp": 2,
}

_VARIANCE_TESTS = ("test1", "test2", "test3", "test4", "test5", "test6")


@dataclass(frozen=True)
class MCResult:
    """Monte Carlo summary for one test in one cell."""

    test: str
    rate: float
    reps: int
    se: float
    rejections: int
    degenerate: int = 0
    seconds: float = 0.0


@dataclass(frozen=True)
class _CellTask:
    spec: SettingSpec
    tests: tuple[str, ...]
    start: int
    stop: int
    alpha: float
    z_crit: float
    bootstrap_B: int
    minp_B: int
    moments: dict | None
    collect_z: str | None


def _block_size(spec: SettingSpec) -> int:
    return max(16, min(1024, 2_000_000 // (spec.k * spec.d)))


def _run_block(task: _CellTask):
    spec = task.spec
    k, d = spec.k, spec.d
    n1, n2 = float(spec.n1), float(spec.n2)
    blen = task.stop - task.start
    c1 = np.empty((blen, k, d), dtype=np.float64)
    c2 = np.empty((blen, k, d), dtype=np.float64)
    picks = np.empty((blen, k), dtype=np.int64)
    for i in range(blen):
        rng = _replicate_rng(spec, task.start + i)
        a, b, p, _ = _draw_replicate(spec, rng)
        c1[i] = a
        c2[i] = b
        picks[i] = p

    tu_r = _batch.tu_group(c1 / n1, c2 / n2, n1, n2)
    tu = tu_r.sum(axis=1) / math.sqrt(k)

    chi_r = lrt_r = None
    if any(t in ("wk", "wkprime") for t in task.tests):
        chi_r = _batch.chi2_group(c1, c2, n1, n2)
    if any(t in ("vk", "vkprime") for t in task.tests):
        lrt_r = _batch.lrt_group(c1, c2, n1, n2)

    rejections: dict[str, int] = {}
    degenerate: dict[str, int] = {}
    z_out = None

    for test in task.tests:
        degen = 0
        if test in _VARIANCE_TESTS or test == "test7":
            if test == "test7":
                v = np.empty(blen)
                for i in range(blen):
                    rngb = _replicate_rng(spec, task.start + i, salt=1)
                    phat = (c1[i] + c2[i]) / (n1 + n2)
                    b1 = rngb.multinomial(spec.n1, phat, size=(task.bootstrap_B, k))
                    b2 = rngb.multinomial(spec.n2, phat, size=(task.bootstrap_B, k))
                    tub = _batch.tu_group(b1 / n1, b2 / n2, n1, n2)
                    v[i] = (tub.sum(axis=1) / math.sqrt(k)).var(ddof=1)
            else:
                v = _batch.var_group(test, c1, c2, n1, n2).mean(axis=1)
            ok = v > 0.0
            z = np.full(blen, np.nan)
            z[ok] = tu[ok] / np.sqrt(v[ok])
            rej = np.where(ok, z >= task.z_crit, tu > 0.0)
            degen = int(np.sum(~ok))
            if task.collect_z == test:
                z_out = z
        elif test == "chi2":
            stat = _batch.chi2_group(
                c1.sum(axis=1), c2.sum(axis=1), k * n1, k * n2
            )
            rej = _chi2_dist.sf(stat, d - 1) <= task.alpha
        elif test == "wk":
            wk = (chi_r.sum(axis=1) - k * (d - 1)) / math.sqrt(k * 2.0 * (d - 1))
            rej = wk >= task.z_crit
        elif test == "vk":
            vk = (lrt_r.sum(axis=1) - k * (d - 1)) / math.sqrt(k * 2.0 * (d - 1))
            rej = vk >= task.z_crit
        elif test in ("wkprime", "vkprime"):
            means, variances = task.moments[test]
            values = chi_r if test == "wkprime" else lrt_r
            num = values.sum(axis=1) - means[picks].sum(axis=1)
            den = np.sqrt(variances[picks].sum(axis=1))
            rej = num / den >= task.z_crit
        elif test == "minp":
            rej = np.empty(blen, dtype=bool)
            threshold = task.alpha / k
            for i in range(blen):
                rngb = _replicate_rng(spec, task.start + i, salt=2)
                phat = (c1[i] + c2[i]) / (n1 + n2)
                b1 = rngb.multinomial(spec.n1, phat, size=(task.minp_B, k))
                b2 = rngb.multinomial(spec.n2, phat, size=(task.minp_B, k))
                tub = _batch.tu_group(b1 / n1, b2 / n2, n1, n2)
                pvals = (tub > tu_r[i][None, :]).mean(axis=0)
                rej[i] = pvals.min() <= threshold
        else:
            raise OutOfRange(f"unknown test id {test!r}")
        rejections[test] = int(np.sum(rej))
        degenerate[test] = degen
    return rejections, degenerate, z_out


def _oracle_moments(
    spec: SettingSpec, statistic: str, method: str, reps: int
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Null moments for every library vector the setting can draw.

    Only settings 1 and 2 generate purely null groups with known vectors,
    which is what the oracle standardizations need.
    """
    if spec.setting not in (1, 2):
        raise OutOfRange(
            "oracle-standardized tests (wkprime/vkprime) are defined for "
            f"the null settings 1 and 2, not setting {spec.setting}"
        )
    oracle = (
        classical.chi_square_moments_oracle
        if statistic == "wkprime"
        else classical.lrt_moments_oracle
    )
    if spec.setting == 1:
        pis = [ProbVector(np.full(spec.d, 1.0 / spec.d))]
    else:
        lib = pi_library(spec.d)
        pis = [lib.vector(i) for i in range(1, 6)]
    means, variances, used = [], [], []
    for i, pv in enumerate(pis):
        resolved = method
        if method == "auto":
            resolved = (
                "exact"
                if classical.exact_enumeration_feasible(spec.d, spec.n1, spec.n2)
                else "montecarlo"
            )
        mom = oracle(
            pv,
            spec.n1,
            spec.n2,
            method=resolved,
            reps=reps,
            seed=np.random.SeedSequence(spec.master_seed, spawn_key=(i, 3)),
        )
        means.append(mom.mean)
        variances.append(mom.variance)
        used.append(resolved)
    return np.array(means), np.array(variances), used


def _resolve_workers(workers) -> int:
    if workers is None:
        workers = os.environ.get("MH_WORKERS", "1")
    workers = int(workers)
    if workers < 1:
        raise OutOfRange(f"workers must be >= 1, got {workers}")
    return workers


def _run_cell(
    spec: SettingSpec,
    tests,
    reps: int,
    alpha: float,
    workers,
    bootstrap_B: int,
    minp_B: int,
    moment_method: str,
    moment_reps: int,
    collect_z: str | None = None,
):
    if reps < 1:
        raise InvalidReps(f"need reps >= 1, got {reps}")
    if not 0.0 < alpha < 1.0:
        raise OutOfRange(f"alpha must be in (0, 1), got {alpha}")
    tests = tuple(tests)
    if not tests:
        raise OutOfRange("no tests requested")
    for test in tests:
        if test not in TEST_MINIMUM:
            raise OutOfRange(
                f"unknown test id {test!r}; expected one of "
                f"{sorted(TEST_MINIMUM)}"
            )
        minimum = TEST_MINIMUM[test]
        if spec.n1 < minimum or spec.n2 < minimum:
            raise SampleTooSmall(
                f"test {test!r} needs per-population totals >= {minimum}; "
                f"cell has ({spec.n1}, {spec.n2})"
            )
    workers = _resolve_workers(workers)
    moments = {}
    for test in ("wkprime", "vkprime"):
        if test in tests:
            means, variances, used = _oracle_moments(
                spec, test, moment_method, moment_reps
            )
            moments[test] = (means, variances)
            moments[f"{test}_method"] = used
    z_crit = normal_quantile(1.0 - alpha)
    size = _block_size(spec)
    tasks = [
        _CellTask(
            spec=spec,
            tests=tests,
            start=start,
            stop=min(start + size, reps),
            alpha=alpha,
            z_crit=z_crit,
            bootstrap_B=bootstrap_B,
            minp_B=minp_B,
            moments={t: moments[t] for t in ("wkprime", "vkprime") if t in moments}
            or None,
            collect_z=collect_z,
        )
        for start in range(0, reps, size)
    ]
    t0 = time.perf_counter()
    if workers == 1 or len(tasks) == 1:
        outs = [_run_block(t) for t in tasks]
    else:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(workers) as pool:
            outs = pool.map(_run_block, tasks)
    elapsed = time.perf_counter() - t0
    rejections = {t: 0 for t in tests}
    degenerate = {t: 0 for t in tests}
    for rej, deg, _ in outs:
        for t in tests:
            rejections[t] += rej[t]
            degenerate[t] += deg[t]
    results = {}
    for t in tests:
        rate = rejections[t] / reps
        results[t] = MCResult(
            test=t,
            rate=rate,
            reps=reps,
            se=math.sqrt(rate * (1.0 - rate) / reps),
            rejections=rejections[t],
            degenerate=degenerate[t],
            seconds=elapsed,
        )
    z_values = None
    if collect_z is not None:
        z_values = np.concatenate([z for _, _, z in outs])
    return results, z_values, moments


def estimate_rejection_rate(
    spec: SettingSpec,
    tests,
    reps: int = 10_000,
    alpha: float = 0.05,
    workers=None,
    bootstrap_B: int = 200,
    minp_B: int = 1000,
    moment_method: str = "auto",
    moment_reps: int = 100_000,
) -> dict[str, MCResult]:
    """Fraction of replicates each test rejects at level ``alpha``.

    ``tests`` is any subset of :data:`TEST_MINIMUM`: the seven variance
    estimators (``test1`` .. ``test7``), the no-grouping chi-square
    baseline (``chi2``), the naive and oracle-standardized chi-square and
    likelihood-ratio aggregates (``wk``/``wkprime``/``vk``/``vkprime``),
    and the per-group bootstrap min-p rule (``minp``).

    A cell whose sample sizes violate a requested test's precondition
    aborts with :class:`SampleTooSmall` before any sampling; degenerate
    variance replicates are decided by the sign convention and counted in
    ``MCResult.degenerate``.  Results are bit-identical for any
    ``workers`` value (default from ``MH_WORKERS``, else 1).
    """
    results, _, _ = _run_cell(
        spec, tests, reps, alpha, workers, bootstrap_B, minp_B,
        moment_method, moment_reps,
    )
    return results


def null_z_scores(
    spec: SettingSpec,
    estimator: str = "test1",
    reps: int = 2000,
    alpha: float = 0.05,
    workers=None,
) -> np.ndarray:
    """Per-replicate z-scores of one variance-estimator test.

    Degenerate-variance replicates yield NaN.
    """
    if estimator not in ESTIMATORS:
        raise OutOfRange(
            f"z-scores are defined for the variance-estimator tests, "
            f"got {estimator!r}"
        )
    _, z_values, _ = _run_cell(
        spec, (estimator,), reps, alpha, workers, 200, 1000, "auto", 100_000,
        collect_z=estimator,
    )
    return z_values


# ---------------------------------------------------------------------------
# Table reproduction.
# ---------------------------------------------------------------------------

_K_LEVEL = (20, 50, 100, 200, 500, 750)
_SIZES_LEVEL = ((5, 10), (10, 10), (20, 30), (30, 30))
_K_POWER = (20, 50, 200)
_SIZES_POWER = ((5, 5), (5, 10), (10, 10), (20, 30), (30, 30))


@dataclass(frozen=True)
class _TableDef:
    layout: str  # "tests", "by_d", "power", "power_by_d", "minp"
    setting: int
    tests: tuple[str, ...]
    d_values: tuple[int, ...]
    k_values: tuple[int, ...]
    sizes: tuple[tuple[int, int], ...]
    reps: int
    pi0: int | None = None


_TABLES: dict[str, _TableDef] = {
    "tab2": _TableDef("tests", 1, ("test1", "test2", "test3"), (5,),
                      _K_LEVEL, _SIZES_LEVEL, 10_000),
    "tab3": _TableDef("tests", 1, ("test1", "test2", "test3"), (10,),
                      _K_LEVEL, _SIZES_LEVEL, 10_000),
    "tab4": _TableDef("tests", 1, ("test1", "test2", "test3"), (20,),
                      _K_LEVEL, _SIZES_LEVEL, 10_000),
    "tab5": _TableDef("tests", 2, ("test1", "test2", "test3"), (5,),
                      _K_LEVEL, _SIZES_LEVEL, 10_000),
    "tab6": _TableDef("tests", 2, ("test1", "test2", "test3"), (10,),
                      _K_LEVEL, _SIZES_LEVEL, 10_000),
    "rev1": _TableDef("tests", 1, ("test4", "test5", "test6", "test7"), (5,),
                      _K_LEVEL, _SIZES_LEVEL, 10_000),
    "rev2": _TableDef("tests", 1, ("test4", "test5", "test6", "test7"), (10,),
                      _K_LEVEL, _SIZES_LEVEL, 10_000),
    "rev3": _TableDef("tests", 1, ("test4", "test5", "test6", "test7"), (20,),
                      _K_LEVEL, _SIZES_LEVEL, 10_000),
    "tab8": _TableDef("by_d", 1, ("wk",), (5, 10, 20),
                      _K_LEVEL, _SIZES_LEVEL, 10_000),
    "tab88": _TableDef("by_d", 1, ("wkprime",), (5, 10, 20),
                       _K_LEVEL, _SIZES_LEVEL, 10_000),
    "trv1": _TableDef("by_d", 1, ("vk",), (5, 10, 20),
                      _K_LEVEL, _SIZES_LEVEL, 10_000),
    "trv2": _TableDef("by_d", 1, ("vkprime",), (5, 10, 20),
                      _K_LEVEL, _SIZES_LEVEL, 10_000),
    "power1": _TableDef("power", 3, ("test1", "test2", "test3", "chi2"),
                        (5, 10), _K_POWER, _SIZES_POWER, 10_000),
    "power2": _TableDef("power", 4, ("test1", "test2", "test3", "chi2"),
                        (5, 10), _K_POWER, _SIZES_POWER, 10_000),
    "power3": _TableDef("power_by_d", 5, ("test1", "test2", "test3", "chi2"),
                        (5, 10), _K_POWER, _SIZES_POWER, 10_000),
    "powerCM": _TableDef("minp", 0, ("minp",), (5, 10),
                         _K_POWER, _SIZES_POWER, 1_000),
}

TABLE_IDS = tuple(_TABLES)


@dataclass(frozen=True)
class TableResult:
    """A reproduced table with its artifact paths (None when not written)."""

    table: str
    columns: tuple[str, ...]
    rows: list[dict]
    csv_path: str | None
    sidecar_path: str | None


def _cell_seed(seed: int, index: int) -> int:
    state = np.random.SeedSequence(seed, spawn_key=(index,)).generate_state(2)
    return int(state[0]) << 32 | int(state[1])


def _git_describe() -> str | None:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def reproduce_table(
    table_id: str,
    reps: int | None = None,
    seed: int = 0,
    alpha: float = 0.05,
    workers=None,
    outdir=None,
    k_values=None,
    size_pairs=None,
    d_values=None,
    moment_reps: int = 100_000,
    progress=None,
) -> TableResult:
    """Recompute one simulation table on its reference grid.

    The row/column layout mirrors the printed table, with one extra
    standard-error column per value column.  ``k_values``, ``size_pairs``
    and ``d_values`` restrict the grid (for spot reproductions); ``reps``
    defaults to the table's published replicate count.  When ``outdir``
    is given, writes ``<table>.csv`` plus a JSON sidecar recording the
    grid, seed, replicate count, package version and git description.

    Raises
    ------
    UnknownTable
        For an unrecognized ``table_id``.
    """
    if table_id not in _TABLES:
        raise UnknownTable(
            f"unknown table {table_id!r}; expected one of {sorted(_TABLES)}"
        )
    table = _TABLES[table_id]
    reps = table.reps if reps is None else reps
    if reps < 1:
        raise InvalidReps(f"need reps >= 1, got {reps}")
    k_values = tuple(k_values) if k_values else table.k_values
    size_pairs = (
        tuple(tuple(s) for s in size_pairs) if size_pairs else table.sizes
    )
    d_values = tuple(d_values) if d_values else table.d_values
    bad_k = set(k_values) - set(table.k_values)
    bad_s = set(size_pairs) - set(table.sizes)
    bad_d = set(d_values) - set(table.d_values)
    if bad_k or bad_s or bad_d:
        raise OutOfRange(
            f"restriction outside the table grid: k={sorted(bad_k)}, "
            f"sizes={sorted(bad_s)}, d={sorted(bad_d)}"
        )

    cell_index = 0
    moment_notes: dict[str, list[str]] = {}

    def run(spec, tests, collect_map):
        nonlocal cell_index
        spec = replace(spec, master_seed=_cell_seed(seed, cell_index))
        cell_index += 1
        if progress is not None:
            progress(f"{table_id}: cell {cell_index} "
                     f"(setting {spec.setting}, d={spec.d}, k={spec.k}, "
                     f"sizes=({spec.n1},{spec.n2}))")
        results, _, moments = _run_cell(
            spec, tests, reps, alpha, workers, 200, 1000, "auto", moment_reps,
        )
        for t in tests:
            if f"{t}_method" in moments:
                key = f"d={spec.d},n1={spec.n1},n2={spec.n2}"
                moment_notes[key] = moments[f"{t}_method"]
        for name, test in collect_map.items():
            row[name] = results[test].rate
            row[f"se_{name}"] = results[test].se
        return results

    rows: list[dict] = []
    if table.layout == "tests":
        columns = ["k", "n1", "n2"]
        columns += [t for t in table.tests]
        columns += [f"se_{t}" for t in table.tests]
        d = d_values[0]
        for k in k_values:
            for n1, n2 in size_pairs:
                row = {"k": k, "n1": n1, "n2": n2}
                run(
                    SettingSpec(table.setting, d, k, n1, n2),
                    table.tests,
                    {t: t for t in table.tests},
                )
                rows.append(row)
    elif table.layout == "by_d":
        test = table.tests[0]
        columns = ["k", "n1", "n2"]
        columns += [f"d{d}" for d in d_values]
        columns += [f"se_d{d}" for d in d_values]
        for k in k_values:
            for n1, n2 in size_pairs:
                row = {"k": k, "n1": n1, "n2": n2}
                for d in d_values:
                    run(
                        SettingSpec(table.setting, d, k, n1, n2),
                        (test,),
                        {f"d{d}": test},
                    )
                rows.append(row)
    elif table.layout == "power":
        value_cols = [
            f"pi{p}_{t}" for p in (2, 4) for t in table.tests
        ]
        columns = ["d", "k", "n1", "n2"] + value_cols
        columns += [f"se_{c}" for c in value_cols]
        for d in d_values:
            for k in k_values:
                for n1, n2 in size_pairs:
                    row = {"d": d, "k": k, "n1": n1, "n2": n2}
                    for p in (2, 4):
                        run(
                            SettingSpec(table.setting, d, k, n1, n2, pi0=p),
                            table.tests,
                            {f"pi{p}_{t}": t for t in table.tests},
                        )
                    rows.append(row)
    elif table.layout == "power_by_d":
        value_cols = [f"d{d}_{t}" for d in d_values for t in table.tests]
        columns = ["k", "n1", "n2"] + value_cols
        columns += [f"se_{c}" for c in value_cols]
        for k in k_values:
            for n1, n2 in size_pairs:
                row = {"k": k, "n1": n1, "n2": n2}
                for d in d_values:
                    run(
                        SettingSpec(table.setting, d, k, n1, n2),
                        table.tests,
                        {f"d{d}_{t}": t for t in table.tests},
                    )
                rows.append(row)
    else:  # minp
        variants = (
            ("s31", 3, 2), ("s32", 3, 4), ("s41", 4, 2), ("s42", 4, 4),
            ("s5", 5, None),
        )
        value_cols = [f"d{d}_{v}" for d in d_values for v, _, _ in variants]
        columns = ["k", "n1", "n2"] + value_cols
        columns += [f"se_{c}" for c in value_cols]
        for k in k_values:
            for n1, n2 in size_pairs:
                row = {"k": k, "n1": n1, "n2": n2}
                for d in d_values:
                    for name, setting, pi0 in variants:
                        run(
                            SettingSpec(setting, d, k, n1, n2, pi0=pi0),
                            ("minp",),
                            {f"d{d}_{name}": "minp"},
                        )
                rows.append(row)

    csv_path = sidecar_path = None
    if outdir is not None:
        os.makedirs(outdir, exist_ok=True)
        csv_path = os.path.join(outdir, f"{table_id}.csv")
        with open(csv_path, "w") as fh:
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(
                    ",".join(_format_cell(row.get(c)) for c in columns) + "\n"
                )
        from importlib.metadata import PackageNotFoundError, version

        try:
            pkg_version = version("grouphom")
        except PackageNotFoundError:
            pkg_version = None
        sidecar_path = os.path.join(outdir, f"{table_id}.json")
        with open(sidecar_path, "w") as fh:
            json.dump(
                {
                    "table": table_id,
                    "seed": seed,
                    "reps": reps,
                    "alpha": alpha,
                    "k_values": list(k_values),
                    "size_pairs": [list(s) for s in size_pairs],
                    "d_values": list(d_values),
                    "moment_methods": moment_notes or None,
                    "grouphom_version": pkg_version,
                    "git_describe": _git_describe(),
                    "generated_utc": datetime.now(timezone.utc).isoformat(),
                },
                fh,
                indent=2,
            )
            fh.write("\n")
    return TableResult(table_id, tuple(columns), rows, csv_path, sidecar_path)


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


# ---------------------------------------------------------------------------
# Benchmark.
# ---------------------------------------------------------------------------


def benchmark_statistics(
    k_values=(50, 200, 750),
    d: int = 5,
    sizes: tuple[int, int] = (30, 30),
    reps: int = 5,
    seed: int = 0,
) -> list[dict]:
    """Median wall-clock seconds to run each estimator's global test.

    Informational only — one synthetic null dataset per ``k``, ``reps``
    timed runs per estimator, median reported.
    """
    out = []
    for k in k_values:
        spec = SettingSpec(1, d, k, sizes[0], sizes[1], master_seed=seed)
        ds, _ = generate_replicate(spec, 0)
        for estimator in ESTIMATORS:
            times = []
            for _ in range(reps):
                t0 = time.perf_counter()
                run_global_test(ds, estimator, seed=seed)
                times.append(time.perf_counter() - t0)
            out.append(
                {
                    "d": d,
                    "k": k,
                    "n1": sizes[0],
                    "n2": sizes[1],
                    "estimator": estimator,
                    "seconds": float(np.median(times)),
                }
            )
    return out
