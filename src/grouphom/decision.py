"""Decision layer: one-sided global test and per-group multiple testing.

The global test standardizes the aggregated squared-distance statistic by
a chosen null-variance estimate and rejects when the z-score reaches the
upper normal quantile.  A non-positive variance estimate (possible for
the unbiased estimators in tiny samples, or for constant data) is treated
as degenerate: the report is flagged and the p-value collapses to 1 when
the statistic is non-positive and 0 otherwise.

Every test id is defined once, in ``_TESTS``: the seven estimators, the
classical baselines (``chi2``, ``wk``, ``vk``, ``wkprime``, ``vkprime``)
and the bootstrap min-p rule (``minp``).  :func:`run_global_test` runs an
entry on one dataset; the Monte Carlo engine runs it on a block of
replicates, with its own bootstrap streams.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc, ndtri

from . import _batch, classical
from .data import GroupedDataset
from .errors import OutOfRange

# Unused here, but the benchmark's tracer wraps them under this module's name.
from .ustat import aggregate_statistic, group_ustat  # noqa: F401
from .ustat import group_statistics
from .variance import (
    VarianceEstimate,
    _check_bootstrap_size,
    _check_seed,
    null_draws,
    var0_bootstrap,
)

__all__ = [
    "ESTIMATORS",
    "TestReport",
    "PerGroupResult",
    "run_global_test",
    "run_all_tests",
    "pergroup_bootstrap_pvalues",
    "adjust_pvalues",
    "global_minp_rule",
]


@dataclass(frozen=True)
class TestReport:
    """Outcome of the global test for one variance estimator."""

    statistic: float
    variance: VarianceEstimate
    z: float
    p_value: float
    alpha: float
    reject: bool
    degenerate_variance: bool


@dataclass(frozen=True)
class PerGroupResult:
    """One group's bootstrap p-value with its multiplicity adjustments."""

    group_id: str
    statistic: float
    p_raw: float
    p_bh: float
    p_bonferroni: float
    degenerate: bool


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise OutOfRange(f"alpha must be in (0, 1), got {alpha}")


class _Stack:
    """Counts ``(..., k, d)`` of one dataset or a stack of them, with
    integer totals ``n1``/``n2`` (scalars or per group), and what the
    tests share.  ``null_variance(stack)`` and ``null_pvalues(stack)``
    give each dataset's ``test7`` variance and per-group bootstrap
    p-values in the caller's stream layout; ``moments`` maps
    ``wkprime``/``vkprime`` to per-group null means and variances."""

    def __init__(self, c1, c2, n1, n2, alpha, null_variance=None,
                 null_pvalues=None, moments=None):
        self.c1, self.c2, self.n1, self.n2, self.alpha = c1, c2, n1, n2, alpha
        self.null_variance, self.null_pvalues = null_variance, null_pvalues
        self.moments = moments
        self.z_crit = ndtri(1.0 - alpha)
        self._p = c1 / np.asarray(n1)[..., None], c2 / np.asarray(n2)[..., None]
        self._s12 = _batch._catsum(self._p[0] * self._p[1])
        self.tu_r = _batch.tu_group(*self._p, n1, n2, self._s12)
        self.tu = self.tu_r.sum(axis=-1) / math.sqrt(self.tu_r.shape[-1])
        self._variances = {}

    @functools.cached_property
    def cross(self):
        return _batch.trace_cross(*self._p, ab=self._s12)

    @functools.cached_property
    def chi_r(self):
        return _batch.chi2_group(self.c1, self.c2, self.n1, self.n2)

    @functools.cached_property
    def lrt_r(self):
        return _batch.lrt_group(self.c1, self.c2, self.n1, self.n2)

    def variance(self, estimator: str):
        """Each dataset's null-variance estimate, computed once."""
        if estimator not in self._variances:
            cross = self.cross if estimator in _batch.CROSS_ESTIMATORS else None
            self._variances[estimator] = (
                self.null_variance(self) if estimator == "test7"
                else _batch.var_group(estimator, self.c1, self.c2, self.n1,
                                      self.n2, cross).mean(axis=-1))
        return self._variances[estimator]


def _z_decision(stat, var, z_crit):
    """z-score, reject and degenerate flags: a non-positive variance is
    degenerate, with z NaN, and rejects exactly when ``stat > 0``."""
    ok = np.asarray(var) > 0.0
    z = np.where(ok, stat / np.sqrt(np.where(ok, var, 1.0)), np.nan)
    return z, np.where(ok, z >= z_crit, stat > 0.0), ~ok


def _z_test(estimator: str):
    return lambda s: _z_decision(s.tu, s.variance(estimator), s.z_crit)


def _chi2_test(s: _Stack):
    stat, p = classical._pooled_chi2(s.c1, s.c2)
    return stat, p <= s.alpha, False


def _upper_z(stat, s: _Stack):
    return stat, stat >= s.z_crit, False


def _minp_test(s: _Stack):
    p = s.null_pvalues(s)
    return p.min(axis=-1), global_minp_rule(p, s.alpha), False


#: Every test id: its minimum per-population total and ``run(stack)``,
#: which returns the statistic each dataset is judged by (the z-score for
#: ``test1`` .. ``test7``, the smallest p-value for ``minp``), the reject
#: flags and the degenerate flags.  The library runs an entry on one
#: dataset, the Monte Carlo engine on blocks of replicates.
_TESTS = {
    "test1": (4, _z_test("test1")),
    **{f"test{i}": (2, _z_test(f"test{i}")) for i in range(2, 8)},
    "chi2": (1, _chi2_test),
    "wk": (1, lambda s: _upper_z(
        classical._naive_standardized(s.chi_r, s.c1.shape[-1]), s)),
    "vk": (1, lambda s: _upper_z(
        classical._naive_standardized(s.lrt_r, s.c1.shape[-1]), s)),
    "wkprime": (1, lambda s: _upper_z(
        classical._oracle_standardized(s.chi_r, *s.moments["wkprime"]), s)),
    "vkprime": (1, lambda s: _upper_z(
        classical._oracle_standardized(s.lrt_r, *s.moments["vkprime"]), s)),
    "minp": (2, _minp_test),
}

#: Estimator ids accepted by :func:`run_global_test`, with the minimum
#: per-population sample total each requires.
ESTIMATORS = {f"test{i}": _TESTS[f"test{i}"][0] for i in range(1, 8)}


def _lookup(ids, known=_TESTS) -> dict[str, tuple]:
    """Entries of ``ids``; an unknown or repeated id raises OutOfRange."""
    entries = {}
    for test in ids:
        if test not in known:
            raise OutOfRange(
                f"unknown test id {test!r}; expected one of {sorted(known)}"
            )
        if test in entries:
            raise OutOfRange(f"test id {test!r} is listed more than once")
        entries[test] = _TESTS[test]
    return entries


def run_global_test(
    ds: GroupedDataset,
    estimator: str = "test1",
    alpha: float = 0.05,
    seed=None,
    B: int = 200,
) -> TestReport:
    """One-sided global homogeneity test across all groups.

    Parameters
    ----------
    estimator : str
        Null-variance estimator id, ``test1`` .. ``test7``.
    alpha : float
        Level of the one-sided test, in (0, 1).
    seed, B
        Used only by the ``test7`` bootstrap.

    Raises
    ------
    SampleTooSmall
        If any group's totals are below the estimator's minimum.
    """
    minimum, run = _lookup((estimator,), ESTIMATORS)[estimator]
    _check_alpha(alpha)
    ds.require_totals(minimum, f"estimator {estimator}")
    stack = _Stack(
        ds.c1, ds.c2, ds.sizes(1), ds.sizes(2), alpha,
        null_variance=lambda s: var0_bootstrap(ds, B=B, seed=seed).value,
    )
    z, reject, degenerate = run(stack)
    z = float(z)
    return TestReport(
        statistic=float(stack.tu),
        variance=VarianceEstimate(float(stack.variance(estimator)), estimator),
        z=z,
        # a degenerate test is decided by the sign: p is 0 or 1; else the
        # upper normal tail, Phi(-z)
        p_value=(float(not reject) if degenerate
                 else float(0.5 * erfc(z / math.sqrt(2.0)))),
        alpha=alpha,
        reject=bool(reject),
        degenerate_variance=bool(degenerate),
    )


def run_all_tests(
    ds: GroupedDataset, alpha: float = 0.05, seed=None, B: int = 200
) -> dict[str, TestReport]:
    """Run the global test under every variance estimator."""
    return {
        est: run_global_test(ds, est, alpha=alpha, seed=seed, B=B)
        for est in ESTIMATORS
    }


def _check_pvalues(pvalues) -> np.ndarray:
    """``pvalues`` as a float array: a non-empty sequence (or a stack of
    them) of values in [0, 1], none NaN, else OutOfRange."""
    p = np.asarray(pvalues, dtype=np.float64)
    if p.ndim == 0 or p.shape[-1] == 0:
        raise OutOfRange("pvalues must be a non-empty sequence")
    # NaN fails both comparisons
    if not np.all((p >= 0) & (p <= 1)):
        raise OutOfRange("pvalues must lie in [0, 1], with no NaN")
    return p


def adjust_pvalues(pvalues, method: str) -> np.ndarray:
    """Multiplicity adjustment: ``'bonferroni'`` or ``'bh'`` (step-up).

    Returns adjusted p-values in the input order, clipped to [0, 1] and
    never below the raw values.  An empty or multi-dimensional input, or
    a value outside [0, 1] or NaN, raises OutOfRange.
    """
    p = _check_pvalues(pvalues)
    if p.ndim != 1:
        raise OutOfRange("pvalues must be a non-empty 1-d sequence")
    k = p.size
    if method == "bonferroni":
        return np.minimum(1.0, k * p)
    if method == "bh":
        order = np.argsort(p, kind="stable")
        ranked = p[order] * k / np.arange(1, k + 1)
        adjusted = np.minimum.accumulate(ranked[::-1])[::-1]
        out = np.empty(k, dtype=np.float64)
        out[order] = np.minimum(1.0, adjusted)
        return out
    raise OutOfRange(f"method must be 'bonferroni' or 'bh', got {method!r}")


def global_minp_rule(pvalues, alpha: float = 0.05):
    """Reject the global null when the smallest p-value is <= alpha / k.

    ``pvalues`` holds the ``k`` p-values of one dataset, or of a stack of
    datasets along leading axes; the result is a bool, or a bool array of
    the leading shape.  No p-values, or a value outside [0, 1] or NaN,
    raises OutOfRange.
    """
    _check_alpha(alpha)
    p = _check_pvalues(pvalues)
    reject = p.min(axis=-1) <= alpha / p.shape[-1]
    return bool(reject) if p.ndim == 1 else reject


def _inexact(n1, n2):
    """Where the integer numerator of :func:`_exceedances` may overflow."""
    return np.multiply(n1, n2, dtype=np.float64) >= 2.0**30


def _exceedances(b1, b2, n1, n2, obs_num, obs_stat):
    """``T* > T`` and ``T* == T`` for pooled-null draws ``b1``, ``b2``.

    Compared on the integer numerator ``T n1 (n1-1) n2 (n2-1)``
    (:func:`grouphom._batch.tu_numerator`, exact while
    ``n1 * n2 < 2**30``), else on the float statistic.  Totals and the
    observed numerators and statistics broadcast against the draws'
    leading shape.
    """
    star = _batch.tu_numerator(b1, b2, n1, n2)
    exceeds, tied = star > obs_num, star == obs_num
    inexact = _inexact(n1, n2)
    if inexact.any():
        f1, f2 = np.asarray(n1, np.float64), np.asarray(n2, np.float64)
        t_star = _batch.tu_group(b1 / f1[..., None], b2 / f2[..., None], f1, f2)
        exceeds = np.where(inexact, t_star > obs_stat, exceeds)
        tied = np.where(inexact, t_star == obs_stat, tied)
    return exceeds, tied


def pergroup_bootstrap_pvalues(
    ds: GroupedDataset,
    B: int = 1000,
    seed=None,
    smoothed: bool = False,
) -> list[PerGroupResult]:
    """Bootstrap p-value of each group's statistic under pooled resampling.

    For group ``r`` both samples are redrawn ``B`` times from the group's
    pooled proportions; the raw p-value is the fraction of bootstrap
    statistics strictly above the observed one, or
    ``(#{T* >= T} + 1) / (B + 1)`` with ``smoothed=True``.  A group whose
    bootstrap distribution is a point mass at the observed value is
    flagged degenerate.  Group ``r`` draws from a stream keyed by
    ``(seed, r)``, independent of evaluation order, so the p-values are
    bit-identical at any thread count.  ``seed`` is a non-negative
    integer, or ``None`` for fresh OS entropy.

    Ties are decided exactly while ``n1 * n2 < 2**30`` (see
    :func:`_exceedances`).  A group with larger totals is compared in
    floating point, where two distinct count pairs of equal statistic may
    round apart.

    The draws run on :func:`grouphom.variance.null_draws`' worker
    threads, and so does the exact count of a chunk's exceedances; a
    chunk that holds a group compared in floating point is counted on
    the calling thread.

    Raises
    ------
    InvalidB
        If ``B`` is not an integer, or below 2.
    OutOfRange
        If ``seed`` is a negative integer.
    SampleTooSmall
        If any sample total is below 2.
    """
    _check_bootstrap_size(B)
    _check_seed(seed)
    ds.require_totals(2, "the per-group bootstrap")
    stats = group_statistics(ds)
    n1, n2 = ds.sizes(1), ds.sizes(2)
    num = _batch.tu_numerator(ds.c1, ds.c2, n1, n2)[:, None]
    inexact = _inexact(n1, n2)

    def count(lo, hi, b1, b2):
        exceeds, tied = _exceedances(
            b1, b2, n1[lo:hi, None], n2[lo:hi, None], num[lo:hi],
            stats[lo:hi, None],
        )
        return exceeds.sum(axis=1), tied.sum(axis=1)

    def exact_count(lo, hi, b1, b2):
        return None if inexact[lo:hi].any() else count(lo, hi, b1, b2)

    above, ties = np.empty((2, ds.k), dtype=np.int64)
    for lo, hi, b1, b2, counts in null_draws(ds, B, seed, exact_count):
        if counts is None:
            # a float comparison calls _batch.tu_group, which the
            # benchmark's tracer wraps: it runs on this thread
            counts = count(lo, hi, b1, b2)
        above[lo:hi], ties[lo:hi] = counts
    raw = (above + ties + 1.0) / (B + 1.0) if smoothed else above / B
    degenerate = ties == B
    bh = adjust_pvalues(raw, "bh")
    bonf = adjust_pvalues(raw, "bonferroni")
    return [
        PerGroupResult(
            group_id=group_id,
            statistic=float(stats[i]),
            p_raw=float(raw[i]),
            p_bh=float(bh[i]),
            p_bonferroni=float(bonf[i]),
            degenerate=bool(degenerate[i]),
        )
        for i, group_id in enumerate(ds.ids)
    ]
