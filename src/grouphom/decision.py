"""Decision layer: one-sided global test and per-group multiple testing.

The global test standardizes the aggregated squared-distance statistic by
a chosen null-variance estimate and rejects when the z-score reaches the
upper normal quantile.  A non-positive variance estimate (possible for
the unbiased estimators in tiny samples, or for constant data) is treated
as degenerate: the report is flagged and the p-value collapses to 1 when
the statistic is non-positive and 0 otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _batch
from .data import GroupedDataset
from .errors import InvalidB, OutOfRange
from .normal import normal_cdf, normal_quantile

# Unused here, but the benchmark's tracer wraps it under this module's name.
from .ustat import group_ustat  # noqa: F401
from .ustat import aggregate_statistic, group_statistics
from .variance import VarianceEstimate, null_draws, var0_bootstrap

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

#: Estimator ids accepted by :func:`run_global_test`, with the minimum
#: per-population sample total each requires.
ESTIMATORS = {
    "test1": 4,
    "test2": 2,
    "test3": 2,
    "test4": 2,
    "test5": 2,
    "test6": 2,
    "test7": 2,
}


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


def _aggregate_variance(
    ds: GroupedDataset, estimator: str, B: int, seed
) -> VarianceEstimate:
    if estimator == "test7":
        return var0_bootstrap(ds, B=B, seed=seed)
    values = _batch.var_group(estimator, ds.c1, ds.c2, ds.sizes(1), ds.sizes(2))
    return VarianceEstimate(float(np.mean(values)), estimator)


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
    if estimator not in ESTIMATORS:
        raise OutOfRange(
            f"unknown estimator {estimator!r}; expected one of "
            f"{sorted(ESTIMATORS)}"
        )
    if not 0.0 < alpha < 1.0:
        raise OutOfRange(f"alpha must be in (0, 1), got {alpha}")
    ds.require_totals(ESTIMATORS[estimator], f"estimator {estimator}")
    stat = aggregate_statistic(ds)
    var = _aggregate_variance(ds, estimator, B, seed)
    if var.value <= 0.0:
        p = 1.0 if stat <= 0.0 else 0.0
        return TestReport(
            statistic=stat,
            variance=var,
            z=math.nan,
            p_value=p,
            alpha=alpha,
            reject=p <= alpha,
            degenerate_variance=True,
        )
    z = stat / math.sqrt(var.value)
    p = normal_cdf(-z)
    return TestReport(
        statistic=stat,
        variance=var,
        z=z,
        p_value=p,
        alpha=alpha,
        reject=z >= normal_quantile(1.0 - alpha),
        degenerate_variance=False,
    )


def run_all_tests(
    ds: GroupedDataset, alpha: float = 0.05, seed=None, B: int = 200
) -> dict[str, TestReport]:
    """Run the global test under every variance estimator."""
    return {
        est: run_global_test(ds, est, alpha=alpha, seed=seed, B=B)
        for est in ESTIMATORS
    }


def adjust_pvalues(pvalues, method: str) -> np.ndarray:
    """Multiplicity adjustment: ``'bonferroni'`` or ``'bh'`` (step-up).

    Returns adjusted p-values in the input order, clipped to [0, 1] and
    never below the raw values.
    """
    p = np.asarray(pvalues, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise OutOfRange("pvalues must be a non-empty 1-d sequence")
    if np.any(p < 0) or np.any(p > 1):
        raise OutOfRange("pvalues must lie in [0, 1]")
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


def global_minp_rule(pvalues, alpha: float = 0.05) -> bool:
    """Reject the global null when the smallest p-value is <= alpha / k."""
    p = np.asarray(pvalues, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise OutOfRange("pvalues must be a non-empty 1-d sequence")
    return bool(p.min() <= alpha / p.size)


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
    ``(seed, r)``, independent of evaluation order.

    Ties are decided exactly: ``T*`` and ``T`` are compared through the
    integer numerator ``T * n1 (n1 - 1) n2 (n2 - 1)``
    (:func:`grouphom._batch.tu_numerator`), exact in int64 while
    ``n1 * n2 < 2**30``.  A group with larger totals is compared in
    floating point, on the statistic both sides get from the same kernel,
    where two distinct count pairs of equal statistic may round apart.

    Raises
    ------
    InvalidB
        If ``B < 2``.
    SampleTooSmall
        If any sample total is below 2.
    """
    if B < 2:
        raise InvalidB(f"bootstrap needs B >= 2, got {B}")
    ds.require_totals(2, "the per-group bootstrap")
    if seed is None:
        seed = np.random.SeedSequence().entropy
    stats = group_statistics(ds)
    n1, n2 = ds.sizes(1), ds.sizes(2)
    num = _batch.tu_numerator(ds.c1, ds.c2, n1, n2)[:, None]
    inexact = n1.astype(np.float64) * n2 >= 2.0**30
    above, ties = np.empty((2, ds.k), dtype=np.int64)
    for lo, hi, b1, b2 in null_draws(ds, B, seed):
        m1, m2 = n1[lo:hi, None], n2[lo:hi, None]
        star = _batch.tu_numerator(b1, b2, m1, m2)
        exceeds, tied = star > num[lo:hi], star == num[lo:hi]
        rows = inexact[lo:hi]
        if rows.any():
            f1, f2 = m1[rows].astype(np.float64), m2[rows].astype(np.float64)
            t_star = _batch.tu_group(
                b1[rows] / f1[..., None], b2[rows] / f2[..., None], f1, f2
            )
            t_obs = stats[lo:hi][rows, None]
            exceeds[rows], tied[rows] = t_star > t_obs, t_star == t_obs
        above[lo:hi] = exceeds.sum(axis=1)
        ties[lo:hi] = tied.sum(axis=1)
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
