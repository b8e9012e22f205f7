"""Classical per-group baselines: chi-square, likelihood ratio, and their
aggregated forms.

Two aggregation styles are provided for both the chi-square statistic and
the -2 log likelihood-ratio:

* a naive standardization using the chi-square limit's moments
  (mean ``d - 1``, variance ``2(d - 1)``), which is badly mis-centered
  when sample sizes are small relative to ``d``;
* an oracle standardization using the exact null mean and variance of the
  per-group statistic at a known probability vector, obtained either by
  full enumeration of the outcome pairs or by seeded Monte Carlo.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, xlogy
from scipy.stats import chi2 as _chi2_dist

from . import _batch
from .data import GroupedDataset, ProbVector
from .errors import OutOfRange, TooManyOutcomes, ZeroVariance

__all__ = [
    "MomentPair",
    "uit_statistic",
    "wk_statistic",
    "vk_statistic",
    "wk_prime",
    "vk_prime",
    "chi_square_pooled",
    "exact_enumeration_feasible",
    "chi_square_moments_oracle",
    "lrt_moments_oracle",
]

#: Pair-enumeration ceiling for the exact moments path.
EXACT_PAIR_LIMIT = 10_000_000

#: Outcome pairs per call of a statistic kernel in the moments oracle,
#: which bounds the kernel's temporaries.
_PIECE_PAIRS = 1 << 15


@dataclass(frozen=True)
class MomentPair:
    """Null mean and variance of a per-group statistic."""

    mean: float
    variance: float

    def __post_init__(self):
        if self.variance < 0:
            raise ZeroVariance(f"negative variance {self.variance!r}")


def _group_values(ds: GroupedDataset, kernel) -> np.ndarray:
    """Per-group values of a ``_batch`` kernel over the whole dataset."""
    return kernel(ds.c1, ds.c2, ds.sizes(1), ds.sizes(2))


def uit_statistic(ds: GroupedDataset) -> float:
    """Sum of the per-group chi-square statistics."""
    return float(_group_values(ds, _batch.chi2_group).sum())


def _naive_standardized(values: np.ndarray, d: int):
    """``(sum_r T_r - k (d-1)) / sqrt(2 k (d-1))`` over the last (group)
    axis of ``values``."""
    k = values.shape[-1]
    return (values.sum(axis=-1) - k * (d - 1)) / math.sqrt(k * 2.0 * (d - 1))


def wk_statistic(ds: GroupedDataset, d: int | None = None) -> float:
    """Chi-square aggregate standardized by the limiting moments.

    ``sum_r (T_r - (d-1)) / sqrt(2(d-1)) / sqrt(k)``.
    """
    return float(_naive_standardized(
        _group_values(ds, _batch.chi2_group), ds.d if d is None else d
    ))


def vk_statistic(ds: GroupedDataset, d: int | None = None) -> float:
    """Likelihood-ratio aggregate standardized by the limiting moments."""
    return float(_naive_standardized(
        _group_values(ds, _batch.lrt_group), ds.d if d is None else d
    ))


def _moments_arrays(moments, k: int) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(moments, MomentPair):
        moments = [moments] * k
    moments = list(moments)
    if len(moments) != k:
        raise OutOfRange(
            f"need one moment pair per group: got {len(moments)} for k={k}"
        )
    means = np.array([m.mean for m in moments], dtype=np.float64)
    variances = np.array([m.variance for m in moments], dtype=np.float64)
    if variances.sum() <= 0:
        raise ZeroVariance("sum of null variances is not positive")
    return means, variances


def _oracle_standardized(values, means, variances):
    """``(sum_r T_r - sum_r E_r) / sqrt(sum_r V_r)`` over the last (group)
    axis."""
    return (values.sum(axis=-1) - means.sum(axis=-1)) / np.sqrt(
        variances.sum(axis=-1)
    )


def wk_prime(ds: GroupedDataset, moments) -> float:
    """Chi-square aggregate standardized by exact null moments.

    ``moments`` is a single :class:`MomentPair` (shared by all groups) or
    a sequence of one per group: ``sum_r (T_r - E_r) / sqrt(sum_r V_r)``.
    """
    means, variances = _moments_arrays(moments, ds.k)
    return float(_oracle_standardized(
        _group_values(ds, _batch.chi2_group), means, variances
    ))


def vk_prime(ds: GroupedDataset, moments) -> float:
    """Likelihood-ratio aggregate standardized by exact null moments."""
    means, variances = _moments_arrays(moments, ds.k)
    return float(_oracle_standardized(
        _group_values(ds, _batch.lrt_group), means, variances
    ))


def chi_square_pooled(ds: GroupedDataset) -> tuple[float, float]:
    """No-grouping baseline: chi-square test on the group-summed counts.

    Returns the statistic and its upper-tail p-value against the
    chi-square distribution with ``d - 1`` degrees of freedom.
    """
    stat, p = _pooled_chi2(ds.c1, ds.c2)
    return float(stat), float(p)


def _pooled_chi2(c1, c2):
    """Statistic and p-value of :func:`chi_square_pooled` for counts of
    shape ``(..., k, d)``."""
    p1, p2 = c1.sum(axis=-2), c2.sum(axis=-2)
    stat = _batch.chi2_group(p1, p2, p1.sum(axis=-1), p2.sum(axis=-1))
    return stat, _chi2_dist.sf(stat, c1.shape[-1] - 1)


# ---------------------------------------------------------------------------
# Null moments of a per-group statistic at a known probability vector.
# ---------------------------------------------------------------------------


def exact_enumeration_feasible(d: int, n1: int, n2: int) -> bool:
    """Whether the ``m1 * m2`` outcome-pair grid fits the exact path."""
    m1 = math.comb(n1 + d - 1, d - 1)
    m2 = math.comb(n2 + d - 1, d - 1)
    return m1 * m2 <= EXACT_PAIR_LIMIT


def _compositions(n: int, d: int) -> np.ndarray:
    """All count vectors of length d summing to n, as an (m, d) array."""
    if d == 1:
        return np.array([[n]], dtype=np.int64)
    bars = np.array(
        list(itertools.combinations(range(n + d - 1), d - 1)), dtype=np.int64
    )
    full = np.empty((bars.shape[0], d + 1), dtype=np.int64)
    full[:, 0] = -1
    full[:, 1:d] = bars
    full[:, d] = n + d - 1
    return np.diff(full, axis=1) - 1


def _log_pmf(counts: np.ndarray, n: int, pi: np.ndarray) -> np.ndarray:
    return (
        gammaln(n + 1)
        - gammaln(counts + 1).sum(axis=1)
        + xlogy(counts, pi).sum(axis=1)
    )


def _null_moments(
    pi: ProbVector,
    n1: int,
    n2: int,
    stat_fn,
    method: str,
    reps: int,
    seed,
) -> MomentPair:
    """Null mean and variance of ``stat_fn`` at ``pi``, exact or Monte
    Carlo.

    The exact path sums over the outcome-pair grid in chunks of about
    2,000,000 pairs, ``v1`` rows at a time: ``mean += sum(w t)`` and
    ``second += sum((w t) t)`` per chunk, with ``w`` the pairs'
    probabilities and ``t`` their statistics.  The Monte Carlo path
    draws both samples' ``reps`` count vectors whole, from one
    generator, and takes the mean and sample variance of ``t``.  Both
    fill ``t`` by calling ``stat_fn`` on pieces of at most
    :data:`_PIECE_PAIRS` pairs: the kernels work elementwise over the
    leading axes and reduce only over categories, so ``t`` is the same
    float for float as from one call, and the kernel's ``(pairs, d)``
    float temporaries stay small.
    """
    p = pi.probs
    d = p.size
    f1, f2 = float(n1), float(n2)
    if method == "auto":
        method = "exact" if exact_enumeration_feasible(d, n1, n2) else "montecarlo"
    if method == "exact":
        if not exact_enumeration_feasible(d, n1, n2):
            raise TooManyOutcomes(
                f"exact enumeration over >{EXACT_PAIR_LIMIT} outcome pairs "
                f"(d={d}, n1={n1}, n2={n2}); use method='montecarlo'"
            )
        v1 = _compositions(n1, d)
        v2 = _compositions(n2, d)
        w1 = np.exp(_log_pmf(v1, n1, p))
        w2 = np.exp(_log_pmf(v2, n2, p))
        m2 = v2.shape[0]
        mean = 0.0
        second = 0.0
        chunk = max(1, 2_000_000 // max(1, m2))
        rows = max(1, _PIECE_PAIRS // m2)
        for lo in range(0, v1.shape[0], chunk):
            hi = min(lo + chunk, v1.shape[0])
            t = np.empty((hi - lo, m2))
            for a in range(lo, hi, rows):
                b = min(a + rows, hi)
                for c in range(0, m2, _PIECE_PAIRS):
                    t[a - lo:b - lo, c:c + _PIECE_PAIRS] = stat_fn(
                        v1[a:b, None, :], v2[None, c:c + _PIECE_PAIRS, :], f1, f2
                    )
            # w t, then (w t) t: the order ``w * t * t`` evaluates in,
            # with each product formed in place
            wt = w1[lo:hi, None] * w2[None, :]
            wt *= t
            mean += float(wt.sum())
            t *= wt
            second += float(t.sum())
        return MomentPair(mean, max(0.0, second - mean * mean))
    if method == "montecarlo":
        if reps < 2:
            raise OutOfRange(f"montecarlo moments need reps >= 2, got {reps}")
        rng = np.random.default_rng(seed)
        c1 = rng.multinomial(n1, p, size=reps)
        c2 = rng.multinomial(n2, p, size=reps)
        t = np.empty(reps)
        for a in range(0, reps, _PIECE_PAIRS):
            t[a:a + _PIECE_PAIRS] = stat_fn(
                c1[a:a + _PIECE_PAIRS], c2[a:a + _PIECE_PAIRS], f1, f2
            )
        return MomentPair(float(t.mean()), float(t.var(ddof=1)))
    raise OutOfRange(f"method must be 'auto', 'exact' or 'montecarlo': {method!r}")


def chi_square_moments_oracle(
    pi: ProbVector,
    n1: int,
    n2: int,
    method: str = "auto",
    reps: int = 100_000,
    seed=None,
) -> MomentPair:
    """Null mean and variance of the per-group chi-square statistic.

    With both samples drawn from ``pi``, enumerates every outcome pair
    weighted by its exact multinomial probability when the grid has at
    most ``EXACT_PAIR_LIMIT`` entries (or ``method='exact'`` forces it),
    otherwise estimates by seeded Monte Carlo.
    """
    return _null_moments(
        pi, n1, n2, _batch.chi2_group, method, reps, seed
    )


def lrt_moments_oracle(
    pi: ProbVector,
    n1: int,
    n2: int,
    method: str = "auto",
    reps: int = 100_000,
    seed=None,
) -> MomentPair:
    """Null mean and variance of the -2 log likelihood-ratio statistic."""
    return _null_moments(pi, n1, n2, _batch.lrt_group, method, reps, seed)
