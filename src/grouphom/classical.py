"""Classical per-group baselines: chi-square, likelihood ratio, and their
aggregated forms.

Two aggregation styles are provided for both the chi-square statistic and
the -2 log likelihood-ratio:

* a naive standardization using the chi-square limit's moments
  (mean ``d - 1``, variance ``2(d - 1)``), which is badly mis-centered
  when sample sizes are small relative to ``d``;
* an oracle standardization using the exact null mean and variance of the
  per-group statistic at a known probability vector, computed from the
  categories' binomial and pairwise trinomial distributions.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, xlogy
from scipy.stats import chi2 as _chi2_dist

from . import _batch
from .data import GroupedDataset, ProbVector
from .errors import OutOfRange, ZeroVariance

__all__ = [
    "MomentPair",
    "uit_statistic",
    "wk_statistic",
    "vk_statistic",
    "wk_prime",
    "vk_prime",
    "chi_square_pooled",
    "chi_square_moments_oracle",
    "lrt_moments_oracle",
]

@dataclass(frozen=True)
class MomentPair:
    """Null mean and variance of a per-group statistic."""

    mean: float
    variance: float

    def __post_init__(self):
        if not (math.isfinite(self.mean) and math.isfinite(self.variance)):
            raise OutOfRange(
                f"moments must be finite, got mean {self.mean!r} and "
                f"variance {self.variance!r}"
            )
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


def _pmfs(n: int, p: np.ndarray):
    """Binomial pmfs of each category's count, ``(d, n + 1)``, and an
    iterator over ``j`` of the trinomial pmfs of category ``j``'s and
    each later category ``l``'s counts, ``(d - 1 - j, n + 1, n + 1)``,
    for a sample of ``n`` from ``p``.

    Each pmf is divided by its sum: the rounding of the log-factorials,
    ``log n!`` above all, scales a whole pmf alike, and at ``n = 300`` it
    moved the moments by up to ``6e-11`` relative.
    """
    a = np.arange(n + 1, dtype=np.float64)
    lf = gammaln(a + 1)
    binom = np.exp(lf[n] - lf - lf[::-1] + xlogy(a, p[:, None])
                   + xlogy(a[::-1], 1.0 - p[:, None]))
    binom /= binom.sum(axis=1, keepdims=True)
    rest = n - a[:, None] - a[None, :]
    valid = rest >= 0
    rest = np.maximum(rest, 0.0)
    base = lf[n] - lf[:, None] - lf[None, :] - gammaln(rest + 1)

    def trinomials():
        for j in range(p.size - 1):
            pl = p[j + 1:, None, None]
            q = np.maximum(0.0, 1.0 - p[j] - pl)
            log_pmf = (base + xlogy(a[:, None], p[j]) + xlogy(a[None, :], pl)
                       + xlogy(rest, q))
            pmf = np.exp(log_pmf, where=valid, out=np.zeros_like(log_pmf))
            yield pmf / pmf.sum(axis=(1, 2), keepdims=True)

    return binom, trinomials()


def _null_moments(pi: ProbVector, n1: int, n2: int, stat_fn) -> MomentPair:
    """Null mean and variance of ``stat_fn`` at ``pi``, exactly.

    ``stat_fn`` is a sum over categories of a term ``h(c1j, c2j)``, plus a
    constant.  Called on one category it gives ``h`` plus the constant,
    and ``h(0, 0) = 0``, so ``H``, the ``(n1 + 1, n2 + 1)`` table of ``h``,
    is its values less its value at ``(0, 0)``.  Under the null a
    category's two counts are independent binomials, ``b1_j`` and
    ``b2_j``, and two categories' counts in one sample are trinomial,
    ``P1_jl`` and ``P2_jl``.  So ``E[T] = sum_j b1_j' H b2_j`` plus the
    constant, and with ``H_j = H - b1_j' H b2_j``, ``H`` centered at
    category ``j``'s mean::

        Var[T] = sum_j b1_j' (H_j o H_j) b2_j
                 + 2 sum_{j<l} sum(P1_jl o (H_j P2_jl H_l'))

    which is ``E[T^2] - E[T]^2`` taken about each category's mean, so
    that it does not cancel.
    """
    for name, n in (("n1", n1), ("n2", n2)):
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
            raise OutOfRange(f"{name} must be an integer >= 1, got {n!r}")
    p = pi.probs
    a = np.arange(n1 + 1, dtype=np.float64)[:, None, None]
    b = np.arange(n2 + 1, dtype=np.float64)[None, :, None]
    g = stat_fn(a, b, float(n1), float(n2))
    h = g - g[0, 0]
    b1, t1 = _pmfs(n1, p)
    b2, t2 = _pmfs(n2, p)
    means = np.einsum("ja,ab,jb->j", b1, h, b2)
    centered = h - means[:, None, None]
    variance = float(np.einsum("ja,jab,jb->", b1, centered * centered, b2))
    for j, (p1, p2) in enumerate(zip(t1, t2)):
        # by einsum, not BLAS: nothing else the engine runs calls BLAS,
        # and its first call in a process adds up to about 0.5 MB to the
        # resident set
        left = np.einsum("ab,lbc->lac", centered[j], p2)
        cross = np.einsum("lac,ldc->lad", left, centered[j + 1:])
        variance += 2.0 * float(np.sum(p1 * cross))
    # max(nan, 0.0) is nan, which MomentPair rejects; max(0.0, nan) is 0.0
    return MomentPair(float(means.sum()) + float(g[0, 0]), max(variance, 0.0))


def chi_square_moments_oracle(pi: ProbVector, n1: int, n2: int) -> MomentPair:
    """Null mean and variance of the per-group chi-square statistic, with
    both samples drawn from ``pi``, computed exactly from the categories'
    binomial and pairwise trinomial distributions."""
    return _null_moments(pi, n1, n2, _batch.chi2_group)


def lrt_moments_oracle(pi: ProbVector, n1: int, n2: int) -> MomentPair:
    """Null mean and variance of the -2 log likelihood-ratio statistic."""
    return _null_moments(pi, n1, n2, _batch.lrt_group)
