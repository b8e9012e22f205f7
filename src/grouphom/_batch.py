"""Vectorized statistic kernels over stacked count arrays.

Every function here takes count (or proportion) arrays whose last axis is
the category dimension ``d`` and reduces over it, broadcasting freely over
any leading axes.  These are the one definition of each per-group
formula: the statistics of :mod:`grouphom.ustat`,
:mod:`grouphom.variance`, :mod:`grouphom.classical` and
:mod:`grouphom.decision`, and the Monte Carlo engine, all call them.

Sample sizes ``n1``/``n2`` may be scalars or arrays broadcastable against
the leading shape.
"""

from __future__ import annotations

import numpy as np
from scipy.special import xlogy

__all__ = [
    "tu_group",
    "tu_numerator",
    "trace_cross",
    "trace_sq_unbiased",
    "chi2_group",
    "lrt_group",
    "var_group",
]


def tu_group(p1, p2, n1, n2):
    """Per-group unbiased squared-distance statistic from proportions."""
    s11 = np.sum(p1 * p1, axis=-1)
    s22 = np.sum(p2 * p2, axis=-1)
    s12 = np.sum(p1 * p2, axis=-1)
    return (
        (n1 * s11 - 1.0) / (n1 - 1.0)
        + (n2 * s22 - 1.0) / (n2 - 1.0)
        - 2.0 * s12
    )


def tu_numerator(c1, c2, n1, n2):
    """The per-group statistic times ``n1 (n1-1) n2 (n2-1)``, in integers.

    ``(S11 - n1) n2 (n2-1) + (S22 - n2) n1 (n1-1) - 2 S12 (n1-1) (n2-1)``
    with ``S11 = sum c1^2``, ``S22 = sum c2^2`` and ``S12 = sum c1 c2``,
    from integer counts and totals.  Every term stays below
    ``2 n1^2 n2^2``, so the result is exact in int64 while
    ``4 n1^2 n2^2 < 2^63``; beyond that it silently wraps.
    """
    s11 = np.einsum("...j,...j->...", c1, c1)
    s22 = np.einsum("...j,...j->...", c2, c2)
    s12 = np.einsum("...j,...j->...", c1, c2)
    return (
        (s11 - n1) * n2 * (n2 - 1)
        + (s22 - n2) * n1 * (n1 - 1)
        - 2 * s12 * (n1 - 1) * (n2 - 1)
    )


def trace_cross(a, b):
    """tr(Sigma_a Sigma_b) for probability vectors a, b.

    Expanded form of the trace of the product of two multinomial
    covariance matrices: sum(ab) - sum(ab^2) - sum(a^2 b) + (sum(ab))^2.
    """
    ab = np.sum(a * b, axis=-1)
    return (
        ab
        - np.sum(a * b * b, axis=-1)
        - np.sum(a * a * b, axis=-1)
        + ab * ab
    )


def trace_sq_unbiased(counts, n=None):
    """Unbiased estimate of tr(Sigma^2) from one count vector.

    Power-sum reduction of the ordered-pair double sum over categories;
    needs a total of at least 4.
    """
    c = np.asarray(counts, dtype=np.float64)
    if n is None:
        n = c.sum(axis=-1)
    n = np.asarray(n, dtype=np.float64)
    s2 = np.sum(c * c, axis=-1)
    s3 = np.sum(c * c * c, axis=-1)
    pair_sum = 2.0 * (s2 * n - s3) - 2.0 * (n * n - s2)
    sq_sum = 2.0 * s3 * n - 2.0 * s2 * s2
    nm2 = n - 2.0
    coef = 0.5 * nm2 / (n * (n - 1.0) * (n - 3.0))
    return coef * (pair_sum / nm2 - sq_sum / (nm2 * nm2))


def chi2_group(c1, c2, n1, n2):
    """Two-sample chi-square statistic; zero pooled cells contribute 0."""
    c1 = np.asarray(c1, dtype=np.float64)
    c2 = np.asarray(c2, dtype=np.float64)
    n1 = np.asarray(n1, dtype=np.float64)
    n2 = np.asarray(n2, dtype=np.float64)
    n = n1 + n2
    pooled = c1 + c2
    p1 = c1 / n1[..., None] if n1.ndim else c1 / n1
    p2 = c2 / n2[..., None] if n2.ndim else c2 / n2
    phat = pooled / (n[..., None] if n.ndim else n)
    diff2 = (p1 - p2) ** 2
    terms = np.divide(
        diff2, phat, out=np.zeros_like(diff2), where=phat > 0
    )
    return (n1 * n2 / n) * np.sum(terms, axis=-1)


def lrt_group(c1, c2, n1, n2):
    """-2 log likelihood-ratio for one group, with 0*log(0) = 0."""
    c1 = np.asarray(c1, dtype=np.float64)
    c2 = np.asarray(c2, dtype=np.float64)
    n1 = np.asarray(n1, dtype=np.float64)
    n2 = np.asarray(n2, dtype=np.float64)
    n = n1 + n2
    pooled = c1 + c2
    ent = (
        np.sum(xlogy(c1, c1), axis=-1)
        + np.sum(xlogy(c2, c2), axis=-1)
        - np.sum(xlogy(pooled, pooled), axis=-1)
    )
    return 2.0 * (ent - xlogy(n1, n1) - xlogy(n2, n2) + xlogy(n, n))


def _bracket(n1, n2):
    return 2.0 / (n1 * (n1 - 1.0)) + 2.0 / (n2 * (n2 - 1.0)) + 4.0 / (n1 * n2)


def var_group(which, c1, c2, n1, n2):
    """Per-group null-variance estimate, vectorized.

    ``which`` is one of ``test1`` .. ``test6``; the six variants differ in
    how the three trace terms of the null variance are estimated
    (U-statistic forms for 1-3, plug-in analogues for 4-6).
    """
    c1 = np.asarray(c1, dtype=np.float64)
    c2 = np.asarray(c2, dtype=np.float64)
    n1 = np.asarray(n1, dtype=np.float64)
    n2 = np.asarray(n2, dtype=np.float64)
    p1 = c1 / (n1[..., None] if n1.ndim else n1)
    p2 = c2 / (n2[..., None] if n2.ndim else n2)
    if which == "test1":
        cross = (n1 / (n1 - 1.0)) * (n2 / (n2 - 1.0)) * trace_cross(p1, p2)
        return (
            2.0 / (n1 * (n1 - 1.0)) * trace_sq_unbiased(c1, n1)
            + 2.0 / (n2 * (n2 - 1.0)) * trace_sq_unbiased(c2, n2)
            + 4.0 / (n1 * n2) * cross
        )
    if which == "test2":
        cross = (n1 / (n1 - 1.0)) * (n2 / (n2 - 1.0)) * trace_cross(p1, p2)
        return _bracket(n1, n2) * cross
    if which == "test3":
        return _bracket(n1, n2) * trace_sq_unbiased(c1 + c2, n1 + n2)
    if which == "test4":
        return (
            2.0 / (n1 * (n1 - 1.0)) * trace_cross(p1, p1)
            + 2.0 / (n2 * (n2 - 1.0)) * trace_cross(p2, p2)
            + 4.0 / (n1 * n2) * trace_cross(p1, p2)
        )
    if which == "test5":
        return _bracket(n1, n2) * trace_cross(p1, p2)
    if which == "test6":
        pp = (c1 + c2) / ((n1 + n2)[..., None] if (n1 + n2).ndim else n1 + n2)
        return _bracket(n1, n2) * trace_cross(pp, pp)
    raise ValueError(f"unknown variance estimator {which!r}")
