"""Vectorized statistic kernels over stacked count arrays.

Every function here takes count (or proportion) arrays whose last axis is
the category dimension ``d`` and reduces over it, broadcasting freely over
any leading axes.  These are the one definition of each per-group
formula: the statistics of :mod:`grouphom.ustat`,
:mod:`grouphom.variance`, :mod:`grouphom.classical` and
:mod:`grouphom.decision`, and the Monte Carlo engine, all call them.

Sample sizes ``n1``/``n2`` may be scalars or arrays broadcastable against
the leading shape.

Every sum over categories goes through :func:`_catsum`: the bits of
numpy's own sum over a contiguous category axis, whatever the axis's
stride, at a third of its cost below 8 categories.
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


def _catsum(x):
    """``np.sum(x, axis=-1)`` of a float64 array, bit for bit: below 8
    terms, the terms in order from 0.0, added by slices; from 8 to 128,
    numpy's eight running sums, taken by slices where the category axis
    is strided (the engine's category-major planes), as ``np.sum`` would
    not add them in its order there; else ``np.sum`` itself, on a copy
    with a contiguous category axis."""
    d = x.shape[-1]
    if d < 8:
        s, done = x[..., 0] + 0.0, 1
    elif x.strides[-1] == x.itemsize or d > 128:
        return np.sum(np.ascontiguousarray(x), axis=-1)
    else:
        r, done = x[..., :8] + 0.0, d - d % 8
        for i in range(8, done, 8):
            r += x[..., i:i + 8]
        while r.shape[-1] > 1:  # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + ...
            r = r[..., 0::2] + r[..., 1::2]
        s = r[..., 0]
    for j in range(done, d):
        s += x[..., j]
    return s


def tu_group(p1, p2, n1, n2, s12=None):
    """Per-group unbiased squared-distance statistic from proportions;
    ``s12``, if given, is ``_catsum(p1 * p2)``."""
    s11 = _catsum(p1 * p1)
    s22 = _catsum(p2 * p2)
    s12 = _catsum(p1 * p2) if s12 is None else s12
    return (
        (n1 * s11 - 1.0) / (n1 - 1.0)
        + (n2 * s22 - 1.0) / (n2 - 1.0)
        - 2.0 * s12
    )


def tu_numerator(c1, c2, n1, n2):
    """The per-group statistic times ``n1 (n1-1) n2 (n2-1)``, in integers.

    ``(S11 - n1) n2 (n2-1) + (S22 - n2) n1 (n1-1) - 2 S12 (n1-1) (n2-1)``
    with ``S11 = sum c1^2``, ``S22 = sum c2^2`` and ``S12 = sum c1 c2``,
    from integer counts and totals.  The three sums are taken in the
    counts' own dtype, which holds them while they fit it (for int16
    counts, while both totals are at most 181), and widened to int64
    before the products.  Every term stays below ``2 n1^2 n2^2``, so the
    result is exact in int64 while ``4 n1^2 n2^2 < 2^63``; beyond that
    it silently wraps.
    """
    s11, s22, s12 = (
        np.einsum("...j,...j->...", a, b).astype(np.int64, copy=False)
        for a, b in ((c1, c1), (c2, c2), (c1, c2))
    )
    return (
        (s11 - n1) * n2 * (n2 - 1)
        + (s22 - n2) * n1 * (n1 - 1)
        - 2 * s12 * (n1 - 1) * (n2 - 1)
    )


def trace_cross(a, b, ab=None):
    """tr(Sigma_a Sigma_b) for probability vectors a, b, expanded:
    sum(ab) - sum(ab^2) - sum(a^2 b) + (sum(ab))^2, for the multinomial
    covariances; ``ab``, if given, is ``_catsum(a * b)``."""
    prod = a * b
    ab = _catsum(prod) if ab is None else ab
    return ab - _catsum(prod * b) - _catsum(a * a * b) + ab * ab


def trace_sq_unbiased(counts, n=None):
    """Unbiased estimate of tr(Sigma^2) from one count vector.

    Power-sum reduction of the ordered-pair double sum over categories;
    needs a total of at least 4.
    """
    c = np.asarray(counts, dtype=np.float64)
    if n is None:
        n = _catsum(c)
    n = np.asarray(n, dtype=np.float64)
    sq = c * c
    s2 = _catsum(sq)
    s3 = _catsum(sq * c)
    pair_sum = 2.0 * (s2 * n - s3) - 2.0 * (n * n - s2)
    sq_sum = 2.0 * s3 * n - 2.0 * s2 * s2
    nm2 = n - 2.0
    coef = 0.5 * nm2 / (n * (n - 1.0) * (n - 3.0))
    return coef * (pair_sum / nm2 - sq_sum / (nm2 * nm2))


def chi2_group(c1, c2, n1, n2):
    """Two-sample chi-square statistic; zero pooled cells contribute 0."""
    c1, c2, n1, n2 = (np.asarray(a, np.float64) for a in (c1, c2, n1, n2))
    n = n1 + n2
    pooled = c1 + c2
    p1 = c1 / n1[..., None]
    p2 = c2 / n2[..., None]
    phat = pooled / n[..., None]
    diff2 = (p1 - p2) ** 2
    terms = np.divide(diff2, phat, out=np.zeros_like(diff2), where=phat > 0)
    return (n1 * n2 / n) * _catsum(terms)


def lrt_group(c1, c2, n1, n2):
    """-2 log likelihood-ratio for one group, with 0*log(0) = 0."""
    c1, c2, n1, n2 = (np.asarray(a, np.float64) for a in (c1, c2, n1, n2))
    n = n1 + n2
    pooled = c1 + c2
    ent = _catsum(xlogy(c1, c1)) + _catsum(xlogy(c2, c2))
    ent = ent - _catsum(xlogy(pooled, pooled))
    return 2.0 * (ent - xlogy(n1, n1) - xlogy(n2, n2) + xlogy(n, n))


def _bracket(n1, n2):
    return 2.0 / (n1 * (n1 - 1.0)) + 2.0 / (n2 * (n2 - 1.0)) + 4.0 / (n1 * n2)


CROSS_ESTIMATORS = frozenset({"test1", "test2", "test4", "test5"})


def var_group(which, c1, c2, n1, n2, cross=None):
    """Per-group null-variance estimate, vectorized.

    ``which`` is one of ``test1`` .. ``test6``; the six variants differ in
    how the three trace terms of the null variance are estimated
    (U-statistic forms for 1-3, plug-in analogues for 4-6).  Those of
    ``CROSS_ESTIMATORS`` use ``cross``, ``trace_cross(p1, p2)`` of the
    proportions ``c / n``, computed here if not given.
    """
    c1, c2, n1, n2 = (np.asarray(a, np.float64) for a in (c1, c2, n1, n2))
    if cross is None and which in CROSS_ESTIMATORS:
        cross = trace_cross(c1 / n1[..., None], c2 / n2[..., None])
    if which == "test1":
        cross = (n1 / (n1 - 1.0)) * (n2 / (n2 - 1.0)) * cross
        return (
            2.0 / (n1 * (n1 - 1.0)) * trace_sq_unbiased(c1, n1)
            + 2.0 / (n2 * (n2 - 1.0)) * trace_sq_unbiased(c2, n2)
            + 4.0 / (n1 * n2) * cross
        )
    if which == "test2":
        return _bracket(n1, n2) * ((n1 / (n1 - 1.0)) * (n2 / (n2 - 1.0)) * cross)
    if which == "test3":
        return _bracket(n1, n2) * trace_sq_unbiased(c1 + c2, n1 + n2)
    if which == "test4":
        p1, p2 = c1 / n1[..., None], c2 / n2[..., None]
        return (
            2.0 / (n1 * (n1 - 1.0)) * trace_cross(p1, p1)
            + 2.0 / (n2 * (n2 - 1.0)) * trace_cross(p2, p2)
            + 4.0 / (n1 * n2) * cross
        )
    if which == "test5":
        return _bracket(n1, n2) * cross
    if which == "test6":
        pp = (c1 + c2) / (n1 + n2)[..., None]
        return _bracket(n1, n2) * trace_cross(pp, pp)
    raise ValueError(f"unknown variance estimator {which!r}")
