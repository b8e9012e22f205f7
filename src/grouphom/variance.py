"""Null-variance estimators for the aggregated squared-distance statistic.

Under the null, each group's statistic has variance

    var0 = 2/(n1(n1-1)) tr(Sigma^2) + 2/(n2(n2-1)) tr(Sigma^2)
         + 4/(n1 n2) tr(Sigma^2)

with Sigma the shared multinomial covariance.  The estimators differ in
how the trace terms are estimated from one group:

* ``test1`` — each term by its own unbiased estimator: an ordered-pair
  U-statistic of the counts for tr(Sigma^2) within each sample, and the
  trace of the product of the two bias-corrected covariance estimates for
  the cross term.  Unbiased under the null and under alternatives.
* ``test2`` — every term by the cross-sample product trace (unbiased
  under the null only).
* ``test3`` — every term by the pooled-sample U-statistic.
* ``test4``/``test5``/``test6`` — plug-in analogues of 1/2/3 with the
  empirical covariance used directly (no bias correction); always
  non-negative but biased in small samples.
* ``test7`` — nonparametric bootstrap of the aggregate statistic under
  pooled resampling.

Tests 1-3 can go negative in tiny samples; the decision layer treats a
non-positive aggregated variance as degenerate rather than clipping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _batch
from .data import GroupedDataset, ProbVector
from .errors import DimensionMismatch, InvalidB, SampleTooSmall

__all__ = [
    "VarianceEstimate",
    "centered_outer",
    "trace_product",
    "var0_bootstrap",
    "var0_true",
    "var_true_full",
]


@dataclass(frozen=True)
class VarianceEstimate:
    """A null-variance value tagged with the estimator that produced it."""

    value: float
    estimator: str


def centered_outer(pi: ProbVector) -> np.ndarray:
    """Multinomial covariance factor diag(pi) - pi pi' for one trial."""
    p = pi.probs
    return np.diag(p) - np.outer(p, p)


def trace_product(a: np.ndarray, b: np.ndarray) -> float:
    """tr(A B) as the elementwise sum of A * B', in O(d^2)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(
            f"trace_product needs two square matrices of equal shape, "
            f"got {a.shape} and {b.shape}"
        )
    return float(np.sum(a * b.T))


#: Bootstrap count vectors held at once per population: groups are
#: resampled in chunks of ``max(1, CHUNK_DRAWS // B)``, so memory does not
#: grow with k.
CHUNK_DRAWS = 1 << 14


def _check_bootstrap_size(B: int) -> None:
    """Every bootstrap here needs ``B >= 2``: one draw has no variance."""
    if B < 2:
        raise InvalidB(f"bootstrap needs B >= 2, got {B}")


def _pooled_null_draw(rng, n1, n2, phat, B: int):
    """``B`` pooled-null resamples of both samples, sample 1 first.

    ``phat`` holds pooled proportions, ``(..., d)``; the draws have shape
    ``(B, ..., d)``, multinomial on ``phat`` with totals ``n1`` and
    ``n2``.  The library calls this per group, with the group's stream;
    the Monte Carlo engine per replicate, with the replicate's.
    """
    size = (B,) + phat.shape[:-1]
    return rng.multinomial(n1, phat, size=size), rng.multinomial(n2, phat, size=size)


def null_draws(ds: GroupedDataset, B: int, seed):
    """Pooled-null bootstrap counts of every group, a chunk at a time.

    Group ``g`` draws from the Philox stream of ``SeedSequence(seed,
    spawn_key=(g,))`` (see :func:`_pooled_null_draw`).  Yields
    ``(lo, hi, b1, b2)`` in group order, with ``b1``/``b2`` of shape
    ``(hi - lo, B, d)`` for groups ``lo..hi-1``; the buffers are reused,
    so each chunk is valid until the next is drawn.
    """
    n1, n2 = ds.sizes(1), ds.sizes(2)
    chunk = min(ds.k, max(1, CHUNK_DRAWS // B))
    b1 = np.empty((chunk, B, ds.d), dtype=np.int64)
    b2 = np.empty_like(b1)
    for lo in range(0, ds.k, chunk):
        hi = min(lo + chunk, ds.k)
        phat = (ds.c1[lo:hi] + ds.c2[lo:hi]) / (n1[lo:hi] + n2[lo:hi])[:, None]
        for i, g in enumerate(range(lo, hi)):
            rng = np.random.Generator(
                np.random.Philox(np.random.SeedSequence(seed, spawn_key=(g,)))
            )
            b1[i], b2[i] = _pooled_null_draw(rng, n1[g], n2[g], phat[i], B)
        yield lo, hi, b1[: hi - lo], b2[: hi - lo]


def var0_bootstrap(
    ds: GroupedDataset, B: int = 200, seed=None
) -> VarianceEstimate:
    """Bootstrap estimate of the aggregate statistic's null variance.

    For each bootstrap replicate every group's two samples are redrawn
    from that group's pooled empirical proportions (the null resampling
    distribution); the value is the sample variance (divisor ``B - 1``)
    of the aggregated statistic over the ``B`` replicates.

    Each group consumes its own stream derived from ``(seed, group
    index)`` (see :func:`null_draws`), so the result is bit-reproducible
    for a fixed seed regardless of evaluation order.  Resampling uses
    numpy's multinomial generator.

    Raises
    ------
    InvalidB
        If ``B < 2``.
    SampleTooSmall
        If any sample total is below 2.
    """
    _check_bootstrap_size(B)
    ds.require_totals(2, "estimator test7")
    if seed is None:
        seed = np.random.SeedSequence().entropy
    n1 = ds.sizes(1).astype(np.float64)[:, None]
    n2 = ds.sizes(2).astype(np.float64)[:, None]
    total = np.zeros(B, dtype=np.float64)
    for lo, hi, b1, b2 in null_draws(ds, B, seed):
        m1, m2 = n1[lo:hi], n2[lo:hi]
        t = _batch.tu_group(b1 / m1[..., None], b2 / m2[..., None], m1, m2)
        # accumulate adds the groups one at a time, in order, so the sum
        # rounds exactly as a running total over the groups would.
        total = np.add.accumulate(np.concatenate([total[None], t]))[-1]
    values = total / np.sqrt(ds.k)
    return VarianceEstimate(float(values.var(ddof=1)), "test7")


def var0_true(pi: ProbVector, n1: int, n2: int) -> float:
    """Exact per-group null variance at a known shared probability vector."""
    if n1 < 2 or n2 < 2:
        raise SampleTooSmall(f"null variance needs n1, n2 >= 2, got ({n1}, {n2})")
    sigma = centered_outer(pi)
    return float(_batch._bracket(n1, n2) * trace_product(sigma, sigma))


def var_true_full(pi1: ProbVector, pi2: ProbVector, n1: int, n2: int) -> float:
    """Exact variance of one group's statistic at arbitrary truths.

    Sum of the two mean-driven quadratic terms, the two within-sample
    trace terms and the cross trace term.
    """
    if pi1.d != pi2.d:
        raise DimensionMismatch(
            f"probability vectors have dimensions {pi1.d} and {pi2.d}"
        )
    if n1 < 2 or n2 < 2:
        raise SampleTooSmall(f"variance needs n1, n2 >= 2, got ({n1}, {n2})")
    delta = pi1.probs - pi2.probs
    s1 = centered_outer(pi1)
    s2 = centered_outer(pi2)
    return float(
        4.0 / n1 * delta @ s1 @ delta
        + 4.0 / n2 * delta @ s2 @ delta
        + 2.0 / (n1 * (n1 - 1)) * trace_product(s1, s1)
        + 2.0 / (n2 * (n2 - 1)) * trace_product(s2, s2)
        + 4.0 / (n1 * n2) * trace_product(s1, s2)
    )
