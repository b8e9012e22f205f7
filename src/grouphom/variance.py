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

import operator
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
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


#: Bootstrap count vectors held at once per population, summed over the
#: chunks in flight (or ``B``, if more): fewer and smaller chunks are in
#: flight as ``B`` grows, so memory grows neither with k nor with the
#: number of CPUs.
CHUNK_DRAWS = 1 << 14


def _check_bootstrap_size(B: int) -> None:
    """Every bootstrap here needs ``B >= 2``: one draw has no variance."""
    if B < 2:
        raise InvalidB(f"bootstrap needs B >= 2, got {B}")


def _available_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _pooled_null_draw(rng, n1, n2, phat, B: int):
    """``B`` pooled-null resamples of both samples, sample 1 first.

    ``phat`` holds pooled proportions, ``(..., d)``; the draws have shape
    ``(B, ..., d)``, multinomial on ``phat`` with totals ``n1`` and
    ``n2``.  The library calls this per group, with the group's stream;
    the Monte Carlo engine per replicate, with the replicate's.
    """
    size = (B,) + phat.shape[:-1]
    return rng.multinomial(n1, phat, size=size), rng.multinomial(n2, phat, size=size)


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _stream_keys(seed: int, k: int) -> np.ndarray:
    """Philox keys of ``SeedSequence(seed, spawn_key=(g,))``, ``g < k``.

    Equal to ``Philox(SeedSequence(seed, spawn_key=(g,))).state["state"]
    ["key"]`` for each ``g``, as a ``(k, 2)`` uint64 array, but made for
    all groups at once: constructing both objects per group holds the
    GIL, which no other thread's draw can overlap, so at small ``B`` it
    would serialise the threaded draw.  SeedSequence mixes the spawn-key
    word into the pool of ``SeedSequence(seed)`` after the seed's own
    32-bit words, four hash-mixes each (16 for the first four words), and
    Philox keys itself from ``generate_state(2, np.uint64)``; both steps
    are repeated here.
    """
    seed = operator.index(seed)
    pool = np.random.SeedSequence(seed).pool.astype(np.uint64)
    words = max(1, -(-seed.bit_length() // 32))
    h = _INIT_A * pow(_MULT_A, 16 + 4 * max(0, words - 4), 1 << 32) & _M32
    g = np.arange(k, dtype=np.uint64)
    state = np.empty((k, 4), dtype=np.uint64)
    for i in range(4):
        v = g ^ h
        h = h * _MULT_A & _M32
        v = v * h & _M32
        v ^= v >> 16
        mixed = (_MIX_L * pool[i] - _MIX_R * v) & _M32
        state[:, i] = mixed ^ (mixed >> 16)
    h = _INIT_B
    for i in range(4):
        v = state[:, i] ^ h
        h = h * _MULT_B & _M32
        v = v * h & _M32
        state[:, i] = v ^ (v >> 16)
    return state[:, 0::2] | state[:, 1::2] << 32


def null_draws(ds: GroupedDataset, B: int, seed: int | None, work=None):
    """Pooled-null bootstrap counts of every group, a chunk at a time.

    Group ``g`` draws from the Philox stream of ``SeedSequence(seed,
    spawn_key=(g,))`` (see :func:`_stream_keys` and
    :func:`_pooled_null_draw`), so the draws do not depend on which
    thread makes them.  ``seed`` is a non-negative integer, or ``None``
    for fresh OS entropy.  Yields ``(lo, hi, b1, b2, out)``
    in group order, with ``b1``/``b2`` of shape ``(hi - lo, B, d)`` for
    groups ``lo..hi-1`` and ``out = work(lo, hi, b1, b2)``, or ``None``
    without ``work``.

    Chunks are drawn ahead on a thread pool of one thread per available
    CPU (at most one per chunk), with at most one chunk more in flight
    than there are threads and no more resamples in flight than
    :data:`CHUNK_DRAWS` allows, so a large ``B`` gets fewer threads;
    numpy's multinomial draw releases the GIL.  Where that leaves one
    thread, the calling thread draws.  ``work`` runs on the thread that
    drew the chunk, so it must be thread-safe and must call no function
    that the benchmark's tracer wraps (``perfbench/tracing.py`` keeps one
    span stack).  The buffers are reused: a chunk is valid until the
    generator is resumed.  A worker's exception is raised here, and the
    pool is shut down before the generator finishes.
    """
    if seed is None:
        seed = np.random.SeedSequence().entropy
    n1, n2 = ds.sizes(1), ds.sizes(2)
    keys = _stream_keys(seed, ds.k)
    cpus = _available_cpus()
    # Chunks in flight: one more than the threads, but with at most
    # max(CHUNK_DRAWS, B) resamples per population held at once.
    in_flight = min(cpus + 1, max(1, CHUNK_DRAWS // B))
    chunk = min(ds.k, max(1, CHUNK_DRAWS // (in_flight * B)))
    chunks = range(0, ds.k, chunk)
    threads = min(cpus, in_flight, len(chunks))
    # A chunk in flight owns two buffers and a generator, whose Philox
    # state is set to each of its groups' streams in turn.
    slots = []
    for _ in range(min(in_flight, len(chunks)) if threads > 1 else 1):
        bitgen = np.random.Philox(0)
        slots.append((np.empty((chunk, B, ds.d), dtype=np.int64),
                      np.empty((chunk, B, ds.d), dtype=np.int64),
                      bitgen, np.random.Generator(bitgen)))
    zeros = np.zeros(4, dtype=np.uint64)

    def draw(slot, lo):
        b1, b2, bitgen, rng = slot
        hi = min(lo + chunk, ds.k)
        b1, b2 = b1[: hi - lo], b2[: hi - lo]
        phat = (ds.c1[lo:hi] + ds.c2[lo:hi]) / (n1[lo:hi] + n2[lo:hi])[:, None]
        for i, g in enumerate(range(lo, hi)):
            # the state Philox(SeedSequence(seed, spawn_key=(g,))) starts in
            bitgen.state = {
                "bit_generator": "Philox",
                "state": {"counter": zeros, "key": keys[g]},
                "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
            }
            b1[i], b2[i] = _pooled_null_draw(rng, n1[g], n2[g], phat[i], B)
        return lo, hi, b1, b2, None if work is None else work(lo, hi, b1, b2)

    if threads == 1:
        # nothing to overlap: a worker would only add a hand-off, and a
        # malloc arena that keeps what the draws allocated
        for lo in chunks:
            yield draw(slots[0], lo)
        return
    with ThreadPoolExecutor(threads) as pool:
        pending = deque()
        try:
            for j, lo in enumerate(chunks):
                if len(pending) == len(slots):
                    yield pending.popleft().result()
                # chunk j reuses the slot of chunk j - len(slots), which
                # the caller has just finished with
                pending.append(pool.submit(draw, slots[j % len(slots)], lo))
            while pending:
                yield pending.popleft().result()
        finally:
            for future in pending:
                future.cancel()


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
    for a fixed seed regardless of evaluation order and thread count.
    ``seed`` is a non-negative integer, or ``None`` for fresh OS entropy.
    Resampling uses numpy's multinomial generator; only the draws run on
    :func:`null_draws`' worker threads, and the statistics of each chunk
    are reduced on the calling thread, in group order, before the next
    chunk is taken.

    Raises
    ------
    InvalidB
        If ``B < 2``.
    SampleTooSmall
        If any sample total is below 2.
    """
    _check_bootstrap_size(B)
    ds.require_totals(2, "estimator test7")
    n1 = ds.sizes(1).astype(np.float64)[:, None]
    n2 = ds.sizes(2).astype(np.float64)[:, None]
    total = np.zeros(B, dtype=np.float64)
    for lo, hi, b1, b2, _ in null_draws(ds, B, seed):
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
