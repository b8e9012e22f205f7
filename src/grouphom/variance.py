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

import math
import operator
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _batch
from .data import GroupedDataset, ProbVector
from .errors import DimensionMismatch, InvalidB, OutOfRange, SampleTooSmall

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
    """Every bootstrap here needs an integral ``B >= 2``: one draw has no
    variance."""
    try:
        B = operator.index(B)
    except TypeError:
        raise InvalidB(f"bootstrap size must be an integer, got {B!r}") from None
    if B < 2:
        raise InvalidB(f"bootstrap needs B >= 2, got {B}")


def _check_seed(seed) -> None:
    """A negative integer seed raises OutOfRange before any draw; other
    non-integers are left to :func:`_stream_keys`, which raises
    TypeError."""
    try:
        value = operator.index(seed)
    except TypeError:
        return
    if value < 0:
        raise OutOfRange(f"seed must be a non-negative integer, got {seed!r}")


def _count_buffers(shape, max_total: int):
    """Two empty arrays of ``shape`` for both samples' bootstrap counts,
    where no sample total exceeds ``max_total``.

    They are int16 while ``max_total <= 181``: then ``sum c^2`` and
    ``sum c1 c2`` stay at most ``181^2 < 2^15``, exact in the int16 sums
    of :func:`grouphom._batch.tu_numerator`.  Otherwise they are int64.
    """
    dtype = np.int16 if max_total <= 181 else np.int64
    return np.empty(shape, dtype=dtype), np.empty(shape, dtype=dtype)


def _available_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _pooled_null_draw(rng, n1, n2, phat, B: int, out):
    """Fill ``out`` with ``B`` pooled-null resamples of both samples.

    ``phat`` holds pooled proportions, ``(..., d)``; ``out`` is a pair of
    integer arrays of shape ``(B, ..., d)``, sample 1 first, filled with
    multinomial draws on ``phat`` with totals ``n1`` and ``n2`` and
    returned.  They are int16 or int64 (:func:`_count_buffers`): the
    slice assignment casts numpy's int64 draws, which fit either.  The
    library calls this per group, with the group's stream; the Monte
    Carlo engine per replicate, with the replicate's.  The arrays are
    filled in pieces of at most :data:`CHUNK_DRAWS` count vectors, so
    the draw's own temporaries stay small; ``multinomial``
    fills its output in C order, so consecutive pieces from one
    generator are the rows of one whole draw and leave the generator in
    the same state.
    """
    groups = phat.shape[:-1]
    rows = max(1, CHUNK_DRAWS // math.prod(groups))
    for b, n in zip(out, (n1, n2)):
        for lo in range(0, B, rows):
            b[lo:lo + rows] = rng.multinomial(n, phat, size=(min(rows, B - lo),) + groups)
    return out


def _draw_ahead(draw, jobs, slots, threads: int):
    """``draw(slot, job)`` of each of ``jobs``, yielded in order.

    Job ``j`` gets ``slots[j % len(slots)]``: the buffers it fills, which
    the caller allocated and which hold its result until the caller
    resumes this generator, ``len(slots)`` jobs later at the earliest.
    With ``threads > 1`` the jobs are drawn ahead on a pool of that many
    threads, at most ``len(slots)`` of them in flight; else the calling
    thread draws them.  ``jobs`` is iterated on the calling thread.  A job
    names its streams' keys; each slot owns a generator
    (:func:`_stream_rng`), which ``draw`` sets to each of the job's
    streams in turn (:func:`_start_stream`), so no generator is built per
    job.  A worker's exception is raised here, unstarted jobs are
    cancelled, and no thread outlives the generator.  ``draw`` runs on a
    worker thread, so it must be thread-safe, and it must call no
    function that the benchmark's tracer wraps (``perfbench/tracing.py``
    keeps one span stack): reductions that call one run on the caller's
    thread, after the yield.
    """
    if threads == 1:
        # nothing to overlap: a worker would only add a hand-off, and a
        # malloc arena that keeps what the draws allocated
        for job in jobs:
            yield draw(slots[0], job)
        return
    with ThreadPoolExecutor(threads) as pool:
        pending = deque()
        try:
            for j, job in enumerate(jobs):
                if len(pending) == len(slots):
                    yield pending.popleft().result()
                # job j reuses the slot of job j - len(slots), which the
                # caller has just finished with
                pending.append(pool.submit(draw, slots[j % len(slots)], job))
            while pending:
                yield pending.popleft().result()
        finally:
            for future in pending:
                future.cancel()


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _words(value: int) -> list[int]:
    """The 32-bit words SeedSequence reads a non-negative integer as,
    least significant first."""
    value = operator.index(value)
    return [value >> shift & _M32 for shift in range(0, max(1, value.bit_length()), 32)]


def _mixed_keys(seed: int, words) -> np.ndarray:
    """Philox keys of ``SeedSequence(seed, spawn_key=...)`` for spawn keys
    given as ``words``: a list of 32-bit words, each an int or a 1-D
    array with one entry per key, so every key has as many words."""
    pool = np.random.SeedSequence(seed).pool.astype(np.uint64)
    seed_words = len(_words(seed))
    h = _INIT_A * pow(_MULT_A, 16 + 4 * max(0, seed_words - 4), 1 << 32) & _M32
    n = max(np.size(w) for w in words)
    state = np.repeat(pool[None], n, axis=0)
    for w in words:
        w = np.asarray(w, dtype=np.uint64)
        for i in range(4):
            v = w ^ h
            h = h * _MULT_A & _M32
            v = v * h & _M32
            v = v ^ v >> 16
            mixed = (_MIX_L * state[:, i] - _MIX_R * v) & _M32
            state[:, i] = mixed ^ (mixed >> 16)
    h = _INIT_B
    for i in range(4):
        v = state[:, i] ^ h
        h = h * _MULT_B & _M32
        v = v * h & _M32
        state[:, i] = v ^ (v >> 16)
    return state[:, 0::2] | state[:, 1::2] << 32


def _stream_keys(seed: int, first, *rest: int) -> np.ndarray:
    """Philox keys of ``SeedSequence(seed, spawn_key=(i, *rest))`` for
    each ``i`` of ``first``.

    ``first`` is an integer, or a 1-D array of integers below ``2**64``;
    ``rest`` are integers.  Equal to ``Philox(SeedSequence(seed,
    spawn_key=(i, *rest))).state["state"]["key"]`` for each ``i``, as an
    ``(len(first), 2)`` uint64 array (one row for an integer ``first``),
    but made for all keys at once: constructing both objects per key
    holds the GIL, which no other thread's draw can overlap, so at small
    ``B`` it would serialise the threaded draw.  SeedSequence mixes each
    32-bit word of the spawn key (an integer from ``2**32`` is two words
    or more) into every entry of the pool of ``SeedSequence(seed)`` in
    turn, after the seed's own words, four hash-mixes a word (16 for the
    seed's first four), and Philox keys itself from
    ``generate_state(2, np.uint64)``; both steps are repeated here.
    """
    seed = operator.index(seed)
    tail = [w for x in rest for w in _words(x)]
    if np.ndim(first) == 0:
        return _mixed_keys(seed, _words(first) + tail)
    first = np.asarray(first, dtype=np.uint64)
    keys = np.empty((len(first), 2), dtype=np.uint64)
    wide = first > _M32
    for rows, split in ((~wide, False), (wide, True)):
        if rows.any():
            head = first[rows]
            words = [head & _M32, head >> 32] if split else [head]
            keys[rows] = _mixed_keys(seed, words + tail)
    return keys


_ZEROS = np.zeros(4, dtype=np.uint64)
_ZEROS.flags.writeable = False


def _stream_rng():
    """A Philox bit generator and a Generator on it, which
    :func:`_start_stream` sets to one stream after another."""
    bitgen = np.random.Philox(0)
    return bitgen, np.random.Generator(bitgen)


def _start_stream(bitgen, key) -> None:
    """Set the Philox ``bitgen`` to the state ``Philox(key=key)`` starts
    in, the start of the stream keyed ``key`` (a row of
    :func:`_stream_keys`): a few microseconds, where building a new
    generator takes tens."""
    bitgen.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS, "key": key},
        "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }


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

    Chunks are drawn ahead by :func:`_draw_ahead` on a thread pool of
    one thread per available CPU (at most one per chunk), with at most
    one chunk more in flight than there are threads and no more
    resamples in flight than :data:`CHUNK_DRAWS` allows, so a large ``B``
    gets fewer threads; numpy's multinomial draw releases the GIL.  Where
    that leaves one thread, the calling thread draws.  ``work`` runs on
    the thread that drew the chunk, under :func:`_draw_ahead`'s rules.
    The buffers are reused: a chunk is valid until the generator is
    resumed.
    """
    if seed is None:
        seed = np.random.SeedSequence().entropy
    n1, n2 = ds.sizes(1), ds.sizes(2)
    keys = _stream_keys(seed, np.arange(ds.k, dtype=np.uint64))
    cpus = _available_cpus()
    # Chunks in flight: one more than the threads, but with at most
    # max(CHUNK_DRAWS, B) resamples per population held at once.
    in_flight = min(cpus + 1, max(1, CHUNK_DRAWS // B))
    chunk = min(ds.k, max(1, CHUNK_DRAWS // (in_flight * B)))
    chunks = range(0, ds.k, chunk)
    threads = min(cpus, in_flight, len(chunks))
    # A chunk in flight owns two buffers and a generator, whose Philox
    # state is set to each of its groups' streams in turn.
    max_total = max(n1.max(), n2.max())
    slots = [(*_count_buffers((chunk, B, ds.d), max_total), *_stream_rng())
             for _ in range(min(in_flight, len(chunks)) if threads > 1 else 1)]

    def draw(slot, lo):
        b1, b2, bitgen, rng = slot
        hi = min(lo + chunk, ds.k)
        b1, b2 = b1[: hi - lo], b2[: hi - lo]
        phat = (ds.c1[lo:hi] + ds.c2[lo:hi]) / (n1[lo:hi] + n2[lo:hi])[:, None]
        for i, g in enumerate(range(lo, hi)):
            _start_stream(bitgen, keys[g])
            _pooled_null_draw(rng, n1[g], n2[g], phat[i], B, out=(b1[i], b2[i]))
        return lo, hi, b1, b2, None if work is None else work(lo, hi, b1, b2)

    yield from _draw_ahead(draw, chunks, slots, threads)


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
        If ``B`` is not an integer, or below 2.
    SampleTooSmall
        If any sample total is below 2.
    """
    _check_bootstrap_size(B)
    _check_seed(seed)
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
