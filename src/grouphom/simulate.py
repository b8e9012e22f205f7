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
side keys ``(r, 1)`` and ``(r, 2)``.  A block of replicates derives
these streams' Philox keys at once, equal to the keys numpy derives from
each SeedSequence (:func:`grouphom.variance._stream_keys`), and sets a
reused generator to each in turn.  Results are therefore independent of
block sizes and of the worker count, and :func:`generate_replicate` is
the block draw of one key: the same code, not a copy of it.

Cost: the conditional-binomial probabilities of the (at most six) vectors
a setting draws are computed once, and no generator is built per
replicate (setting one's state takes a few microseconds).  A block does
not call numpy's binomial at all where numpy would draw by inversion
(``min(p, 1 - p) n <= 30``, every cell of the published tables): each
replicate sets its stream, draws its picks and one array of doubles,
and the draws are then a lookup by bin, or a search, of numpy's cumulative
probabilities per category, vectorized over a chunk of the block, on the
doubles numpy's inversion would read (:func:`_draw_block`).  The counts are
bit-identical; the few draws the search cannot settle, and cells numpy
draws by BTPE, go through the per-replicate binomial calls.

Each public call runs its cells through :func:`_run_cells`, which forks
at most one worker pool, with no more workers than the largest cell has
blocks of replicates, sends it every cell's blocks as one stream, and
lets its workers keep their freed heap (:func:`_keep_heap`).  Within a
process, the ``test7`` and ``minp`` bootstraps draw a block's replicates
ahead on ``max(1, CPUs // processes)`` threads, at most one per replicate
(see :func:`_replicate_null_draws`); they hold ``2 B k d`` counts per
thread plus one more replicate's, as int16 while both sample totals are
at most 181 (else int64), but at most ``2 d`` MiB in a process (``8 d``
MiB as int64) unless one replicate needs more (fewer threads then), and
no thread outlives a block, so a pool never forks a process with
bootstrap threads running.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import json
import math
import multiprocessing
import os
import subprocess
import time
from dataclasses import dataclass, replace
from datetime import datetime, timezone

import numpy as np

from . import __version__, _batch, classical, variance
from .data import GroupedDataset, ProbVector
from .decision import ESTIMATORS, _exceedances, _lookup, _Stack, _TESTS
from .errors import (
    InvalidB,
    InvalidReps,
    OutOfRange,
    SampleTooSmall,
    UnknownTable,
    UnsupportedDimension,
    _check_alpha,
    _check_integer,
)
from .variance import _pooled_null_draw

__all__ = [
    "PiLibrary",
    "SettingSpec",
    "MCResult",
    "TableResult",
    "pi_library",
    "generate_replicate",
    "estimate_rejection_rate",
    "null_z_scores",
    "reproduce_table",
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
        if _check_integer(i, "library index", 1) > 5:
            raise OutOfRange(f"library index must be in 1..5, got {i}")
        return ProbVector(self.vectors[i - 1])


def pi_library(d: int) -> PiLibrary:
    """Library for dimension ``d`` (5 or 10).

    Raises
    ------
    UnsupportedDimension
        For any other ``d``.
    """
    d = _check_integer(d, "d", 2)
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
    """One simulation cell: setting, dimension, group count, sizes, seed
    (a non-negative integer)."""

    setting: int
    d: int
    k: int
    n1: int
    n2: int
    pi0: int | None = None
    master_seed: int = 0

    def __post_init__(self):
        _check_integer(self.master_seed, "seed")
        for name, minimum in (("setting", 1), ("d", 2), ("k", 1), ("n1", 1),
                              ("n2", 1)):
            _check_integer(getattr(self, name), name, minimum)
        if self.setting > 5:
            raise OutOfRange(f"setting must be 1..5, got {self.setting}")
        if max(self.n1, self.n2) > 2**53:  # the block draw's float64 counts
            raise OutOfRange(f"n1 and n2 must be at most 2**53, got "
                             f"n1={self.n1}, n2={self.n2}")
        if self.setting != 1 and self.d not in _VECTORS:
            raise UnsupportedDimension(
                f"setting {self.setting} is defined for d in (5, 10), "
                f"got d={self.d}"
            )
        if self.setting in (3, 4):
            if (self.pi0 is None
                    or _check_integer(self.pi0, "pi0", 2) not in (2, 4)):
                raise OutOfRange(
                    f"setting {self.setting} needs pi0 in (2, 4), "
                    f"got {self.pi0}"
                )
        elif self.pi0 is not None:
            raise OutOfRange(
                f"pi0 only applies to settings 3 and 4 (got setting "
                f"{self.setting} with pi0={self.pi0})"
            )


def _conditional_probs(vectors: np.ndarray) -> np.ndarray:
    """Conditional-binomial probabilities of each row of ``vectors``.

    Row ``j`` of the ``(d - 1, m)`` result holds category ``j``'s share of
    the probability left after categories ``0..j-1`` (zero where none is
    left), clipped to ``[0, 1]``.  Rows are contiguous, so each binomial
    call reads one."""
    m, d = vectors.shape
    cond = np.empty((d - 1, m), dtype=np.float64)
    rest = np.ones(m, dtype=np.float64)
    for j in range(d - 1):
        pj = np.divide(vectors[:, j], rest, out=np.zeros(m), where=rest > 0)
        cond[j] = np.clip(pj, 0.0, 1.0)
        rest = rest - vectors[:, j]
    return cond


def _conditional_binomial(rng, n, cond, k: int) -> np.ndarray:
    """Draw ``k`` multinomial vectors of total ``n`` by the sequential
    conditional-binomial method: category ``j`` is binomial on the trials
    left, with probability ``cond[j]``, so each vector costs ``d - 1``
    binomial draws.  ``cond`` is a ``(d - 1, k)`` array, one column per
    vector (from :func:`_conditional_probs`)."""
    d1 = len(cond)
    out = np.empty((k, d1 + 1), dtype=np.int64)
    remaining = np.full(k, n, dtype=np.int64)
    for j in range(d1):
        cj = rng.binomial(remaining, cond[j])
        out[:, j] = cj
        remaining -= cj
    out[:, d1] = remaining
    return out


def _replicate_rng(spec: SettingSpec, r: int):
    """A new generator on replicate ``r``'s stream.  Nothing in the package
    calls it (:func:`_draw_block` draws every replicate); it is kept only
    as a name the benchmark's tracer wraps."""
    key = variance._stream_keys(spec.master_seed, r)[0]
    return np.random.Generator(np.random.Philox(key=key))


@functools.lru_cache(maxsize=None)
def _setting_probs(setting: int, d: int, pi0: int | None):
    """Conditional probabilities of every vector a setting draws, by
    column: the uniform vector for setting 1; library vectors 1-5 for the
    others, plus the reversed ``pi0`` vector as column 5 for setting 4."""
    if setting == 1:
        vectors = np.full((1, d), 1.0 / d)
    else:
        vectors = pi_library(d).vectors
    if setting == 4:
        vectors = np.vstack([vectors, vectors[pi0 - 1][::-1]])
    cond = _conditional_probs(vectors)
    cond.flags.writeable = False
    return cond


@functools.lru_cache(maxsize=16)
def _null_picks(k: int):
    """All-0 picks of ``k`` groups, a read-only view."""
    return np.broadcast_to(np.int64(0), k)


def _setting_picks(spec: SettingSpec, rng):
    """One replicate's mixture picks, the first draws of its stream.

    Returns ``(picks, rows1, rows2)``: ``picks`` is the per-group library
    index of the shared vector on null groups and -1 on alternative ones
    (the only record of which groups are null); ``rows1``, ``rows2`` index
    each sample's groups into the columns of :func:`_setting_probs`.
    Setting 1 draws nothing: all three are :func:`_null_picks`' array.
    """
    k = spec.k
    if spec.setting == 1:
        picks = rows1 = rows2 = _null_picks(k)
    elif spec.setting == 2:
        picks = rows1 = rows2 = rng.integers(0, 5, size=k)
    elif spec.setting == 3:
        raw = rng.integers(0, 5, size=k)
        picks = np.where(raw < 4, raw, -1)
        rows1 = raw % 4
        rows2 = np.where(raw < 4, raw, spec.pi0 - 1)
    elif spec.setting == 4:
        raw = rng.integers(0, 10, size=k)
        picks = np.where(raw < 8, raw // 2, -1)
        rows1 = (raw // 2) % 4
        rows2 = np.where(raw < 8, raw // 2, np.where(raw == 8, spec.pi0 - 1, 5))
    else:
        rows1 = rng.integers(0, 5, size=k)
        rows2 = rng.integers(0, 5, size=k)
        picks = np.where(rows1 == rows2, rows1, -1)
    return picks, rows1, rows2


def _draw_replicate(spec: SettingSpec, rng):
    """Draw one replicate's counts by numpy's binomials on ``rng``.

    Returns ``(counts1, counts2, picks)``, the int64 counts of shape
    ``(k, d)`` and the picks of :func:`_setting_picks`.  Each sample's
    groups index the columns of :func:`_setting_probs`.
    """
    k = spec.k
    cond = _setting_probs(spec.setting, spec.d, spec.pi0)
    picks, rows1, rows2 = _setting_picks(spec, rng)
    counts1 = _conditional_binomial(rng, spec.n1, np.take(cond, rows1, axis=1), k)
    counts2 = _conditional_binomial(rng, spec.n2, np.take(cond, rows2, axis=1), k)
    return counts1, counts2, picks


def generate_replicate(
    spec: SettingSpec, replicate_index: int
) -> tuple[GroupedDataset, np.ndarray]:
    """Materialize replicate ``replicate_index`` as a dataset.

    Returns the dataset and the per-group truth flags (True where the two
    populations share a vector).  The counts are the engine's own draw:
    :func:`_draw_block` on the replicate's one stream key, the code every
    block of the rejection-rate engine runs.
    """
    r = _check_integer(replicate_index, "replicate index")
    (counts1,), (counts2,), (picks,) = _draw_block(
        spec, variance._stream_keys(spec.master_seed, r))
    width = max(3, len(str(spec.k)))
    ids = [f"g{i + 1:0{width}d}" for i in range(spec.k)]
    return GroupedDataset(counts1, counts2, ids), picks >= 0


# ---------------------------------------------------------------------------
# Rejection-rate engine.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MCResult:
    """Monte Carlo summary for one test in one cell."""

    test: str
    rate: float
    reps: int
    se: float
    rejections: int
    degenerate: int = 0
    seconds: float = 0.0  # the sum of the cell's block times


@dataclass(frozen=True)
class _CellTask:
    spec: SettingSpec
    tests: tuple[str, ...]
    start: int
    stop: int
    alpha: float
    bootstrap_B: int
    minp_B: int
    moments: dict
    processes: int  # the call's processes: its pool's size, else 1


def _block_size(spec: SettingSpec) -> int:
    return max(16, min(1024, 2_000_000 // (spec.k * spec.d)))


#: Bootstrap count vectors per population that a process's ``test7`` or
#: ``minp`` bootstrap holds in flight, or one replicate's ``B k`` if more:
#: with both populations' int16 counts, ``2 d`` MiB (``8 d`` MiB with
#: int64 counts, for sample totals above 181).
_BOOTSTRAP_DRAWS = 32 * variance.CHUNK_DRAWS


def _block_keys(task: _CellTask, *salt: int) -> np.ndarray:
    """Philox keys of the streams of the block's replicates, or of their
    ``salt`` streams, one row per replicate."""
    replicates = np.arange(task.start, task.stop, dtype=np.uint64)
    return variance._stream_keys(task.spec.master_seed, replicates, *salt)


def _replicate_null_draws(task: _CellTask, s: _Stack, salt: int, B: int):
    """Each replicate's pooled-null resamples, from its ``salt`` stream:
    yields ``(i, b1, b2)`` in replicate order for replicate
    ``task.start + i``, with ``b1``, ``b2`` of shape ``(B, k, d)``, valid
    until the generator is resumed, int16 or int64 as
    :func:`grouphom.variance._count_buffers` decides.

    The replicates are drawn ahead by :func:`grouphom.variance._draw_ahead`
    on ``max(1, CPUs // task.processes)`` threads, at most one per
    replicate, so the cell's processes do not oversubscribe the host,
    with one replicate more in flight than there are threads, but no
    more than :data:`_BOOTSTRAP_DRAWS` allows, so a large cell gets
    fewer threads.  The block's keys are derived here at once; each slot
    owns its buffers, allocated here, and a generator, which the worker
    sets to its job's key and draws from.  The caller reduces the draws
    on its own thread, which also keeps the reductions' temporaries out
    of the workers' malloc arenas.
    """
    spec = task.spec
    blen = len(s.c1)
    cpus = max(1, variance._available_cpus() // task.processes)
    in_flight = min(cpus + 1, blen, max(1, _BOOTSTRAP_DRAWS // (B * spec.k)))
    threads = min(cpus, in_flight)
    shape = (B, spec.k, spec.d)
    slots = [(*variance._count_buffers(shape, max(spec.n1, spec.n2)),
              *variance._stream_rng())
             for _ in range(in_flight if threads > 1 else 1)]
    keys = _block_keys(task, salt)

    def draw(slot, i):
        b1, b2, bitgen, rng = slot
        variance._start_stream(bitgen, keys[i])
        phat = (s.c1[i] + s.c2[i]) / (spec.n1 + spec.n2)
        return (i, *_pooled_null_draw(rng, spec.n1, spec.n2, phat, B, out=(b1, b2)))

    return variance._draw_ahead(draw, range(blen), slots, threads)


def _null_variances(task: _CellTask, s: _Stack):
    """``test7``: each replicate's bootstrap variance of the aggregate,
    reduced in pieces of at most ``CHUNK_DRAWS`` count vectors, so that
    its float temporaries stay small."""
    n1, n2, B = task.spec.n1, task.spec.n2, task.bootstrap_B
    rows = max(1, variance.CHUNK_DRAWS // task.spec.k)
    v = np.empty(len(s.c1))
    total = np.empty(B)
    for i, b1, b2 in _replicate_null_draws(task, s, 1, B):
        for lo in range(0, B, rows):
            hi = lo + rows
            tub = _batch.tu_group(b1[lo:hi] / n1, b2[lo:hi] / n2, n1, n2)
            total[lo:hi] = tub.sum(axis=1)
        v[i] = (total / math.sqrt(task.spec.k)).var(ddof=1)
    return v


def _null_pvalues(task: _CellTask, s: _Stack):
    """``minp``: each replicate's per-group bootstrap p-values."""
    n1, n2 = task.spec.n1, task.spec.n2
    obs = _batch.tu_numerator(s.c1.astype(np.int64), s.c2.astype(np.int64), n1, n2)
    p = np.empty(obs.shape)
    for i, b1, b2 in _replicate_null_draws(task, s, 2, task.minp_B):
        exceeds, _ = _exceedances(b1, b2, n1, n2, obs[i], s.tu_r[i])
        p[i] = exceeds.mean(axis=0)
    return p


#: numpy draws ``Binomial(n, p)`` by inversion while ``min(p, 1 - p) n``
#: is at most this, else by BTPE (``random_binomial`` in numpy's C
#: distributions).
_INVERSION_MAX_MEAN = 30.0

#: How close a double may come to a cumulative probability of
#: :func:`_inversion_tables` before :func:`_inverse_binomial` leaves the
#: draw to numpy.  numpy's walk subtracts from the double, and the tables
#: add up, at most 86 probabilities (its bound is below ``30 + 10
#: sqrt(31)``), each rounding by at most ``2 ** -53``, so the two differ
#: by less than ``2 ** -45``.
_TIE_MARGIN = 2.0 ** -40


def _inversion_tables(cond: np.ndarray, n_max: int):
    """numpy's inversion of each probability of ``cond``, a ``(d - 1,
    m)`` array, for every trial count ``0..n_max``, as search tables; or
    None if numpy would draw some of them by BTPE.

    numpy inverts ``p' = min(p, 1 - p)`` and flips the draw where ``p >
    0.5``: from ``px = q ** n`` (``q = 1 - p'``), it takes one double
    ``U`` and, while ``U > px``, steps ``X`` up, subtracts ``px`` from
    ``U`` and sets ``px`` to the probability of ``X``, restarting on a
    fresh double if ``X`` passes a bound.  So the draw is the number of
    cumulative probabilities below ``U``.  Returns ``(flip, cum)``, where
    ``cum[j, c, n]`` holds those of ``cond[j, c]`` at ``n`` trials, in
    numpy's float operations (``q ** n``, the bound with libm's ``exp``,
    ``log`` and ``sqrt``, as numpy's C code computes them), and ``inf``
    past the bound, over a last axis of a power-of-two length with room
    for one ``inf``.
    """
    flip = cond > 0.5
    p = np.where(flip, 1.0 - cond, cond)
    if np.any(p * n_max > _INVERSION_MAX_MEAN):
        return None
    q = 1.0 - p
    qn = np.empty(cond.shape + (n_max + 1,))
    bound = np.empty(cond.shape + (n_max + 1,), dtype=np.int64)
    for at in np.ndindex(cond.shape):
        pv, qv = float(p[at]), float(q[at])
        log_q = math.log(qv)
        for n in range(n_max + 1):
            mean = n * pv
            qn[at + (n,)] = math.exp(n * log_q)
            bound[at + (n,)] = int(min(n, mean + 10.0 * math.sqrt(mean * qv + 1)))
    width = 1 << int(bound.max() + 1).bit_length()
    n = np.arange(n_max + 1)
    p, q = p[..., None], q[..., None]
    px = np.empty(qn.shape + (width,))
    px[..., 0] = qn
    for x in range(1, width):
        px[..., x] = (n - x + 1) * p * px[..., x - 1] / (x * q)
    cum = np.cumsum(px, axis=-1)
    cum[np.arange(width) > bound[..., None]] = np.inf
    return flip, cum


#: Bins of ``[0, 1)`` in the lookup; a power of two, so ``u * bins`` is exact.
_BINS = 1024


@functools.lru_cache(maxsize=8)
def _block_tables(setting: int, d: int, pi0: int | None, n_max: int):
    """A setting's :func:`_inversion_tables` at up to ``n_max`` trials and
    their int16 ``lookup[j, c, n, b]``: the draw, flip applied, of every
    double in bin ``b``, or -1 where a cumulative probability lies within
    ``2 * _TIE_MARGIN`` of the bin or the bin reaches past the row's last
    finite entry; or None where numpy draws by BTPE."""
    tables = _inversion_tables(_setting_probs(setting, d, pi0), n_max)
    if tables is None:
        return None
    flip, cum = tables
    rows = cum.reshape(-1, cum.shape[-1])
    edges = np.arange(_BINS + 1) / _BINS
    values = np.tile(np.arange(rows.shape[1] + 1, dtype=np.int16), len(rows))
    # row r's entries below edge b less, and edge b + 1 plus, the margin
    below = []
    for margin, first in ((-2 * _TIE_MARGIN, 0), (2 * _TIE_MARGIN, 1)):
        at = np.searchsorted(edges + margin, rows, side="right") - first
        steps = np.diff(np.clip(at, 0, _BINS), prepend=0,
                        append=_BINS, axis=1)
        below.append(np.repeat(values, steps.ravel()).reshape(len(rows), -1))
    x = below[0]
    unsettled = (x != below[1]) | (x == np.isfinite(rows).sum(axis=1)[:, None])
    lookup = x.reshape(cum.shape[:-1] + (_BINS,))
    lookup[flip] = np.arange(n_max + 1, dtype=np.int16)[:, None] - lookup[flip]
    np.copyto(lookup, -1, where=unsettled.reshape(lookup.shape))
    flip.flags.writeable = cum.flags.writeable = lookup.flags.writeable = False
    return tables, lookup


def _inverse_binomial(tables, j: int, col, n, u, lookup=None):
    """numpy's draws of ``Binomial(n, cond[j, col])`` on the doubles
    ``u``, one each (``n > 0``, ``cond[j, col] > 0``, 1-D arrays): a gather
    from ``lookup`` (:func:`_block_tables`) at bin ``floor(u * bins)``, and
    a binary search of ``tables`` where it holds -1 or is not given.
    Returns the draws and a mask of those it cannot settle: where numpy
    would restart, or ``u`` lies within :data:`_TIE_MARGIN` of a cumulative
    probability, so that the rounding of numpy's walk decides."""
    flip, cum = tables
    row = (j * cum.shape[1] + col) * cum.shape[2] + n
    if lookup is not None:
        x = lookup.reshape(-1).take(row * _BINS + (u * _BINS).astype(np.intp))
        search = np.flatnonzero(x < 0)
        unsure = np.zeros(len(x), dtype=bool)
        x[search], unsure[search] = _inverse_binomial(
            tables, j, col[search], n[search], u[search])
        return x, unsure
    width = cum.shape[-1]
    flat = cum.reshape(-1)
    base = row * width
    at, half = base, width // 2
    while half:
        at = at + half * (flat[half - 1:].take(at) < u)
        half //= 2
    below = flat.take(np.maximum(at - 1, base))
    above = flat.take(at)
    unsure = (above == np.inf) | (above - u <= _TIE_MARGIN)
    unsure |= np.abs(u - below) <= _TIE_MARGIN
    x = at - base
    return np.where(flip[j, col], n - x, x), unsure


def _draw_slice(spec: SettingSpec, cond, tables, lookup, bitgen, rng, keys,
                u, c1, c2, picks):
    """Draw the replicates of ``keys`` into the planes ``c1``, ``c2`` (``(d,
    len(keys), k)``) and ``picks`` by :func:`_inverse_binomial` with
    ``lookup``; returns the indices of those with a draw it cannot settle.

    Each replicate's stream yields its picks (:func:`_setting_picks`) and
    then fills its row of ``u`` with doubles, as many as its binomials
    can take without a restart.  numpy's binomials read the same doubles
    in order, one per draw with ``n > 0`` and ``p > 0``: sample 1's
    categories, then sample 2's, each over the groups in order.  Nothing
    else reads a replicate's stream, so the doubles left over are not
    missed.  Each category step draws the whole slice into its own
    contiguous plane, and sets the draws that read no double (``n = 0``
    or ``p = 0``) to 0.
    """
    s, k = len(keys), spec.k
    drawn = []
    for row, key in zip(u, keys.tolist()):
        variance._start_stream(bitgen, key)
        drawn.append(_setting_picks(spec, rng))
        rng.random(out=row)
    picks[:], rows1, rows2 = map(np.array, zip(*drawn))
    # where each replicate's next unused double sits in ``u.ravel()``
    start = np.arange(s) * u.shape[1] - 1
    u = u.ravel()
    unsure = np.zeros(s * k, dtype=bool)
    for n_total, cols, out in ((spec.n1, rows1, c1), (spec.n2, rows2, c2)):
        remaining = np.full(s * k, n_total, dtype=np.int64)
        cols = cols.ravel()
        for j in range(spec.d - 1):
            active = remaining != 0
            if not cond[j].all():
                active &= cond[j, cols] != 0
            taken = np.cumsum(active.reshape(s, k), axis=1) + start[:, None]
            start = taken[:, -1]
            x, unsettled = _inverse_binomial(tables, j, cols, remaining,
                                             u.take(taken.ravel()), lookup)
            x *= active
            unsure |= unsettled & active
            out[j] = x.reshape(s, k)
            remaining -= x
        out[-1] = remaining.reshape(s, k)
    return np.flatnonzero(unsure.reshape(s, k).any(axis=1))


#: Groups per chunk of :func:`_run_block`; of 2048 to 16384, the fastest at d = 5-20.
_CHUNK_GROUPS = 8192


def _block_buffers(spec: SettingSpec, rows: int):
    """:func:`_draw_block`'s buffers for up to ``rows`` replicates: the
    planes ``(2, d, rows, k)``, the picks and :func:`_draw_slice`'s doubles."""
    k, d = spec.k, spec.d
    return (np.empty((2, d, rows, k)), np.empty((rows, k), dtype=np.int64),
            np.empty((rows, 2 * k * (d - 1))))


def _draw_block(spec: SettingSpec, keys: np.ndarray, buffers=None):
    """Draw the replicates of ``keys``, one per row: returns ``(c1, c2,
    picks)``, the counts as floats of shape ``(blen, k, d)``, bit-identical
    to :func:`_draw_replicate` on each replicate's stream, as views of
    category-major planes ``(d, blen, k)``.  All three are views of new
    arrays or of ``buffers`` (:func:`_block_buffers`, of ``blen`` rows or
    more), which the next call given them overwrites.

    The binomial draws are one vectorized step per category
    (:func:`_draw_slice`) on each replicate's doubles as numpy's
    inversion reads them: about 99% are one gather from the lookup of
    :func:`_block_tables`, the rest a binary search.  A replicate with a
    draw the search cannot settle (about ``4e-12`` per draw), or every
    replicate of a cell whose draws numpy makes by BTPE, is drawn by
    :func:`_draw_replicate` instead, on a reused generator.
    """
    blen = len(keys)
    planes, picks, u = buffers or _block_buffers(spec, blen)
    planes, picks, u = planes[:, :, :blen], picks[:blen], u[:blen]
    c1, c2 = np.moveaxis(planes, 1, -1)
    bitgen, rng = variance._stream_rng()
    tables = _block_tables(spec.setting, spec.d, spec.pi0, max(spec.n1, spec.n2))
    redraw = range(blen)
    if tables is not None:
        redraw = _draw_slice(spec, _setting_probs(spec.setting, spec.d, spec.pi0),
                             *tables, bitgen, rng, keys, u, *planes, picks)
    for i in redraw:
        variance._start_stream(bitgen, keys[i])
        c1[i], c2[i], picks[i] = _draw_replicate(spec, rng)
    return c1, c2, picks


def _run_block(task: _CellTask):
    """Each test's rejections, degenerate replicates and statistics on the
    block's replicates, drawn and scored in chunks of ``s = max(1,
    _CHUNK_GROUPS // k)`` replicates on buffers allocated once per block,
    so that every array a chunk makes stays small.  The tests see a
    chunk's counts as ``(s, k, d)`` views of its category-major planes."""
    spec, keys = task.spec, _block_keys(task)
    size = max(1, _CHUNK_GROUPS // spec.k)
    buffers = _block_buffers(spec, min(size, len(keys)))
    parts = {test: [] for test in task.tests}
    for lo in range(0, len(keys), size):
        c1, c2, picks = _draw_block(spec, keys[lo:lo + size], buffers)
        chunk = replace(task, start=task.start + lo, stop=task.start + lo + len(c1))
        moments = {t: (m[picks], v[picks]) for t, (m, v) in task.moments.items()}
        stack = _Stack(c1, c2, spec.n1, spec.n2, task.alpha, moments=moments,
                       null_variance=functools.partial(_null_variances, chunk),
                       null_pvalues=functools.partial(_null_pvalues, chunk))
        for test in task.tests:
            parts[test].append(_TESTS[test][1](stack))
    return {t: (int(sum(np.sum(r) for _, r, _ in p)), int(sum(np.sum(g) for *_, g in p)),
                np.concatenate([z for z, *_ in p])) for t, p in parts.items()}


def _oracle_moments(spec: SettingSpec, statistic: str, cache: dict):
    """Null means and variances for every library vector the setting can
    draw.

    Only settings 1 and 2 generate purely null groups with known vectors,
    which is what the oracle standardizations need.  The moments do not
    depend on the cell's seed: the dict ``cache`` keeps them by statistic,
    setting, ``d`` and sizes, for the cells of one call.
    """
    if spec.setting not in (1, 2):
        raise OutOfRange(
            "oracle-standardized tests (wkprime/vkprime) are defined for "
            f"the null settings 1 and 2, not setting {spec.setting}"
        )
    key = (statistic, spec.setting, spec.d, spec.n1, spec.n2)
    if key not in cache:
        oracle = (classical.chi_square_moments_oracle if statistic == "wkprime"
                  else classical.lrt_moments_oracle)
        if spec.setting == 1:
            pis = [ProbVector(np.full(spec.d, 1.0 / spec.d))]
        else:
            pis = [pi_library(spec.d).vector(i) for i in range(1, 6)]
        pairs = [oracle(pv, spec.n1, spec.n2) for pv in pis]
        cache[key] = (np.array([m.mean for m in pairs]),
                      np.array([m.variance for m in pairs]))
    return cache[key]


def _resolve_workers(workers) -> int:
    """An integer or decimal string >= 1; ``None`` reads ``MH_WORKERS``."""
    source = "workers"
    if workers is None:
        source, workers = "MH_WORKERS", os.environ.get("MH_WORKERS", "1")
    try:
        workers = int(workers, 10) if isinstance(workers, str) else workers
    except ValueError:
        pass  # not a decimal string: rejected as given
    return _check_integer(workers, source, 1)


def _cell_blocks(cell: _CellTask) -> list[_CellTask]:
    reps, size = cell.stop, _block_size(cell.spec)
    return [replace(cell, start=start, stop=min(start + size, reps))
            for start in range(0, reps, size)]


def _timed_block(task: _CellTask):
    """:func:`_run_block`'s output and its wall time."""
    t0 = time.perf_counter()
    return _run_block(task), time.perf_counter() - t0


#: ``mallopt`` settings of a pool worker: glibc's ``M_TRIM_THRESHOLD`` at
#: 256 MiB and ``M_MMAP_THRESHOLD`` at 32 MiB, its dynamic threshold's cap.
_MALLOPT = ((-1, 256 << 20), (-3, 32 << 20))


def _keep_heap():
    """Pool initializer: keep freed heap resident in the worker, so that a
    chunk's temporaries reuse its pages; a no-op without ``mallopt``."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        for param, value in _MALLOPT:
            mallopt(param, value)


def _run_cell(cell: _CellTask, run):
    """Reduce a checked cell, ``cell`` spanning all its replicates, from
    its blocks' :func:`_timed_block` outputs, which ``run(_timed_block,
    blocks)`` yields in order (``map``, or the call's pool stream).
    Returns the results and each test's per-replicate statistics."""
    reps = cell.stop
    outs, times = zip(*run(_timed_block, _cell_blocks(cell)))
    results = {}
    for t in cell.tests:
        rejections = sum(out[t][0] for out in outs)
        rate = rejections / reps
        results[t] = MCResult(
            test=t,
            rate=rate,
            reps=reps,
            se=math.sqrt(rate * (1.0 - rate) / reps),
            rejections=rejections,
            degenerate=sum(out[t][1] for out in outs),
            seconds=sum(times),
        )
    statistics = {t: np.concatenate([out[t][2] for out in outs])
                  for t in cell.tests}
    return results, statistics


def _run_cells(cells, reps, alpha, workers, bootstrap_B, minp_B,
               progress=None):
    """Run each ``(spec, tests)`` of ``cells`` in order; returns each
    cell's :func:`_run_cell` output.

    Every argument and every cell is checked, and the oracle moments of
    ``wkprime``/``vkprime`` computed (kept by statistic, setting, ``d``
    and sizes, as they do not depend on ``k`` or the seed), before any
    cell runs.  With ``min(workers, the most blocks of a cell)`` above
    one, a pool of that size is forked and sent every cell's blocks as
    one ordered stream, so no worker waits at a cell boundary; each cell
    is reduced as its outputs arrive.  ``progress(index, spec)`` is
    called just before each cell is reduced.
    """
    reps = _check_integer(reps, "reps", 1, InvalidReps)
    alpha = _check_alpha(alpha)
    workers = _resolve_workers(workers)
    moments_cache: dict = {}
    tasks = []
    for spec, tests in cells:
        if not isinstance(spec, SettingSpec):
            raise OutOfRange(f"spec must be a SettingSpec, got {spec!r}")
        tests = tuple(tests)
        if not tests:
            raise OutOfRange("no tests requested")
        for test, (minimum, _) in _lookup(tests).items():
            if spec.n1 < minimum or spec.n2 < minimum:
                raise SampleTooSmall(
                    f"test {test!r} needs per-population totals >= {minimum}; "
                    f"cell has ({spec.n1}, {spec.n2})"
                )
        for test, name, B in (("test7", "bootstrap_B", bootstrap_B),
                              ("minp", "minp_B", minp_B)):
            if test in tests:
                _check_integer(B, name, 2, InvalidB)
        moments = {
            test: _oracle_moments(spec, test, moments_cache)
            for test in ("wkprime", "vkprime") if test in tests
        }
        tasks.append(_CellTask(spec, tests, 0, reps, alpha, bootstrap_B,
                               minp_B, moments, 1))
    processes = min(workers, max((len(_cell_blocks(t)) for t in tasks), default=1))

    def reduce(run):
        outs = []
        for index, task in enumerate(tasks):
            if progress is not None:
                progress(index, task.spec)
            outs.append(_run_cell(task, run))
        return outs

    if processes == 1:
        return reduce(map)
    blocks = [replace(b, processes=processes) for t in tasks for b in _cell_blocks(t)]
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(processes, initializer=_keep_heap) as pool:
        stream = pool.imap(_timed_block, blocks, chunksize=1)
        return reduce(lambda _, cell: itertools.islice(stream, len(cell)))


def estimate_rejection_rate(
    spec: SettingSpec,
    tests,
    reps: int = 10_000,
    alpha: float = 0.05,
    workers=None,
    bootstrap_B: int = 200,
    minp_B: int = 1000,
) -> dict[str, MCResult]:
    """Fraction of replicates each test rejects at level ``alpha``.

    ``tests`` lists distinct test ids: the seven variance estimators
    (``test1`` .. ``test7``), the no-grouping chi-square baseline
    (``chi2``), the naive and oracle-standardized chi-square and
    likelihood-ratio aggregates (``wk``/``wkprime``/``vk``/``vkprime``),
    and the per-group bootstrap min-p rule (``minp``); ``test1`` needs
    per-population totals of at least 4, ``test2`` .. ``test7`` and
    ``minp`` at least 2.  ``bootstrap_B`` and ``minp_B`` are the bootstrap
    sizes of ``test7`` and ``minp``, integers of at least 2.

    A cell whose sample sizes violate a requested test's precondition
    aborts with :class:`SampleTooSmall` before any sampling, as does an
    unknown or repeated id, with :class:`OutOfRange`, or a bootstrap
    size that is not an integer of at least 2, with
    :class:`~grouphom.errors.InvalidB`; degenerate
    variance replicates are decided by the sign convention and counted in
    ``MCResult.degenerate``.  Results are bit-identical for any
    ``workers`` value (an integer of at least 1, default from
    ``MH_WORKERS``, else 1) and any thread count.
    """
    [(results, _)] = _run_cells(
        [(spec, tests)], reps, alpha, workers, bootstrap_B, minp_B,
    )
    return results


def null_z_scores(
    spec: SettingSpec,
    estimator: str = "test1",
    reps: int = 2000,
    workers=None,
) -> np.ndarray:
    """Per-replicate z-scores of one variance-estimator test.

    Degenerate-variance replicates yield NaN.
    """
    _lookup((estimator,), ESTIMATORS)
    [(_, statistics)] = _run_cells(
        [(spec, (estimator,))], reps, 0.05, workers, 200, 1000,
    )
    return statistics[estimator]


# ---------------------------------------------------------------------------
# Table reproduction.
# ---------------------------------------------------------------------------

_K_LEVEL = (20, 50, 100, 200, 500, 750)
_SIZES_LEVEL = ((5, 10), (10, 10), (20, 30), (30, 30))
_K_POWER = (20, 50, 200)
_SIZES_POWER = ((5, 5), (5, 10), (10, 10), (20, 30), (30, 30))


@dataclass(frozen=True)
class _TableDef:
    """A table's grid.  Each row is a ``(k, n1, n2)`` point, led by ``d``
    when ``d_in_row``; a row runs one cell of all ``tests`` for each ``d``
    (its own when ``d_in_row``, else each of ``d_values``) and each
    ``(label, setting, pi0)`` of ``variants``.  A value column's name
    joins with ``_`` the parts that vary: ``d<d>`` when the table has
    more than one ``d`` and ``d`` is not in the row, the variant's label,
    and the test id when the table has more than one test."""

    tests: tuple[str, ...]
    d_values: tuple[int, ...]
    k_values: tuple[int, ...] = _K_LEVEL
    sizes: tuple[tuple[int, int], ...] = _SIZES_LEVEL
    reps: int = 10_000
    variants: tuple[tuple[str, int, int | None], ...] = (("", 1, None),)
    d_in_row: bool = False


_T123 = ("test1", "test2", "test3")
_T4567 = ("test4", "test5", "test6", "test7")
_POWER_TESTS = _T123 + ("chi2",)

_TABLES: dict[str, _TableDef] = {
    "tab2": _TableDef(_T123, (5,)),
    "tab3": _TableDef(_T123, (10,)),
    "tab4": _TableDef(_T123, (20,)),
    "tab5": _TableDef(_T123, (5,), variants=(("", 2, None),)),
    "tab6": _TableDef(_T123, (10,), variants=(("", 2, None),)),
    "rev1": _TableDef(_T4567, (5,)),
    "rev2": _TableDef(_T4567, (10,)),
    "rev3": _TableDef(_T4567, (20,)),
    "tab8": _TableDef(("wk",), (5, 10, 20)),
    "tab88": _TableDef(("wkprime",), (5, 10, 20)),
    "trv1": _TableDef(("vk",), (5, 10, 20)),
    "trv2": _TableDef(("vkprime",), (5, 10, 20)),
    "power1": _TableDef(_POWER_TESTS, (5, 10), _K_POWER, _SIZES_POWER,
                        variants=(("pi2", 3, 2), ("pi4", 3, 4)), d_in_row=True),
    "power2": _TableDef(_POWER_TESTS, (5, 10), _K_POWER, _SIZES_POWER,
                        variants=(("pi2", 4, 2), ("pi4", 4, 4)), d_in_row=True),
    "power3": _TableDef(_POWER_TESTS, (5, 10), _K_POWER, _SIZES_POWER,
                        variants=(("", 5, None),)),
    "powerCM": _TableDef(("minp",), (5, 10), _K_POWER, _SIZES_POWER, 1_000,
                         (("s31", 3, 2), ("s32", 3, 4), ("s41", 4, 2),
                          ("s42", 4, 4), ("s5", 5, None))),
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


@functools.cache
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
    progress=None,
) -> TableResult:
    """Recompute one simulation table on its reference grid.

    The row/column layout mirrors the printed table, with one extra
    standard-error column per value column.  ``k_values``, ``size_pairs``
    and ``d_values`` restrict the grid (for spot reproductions), each
    value at most once; every cell is seeded from ``seed`` and its index
    in the full grid, so it gives the same value in a restricted grid as
    in the full table.  ``reps`` defaults to the table's published
    replicate count.  When ``outdir`` is given, writes ``<table>.csv``
    plus a JSON sidecar recording the grid, seed, replicate count,
    package version and git description.

    Raises
    ------
    UnknownTable
        For an unrecognized ``table_id``.
    OutOfRange
        For a ``seed`` that is not a non-negative integer, or a
        restriction value outside the table's grid, or repeated.
    """
    seed = _check_integer(seed, "seed")
    if not isinstance(table_id, str) or table_id not in _TABLES:
        raise UnknownTable(
            f"unknown table {table_id!r}; expected one of {sorted(_TABLES)}"
        )
    table = _TABLES[table_id]
    reps = table.reps if reps is None else reps
    grid = []
    for axis, values, full in (
        ("k", k_values, table.k_values),
        ("sizes", size_pairs, table.sizes),
        ("d", d_values, table.d_values),
    ):
        values = tuple(_grid_point(axis, v) for v in values) if values else full
        bad = set(values) - set(full)
        if bad:
            raise OutOfRange(
                f"restriction outside the table grid: {axis}={sorted(bad)}"
            )
        if len(set(values)) != len(values):
            raise OutOfRange(
                f"restriction repeats a value: {axis}={list(values)}"
            )
        grid.append(values)
    k_values, size_pairs, d_values = grid

    columns, rows, cells = _table_cells(table, k_values, size_pairs, d_values)
    # Each cell is seeded from its index in the full grid, so a restricted
    # grid reproduces its cells of the full table.
    grid_index = {
        spec: i for i, (_, spec, _, _) in enumerate(_table_cells(
            table, table.k_values, table.sizes, table.d_values)[2])
    }

    def announce(index, spec):
        progress(f"{table_id}: cell {index + 1} "
                 f"(setting {spec.setting}, d={spec.d}, k={spec.k}, "
                 f"sizes=({spec.n1},{spec.n2}))")

    outs = _run_cells(
        [(replace(spec, master_seed=_cell_seed(seed, grid_index[spec])), tests)
         for _, spec, tests, _ in cells],
        reps, alpha, workers, 200, 1000,
        None if progress is None else announce,
    )
    for (row, _, _, collect_map), (results, _) in zip(cells, outs):
        for name, test in collect_map.items():
            row[name] = results[test].rate
            row[f"se_{name}"] = results[test].se

    csv_path = sidecar_path = None
    if outdir is not None:
        os.makedirs(outdir, exist_ok=True)
        csv_path = os.path.join(outdir, f"{table_id}.csv")
        with open(csv_path, "w") as fh:
            for line in _csv_lines(
                columns, ([row.get(c) for c in columns] for row in rows)
            ):
                fh.write(line + "\n")
        sidecar_path = os.path.join(outdir, f"{table_id}.json")
        with open(sidecar_path, "w") as fh:
            json.dump(
                {
                    "table": table_id,
                    "seed": seed,
                    "reps": int(reps),  # checked by the run
                    "alpha": float(alpha),
                    "k_values": list(k_values),
                    "size_pairs": [list(s) for s in size_pairs],
                    "d_values": list(d_values),
                    "grouphom_version": __version__,
                    "git_describe": _git_describe(),
                    "generated_utc": datetime.now(timezone.utc).isoformat(),
                },
                fh,
                indent=2,
            )
            fh.write("\n")
    return TableResult(table_id, tuple(columns), rows, csv_path, sidecar_path)


def _grid_point(axis: str, value):
    """A restriction value as the grid holds it: an ``int`` for ``k`` and
    ``d``, a pair of them for ``sizes``; else OutOfRange."""
    if axis != "sizes":
        return _check_integer(value, axis)
    try:
        n1, n2 = value
    except (TypeError, ValueError):
        raise OutOfRange(f"a size pair must be (n1, n2), got {value!r}") from None
    return _check_integer(n1, "n1"), _check_integer(n2, "n2")


def _table_cells(table: _TableDef, k_values, size_pairs, d_values):
    """The columns, rows and cells of ``table`` on a grid: each cell is
    ``(row, spec, tests, {column: test})``, and fills its columns of
    ``row``."""
    d_part = len(table.d_values) > 1 and not table.d_in_row
    test_part = len(table.tests) > 1

    def name(d, label, test):
        parts = (f"d{d}" if d_part else "", label, test if test_part else "")
        return "_".join(p for p in parts if p)

    cells: list[tuple] = []
    rows: list[dict] = []
    for row_ds in [(d,) for d in d_values] if table.d_in_row else [d_values]:
        for k in k_values:
            for n1, n2 in size_pairs:
                row = {"d": row_ds[0]} if table.d_in_row else {}
                row.update(k=k, n1=n1, n2=n2)
                rows.append(row)
                for d in row_ds:
                    for label, setting, pi0 in table.variants:
                        spec = SettingSpec(setting, d, k, n1, n2, pi0=pi0)
                        names = {name(d, label, t): t for t in table.tests}
                        cells.append((row, spec, table.tests, names))
    value_cols = list(dict.fromkeys(c for *_, names in cells for c in names))
    columns = [*rows[0], *value_cols, *(f"se_{c}" for c in value_cols)]
    return columns, rows, cells


def _format_cell(value) -> str:
    """One CSV cell: empty for None, lower-case booleans, floats to six
    significant digits."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _csv_lines(header, rows):
    """The CSV lines, without line ends, of a header and rows of values;
    the table files and the command line's CSV output share them."""
    yield ",".join(header)
    for row in rows:
        yield ",".join(_format_cell(v) for v in row)
