"""Count data model: validated per-group paired multinomial counts.

A dataset holds ``k`` groups; group ``r`` carries two independent count
vectors over the same ``d`` categories, one per population.  In memory it
is two read-only ``(k, d)`` int64 arrays and a tuple of ``k`` group ids
(:class:`GroupedDataset`).  The on-disk format is a CSV with header
``group,population,c1,...,cd`` where ``population`` is 1 or 2 and each
group must contribute exactly one row per population.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DatasetError,
    DuplicateSample,
    EmptyInput,
    MissingMate,
    MixedDimension,
    NegativeCount,
    SampleTooSmall,
)

__all__ = [
    "ProbVector",
    "GroupedDataset",
    "validate_dataset",
    "read_counts_csv",
    "load_dataset",
    "write_dataset_csv",
]


def _frozen_array(values, dtype, ndim: int = 1) -> np.ndarray:
    """Read-only C-ordered ``ndim``-d copy of ``values``; an integer
    ``dtype`` also requires integer values that fit it."""
    try:
        arr = np.asarray(values)
    except ValueError:  # numpy refuses ragged nested sequences
        raise MixedDimension("rows have different numbers of entries") from None
    if ndim == 2 and arr.shape == (0,):
        arr = arr.reshape(0, 0)  # ``[]``: no rows, not one empty row
    if dtype is np.int64 and arr.dtype.kind != "i":
        if not np.all(np.equal(np.mod(arr, 1), 0)):
            raise DatasetError("counts must be integers")
        # float, unsigned and object input cast without an overflow check
        if np.any(np.abs(arr) >= 2**63):
            raise DatasetError("counts must fit in 64-bit integers")
    arr = arr.astype(dtype, order="C")
    if arr.ndim != ndim:
        raise DatasetError(f"expected a {ndim}-d array, got shape {arr.shape}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class ProbVector:
    """Probability vector: entries in [0, 1] summing to 1 (tolerance 1e-9)."""

    probs: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.probs, np.float64)
        # NaN passes both comparisons below
        if not np.all(np.isfinite(arr)):
            raise DatasetError(f"probabilities must be finite, got {arr.tolist()}")
        if np.any(arr < 0) or np.any(arr > 1):
            raise DatasetError("probabilities must lie in [0, 1]")
        if abs(float(arr.sum()) - 1.0) > 1e-9:
            raise DatasetError(f"probabilities sum to {arr.sum()!r}, not 1")
        object.__setattr__(self, "probs", arr)

    @property
    def d(self) -> int:
        return self.probs.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProbVector):
            return NotImplemented
        return np.array_equal(self.probs, other.probs)

    def __hash__(self) -> int:
        return hash(self.probs.tobytes())


@dataclass(frozen=True, eq=False, init=False)
class GroupedDataset:
    """An ordered collection of groups over a common category dimension.

    ``GroupedDataset(c1, c2, ids)`` takes two ``(k, d)`` integer count
    arrays and ``k`` distinct ids, and validates them as
    :func:`validate_dataset` validates rows.  It holds read-only int64
    copies: row ``r`` of ``c1`` and ``c2`` is group ``r``'s sample from
    population 1 and 2, and ``ids[r]`` is its id.
    """

    c1: np.ndarray
    c2: np.ndarray
    ids: tuple[str, ...]

    def __init__(self, c1, c2, ids: Iterable):
        c1, c2 = _frozen_array(c1, np.int64, 2), _frozen_array(c2, np.int64, 2)
        ids = tuple(str(i) for i in ids)
        k, d = c1.shape
        if c2.shape != c1.shape or len(ids) != k:
            raise DatasetError(
                f"count arrays of shapes {c1.shape} and {c2.shape} with "
                f"{len(ids)} group ids"
            )
        if k == 0:
            raise EmptyInput("dataset has no groups")
        if d < 2:
            raise DatasetError(f"need at least 2 categories, got {d}")
        if len(set(ids)) != k:
            dup = next(i for i, n in Counter(ids).items() if n > 1)
            raise DuplicateSample(f"group {dup!r} appears twice")
        totals = []
        for c in (c1, c2):
            bad = np.flatnonzero((c < 0).any(axis=1))
            if bad.size:
                raise NegativeCount(f"negative count in {c[bad[0]].tolist()}")
            # int64 sums wrap silently; 2**62 leaves room for float rounding
            if c.sum(axis=1, dtype=np.float64).max() >= 2.0**62:
                raise DatasetError("sample totals must stay below 2**62")
            n = c.sum(axis=1)
            n.flags.writeable = False
            totals.append(n)
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "c2", c2)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "_totals", tuple(totals))

    @property
    def k(self) -> int:
        return self.c1.shape[0]

    @property
    def d(self) -> int:
        return self.c1.shape[1]

    def __len__(self) -> int:
        return self.k

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupedDataset):
            return NotImplemented
        return (
            self.ids == other.ids
            and np.array_equal(self.c1, other.c1)
            and np.array_equal(self.c2, other.c2)
        )

    def __hash__(self) -> int:
        return hash((self.ids, self.c1.tobytes(), self.c2.tobytes()))

    def sizes(self, population: int) -> np.ndarray:
        """Per-group totals of one population as a read-only (k,) int64
        array, summed once when the dataset is built."""
        if population not in (1, 2):
            raise DatasetError(f"population must be 1 or 2, got {population}")
        return self._totals[population - 1]

    def require_totals(self, minimum: int, what: str) -> None:
        """Raise :class:`SampleTooSmall` naming the first group with a
        sample total below ``minimum``, which ``what`` needs."""
        n1, n2 = self.sizes(1), self.sizes(2)
        small = np.flatnonzero((n1 < minimum) | (n2 < minimum))
        if small.size:
            r = small[0]
            raise SampleTooSmall(
                f"{what} needs totals >= {minimum} per population; "
                f"group {self.ids[r]!r} has ({n1[r]}, {n2[r]})"
            )


RawRow = tuple[str, int, Sequence[int]]


def validate_dataset(rows: Iterable[RawRow]) -> GroupedDataset:
    """Assemble raw ``(group, population, counts)`` rows into a dataset.

    Groups appear in the output in order of first appearance; each group
    must contribute exactly one row per population.

    Raises
    ------
    EmptyInput, MixedDimension, NegativeCount, DuplicateSample, MissingMate
        On the corresponding defect; :class:`DatasetError` on a
        population other than 1 or 2 or fewer than 2 categories.
        Validation is idempotent: re-running it on a dataset's own rows
        returns an equal dataset.
    """
    rows = list(rows)
    if not rows:
        raise EmptyInput("no data rows")
    d = len(rows[0][2])
    # Row index of each group's two samples, in order of first appearance.
    where: dict[str, list] = {}
    for i, (group_id, population, counts) in enumerate(rows):
        group_id = str(group_id)
        if population not in (1, 2):
            raise DatasetError(
                f"group {group_id!r}: population must be 1 or 2, got {population}"
            )
        if len(counts) != d:
            raise MixedDimension(
                f"group {group_id!r} population {population}: row has "
                f"{len(counts)} categories, expected {d}"
            )
        slots = where.setdefault(group_id, [None, None])
        j = 0 if population == 1 else 1
        if slots[j] is not None:
            raise DuplicateSample(
                f"group {group_id!r} population {population} appears twice"
            )
        slots[j] = i
    for group_id, slots in where.items():
        if None in slots:
            raise MissingMate(
                f"group {group_id!r} is missing population "
                f"{slots.index(None) + 1}"
            )
    matrix = _frozen_array([row[2] for row in rows], np.int64, 2)
    index = np.array(list(where.values()), dtype=np.intp)
    return GroupedDataset(matrix[index[:, 0]], matrix[index[:, 1]], where.keys())


def read_counts_csv(path) -> list[RawRow]:
    """Read raw rows from a ``group,population,c1,...,cd`` CSV file."""
    # utf-8-sig drops the byte-order mark spreadsheet programs write.
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyInput(f"{path}: file is empty") from None
        header = [h.strip().lower() for h in header]
        if len(header) < 3 or header[:2] != ["group", "population"]:
            raise DatasetError(
                f"{path}: header must be group,population,c1,...,cd "
                f"(got {','.join(header)})"
            )
        d = len(header) - 2
        rows: list[RawRow] = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != d + 2:
                raise MixedDimension(
                    f"{path}:{lineno}: expected {d + 2} fields, got {len(row)}"
                )
            group_id = row[0].strip()
            try:
                population = int(row[1])
            except ValueError:
                raise DatasetError(
                    f"{path}:{lineno}: population {row[1]!r} is not an integer"
                ) from None
            try:
                counts = [int(cell) for cell in row[2:]]
            except ValueError:
                raise DatasetError(
                    f"{path}:{lineno}: counts must be integers, got {row[2:]}"
                ) from None
            rows.append((group_id, population, counts))
    return rows


def load_dataset(path) -> GroupedDataset:
    """Read and validate a dataset CSV in one step."""
    return validate_dataset(read_counts_csv(path))


def write_dataset_csv(ds: GroupedDataset, path) -> None:
    """Write a dataset in the ingestible CSV format (round-trip safe).

    Raises
    ------
    DatasetError
        Before the file is opened, naming the first group id with leading
        or trailing whitespace, which :func:`read_counts_csv` strips.
    """
    spaced = next((i for i in ds.ids if i != i.strip()), None)
    if spaced is not None:
        raise DatasetError(
            f"group id {spaced!r} has leading or trailing whitespace, "
            "which the CSV reader strips"
        )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["group", "population"] + [f"c{j + 1}" for j in range(ds.d)]
        )
        for group_id, c1, c2 in zip(ds.ids, ds.c1.tolist(), ds.c2.tolist()):
            writer.writerow([group_id, 1] + c1)
            writer.writerow([group_id, 2] + c2)
