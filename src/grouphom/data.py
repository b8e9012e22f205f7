"""Count data model: validated per-group paired multinomial counts.

A dataset holds ``k`` groups; group ``r`` carries two independent count
vectors over the same ``d`` categories, one per population.  In memory it
is two read-only ``(k, d)`` int64 arrays and a tuple of ``k`` group ids
(:class:`GroupedDataset`).  The on-disk format is a CSV with header
``group,population,c1,...,cd`` where ``population`` is 1 or 2 and each
group must contribute exactly one row per population.  numpy's C reader
parses it into columns, which validation checks as arrays; a row reader
(``csv`` and ``int``) takes over where numpy refuses a file.
"""

from __future__ import annotations

import csv
import warnings
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

# numpy's reader drops an id's trailing NUL, reads \x1c-\x1f next to a
# number as space (``int`` refuses it) and cuts ids to _ID_WIDTH characters.
_UNSAFE, _ID_WIDTH = b"\x00\x1c\x1d\x1e\x1f", 32


def validate_dataset(rows: Iterable[RawRow]) -> GroupedDataset:
    """Assemble raw ``(group, population, counts)`` rows into a dataset.

    Groups appear in the output in order of first appearance; each group
    must contribute exactly one row per population.  ``rows`` is the
    array :func:`read_counts_csv` returns, or rows that one pass turns
    into the same columns; the checks then run on the columns.

    Raises
    ------
    EmptyInput, MixedDimension, NegativeCount, DuplicateSample, MissingMate
        On the corresponding defect; :class:`DatasetError` on a
        population other than 1 or 2 or fewer than 2 categories.  The
        first bad population, row length or repeated sample in row order
        wins, then the first group, by appearance, that lacks a sample.
        Validation is idempotent: re-running it on a dataset's own rows
        returns an equal dataset.
    """
    table = isinstance(rows, np.ndarray) and rows.dtype.names is not None
    rows = rows if table else list(rows)
    if not len(rows):
        raise EmptyInput("no data rows")
    d = len(rows[0][2])
    if table:
        ids, pops, short = rows["group"], rows["population"], False
    else:
        ids, pops, short = (np.fromiter(column, object, len(rows)) for column in zip(
            *[(str(group_id), population, len(counts) != d)
              for group_id, population, counts in rows]))
    bad, two = (pops != 1) & (pops != 2), (pops == 2).astype(int)
    _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    group = np.argsort(np.argsort(first))[inverse]  # numbered by appearance
    again = np.ones(len(rows), dtype=bool)  # a repeated (group, population)
    again[np.unique(2 * group + two, return_index=True)[1]] = False
    defect = np.flatnonzero(bad | short | again)
    if defect.size:
        group_id, population, counts = rows[defect[0]]
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
        raise DuplicateSample(
            f"group {group_id!r} population {population} appears twice"
        )
    index = np.full((first.size, 2), -1)  # each group's two rows
    index[group, two] = np.arange(len(rows))
    lonely = np.flatnonzero(index.min(axis=1) < 0)
    if lonely.size:
        pair = index[lonely[0]]
        raise MissingMate(f"group {str(ids[pair.max()])!r} is missing "
                          f"population {pair.argmin() + 1}")
    matrix = rows["counts"] if table else _frozen_array(
        [row[2] for row in rows], np.int64, 2)
    return GroupedDataset(matrix[index[:, 0]], matrix[index[:, 1]],
                          ids[index[:, 0]].tolist())


def read_counts_csv(path) -> Sequence[RawRow]:
    """Read raw rows from a ``group,population,c1,...,cd`` CSV file.

    Returns numpy's C parse: a structured array with fields ``group``
    (str), ``population`` (int64) and ``counts`` (``(d,)`` int64), whose
    records unpack as rows.  Where numpy refuses the file or could read
    it otherwise, the row reader (``csv`` and ``int``) returns a list of
    tuples: it accepts what numpy refuses, such as ``1_000``, and words
    each error with its line.  A byte that is not UTF-8 raises
    :class:`DatasetError` naming its offset.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: byte {exc.start} is not UTF-8") from None
    fast = not any(byte in raw for byte in _UNSAFE)
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
        try:
            if fast:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")  # older numpy may only warn
                    table = np.loadtxt(
                        fh, dtype=[("group", f"U{_ID_WIDTH}"),
                                   ("population", np.int64), ("counts", np.int64, (d,))],
                        delimiter=",", quotechar='"', comments=None,
                        encoding="utf-8-sig", ndmin=1)
                width = np.char.str_len(table["group"]).max()
                if width < _ID_WIDTH:
                    table = table.astype([("group", f"U{max(width, 1)}"),
                                          *table.dtype.descr[1:]])
                    table["group"] = np.char.strip(table["group"])
                    return table
        except Exception:  # refused (older numpy not only with ValueError):
            pass  # the row reader accepts the file or words the error
        fh.seek(0)
        next(reader)
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
    """Read and validate a dataset CSV in one step: :func:`read_counts_csv`,
    then :func:`validate_dataset`, each looked up by name at the call."""
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
