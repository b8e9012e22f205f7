"""Seeded input generator for the benchmark.

Inputs come from the benchmark's own ``numpy.random.default_rng``, keyed
by the ``--seed`` argument and a fixed per-workload key, never from
grouphom's sampler, so a change to the package's seeded streams leaves
the inputs unchanged.

Every CSV holds a Setting-3 mixture at d = 5 with sample sizes (5, 10):
each group takes one of five branches with probability 0.2.  Branches
1-4 draw both samples from library vector 1-4; branch 5 draws sample 1
from vector 1 and sample 2 from vector 4.
"""

from __future__ import annotations

import numpy as np

# The d = 5 probability-vector library of the source paper.
LIBRARY_D5 = np.array(
    [
        (0.2, 0.2, 0.2, 0.2, 0.2),
        (0.1, 0.15, 0.2, 0.25, 0.3),
        (0.05, 0.125, 0.2, 0.275, 0.35),
        (0.05, 0.05, 0.2, 0.35, 0.35),
        (0.05, 0.125, 0.125, 0.125, 0.575),
    ]
)

SIZES = (5, 10)
ALTERNATIVE_VECTOR = 4
K_TEST = 5_000
K_PERGROUP = 2_500
K_SMALL = 150

# Fixed keys, so each input depends only on the seed and its own key.
INPUT_KEYS = {
    "cli-test": 1, "cli-pergroup": 2, "level-table": 3, "resample-cell": 4,
    "small": 5,
}
DATA, PROGRAM_SEED = 0, 1

# Fixed groups, the same for every seed, whose pooled-null statistic puts
# much mass on ties with the observed value: twelve (c1, c2) pairs with
# exact P(T* = T) between 0.05 and 0.15, taken from a 20 000-group draw
# of the mixture below.  Distinct pairs with the same exact statistic can
# round to different floats, so these groups show how ``p_raw`` counts
# ties.
TIE_GROUPS = (
    ((0, 0, 0, 3, 2), (0, 0, 0, 5, 5)),
    ((0, 0, 0, 3, 2), (0, 0, 0, 4, 6)),
    ((0, 0, 0, 3, 2), (0, 0, 0, 6, 4)),
    ((0, 0, 0, 3, 2), (0, 0, 0, 7, 3)),
    ((0, 0, 0, 1, 4), (0, 0, 0, 4, 6)),
    ((0, 0, 0, 1, 4), (0, 0, 0, 5, 5)),
    ((0, 0, 2, 0, 3), (0, 0, 2, 0, 8)),
    ((0, 0, 1, 2, 2), (0, 0, 0, 5, 5)),
    ((0, 0, 0, 5, 0), (0, 0, 0, 7, 3)),
    ((0, 0, 0, 3, 2), (0, 0, 0, 9, 1)),
    ((0, 0, 0, 1, 4), (0, 0, 1, 1, 8)),
    ((0, 0, 0, 4, 1), (1, 0, 0, 7, 2)),
)


def input_rng(seed: int, name: str, stream: int = DATA) -> np.random.Generator:
    return np.random.default_rng([seed, INPUT_KEYS[name], stream])


def program_seed(seed: int, name: str) -> int:
    """The seed handed to grouphom (bootstrap seed or engine master seed)."""
    return int(input_rng(seed, name, PROGRAM_SEED).integers(1, 2**31))


def tie_counts():
    """``(c1, c2)`` of TIE_GROUPS as int64 matrices."""
    c1, c2 = zip(*TIE_GROUPS)
    return np.array(c1, dtype=np.int64), np.array(c2, dtype=np.int64)


def setting3_counts(rng: np.random.Generator, k: int, sizes=SIZES):
    """Draw ``(c1, c2)``, two ``(k, 5)`` int64 count matrices."""
    branch = rng.integers(0, 5, size=k)
    null = branch < 4
    shared = LIBRARY_D5[branch % 4]
    pi1 = np.where(null[:, None], shared, LIBRARY_D5[0])
    pi2 = np.where(null[:, None], shared, LIBRARY_D5[ALTERNATIVE_VECTOR - 1])
    c1 = rng.multinomial(sizes[0], pi1)
    c2 = rng.multinomial(sizes[1], pi2)
    return c1.astype(np.int64), c2.astype(np.int64)


def write_counts_csv(path, c1, c2, bom: bool = False) -> None:
    """Write ``group,population,c1..cd`` rows; ``bom`` prepends U+FEFF as
    spreadsheet programs do when they export UTF-8."""
    k, d = c1.shape
    width = len(str(k))
    lines = ["group,population," + ",".join(f"c{j + 1}" for j in range(d))]
    for r in range(k):
        gid = f"g{r + 1:0{width}d}"
        lines.append(f"{gid},1," + ",".join(map(str, c1[r].tolist())))
        lines.append(f"{gid},2," + ",".join(map(str, c2[r].tolist())))
    with open(path, "w", encoding="utf-8-sig" if bom else "utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
