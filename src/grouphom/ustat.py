"""Per-group unbiased squared-distance statistic and its aggregate.

For a group with samples of sizes ``n1, n2 >= 2`` and empirical
proportions ``p1, p2``, the statistic

    T = n1/(n1-1) * p1'p1 - 1/(n1-1)
      + n2/(n2-1) * p2'p2 - 1/(n2-1)
      - 2 * p1'p2

is an unbiased estimator of the squared Euclidean distance between the two
population probability vectors.  Across ``k`` groups the aggregate is
``sum_r T_r / sqrt(k)``.
"""

from __future__ import annotations

import numpy as np

from . import _batch
from .data import GroupedDataset

__all__ = [
    "group_ustat",
    "group_ustat_kernel_oracle",
    "group_statistics",
    "aggregate_statistic",
]


def group_ustat(c1, c2) -> float:
    """Unbiased squared-distance statistic for one group, from its two
    count vectors.

    Raises
    ------
    SampleTooSmall
        If either sample total is below 2.
    """
    return float(group_statistics(GroupedDataset([c1], [c2], ["group"]))[0])


def group_ustat_kernel_oracle(c1, c2) -> float:
    """Same statistic via direct four-index kernel enumeration.

    Expands the counts into category label sequences and averages the
    symmetric kernel

        h = 1{x1u = x1v} + 1{x2s = x2t}
            - (1{x1u = x2s} + 1{x1u = x2t} + 1{x1v = x2s} + 1{x1v = x2t}) / 2

    over all ordered pairs (u, v), u != v, from sample 1 crossed with all
    ordered pairs (s, t), s != t, from sample 2.  O(n1^2 n2^2) — reference
    implementation for testing, not for production use.
    """
    ds = GroupedDataset([c1], [c2], ["group"])
    ds.require_totals(2, "the per-group statistic")
    x1 = np.repeat(np.arange(ds.d), ds.c1[0])
    x2 = np.repeat(np.arange(ds.d), ds.c2[0])
    eq11 = (x1[:, None] == x1[None, :]).astype(np.float64)
    eq22 = (x2[:, None] == x2[None, :]).astype(np.float64)
    eq12 = (x1[:, None] == x2[None, :]).astype(np.float64)
    u, v = np.nonzero(~np.eye(x1.size, dtype=bool))
    s, t = np.nonzero(~np.eye(x2.size, dtype=bool))
    h = (
        eq11[u, v][:, None]
        + eq22[s, t][None, :]
        - 0.5
        * (
            eq12[u[:, None], s[None, :]]
            + eq12[u[:, None], t[None, :]]
            + eq12[v[:, None], s[None, :]]
            + eq12[v[:, None], t[None, :]]
        )
    )
    return float(h.mean())


def group_statistics(ds: GroupedDataset) -> np.ndarray:
    """Vector of per-group statistics, in group order.

    Raises
    ------
    SampleTooSmall
        If any sample total is below 2 (the first such group is named).
    """
    ds.require_totals(2, "the per-group statistic")
    n1, n2 = ds.sizes(1), ds.sizes(2)
    return _batch.tu_group(ds.c1 / n1[:, None], ds.c2 / n2[:, None], n1, n2)


def aggregate_statistic(ds: GroupedDataset) -> float:
    """Aggregate statistic: per-group values summed and scaled by 1/sqrt(k)."""
    return float(group_statistics(ds).sum() / np.sqrt(ds.k))
