"""Per-group U-statistic: closed form, kernel definition, aggregation."""

from __future__ import annotations

import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grouphom.data import GroupedDataset
from grouphom.errors import DatasetError, NegativeCount, SampleTooSmall
from grouphom.ustat import (
    aggregate_statistic,
    group_statistics,
    group_ustat,
    group_ustat_kernel_oracle,
)


def dataset(*pairs):
    """Dataset of ``(c1, c2)`` count-vector pairs, ids ``g0``, ``g1``, ..."""
    c1, c2 = zip(*pairs)
    return GroupedDataset(c1, c2, [f"g{i}" for i in range(len(pairs))])


def kernel_average_quadruple_loop(c1, c2):
    """Reference for the oracle: the raw mean of the kernel over all
    ordered within-sample pairs, written as four explicit loops over
    individual observations."""
    x1 = [j for j, c in enumerate(c1) for _ in range(c)]
    x2 = [j for j, c in enumerate(c2) for _ in range(c)]
    total = 0.0
    count = 0
    for u in range(len(x1)):
        for v in range(len(x1)):
            if u == v:
                continue
            for s in range(len(x2)):
                for t in range(len(x2)):
                    if s == t:
                        continue
                    h = (
                        (x1[u] == x1[v])
                        + (x2[s] == x2[t])
                        - 0.5 * (
                            (x1[u] == x2[s])
                            + (x1[u] == x2[t])
                            + (x1[v] == x2[s])
                            + (x1[v] == x2[t])
                        )
                    )
                    total += h
                    count += 1
    return total / count


class TestGroupUstat:
    def test_hand_computed_value(self):
        # p1 = (1/2, 1/2), p2 = (1/4, 3/4), n1 = n2 = 4:
        # 1/3 + 1/2 - 1 = -1/6
        assert group_ustat([2, 2], [1, 3]) == pytest.approx(-1.0 / 6.0)

    def test_minimal_balanced_case(self):
        # one observation per category on both sides
        assert group_ustat([1, 1], [1, 1]) == pytest.approx(-1.0)

    def test_identical_point_masses(self):
        # both samples concentrated on the same category: estimate of 0
        # with no within- or cross-sample variation
        assert group_ustat([4, 0], [4, 0]) == pytest.approx(0.0)

    def test_disjoint_point_masses(self):
        # maximally separated: estimates ||e1 - e2||^2 = 2 exactly
        assert group_ustat([4, 0], [0, 4]) == pytest.approx(2.0)

    def test_symmetric_in_samples(self):
        assert group_ustat([3, 1, 2], [0, 4, 1]) == pytest.approx(
            group_ustat([0, 4, 1], [3, 1, 2])
        )

    @pytest.mark.parametrize("c1,c2", [([1, 0], [2, 2]), ([2, 2], [0, 1])])
    def test_needs_two_per_sample(self, c1, c2):
        with pytest.raises(SampleTooSmall):
            group_ustat(c1, c2)
        with pytest.raises(SampleTooSmall):
            group_ustat_kernel_oracle(c1, c2)

    @pytest.mark.parametrize(
        "c1,c2,error",
        [
            ([1, 2], [1, 2, 3], DatasetError),
            ([2, -1, 3], [2, 2, 2], NegativeCount),
            ([1.5, 2], [2, 2], DatasetError),
            ([[2, 2]], [[2, 2]], DatasetError),
        ],
    )
    def test_counts_validated_as_a_dataset(self, c1, c2, error):
        for statistic in (group_ustat, group_ustat_kernel_oracle):
            with pytest.raises(error):
                statistic(c1, c2)


class TestKernelOracle:
    """The four-index kernel definition must agree with the closed form."""

    def test_matches_quadruple_loop(self):
        for c1, c2 in [
            ([2, 2], [1, 3]),
            ([1, 1, 1], [2, 0, 1]),
            ([3, 0], [0, 3]),
            ([2, 1, 1], [1, 1, 2]),
        ]:
            expected = kernel_average_quadruple_loop(c1, c2)
            assert group_ustat_kernel_oracle(c1, c2) == pytest.approx(
                expected, abs=1e-12
            )

    def test_matches_closed_form_small_grid(self):
        rng = np.random.default_rng(20240817)
        for _ in range(200):
            d = rng.integers(2, 5)
            c1 = rng.multinomial(rng.integers(2, 9), np.full(d, 1.0 / d))
            c2 = rng.multinomial(rng.integers(2, 9), np.full(d, 1.0 / d))
            assert group_ustat_kernel_oracle(c1, c2) == pytest.approx(
                group_ustat(c1, c2), abs=1e-10
            )

    @given(
        st.lists(st.integers(0, 3), min_size=2, max_size=4),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_category_relabelling_invariance(self, c1, data):
        d = len(c1)
        c2 = data.draw(st.lists(st.integers(0, 3), min_size=d, max_size=d))
        if sum(c1) < 2 or sum(c2) < 2:
            return
        base = group_ustat(c1, c2)
        perm = data.draw(st.sampled_from(list(permutations(range(d)))))
        c1p = [c1[perm[j]] for j in range(d)]
        c2p = [c2[perm[j]] for j in range(d)]
        assert group_ustat(c1p, c2p) == pytest.approx(base, abs=1e-12)


class TestAggregation:
    def test_two_group_value(self):
        ds = dataset(([2, 2], [1, 3]), ([1, 1], [1, 1]))
        stats = group_statistics(ds)
        assert stats == pytest.approx([-1.0 / 6.0, -1.0])
        assert aggregate_statistic(ds) == pytest.approx(
            (-7.0 / 6.0) / math.sqrt(2.0)
        )

    def test_scales_with_root_k(self):
        t1 = group_ustat([3, 1], [1, 3])
        for k in (1, 4, 9):
            ds = dataset(*[([3, 1], [1, 3])] * k)
            assert aggregate_statistic(ds) == pytest.approx(
                k * t1 / math.sqrt(k)
            )

    def test_unbiased_small_enumeration(self):
        # exact expectation over all (c1, c2) outcomes for binomial margins
        from itertools import product
        from math import comb

        n1, n2 = 4, 5
        p1, p2 = 0.3, 0.6
        target = 2.0 * (p1 - p2) ** 2  # ||pi1 - pi2||^2 for d = 2
        acc = 0.0
        for a, b in product(range(n1 + 1), range(n2 + 1)):
            w = (
                comb(n1, a) * p1**a * (1 - p1) ** (n1 - a)
                * comb(n2, b) * p2**b * (1 - p2) ** (n2 - b)
            )
            acc += w * group_ustat([a, n1 - a], [b, n2 - b])
        assert acc == pytest.approx(target, abs=1e-12)
