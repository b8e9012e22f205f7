"""Chi-square / likelihood-ratio aggregates and their null-moment oracle."""

from __future__ import annotations

import math
from itertools import product

import numpy as np
import pytest
from scipy.stats import chi2 as chi2_dist

from grouphom._batch import chi2_group, lrt_group
from grouphom.classical import (
    MomentPair,
    chi_square_moments_oracle,
    chi_square_pooled,
    exact_enumeration_feasible,
    lrt_moments_oracle,
    uit_statistic,
    vk_prime,
    vk_statistic,
    wk_prime,
    wk_statistic,
)
from grouphom.data import CountVector, GroupedDataset, GroupPair, ProbVector
from grouphom.errors import OutOfRange, TooManyOutcomes, ZeroVariance


def pair(c1, c2, gid="g"):
    return GroupPair(gid, CountVector(c1), CountVector(c2))


def dataset(*pairs):
    return GroupedDataset(
        tuple(pair(c1, c2, f"g{i}") for i, (c1, c2) in enumerate(pairs))
    )


def binom_weight(n, a, p):
    return math.comb(n, a) * p**a * (1 - p) ** (n - a)


class TestGroupStatistics:
    def test_chi_square_hand_values(self):
        # (3,1) vs (1,3): diff^2 = 1/16 per cell, pooled phat = 1/2,
        # T = 2 * (1/16 + 1/16) / (1/2) * ... = 2
        assert chi2_group([3, 1], [1, 3], 4, 4) == pytest.approx(2.0)
        assert chi2_group([4, 0], [0, 4], 4, 4) == pytest.approx(8.0)

    def test_chi_square_skips_empty_pooled_cells(self):
        with_empty = chi2_group([3, 1, 0], [1, 3, 0], 4, 4)
        assert with_empty == pytest.approx(2.0)

    def test_chi_square_zero_under_equality(self):
        assert chi2_group([2, 3], [2, 3], 5, 5) == pytest.approx(0.0)

    def test_lrt_hand_values(self):
        assert lrt_group([4, 0], [0, 4], 4, 4) == pytest.approx(
            16.0 * math.log(2.0)
        )
        assert lrt_group([3, 1], [1, 3], 4, 4) == pytest.approx(
            12.0 * math.log(3.0) - 16.0 * math.log(2.0)
        )

    def test_lrt_zero_under_equality(self):
        assert lrt_group([1, 4], [1, 4], 5, 5) == pytest.approx(0.0, abs=1e-12)


class TestAggregates:
    def test_uit_sums_group_statistics(self):
        ds = dataset(([3, 1], [1, 3]), ([4, 0], [0, 4]))
        assert uit_statistic(ds) == pytest.approx(10.0)

    def test_wk_hand_value(self):
        # sum T_r = 10, k = 2, d = 2: (10 - 2) / sqrt(2 * 1 * 2) = 4
        ds = dataset(([3, 1], [1, 3]), ([4, 0], [0, 4]))
        assert wk_statistic(ds) == pytest.approx(4.0)
        assert wk_statistic(ds, d=2) == pytest.approx(wk_statistic(ds))

    def test_vk_uses_lrt_values(self):
        ds = dataset(([4, 0], [0, 4]))
        expected = (16.0 * math.log(2.0) - 1.0) / math.sqrt(2.0)
        assert vk_statistic(ds) == pytest.approx(expected)

    def test_wk_prime_single_moment_pair(self):
        ds = dataset(([3, 1], [1, 3]), ([4, 0], [0, 4]))
        mom = MomentPair(1.0, 2.0)
        # (10 - 2) / sqrt(4) = 4
        assert wk_prime(ds, mom) == pytest.approx(4.0)

    def test_wk_prime_per_group_moments(self):
        ds = dataset(([3, 1], [1, 3]), ([4, 0], [0, 4]))
        moms = [MomentPair(1.0, 1.0), MomentPair(3.0, 3.0)]
        # (10 - 4) / sqrt(4) = 3
        assert wk_prime(ds, moms) == pytest.approx(3.0)

    def test_wk_prime_moment_count_mismatch(self):
        ds = dataset(([3, 1], [1, 3]))
        with pytest.raises(OutOfRange):
            wk_prime(ds, [MomentPair(1.0, 1.0), MomentPair(1.0, 1.0)])

    def test_wk_prime_zero_variance(self):
        ds = dataset(([3, 1], [1, 3]))
        with pytest.raises(ZeroVariance):
            wk_prime(ds, MomentPair(1.0, 0.0))

    def test_vk_prime_matches_manual(self):
        ds = dataset(([4, 0], [0, 4]))
        mom = MomentPair(0.5, 4.0)
        expected = (16.0 * math.log(2.0) - 0.5) / 2.0
        assert vk_prime(ds, mom) == pytest.approx(expected)

    def test_chi_square_pooled_matches_scipy(self):
        ds = dataset(([30, 10], [10, 30]), ([5, 5], [6, 4]))
        stat, p = chi_square_pooled(ds)
        c1 = np.array([35, 15])
        c2 = np.array([16, 34])
        assert stat == pytest.approx(
            chi2_group(c1, c2, c1.sum(), c2.sum())
        )
        assert p == pytest.approx(float(chi2_dist.sf(stat, 1)), abs=1e-12)


class TestMomentPair:
    def test_rejects_negative_variance(self):
        with pytest.raises(ZeroVariance):
            MomentPair(1.0, -0.5)


class TestMomentOracle:
    def test_exact_matches_hand_enumeration(self):
        # d = 2, n1 = n2 = 2, pi = (1/2, 1/2): nine outcomes
        piv = ProbVector([0.5, 0.5])
        mean = var = 0.0
        values = {}
        for a, b in product(range(3), range(3)):
            w = binom_weight(2, a, 0.5) * binom_weight(2, b, 0.5)
            t = chi2_group([a, 2 - a], [b, 2 - b], 2, 2)
            values[(a, b)] = (w, t)
            mean += w * t
        for (a, b), (w, t) in values.items():
            var += w * (t - mean) ** 2
        mom = chi_square_moments_oracle(piv, 2, 2, method="exact")
        assert mom.mean == pytest.approx(mean, abs=1e-12)
        assert mom.variance == pytest.approx(var, abs=1e-12)

    def test_exact_lrt_matches_hand_enumeration(self):
        piv = ProbVector([0.3, 0.7])
        mean = 0.0
        second = 0.0
        for a, b in product(range(4), range(3)):
            w = binom_weight(3, a, 0.3) * binom_weight(2, b, 0.3)
            t = lrt_group([a, 3 - a], [b, 2 - b], 3, 2)
            mean += w * t
            second += w * t * t
        mom = lrt_moments_oracle(piv, 3, 2, method="exact")
        assert mom.mean == pytest.approx(mean, abs=1e-12)
        assert mom.variance == pytest.approx(second - mean**2, abs=1e-12)

    def test_montecarlo_agrees_with_exact(self):
        piv = ProbVector([0.2, 0.3, 0.5])
        exact = chi_square_moments_oracle(piv, 4, 4, method="exact")
        reps = 200_000
        mc = chi_square_moments_oracle(
            piv, 4, 4, method="montecarlo", reps=reps, seed=42
        )
        se_mean = math.sqrt(exact.variance / reps)
        assert mc.mean == pytest.approx(exact.mean, abs=4 * se_mean)
        assert mc.variance == pytest.approx(exact.variance, rel=0.05)

    def test_auto_picks_exact_when_feasible(self):
        piv = ProbVector([0.5, 0.5])
        auto = chi_square_moments_oracle(piv, 5, 5, method="auto")
        exact = chi_square_moments_oracle(piv, 5, 5, method="exact")
        assert auto.mean == exact.mean
        assert auto.variance == exact.variance

    def test_exact_infeasible_raises(self):
        piv = ProbVector(np.full(20, 0.05))
        assert not exact_enumeration_feasible(20, 30, 30)
        with pytest.raises(TooManyOutcomes):
            chi_square_moments_oracle(piv, 30, 30, method="exact")

    def test_feasibility_boundary(self):
        assert exact_enumeration_feasible(2, 10, 10)
        assert exact_enumeration_feasible(5, 10, 10)

    def test_montecarlo_needs_reps(self):
        with pytest.raises(OutOfRange):
            chi_square_moments_oracle(
                ProbVector([0.5, 0.5]), 4, 4, method="montecarlo", reps=1
            )

    def test_montecarlo_deterministic_given_seed(self):
        piv = ProbVector([0.4, 0.6])
        a = lrt_moments_oracle(piv, 5, 6, method="montecarlo",
                               reps=5000, seed=7)
        b = lrt_moments_oracle(piv, 5, 6, method="montecarlo",
                               reps=5000, seed=7)
        assert a == b

    def test_asymptotic_sanity_large_n(self):
        # for large equal sizes the chi-square statistic approaches its
        # chi-square(d-1) limit: mean d-1, variance 2(d-1)
        piv = ProbVector([0.25, 0.25, 0.25, 0.25])
        mom = chi_square_moments_oracle(
            piv, 500, 500, method="montecarlo", reps=100_000, seed=11
        )
        assert mom.mean == pytest.approx(3.0, rel=0.03)
        assert mom.variance == pytest.approx(6.0, rel=0.08)
