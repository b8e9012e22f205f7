"""Chi-square / likelihood-ratio aggregates and their null-moment oracle."""

from __future__ import annotations

import math
import tracemalloc
from itertools import product

import numpy as np
import pytest
from scipy.stats import chi2 as chi2_dist

from grouphom._batch import chi2_group, lrt_group
from grouphom.classical import (
    MomentPair,
    _null_moments,
    chi_square_moments_oracle,
    chi_square_pooled,
    lrt_moments_oracle,
    uit_statistic,
    vk_prime,
    vk_statistic,
    wk_prime,
    wk_statistic,
)
from grouphom.data import GroupedDataset, ProbVector
from grouphom.errors import OutOfRange, ZeroVariance


def dataset(*pairs):
    """Dataset of ``(c1, c2)`` count-vector pairs, ids ``g0``, ``g1``, ..."""
    c1, c2 = zip(*pairs)
    return GroupedDataset(c1, c2, [f"g{i}" for i in range(len(pairs))])


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

    # replicate 0 of SettingSpec(1, 10, 4, 5, 10, master_seed=17), and
    # float.hex of each group's statistic: numpy sums ten categories in
    # eight running sums, so these pin that order
    _C1 = [[1, 0, 1, 1, 0, 0, 0, 2, 0, 0], [1, 0, 0, 0, 1, 0, 0, 2, 0, 1],
           [0, 2, 0, 0, 0, 1, 0, 1, 1, 0], [2, 0, 0, 0, 1, 1, 0, 0, 0, 1]]
    _C2 = [[1, 1, 0, 2, 0, 0, 1, 1, 3, 1], [1, 2, 2, 0, 2, 1, 1, 0, 0, 1],
           [2, 0, 0, 1, 3, 0, 1, 1, 1, 1], [0, 0, 0, 0, 1, 2, 2, 2, 1, 2]]

    def test_golden_d10(self):
        assert [v.hex() for v in chi2_group(self._C1, self._C2, 5, 10)] == [
            "0x1.b000000000002p+2", "0x1.e000000000000p+2",
            "0x1.5000000000002p+3", "0x1.b000000000002p+2"]
        assert [v.hex() for v in lrt_group(self._C1, self._C2, 5, 10)] == [
            "0x1.15e8c950b0ce8p+3", "0x1.3765af18fb238p+3",
            "0x1.b19ba0dd2e600p+3", "0x1.15e8c950b0ce8p+3"]


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

    @pytest.mark.parametrize("mean, variance", [
        (math.nan, 1.0), (0.0, math.nan), (0.0, math.inf),
        (math.inf, 1.0), (-math.inf, 1.0),
    ])
    def test_rejects_non_finite(self, mean, variance):
        with pytest.raises(OutOfRange, match="moments must be finite"):
            MomentPair(mean, variance)


# float.hex of the null mean and variance of (statistic, d, non-uniform
# vector, n1, n2), recorded from an enumeration of every outcome pair
# weighted by its multinomial probability.
_VECTORS = {3: [0.2, 0.3, 0.5], 5: [0.1, 0.15, 0.2, 0.25, 0.3],
            10: list(np.arange(1, 11) / 55)}
_EXACT_GOLDEN = [
    (("chi2", 3, False, 5, 10), "0x1.11589d6b601b8p+1", "0x1.cbb72f6ec1bd0p+1"),
    (("lrt", 3, False, 5, 10), "0x1.4531077a9e622p+1", "0x1.6399ac713b30bp+2"),
    (("chi2", 3, True, 10, 10), "0x1.0bd008eb84e68p+1", "0x1.c84063eec97acp+1"),
    (("lrt", 3, True, 10, 10), "0x1.32115cc4f3df2p+1", "0x1.5a08fe73b12a5p+2"),
    (("chi2", 3, True, 2, 300), "0x1.00d9ba425676ap+1", "0x1.5d6f11c0951a4p+1"),
    (("lrt", 3, False, 2, 300), "0x1.45e62a0f68daap+1", "0x1.bcaf5c001405cp+0"),
    (("chi2", 5, False, 5, 10), "0x1.0638f5d34e3b5p+2", "0x1.5ce319127fd68p+2"),
    (("lrt", 5, True, 5, 10), "0x1.39e84f2b2271ep+2", "0x1.05e99ebf3af56p+3"),
    (("chi2", 5, False, 10, 10), "0x1.099714ab67f29p+2", "0x1.8a840ca8567a0p+2"),
    (("lrt", 5, False, 10, 10), "0x1.44c84b7b17c80p+2", "0x1.5e64f86e4b830p+3"),
    (("chi2", 5, True, 10, 10), "0x1.01a0c3e671300p+2", "0x1.6eda7049cc418p+2"),
    (("chi2", 10, False, 5, 5), "0x1.880d06eedc983p+2", "0x1.04a56b0aad5f8p+2"),
    (("lrt", 10, False, 5, 5), "0x1.0d35b34a5cb74p+3", "0x1.0157db8ec3d40p+3"),
    (("lrt", 10, True, 5, 5), "0x1.e2961618a08fdp+2", "0x1.0ce4014e1eed0p+3"),
]
# float.hex of the mean and sample variance of the statistic over reps
# Monte Carlo draws of both samples (``np.random.default_rng(seed)``
# drawing sample 1's reps count vectors, then sample 2's): (statistic, d,
# non-uniform vector, n1, n2, reps, seed).  All but the first four cells
# have more than 10**7 outcome pairs, too many to enumerate.
_MONTECARLO_GOLDEN = [
    (("chi2", 3, False, 5, 10, 100000, 1),
     "0x1.105365908c959p+1", "0x1.c4c639a41f450p+1"),
    (("lrt", 3, True, 5, 10, 70001, 2),
     "0x1.4328b2cd49d03p+1", "0x1.3fcbb5f9ad4afp+2"),
    (("chi2", 5, True, 10, 10, 100000, 3),
     "0x1.0110156d16162p+2", "0x1.6e601ea14c501p+2"),
    (("lrt", 5, False, 10, 10, 50000, 4),
     "0x1.45db958c9a885p+2", "0x1.628b1d30ea509p+3"),
    (("chi2", 10, False, 5, 10, 100000, 5),
     "0x1.dcb4b945308bcp+2", "0x1.b57c296de60dcp+2"),
    (("lrt", 10, True, 5, 10, 100000, 6),
     "0x1.0d2aa1e676e9ap+3", "0x1.569ae3a9bf093p+3"),
    (("chi2", 5, True, 20, 30, 100000, 7),
     "0x1.050612aa66309p+2", "0x1.d2794bcb3120dp+2"),
    (("lrt", 5, False, 30, 30, 100000, 8),
     "0x1.1027c845c8a55p+2", "0x1.2963f8b70b5d9p+3"),
    (("chi2", 10, False, 10, 10, 100000, 9),
     "0x1.06ac5fac56af8p+3", "0x1.04fc310ff8e8fp+3"),
    (("lrt", 10, True, 10, 10, 100000, 10),
     "0x1.31b9899de6aa3p+3", "0x1.dcb8f958ced12p+3"),
    (("chi2", 20, False, 30, 30, 100000, 11),
     "0x1.25eabd87f8e11p+4", "0x1.61e4cf043ec81p+4"),
    (("lrt", 20, False, 5, 10, 100000, 12),
     "0x1.aca9753c5cb46p+3", "0x1.36eba2dd3bd0bp+3"),
]
# float.hex of the null mean and variance, enumerating every outcome pair
# in 40-digit arithmetic (mpmath) at the float probabilities of the vector.
_PRECISE = [
    (("lrt", 3, False, 2, 300), "0x1.45e62a0f68f17p+1", "0x1.bcaf5c00135d0p+0"),
    (("chi2", 3, True, 2, 300), "0x1.00d9ba4256c03p+1", "0x1.5d6f11c094eb7p+1"),
    (("lrt", 3, True, 10, 10), "0x1.32115cc4f3e25p+1", "0x1.5a08fe73b12a6p+2"),
    (("lrt", 10, False, 5, 5), "0x1.0d35b34a5cb66p+3", "0x1.0157db8ec3d8dp+3"),
]


def _oracle(statistic, d, nonuniform):
    vector = ProbVector(_VECTORS[d] if nonuniform else np.full(d, 1.0 / d))
    fn = chi_square_moments_oracle if statistic == "chi2" else lrt_moments_oracle
    return vector, fn


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
        mom = chi_square_moments_oracle(piv, 2, 2)
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
        mom = lrt_moments_oracle(piv, 3, 2)
        assert mom.mean == pytest.approx(mean, abs=1e-12)
        assert mom.variance == pytest.approx(second - mean**2, abs=1e-12)

    @pytest.mark.parametrize("case, mean, variance", _EXACT_GOLDEN)
    def test_exact_golden(self, case, mean, variance):
        statistic, d, nonuniform, n1, n2 = case
        vector, fn = _oracle(statistic, d, nonuniform)
        mom = fn(vector, n1, n2)
        assert mom.mean == pytest.approx(float.fromhex(mean), rel=1e-12)
        assert mom.variance == pytest.approx(float.fromhex(variance), rel=1e-12)

    @pytest.mark.parametrize("case, mean, variance", _PRECISE)
    def test_matches_high_precision_reference(self, case, mean, variance):
        vector, fn = _oracle(*case[:3])
        mom = fn(vector, *case[3:])
        assert mom.mean == pytest.approx(float.fromhex(mean), rel=2e-13)
        assert mom.variance == pytest.approx(float.fromhex(variance), rel=2e-13)

    @pytest.mark.parametrize("case, mean, variance", _MONTECARLO_GOLDEN)
    def test_montecarlo_golden(self, case, mean, variance):
        # the Monte Carlo mean lies within 4 standard errors of the exact
        # mean, and the sample variance within 5% of the exact variance
        # (the recorded ones lie within 1.6%)
        statistic, d, nonuniform, n1, n2, reps, _ = case
        vector, fn = _oracle(statistic, d, nonuniform)
        mom = fn(vector, n1, n2)
        se = math.sqrt(mom.variance / reps)
        assert abs(float.fromhex(mean) - mom.mean) <= 4 * se
        assert float.fromhex(variance) == pytest.approx(mom.variance, rel=0.05)

    def test_exact_memory_bounded(self):
        tracemalloc.start()
        try:
            chi_square_moments_oracle(ProbVector(np.full(5, 0.2)), 10, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20

    @pytest.mark.parametrize("fn", [chi_square_moments_oracle, lrt_moments_oracle])
    @pytest.mark.parametrize("n1, n2, name", [
        (0, 5, "n1"), (-1, 5, "n1"), (2.5, 5, "n1"), (True, 5, "n1"),
        ("3", 5, "n1"), (5, 0, "n2"), (5, False, "n2"), (5, np.int64(-2), "n2"),
    ])
    def test_rejects_sizes_below_one_or_not_integers(self, fn, n1, n2, name):
        with pytest.raises(OutOfRange, match=f"^{name} must be an integer"):
            fn(ProbVector(np.full(5, 0.2)), n1, n2)

    def test_accepts_numpy_integer_sizes(self):
        piv = ProbVector(np.full(5, 0.2))
        assert (chi_square_moments_oracle(piv, np.int64(5), np.int32(10))
                == chi_square_moments_oracle(piv, 5, 10))

    def test_nan_variance_is_rejected_not_clamped(self):
        # squared deviations of 1e200 overflow, and the cross terms then
        # give inf - inf: the variance is NaN, which must not read as 0.0
        def stat_fn(a, b, n1, n2):
            return 1e200 * (a - b)[..., 0]

        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(OutOfRange, match="finite"):
            _null_moments(ProbVector([0.5, 0.5]), 2, 2, stat_fn)

    def test_asymptotic_sanity_large_n(self):
        # for large equal sizes the chi-square statistic approaches its
        # chi-square(d-1) limit: mean d-1, variance 2(d-1)
        piv = ProbVector([0.25, 0.25, 0.25, 0.25])
        mom = chi_square_moments_oracle(piv, 500, 500)
        assert mom.mean == pytest.approx(3.0, rel=0.03)
        assert mom.variance == pytest.approx(6.0, rel=0.08)
