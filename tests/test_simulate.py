"""Monte Carlo engine: generators, determinism, and table plumbing.

The statistical targets (published rejection rates) live in
test_acceptance.py; everything here is cheap enough for every run.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import chi2 as chi2_dist

from grouphom import _batch, classical, simulate
from grouphom.data import ProbVector
from grouphom.decision import run_global_test
from grouphom.errors import (
    InvalidB,
    InvalidReps,
    OutOfRange,
    SampleTooSmall,
    UnknownTable,
    UnsupportedDimension,
)
from grouphom.simulate import (
    TABLE_IDS,
    SettingSpec,
    estimate_rejection_rate,
    generate_replicate,
    null_z_scores,
    pi_library,
    reproduce_table,
    sample_multinomial,
)
from grouphom.data import load_dataset, write_dataset_csv


class TestPiLibrary:
    @pytest.mark.parametrize("d", [5, 10])
    def test_vectors_are_distributions(self, d):
        lib = pi_library(d)
        assert lib.vectors.shape == (5, d)
        assert np.allclose(lib.vectors.sum(axis=1), 1.0)
        assert np.all(lib.vectors > 0)

    @pytest.mark.parametrize("d", [5, 10])
    def test_distances_match_published_tags(self, d):
        # tags are squared distances to the equiprobable vector, printed
        # to three decimals
        lib = pi_library(d)
        for i in range(5):
            dist = float(np.sum((lib.vectors[i] - lib.vectors[0]) ** 2))
            assert dist == pytest.approx(lib.tags[i], abs=1e-3)

    def test_first_vector_is_equiprobable(self):
        for d in (5, 10):
            assert np.allclose(pi_library(d).vectors[0], 1.0 / d)

    def test_vector_accessor(self):
        v = pi_library(5).vector(2)
        assert isinstance(v, ProbVector)
        assert v.probs[0] == pytest.approx(0.1)
        with pytest.raises(OutOfRange):
            pi_library(5).vector(0)

    def test_unsupported_dimension(self):
        with pytest.raises(UnsupportedDimension):
            pi_library(7)


class TestSettingSpec:
    def test_valid(self):
        SettingSpec(1, 20, 100, 5, 10)
        SettingSpec(3, 5, 10, 5, 5, pi0=2)
        SettingSpec(4, 10, 10, 5, 5, pi0=4)

    def test_pi0_required_for_alternatives(self):
        with pytest.raises(OutOfRange):
            SettingSpec(3, 5, 10, 5, 5)
        with pytest.raises(OutOfRange):
            SettingSpec(4, 5, 10, 5, 5, pi0=3)

    def test_pi0_forbidden_for_null_settings(self):
        with pytest.raises(OutOfRange):
            SettingSpec(1, 5, 10, 5, 5, pi0=2)

    def test_library_settings_need_known_d(self):
        with pytest.raises(UnsupportedDimension):
            SettingSpec(2, 7, 10, 5, 5)
        SettingSpec(1, 7, 10, 5, 5)  # uniform works for any d

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(setting=0, d=5, k=10, n1=5, n2=5),
            dict(setting=1, d=1, k=10, n1=5, n2=5),
            dict(setting=1, d=5, k=0, n1=5, n2=5),
            dict(setting=1, d=5, k=10, n1=0, n2=5),
        ],
    )
    def test_range_checks(self, kwargs):
        with pytest.raises(OutOfRange):
            SettingSpec(**kwargs)


class TestSampling:
    def test_sample_multinomial_totals(self):
        rng = np.random.default_rng(0)
        lib = pi_library(5)
        for n in (1, 7, 100):
            v = sample_multinomial(n, lib.vector(3), rng)
            assert v.total == n
            assert v.d == 5

    def test_sample_multinomial_goodness_of_fit(self):
        # one large draw exercises the whole conditional-binomial chain;
        # Pearson statistic should look chi-square(d - 1)
        rng = np.random.default_rng(20240818)
        piv = pi_library(5).vector(4)
        n = 1_000_000
        v = sample_multinomial(n, piv, rng)
        expected = n * piv.probs
        stat = float(np.sum((v.counts - expected) ** 2 / expected))
        assert stat < chi2_dist.ppf(0.999, 4)

    def test_degenerate_probability_vector(self):
        rng = np.random.default_rng(1)
        v = sample_multinomial(50, ProbVector([0.0, 1.0, 0.0]), rng)
        assert v.counts.tolist() == [0, 50, 0]

    def test_draws_bit_identical(self):
        # exact seeded counts from one generator, zero categories included
        rng = np.random.default_rng(2024)
        draws = [
            (37, pi_library(5).vector(5), [2, 3, 4, 7, 21]),
            (1000, pi_library(10).vector(3),
             [19, 7, 22, 31, 95, 90, 140, 194, 195, 207]),
            (25, ProbVector([0.3, 0.7, 0.0, 0.0]), [7, 18, 0, 0]),
            (12, ProbVector([0.5, 0.0, 0.5, 0.0]), [8, 0, 4, 0]),
        ]
        for n, pi, expected in draws:
            assert sample_multinomial(n, pi, rng).counts.tolist() == expected


class TestGenerateReplicate:
    def test_reproducible(self):
        spec = SettingSpec(2, 5, 25, 8, 12, master_seed=99)
        a, fa = generate_replicate(spec, 4)
        b, fb = generate_replicate(spec, 4)
        assert a == b
        assert np.array_equal(fa, fb)
        c, _ = generate_replicate(spec, 5)
        assert a != c

    def test_sizes_and_shape(self):
        spec = SettingSpec(1, 10, 30, 5, 9, master_seed=1)
        ds, flags = generate_replicate(spec, 0)
        assert ds.k == 30 and ds.d == 10
        assert ds.sizes(1).tolist() == [5] * 30
        assert ds.sizes(2).tolist() == [9] * 30
        assert flags.shape == (30,) and flags.dtype == bool

    @pytest.mark.parametrize("setting,expect_all_null", [(1, True), (2, True)])
    def test_null_settings_flag_everything_null(self, setting, expect_all_null):
        spec = SettingSpec(setting, 5, 50, 6, 6, master_seed=3)
        _, flags = generate_replicate(spec, 1)
        assert flags.all() == expect_all_null

    @pytest.mark.parametrize(
        "setting,pi0,expected",
        [(3, 2, 0.8), (4, 4, 0.8), (5, None, 0.2)],
    )
    def test_mixture_fractions(self, setting, pi0, expected):
        spec = SettingSpec(setting, 5, 500, 5, 5, pi0=pi0, master_seed=17)
        fractions = []
        for r in range(20):
            _, flags = generate_replicate(spec, r)
            fractions.append(flags.mean())
        observed = float(np.mean(fractions))
        se = math.sqrt(expected * (1 - expected) / (500 * 20))
        assert observed == pytest.approx(expected, abs=5 * se)

    def test_round_trips_through_csv(self, tmp_path):
        spec = SettingSpec(3, 10, 12, 7, 9, pi0=4, master_seed=5)
        ds, _ = generate_replicate(spec, 2)
        path = tmp_path / "rep.csv"
        write_dataset_csv(ds, path)
        assert load_dataset(path) == ds

    def test_negative_index(self):
        with pytest.raises(OutOfRange):
            generate_replicate(SettingSpec(1, 5, 5, 5, 5), -1)

    def test_counts_bit_identical(self):
        # exact seeded counts, so that no change shifts the replicate stream
        spec = SettingSpec(3, 5, 6, 5, 10, pi0=4, master_seed=7)
        ds, flags = generate_replicate(spec, 2)
        assert ds.counts_matrix(1).tolist() == [
            [0, 1, 0, 3, 1], [1, 0, 0, 1, 3], [0, 0, 1, 3, 1],
            [2, 1, 1, 0, 1], [1, 1, 1, 2, 0], [1, 0, 1, 0, 3],
        ]
        assert ds.counts_matrix(2).tolist() == [
            [1, 0, 3, 4, 2], [1, 0, 1, 4, 4], [0, 0, 1, 4, 5],
            [1, 2, 3, 4, 0], [0, 1, 2, 3, 4], [0, 1, 2, 1, 6],
        ]
        assert flags.tolist() == [False, False, True, True, False, True]
        assert ds.group_ids() == [f"g00{i}" for i in range(1, 7)]

    # Replicate 2 of SettingSpec(setting, d, 6, 5, 10, pi0, master_seed=7):
    # sample-1 and sample-2 counts (groups separated by ';') and null flags.
    GOLDEN = [
        (1, 5, None,
         "2,2,1,0,0;0,1,1,1,2;2,2,0,0,1;0,1,0,2,2;1,0,0,3,1;0,1,1,1,2",
         "4,1,0,2,3;1,1,2,4,2;3,2,2,2,1;0,3,3,2,2;3,2,3,2,0;2,1,1,3,3",
         "111111"),
        (2, 5, None,
         "0,0,0,2,3;0,0,0,0,5;0,0,1,3,1;2,1,1,0,1;0,0,0,2,3;1,0,1,0,3",
         "1,1,2,2,4;1,0,0,1,8;0,0,1,4,5;1,2,3,4,0;0,2,1,1,6;0,1,2,1,6",
         "111111"),
        (4, 5, 2,
         "0,1,0,3,1;1,0,0,1,3;0,0,1,3,1;2,1,1,0,1;1,1,1,2,0;1,0,1,0,3",
         "4,2,3,0,1;1,0,1,3,5;0,0,1,4,5;1,2,3,4,0;3,3,2,1,1;0,1,2,1,6",
         "001101"),
        (4, 5, 4,
         "0,1,0,3,1;1,0,0,1,3;0,0,1,3,1;2,1,1,0,1;1,1,1,2,0;1,0,1,0,3",
         "5,2,1,2,0;1,0,1,4,4;0,0,1,4,5;1,2,3,4,0;4,2,3,0,1;0,1,2,1,6",
         "001101"),
        (5, 5, None,
         "1,1,0,0,3;0,0,0,2,3;1,0,1,0,3;1,0,2,2,0;0,0,0,1,4;0,0,2,1,2",
         "0,1,3,5,1;2,3,2,1,2;0,2,1,0,7;1,3,2,2,2;0,1,2,3,4;0,1,2,6,1",
         "000000"),
        (1, 10, None,
         "1,1,1,0,0,0,0,1,1,0;0,0,0,0,2,1,1,0,0,1;1,1,0,0,0,1,1,0,0,1;"
         "0,0,0,1,1,1,1,1,0,0;0,0,0,0,1,0,0,1,2,1;0,0,0,2,0,0,0,1,1,1",
         "3,1,0,3,0,1,1,0,0,1;1,0,2,1,0,1,3,2,0,0;0,1,1,1,0,1,1,2,1,2;"
         "1,1,0,0,0,3,0,2,1,2;0,2,0,1,1,2,1,1,0,2;1,2,2,0,0,2,1,0,0,2",
         "111111"),
        (2, 10, None,
         "0,0,0,0,0,0,1,2,1,1;0,0,0,0,0,0,0,1,1,3;0,0,0,1,0,0,0,1,0,3;"
         "1,1,0,0,0,0,1,2,0,0;0,0,0,0,0,0,0,1,2,2;0,0,0,0,0,0,1,0,3,1",
         "0,0,0,0,0,0,0,3,1,6;0,0,0,0,0,0,1,2,1,6;0,0,1,0,0,1,2,1,2,3;"
         "1,0,3,0,2,1,0,0,1,2;0,0,0,0,0,1,4,0,1,4;0,0,0,0,0,0,2,3,2,3",
         "111111"),
        (3, 10, 2,
         "0,0,0,1,1,1,1,1,0,0;0,0,0,0,1,0,0,1,2,1;0,0,0,1,0,0,0,1,2,1;"
         "1,1,0,0,0,0,1,2,0,0;0,0,0,1,1,1,0,0,2,0;0,0,0,0,0,0,1,0,1,3",
         "0,0,1,1,0,1,1,2,2,2;0,0,0,0,0,2,0,2,2,4;0,0,0,0,0,1,2,2,4,1;"
         "1,2,2,0,0,2,1,0,1,1;0,0,2,0,2,1,0,0,1,4;0,0,0,0,0,1,6,0,2,1",
         "001101"),
        (4, 10, 4,
         "0,0,0,1,1,1,1,1,0,0;0,0,0,0,1,0,0,1,2,1;0,0,0,1,0,0,0,1,2,1;"
         "1,1,0,0,0,0,1,2,0,0;0,0,0,1,1,1,0,0,2,0;0,0,0,0,0,0,1,0,1,3",
         "1,2,3,2,0,0,1,1,0,0;0,0,0,0,0,0,5,0,3,2;0,0,0,0,0,1,1,6,1,1;"
         "1,2,2,0,0,2,0,1,0,2;3,1,5,1,0,0,0,0,0,0;0,0,0,0,1,1,2,2,3,1",
         "001101"),
        (5, 10, None,
         "0,0,0,0,0,0,1,3,1,0;0,0,0,0,0,0,0,1,0,4;0,0,0,0,0,0,1,0,2,2;"
         "0,0,1,1,0,1,1,0,0,1;0,0,0,0,0,0,0,1,2,2;0,0,0,0,0,0,1,3,0,1",
         "0,1,0,0,1,3,4,0,0,1;0,1,1,0,1,1,1,2,2,1;0,0,0,0,2,0,1,1,2,4;"
         "0,0,1,1,2,0,1,0,2,3;1,1,0,0,2,1,0,2,1,2;0,2,0,1,1,0,0,1,1,4",
         "000000"),
    ]

    @pytest.mark.parametrize("setting,d,pi0,counts1,counts2,flags", GOLDEN)
    def test_counts_bit_identical_every_setting(
        self, setting, d, pi0, counts1, counts2, flags
    ):
        def parse(text):
            return [[int(c) for c in g.split(",")] for g in text.split(";")]

        spec = SettingSpec(setting, d, 6, 5, 10, pi0=pi0, master_seed=7)
        ds, null_flags = generate_replicate(spec, 2)
        assert ds.counts_matrix(1).tolist() == parse(counts1)
        assert ds.counts_matrix(2).tolist() == parse(counts2)
        assert null_flags.tolist() == [f == "1" for f in flags]


def _numerator(a, b, n1, n2):
    # T * n1 (n1 - 1) n2 (n2 - 1) in integers, from the U-statistic's terms
    return (
        a * (a - 1) * n2 * (n2 - 1) + b * (b - 1) * n1 * (n1 - 1)
        - 2 * a * b * (n1 - 1) * (n2 - 1)
    ).sum(axis=-1)


def _statistic(a, b, n1, n2):
    return _batch.tu_group(a / n1, b / n2, float(n1), float(n2))


def _minp_rejections(spec, reps, B, alpha, statistic):
    """Min-p decisions rebuilt from each replicate's dataset and its salt-2
    bootstrap stream, counting T* > T through ``statistic``."""
    n1, n2 = spec.n1, spec.n2
    rejections = 0
    for r in range(reps):
        ds, _ = generate_replicate(spec, r)
        rng = simulate._replicate_rng(spec, r, salt=2)
        phat = (ds.c1 + ds.c2) / (n1 + n2)
        b1 = rng.multinomial(n1, phat, size=(B, spec.k))
        b2 = rng.multinomial(n2, phat, size=(B, spec.k))
        above = statistic(b1, b2, n1, n2) > statistic(ds.c1, ds.c2, n1, n2)
        rejections += above.mean(axis=0).min() <= alpha / spec.k
    return rejections


def _test7_z(spec, reps, B):
    """test7 z-scores rebuilt from each replicate's dataset and its salt-1
    bootstrap stream, with the statistic written from the U-statistic's
    terms."""
    n1, n2, k = spec.n1, spec.n2, spec.k
    scale = n1 * (n1 - 1) * n2 * (n2 - 1) * math.sqrt(k)
    z = []
    for r in range(reps):
        ds, _ = generate_replicate(spec, r)
        rng = simulate._replicate_rng(spec, r, salt=1)
        phat = (ds.c1 + ds.c2) / (n1 + n2)
        b1 = rng.multinomial(n1, phat, size=(B, k))
        b2 = rng.multinomial(n2, phat, size=(B, k))
        null = _numerator(b1, b2, n1, n2).sum(axis=-1) / scale
        observed = _numerator(ds.c1, ds.c2, n1, n2).sum() / scale
        z.append(observed / math.sqrt(np.var(null, ddof=1)))
    return np.array(z)


class TestRejectionRateEngine:
    SPEC = SettingSpec(1, 5, 20, 10, 10, master_seed=31)

    def test_matches_library_decision_path(self):
        # the vectorized engine must agree replicate-by-replicate with
        # the plain library route: generate, test, count; every test that
        # reads only the replicate stream is covered
        reps = 40
        estimators = tuple(f"test{i}" for i in range(1, 7))
        res = estimate_rejection_rate(
            self.SPEC,
            estimators + ("chi2", "wk", "vk", "wkprime", "vkprime"),
            reps=reps,
        )
        uniform = ProbVector(np.full(5, 0.2))
        mom_w = classical.chi_square_moments_oracle(uniform, 10, 10, method="exact")
        mom_v = classical.lrt_moments_oracle(uniform, 10, 10, method="exact")
        z95 = ndtri(0.95)
        counts = dict.fromkeys(res, 0)
        for r in range(reps):
            ds, _ = generate_replicate(self.SPEC, r)
            for test in estimators:
                counts[test] += run_global_test(ds, test).reject
            _, p = classical.chi_square_pooled(ds)
            counts["chi2"] += p <= 0.05
            counts["wk"] += classical.wk_statistic(ds) >= z95
            counts["vk"] += classical.vk_statistic(ds) >= z95
            counts["wkprime"] += classical.wk_prime(ds, mom_w) >= z95
            counts["vkprime"] += classical.vk_prime(ds, mom_v) >= z95
        assert 0 < sum(counts.values()) < len(counts) * reps
        for test, result in res.items():
            assert result.rejections == counts[test], test
            assert result.reps == reps
            assert result.rate == pytest.approx(counts[test] / reps)

    def test_se_formula(self):
        res = estimate_rejection_rate(self.SPEC, ("test2",), reps=60)
        r = res["test2"]
        assert r.se == pytest.approx(
            math.sqrt(r.rate * (1 - r.rate) / r.reps)
        )

    def test_worker_count_invariance(self):
        kwargs = dict(reps=64, bootstrap_B=40, minp_B=40)
        one = estimate_rejection_rate(
            self.SPEC, ("test1", "test7", "minp"), workers=1, **kwargs
        )
        three = estimate_rejection_rate(
            self.SPEC, ("test1", "test7", "minp"), workers=3, **kwargs
        )
        for test in one:
            assert one[test].rejections == three[test].rejections, test

    def test_minp_decides_ties_exactly(self):
        # samples of 3 and 4 make ties common, and alpha / k = 0.05 falls
        # between p-values that a floating-point comparison moves
        spec = SettingSpec(1, 5, 10, 3, 4, master_seed=2024)
        res = estimate_rejection_rate(
            spec, ("minp",), reps=60, alpha=0.5, minp_B=50
        )
        exact = _minp_rejections(spec, 60, 50, 0.5, _numerator)
        assert res["minp"].rejections == exact
        rounded = _minp_rejections(spec, 60, 50, 0.5, _statistic)
        assert rounded != exact  # the cell does tell the two apart

    def test_test7_matches_reference(self):
        spec = SettingSpec(3, 5, 20, 5, 10, pi0=4, master_seed=12)
        expected = _test7_z(spec, 30, 200)
        z = null_z_scores(spec, "test7", reps=30)
        np.testing.assert_allclose(z, expected, rtol=1e-9)
        res = estimate_rejection_rate(spec, ("test7",), reps=30)
        assert res["test7"].rejections == np.sum(expected >= ndtri(0.95))
        assert res["test7"].degenerate == 0

    def test_minp_large_totals_compare_floats(self):
        # from n1 n2 = 2**30 the integer numerator could wrap in int64
        spec = SettingSpec(1, 5, 4, 2**15, 2**15, master_seed=6)
        res = estimate_rejection_rate(
            spec, ("minp",), reps=20, alpha=0.6, minp_B=20
        )
        expected = _minp_rejections(spec, 20, 20, 0.6, _statistic)
        assert res["minp"].rejections == expected

    def test_oracle_standardized_tests_demand_null_setting(self):
        spec = SettingSpec(3, 5, 10, 5, 10, pi0=2)
        with pytest.raises(OutOfRange):
            estimate_rejection_rate(spec, ("wkprime",), reps=5)

    def test_precondition_checked_before_sampling(self):
        spec = SettingSpec(1, 5, 10, 3, 30)
        with pytest.raises(SampleTooSmall):
            estimate_rejection_rate(spec, ("test1",), reps=5)
        spec1 = SettingSpec(1, 5, 10, 1, 30)
        with pytest.raises(SampleTooSmall):
            estimate_rejection_rate(spec1, ("test2",), reps=5)

    def test_unknown_test_id(self):
        with pytest.raises(OutOfRange):
            estimate_rejection_rate(self.SPEC, ("test9",), reps=5)

    def test_repeated_test_id(self):
        # a repeated id would count its rejections twice
        with pytest.raises(OutOfRange, match="'test1'"):
            estimate_rejection_rate(self.SPEC, ("test1", "test2", "test1"), reps=5)

    @pytest.mark.parametrize(
        "test,kwargs",
        [("test7", dict(bootstrap_B=0)), ("test7", dict(bootstrap_B=1)),
         ("minp", dict(minp_B=0)), ("minp", dict(minp_B=1))],
    )
    def test_bootstrap_size_checked_before_sampling(self, test, kwargs, monkeypatch):
        def no_sampling(*args, **kw):
            raise AssertionError("sampled before the bootstrap size was checked")

        monkeypatch.setattr(simulate, "_replicate_rng", no_sampling)
        with pytest.raises(InvalidB):
            estimate_rejection_rate(self.SPEC, ("test1", test), reps=5, **kwargs)

    def test_zero_reps(self):
        with pytest.raises(InvalidReps):
            estimate_rejection_rate(self.SPEC, ("test1",), reps=0)

    def test_degenerate_replicates_counted(self):
        # n1 = n2 = 2 with d = 5 produces many zero-variance replicates
        spec = SettingSpec(1, 5, 3, 2, 2, master_seed=8)
        res = estimate_rejection_rate(spec, ("test5",), reps=200)
        assert res["test5"].degenerate > 0

    def test_null_z_scores_standardized(self):
        spec = SettingSpec(1, 5, 200, 30, 30, master_seed=77)
        z = null_z_scores(spec, "test1", reps=300)
        assert z.shape == (300,)
        assert np.all(np.isfinite(z))
        assert abs(np.mean(z)) < 0.2
        assert 0.7 < np.var(z) < 1.3

    def test_null_z_scores_only_for_variance_tests(self):
        with pytest.raises(OutOfRange):
            null_z_scores(self.SPEC, "wk", reps=10)


class TestOracleStandardization:
    def test_wkprime_centered_and_scaled(self):
        # with exact per-vector moments the standardized aggregate should
        # be close to mean 0, variance 1 across replicates; verify via
        # the library route on a handful of replicates
        spec = SettingSpec(2, 5, 100, 5, 10, master_seed=55)
        lib = pi_library(5)
        moments = {
            i: classical.chi_square_moments_oracle(
                lib.vector(i + 1), 5, 10, method="exact"
            )
            for i in range(5)
        }
        values = []
        for r in range(60):
            ds, _ = generate_replicate(spec, r)
            # recover each group's library vector by likelihood: not
            # observable, so standardize with the mixture-average moments
            mean = float(np.mean([m.mean for m in moments.values()]))
            var = float(np.mean([m.variance for m in moments.values()]))
            values.append(
                classical.wk_prime(ds, classical.MomentPair(mean, var))
            )
        assert abs(np.mean(values)) < 0.5

    def test_engine_wkprime_agrees_with_manual_standardization(self):
        # setting 1: single known vector, so the engine's moment indexing
        # reduces to a constant; rebuild the rejection decision by hand
        spec = SettingSpec(1, 5, 30, 5, 10, master_seed=41)
        res = estimate_rejection_rate(spec, ("wkprime", "vkprime"), reps=25)
        piv = ProbVector(np.full(5, 0.2))
        mom_w = classical.chi_square_moments_oracle(piv, 5, 10, method="exact")
        mom_v = classical.lrt_moments_oracle(piv, 5, 10, method="exact")
        z95 = ndtri(0.95)
        count_w = count_v = 0
        for r in range(25):
            ds, _ = generate_replicate(spec, r)
            count_w += classical.wk_prime(ds, mom_w) >= z95
            count_v += classical.vk_prime(ds, mom_v) >= z95
        assert res["wkprime"].rejections == count_w
        assert res["vkprime"].rejections == count_v


class TestReproduceTable:
    def test_table_ids_registered(self):
        assert set(TABLE_IDS) == {
            "tab2", "tab3", "tab4", "tab5", "tab6",
            "rev1", "rev2", "rev3",
            "tab8", "tab88", "trv1", "trv2",
            "power1", "power2", "power3", "powerCM",
        }

    def test_unknown_table(self):
        with pytest.raises(UnknownTable):
            reproduce_table("tab99", reps=2)

    def test_level_table_layout(self, tmp_path):
        res = reproduce_table(
            "tab2", reps=5, seed=3, outdir=tmp_path,
            k_values=[20], size_pairs=[(5, 10), (10, 10)],
        )
        assert res.columns[:3] == ("k", "n1", "n2")
        assert "test1" in res.columns and "se_test3" in res.columns
        assert len(res.rows) == 2
        for row in res.rows:
            for t in ("test1", "test2", "test3"):
                assert 0.0 <= row[t] <= 1.0
        # artifacts
        lines = (tmp_path / "tab2.csv").read_text().strip().splitlines()
        assert lines[0] == ",".join(res.columns)
        assert len(lines) == 3
        sidecar = json.loads((tmp_path / "tab2.json").read_text())
        assert sidecar["table"] == "tab2"
        assert sidecar["seed"] == 3
        assert sidecar["reps"] == 5
        assert sidecar["k_values"] == [20]
        assert "generated_utc" in sidecar

    def test_csv_file_bytes(self, tmp_path):
        reproduce_table("tab2", reps=40, seed=3, outdir=tmp_path,
                        k_values=[20], size_pairs=[(5, 10), (10, 10)])
        reproduce_table("power1", reps=40, seed=3, outdir=tmp_path,
                        k_values=[20], size_pairs=[(5, 5)], d_values=[5])
        assert (tmp_path / "tab2.csv").read_bytes() == (
            b"k,n1,n2,test1,test2,test3,se_test1,se_test2,se_test3\n"
            b"20,5,10,0.075,0.075,0.075,0.0416458,0.0416458,0.0416458\n"
            b"20,10,10,0.025,0.025,0.025,0.0246855,0.0246855,0.0246855\n"
        )
        assert (tmp_path / "power1.csv").read_bytes() == (
            b"d,k,n1,n2,pi2_test1,pi2_test2,pi2_test3,pi2_chi2,pi4_test1,"
            b"pi4_test2,pi4_test3,pi4_chi2,se_pi2_test1,se_pi2_test2,"
            b"se_pi2_test3,se_pi2_chi2,se_pi4_test1,se_pi4_test2,se_pi4_test3,"
            b"se_pi4_chi2\n"
            b"5,20,5,5,0.125,0.125,0.1,0.05,0.025,0.075,0.05,0.1,0.0522913,"
            b"0.0522913,0.0474342,0.0344601,0.0246855,0.0416458,0.0344601,"
            b"0.0474342\n"
        )

    def test_by_dimension_layout(self):
        res = reproduce_table(
            "tab8", reps=4, k_values=[20], size_pairs=[(10, 10)],
            d_values=[5, 10],
        )
        assert res.columns == ("k", "n1", "n2", "d5", "d10", "se_d5", "se_d10")
        assert len(res.rows) == 1

    def test_power_table_layout(self):
        res = reproduce_table(
            "power1", reps=4, k_values=[20], size_pairs=[(5, 5)],
            d_values=[5],
        )
        row = res.rows[0]
        for col in ("pi2_test1", "pi4_chi2", "se_pi2_test3"):
            assert col in res.columns and col in row

    def test_minp_table_layout(self):
        res = reproduce_table(
            "powerCM", reps=3, k_values=[20], size_pairs=[(5, 5)],
            d_values=[5],
        )
        assert set(res.columns) >= {
            "d5_s31", "d5_s32", "d5_s41", "d5_s42", "d5_s5",
        }

    def test_grid_restriction_validated(self):
        with pytest.raises(OutOfRange):
            reproduce_table("tab2", reps=2, k_values=[33])
        # a repeated value would run one cell twice, as two rows
        for kwargs in (dict(k_values=[20, 20]), dict(d_values=[5, 5]),
                       dict(size_pairs=[(5, 10), (5, 10)])):
            with pytest.raises(OutOfRange, match="repeats"):
                reproduce_table("tab8", reps=2, **kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(size_pairs=[(5, 10), (1, 2)]),
         r"outside the table grid: sizes=\[\(1, 2\)\]$"),
        (dict(k_values=[20], d_values=[5, 7]),
         r"outside the table grid: d=\[7\]$"),
        (dict(k_values=[50, 33, 20, 50]),
         r"outside the table grid: k=\[33\]$"),
        (dict(k_values=[50, 20, 50]), r"repeats a value: k=\[50, 20, 50\]$"),
    ])
    def test_restriction_error_names_the_axis(self, kwargs, message):
        with pytest.raises(OutOfRange, match=message):
            reproduce_table("tab8", reps=2, **kwargs)

    def test_restricted_grid_reproduces_table_cells(self):
        # each cell is seeded from its place in the full grid, whatever
        # part of the grid is run and in whatever order
        kwargs = dict(reps=400, seed=0)
        prefix = reproduce_table("tab2", k_values=[20, 50], **kwargs).rows
        alone = reproduce_table("tab2", k_values=[50], size_pairs=[(5, 10)],
                                **kwargs).rows
        swapped = reproduce_table("tab2", k_values=[50, 20], **kwargs).rows
        assert alone == prefix[4:5]
        assert swapped == prefix[4:] + prefix[:4]
        by_d = reproduce_table("tab8", reps=40, k_values=[20],
                               size_pairs=[(10, 10)], d_values=[10, 5]).rows
        full = reproduce_table("tab8", reps=40, k_values=[20],
                               size_pairs=[(5, 10), (10, 10)]).rows
        assert by_d[0]["d5"] == full[1]["d5"]
        assert by_d[0]["d10"] == full[1]["d10"]

    def test_deterministic_given_seed(self):
        kwargs = dict(reps=6, k_values=[20], size_pairs=[(5, 10)])
        a = reproduce_table("tab2", seed=9, **kwargs)
        b = reproduce_table("tab2", seed=9, **kwargs)
        assert a.rows == b.rows

    def test_table_seed_reaches_the_cells(self):
        # each cell's master seed is derived from the table seed, so
        # distinct table seeds must produce distinct cell streams
        from grouphom.simulate import _cell_seed

        seeds_a = {_cell_seed(9, i) for i in range(10)}
        seeds_b = {_cell_seed(10, i) for i in range(10)}
        assert len(seeds_a) == 10
        assert not (seeds_a & seeds_b)


_KNN = ("k", "n1", "n2")
_T13 = ("test1", "test2", "test3")
_T47 = ("test4", "test5", "test6", "test7")
_BY_D = ("d5", "d10", "d20")
_PI = tuple(f"pi{p}_{t}" for p in (2, 4) for t in _T13 + ("chi2",))
_POWER3 = tuple(f"d{d}_{t}" for d in (5, 10) for t in _T13 + ("chi2",))
_MINP = tuple(f"d{d}_{v}" for d in (5, 10)
              for v in ("s31", "s32", "s41", "s42", "s5"))


class TestTableGrids:
    """Every table's full reference grid: its columns, its row count and a
    SHA-256 of its cells, each as ``(row index, spec, tests, {column:
    test})``.  Each cell's seed comes from its spec's place in this grid,
    so the digest pins the cell seeds too."""

    # table: (row keys, value columns, rows, digest of the cells)
    GOLDEN = {
        "tab2": (_KNN, _T13, 24,
                 "0245eac8a95d201e181ecf78e1cea5f743e3c06d8388117c631cf926389089ec"),
        "tab3": (_KNN, _T13, 24,
                 "8d751160efc9ed380ffe9e35984b622ce95e28759d7832a53881cf64a5acec52"),
        "tab4": (_KNN, _T13, 24,
                 "b3cab20d21b2e5eb4e2a8e0388560ea96e54b24b8ca4c64d2a5edf4e747079d6"),
        "tab5": (_KNN, _T13, 24,
                 "add1f659d3ebc195f9631f2e0aad3781fa5a3130f387d4f71973efdc62439345"),
        "tab6": (_KNN, _T13, 24,
                 "a361fe26695b652a94191708770dd9f089179e76c9bac93d530c5aba1c1ff3c0"),
        "rev1": (_KNN, _T47, 24,
                 "131dd8ff19e95554b6f46265e60f158f7757dcc94a84b6beb755fabf7538806e"),
        "rev2": (_KNN, _T47, 24,
                 "63e7e82cf112b6ce01a9f54d0db12fe98e0909c0b651695ad6efe55cc6ea35d4"),
        "rev3": (_KNN, _T47, 24,
                 "5866ecaad3097204930f5ff40fba6b41bf373d9b69f2cd51a711d2dc21413367"),
        "tab8": (_KNN, _BY_D, 24,
                 "d8beb12bccd5dfe97b7f35e0ffd4a0ccb81aea301605f621657e0046d5eb52e4"),
        "tab88": (_KNN, _BY_D, 24,
                 "1f8f133d81453e74bf4b04ba9a214623ceaadbb128d690a1cb7c549fe5589a16"),
        "trv1": (_KNN, _BY_D, 24,
                 "5705e684b26cdadd15e6cbe76a80a1dff7c4a10775743906a340a6eccd933ec6"),
        "trv2": (_KNN, _BY_D, 24,
                 "57167e5ac68428458e165e7f12f7987d28b08701f7d430e864e3d3aea64f7325"),
        "power1": (("d",) + _KNN, _PI, 30,
                 "969eda2be935a5b05952d596fee66729e581259db0ad1df0323a8f01abe48b92"),
        "power2": (("d",) + _KNN, _PI, 30,
                 "679de449cf87937ab50799d09741baa0799a4e277f9494482a14f9d405282fe9"),
        "power3": (_KNN, _POWER3, 15,
                 "91b7471da8d3c51fc50e6725da5484029bed6ff0fd8ab85bd2f0ee00d0c29313"),
        "powerCM": (_KNN, _MINP, 15,
                 "95e419d2ee4a7f1af9679554db239b582cbc552feedc508c49c7d823e0b44962"),
    }

    @pytest.mark.parametrize("table_id", TABLE_IDS)
    def test_full_grid(self, table_id):
        head, values, n_rows, digest = self.GOLDEN[table_id]
        table = simulate._TABLES[table_id]
        columns, rows, cells = simulate._table_cells(
            table, table.k_values, table.sizes, table.d_values)
        assert tuple(columns) == head + values + tuple(f"se_{c}" for c in values)
        assert len(rows) == n_rows
        assert all(tuple(row) == head for row in rows)
        index = {id(row): i for i, row in enumerate(rows)}
        cells = repr([(index[id(row)], spec, tests, columns_to_tests)
                      for row, spec, tests, columns_to_tests in cells])
        assert hashlib.sha256(cells.encode()).hexdigest() == digest


class _PoolCounter:
    """Stands in for ``multiprocessing`` inside ``grouphom.simulate`` and
    records the size of each worker pool started.  Inline pools run their
    blocks in this process and start none."""

    def __init__(self, inline):
        self.sizes = []
        self.inline = inline

    def get_context(self, method):
        assert method == "fork"
        return self

    def Pool(self, processes):
        self.sizes.append(processes)
        if self.inline:
            return _InlinePool()
        return multiprocessing.get_context("fork").Pool(processes)


class _InlinePool:
    def map(self, fn, items):
        return [fn(item) for item in items]

    def terminate(self):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.terminate()


@pytest.fixture
def pools(monkeypatch):
    def install(inline=False):
        counter = _PoolCounter(inline)
        monkeypatch.setattr(simulate, "multiprocessing", counter)
        return counter

    return install


class TestWorkerPools:
    # tab2 at seed 11, k = 20, 1100 replicates (two blocks per cell):
    # rejections of tests 1-3 per size pair
    GOLDEN_TAB2 = {(5, 10): (70, 74, 68), (10, 10): (61, 63, 59)}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_table_rows_golden_one_pool(self, pools, workers):
        counter = pools()
        res = reproduce_table(
            "tab2", reps=1100, seed=11, workers=workers, k_values=[20],
            size_pairs=[(5, 10), (10, 10)],
        )
        assert counter.sizes == ([] if workers == 1 else [2])
        for row in res.rows:
            expected = self.GOLDEN_TAB2[(row["n1"], row["n2"])]
            for test, count in zip(("test1", "test2", "test3"), expected):
                rate = count / 1100
                assert row[test] == rate
                assert row[f"se_{test}"] == math.sqrt(rate * (1 - rate) / 1100)

    def test_single_block_table_starts_no_pool(self, pools):
        counter = pools()
        kwargs = dict(reps=40, seed=5, k_values=[20, 50],
                      size_pairs=[(5, 10), (10, 10)])
        res = reproduce_table("tab2", workers=2, **kwargs)
        assert counter.sizes == []
        assert res.rows == reproduce_table("tab2", workers=1, **kwargs).rows

    def test_pool_sized_to_blocks(self, pools):
        counter = pools(inline=True)
        kwargs = dict(reps=1025, seed=5, k_values=[20], size_pairs=[(5, 10)])
        res = reproduce_table("tab2", workers=8, **kwargs)
        spec = SettingSpec(1, 5, 20, 5, 10, master_seed=3)
        cell = estimate_rejection_rate(spec, ("test2",), reps=1025, workers=8)
        assert counter.sizes == [2, 2]
        assert res.rows == reproduce_table("tab2", workers=1, **kwargs).rows
        one = estimate_rejection_rate(spec, ("test2",), reps=1025, workers=1)
        assert cell["test2"].rejections == one["test2"].rejections

    @pytest.mark.parametrize("value", ["two", "0", "1.5", ""])
    def test_worker_variable_checked(self, monkeypatch, pools, value):
        counter = pools(inline=True)
        monkeypatch.setenv("MH_WORKERS", value)
        spec = SettingSpec(1, 5, 10, 5, 10)
        with pytest.raises(OutOfRange, match="MH_WORKERS"):
            estimate_rejection_rate(spec, ("test2",), reps=5)
        with pytest.raises(OutOfRange, match="MH_WORKERS"):
            reproduce_table("tab2", reps=5, k_values=[20])
        with pytest.raises(OutOfRange, match="workers"):
            estimate_rejection_rate(spec, ("test2",), reps=5, workers=value)
        assert counter.sizes == []
