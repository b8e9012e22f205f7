"""Null-variance estimators: hand-checked values, unbiasedness, the
population-ratio bounds that justify the plug-in estimators, and
agreement between the vectorized kernels and the matrix-form
definitions of each estimator."""

from __future__ import annotations

from itertools import product
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grouphom import _batch, simulate, variance
from grouphom.data import GroupedDataset, ProbVector
from grouphom.decision import _Stack, pergroup_bootstrap_pvalues, run_global_test
from grouphom.errors import (
    DimensionMismatch,
    InvalidB,
    OutOfRange,
    SampleTooSmall,
)
from grouphom.simulate import SettingSpec, generate_replicate
from grouphom.variance import (
    VarianceEstimate,
    trace_product,
    var0_bootstrap,
    var0_true,
    var_true_full,
)


def dataset(*pairs):
    """Dataset of ``(c1, c2)`` count-vector pairs, ids ``g0``, ``g1``, ..."""
    c1, c2 = zip(*pairs)
    return GroupedDataset(c1, c2, [f"g{i}" for i in range(len(pairs))])


def sigma_of(p):
    """Population multinomial covariance diag(p) - p p'."""
    p = np.asarray(p, dtype=np.float64)
    return np.diag(p) - np.outer(p, p)


def var_group(which, c1, c2):
    """One group's estimate from the package's vectorized kernel."""
    c1, c2 = np.asarray(c1), np.asarray(c2)
    return float(
        _batch.var_group(which, c1[None, :], c2[None, :],
                         np.array([c1.sum()]), np.array([c2.sum()]))[0]
    )


# ---------------------------------------------------------------------------
# matrix-form reference definitions of the six closed-form estimators
# ---------------------------------------------------------------------------


def unbiased_sigma(c):
    """Bias-corrected covariance estimate n/(n-1) * (diag(p) - p p')."""
    c = np.asarray(c, dtype=np.float64)
    n = c.sum()
    return n / (n - 1.0) * sigma_of(c / n)


def trace_sq_pair_sum(c):
    """Unbiased tr(Sigma^2) as the ordered-pair sum over categories
    t != s of n_t n_s [(n_t + n_s - 2)/(n - 2) - ((n_t - n_s)/(n - 2))^2],
    scaled by (n - 2) / (2 n (n-1) (n-3))."""
    c = np.asarray(c, dtype=np.float64)
    n = c.sum()
    nt, ns = c[:, None], c[None, :]
    terms = nt * ns * (
        (nt + ns - 2.0) / (n - 2.0) - ((nt - ns) / (n - 2.0)) ** 2
    )
    np.fill_diagonal(terms, 0.0)
    return 0.5 * (n - 2.0) / (n * (n - 1.0) * (n - 3.0)) * terms.sum()


def bracket(n1, n2):
    return 2.0 / (n1 * (n1 - 1)) + 2.0 / (n2 * (n2 - 1)) + 4.0 / (n1 * n2)


def reference_var(which, c1, c2):
    """Estimator ``which`` from d x d covariance matrices, as defined."""
    c1 = np.asarray(c1, dtype=np.float64)
    c2 = np.asarray(c2, dtype=np.float64)
    n1, n2 = c1.sum(), c2.sum()
    w1, w2, w12 = 2.0 / (n1 * (n1 - 1)), 2.0 / (n2 * (n2 - 1)), 4.0 / (n1 * n2)
    s1, s2 = sigma_of(c1 / n1), sigma_of(c2 / n2)
    cross_u = trace_product(unbiased_sigma(c1), unbiased_sigma(c2))
    if which == "test1":
        return (w1 * trace_sq_pair_sum(c1) + w2 * trace_sq_pair_sum(c2)
                + w12 * cross_u)
    if which == "test2":
        return bracket(n1, n2) * cross_u
    if which == "test3":
        return bracket(n1, n2) * trace_sq_pair_sum(c1 + c2)
    if which == "test4":
        return (w1 * trace_product(s1, s1) + w2 * trace_product(s2, s2)
                + w12 * trace_product(s1, s2))
    if which == "test5":
        return bracket(n1, n2) * trace_product(s1, s2)
    sp = sigma_of((c1 + c2) / (n1 + n2))
    return bracket(n1, n2) * trace_product(sp, sp)


# ---------------------------------------------------------------------------
# trace estimators
# ---------------------------------------------------------------------------


class TestTraceEstimators:
    def test_unbiased_sigma_hand_value(self):
        s = unbiased_sigma([1, 1])
        assert np.allclose(s, [[0.5, -0.5], [-0.5, 0.5]])

    def test_trace_sq_hand_values(self):
        # counts (2, 2): only the cross pair (t != s) contributes
        assert _batch.trace_sq_unbiased([2, 2]) == pytest.approx(2.0 / 3.0)
        # counts (3, 1): the (n_t + n_s - 2)/(n - 2) and squared-difference
        # terms cancel exactly
        assert _batch.trace_sq_unbiased([3, 1]) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_trace_sq_unbiased_by_enumeration(self):
        # E over Multinomial(n, pi) of the estimator equals tr(Sigma^2)
        n, p = 5, 0.3
        pi = np.array([p, 1 - p])
        target = trace_product(sigma_of(pi), sigma_of(pi))
        acc = 0.0
        for a in range(n + 1):
            w = comb(n, a) * p**a * (1 - p) ** (n - a)
            acc += w * _batch.trace_sq_unbiased([a, n - a])
        assert acc == pytest.approx(target, abs=1e-12)

    def test_matches_batch_power_sum_form(self):
        # the explicit ordered-pair sum over categories (the estimator's
        # definition) and the power-sum reduction in _batch are
        # algebraically the same estimator
        rng = np.random.default_rng(7)
        for _ in range(100):
            d = rng.integers(2, 7)
            c = rng.multinomial(rng.integers(4, 40), np.full(d, 1.0 / d))
            pair_sum = trace_sq_pair_sum(c)
            assert _batch.trace_sq_unbiased(c) == pytest.approx(pair_sum, abs=1e-12)

    def test_trace_product_hand_value(self):
        a = sigma_of([0.5, 0.5])
        b = sigma_of([0.25, 0.75])
        assert trace_product(a, b) == pytest.approx(0.1875)
        assert float(_batch.trace_cross(np.array([0.5, 0.5]),
                                        np.array([0.25, 0.75]))
                     ) == pytest.approx(0.1875)

    def test_trace_product_shape_check(self):
        with pytest.raises(DimensionMismatch):
            trace_product(np.eye(2), np.eye(3))

    @given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_population_trace_bounded_by_two(self, weights):
        p = np.array(weights) / np.sum(weights)
        tr = trace_product(sigma_of(p), sigma_of(p))
        assert 0.0 <= tr <= 2.0


class TestCategorySum:
    """``_batch._catsum`` is numpy's ``np.sum(x, axis=-1)``, bit for bit.
    If a numpy release changes its summation order, this fails first."""

    @pytest.mark.parametrize("lead", [(), (7,), (3, 4)])
    def test_matches_numpy_sum(self, lead):
        rng = np.random.default_rng(17)
        for d in range(1, 301):
            shape = lead + (d,)
            # signs, and magnitudes from 1e-150 to 1e150, make the sum
            # depend on the order of every addition
            x = rng.standard_normal(shape) * 10.0 ** rng.integers(
                -150, 151, size=shape)
            got, want = _batch._catsum(x), np.sum(x, axis=-1)
            assert np.shape(got) == np.shape(want), d
            assert np.array_equal(got, want), d
            assert np.array_equal(np.signbit(got), np.signbit(want)), d

    def test_negative_zero_rows_sum_to_positive_zero(self):
        # numpy's reduce starts from 0.0, and 0.0 + -0.0 is +0.0; a sum
        # started from the first slice would return -0.0
        for d in range(1, 301):
            for lead in ((), (3,), (2, 2)):
                x = np.full(lead + (d,), -0.0)
                want = np.sum(x, axis=-1)
                assert not np.signbit(want).any()
                assert np.array_equal(np.signbit(_batch._catsum(x)),
                                      np.signbit(want)), (d, lead)


# ---------------------------------------------------------------------------
# per-group estimators
# ---------------------------------------------------------------------------


class TestGroupEstimators:
    def test_test1_hand_value(self):
        assert var_group("test1", [2, 2], [2, 2]) == pytest.approx(1.0 / 3.0)
        assert reference_var("test1", [2, 2], [2, 2]) == pytest.approx(
            1.0 / 3.0
        )

    def test_test2_hand_values(self):
        assert var_group("test2", [2, 2], [2, 2]) == pytest.approx(7.0 / 27.0)
        assert var_group("test2", [1, 1], [1, 1]) == pytest.approx(3.0)

    def test_test5_hand_value(self):
        assert var_group("test5", [2, 2], [2, 2]) == pytest.approx(7.0 / 48.0)

    def test_true_null_variance_hand_value(self):
        assert var0_true(ProbVector([0.5, 0.5]), 4, 4) == pytest.approx(
            7.0 / 48.0
        )

    def test_full_variance_reduces_to_null_form(self):
        p = ProbVector([0.2, 0.3, 0.5])
        assert var_true_full(p, p, 6, 9) == pytest.approx(
            var0_true(p, 6, 9), abs=1e-15
        )

    def test_test1_needs_four_per_sample(self):
        ds = dataset(([2, 1], [2, 2]))
        with pytest.raises(SampleTooSmall):
            run_global_test(ds, "test1")

    def test_degenerate_point_mass_gives_zero(self):
        assert var_group("test2", [5, 0], [5, 0]) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_test2_unbiased_by_enumeration(self):
        # E0 of the test-2 estimator is the true null variance: both the
        # within-sample Sigma-hats and the cross trace are unbiased and
        # independent across samples
        n1, n2, q = 3, 4, 0.4
        pi = ProbVector([q, 1 - q])
        target = var0_true(pi, n1, n2)
        acc = 0.0
        for a, b in product(range(n1 + 1), range(n2 + 1)):
            w = (
                comb(n1, a) * q**a * (1 - q) ** (n1 - a)
                * comb(n2, b) * q**b * (1 - q) ** (n2 - b)
            )
            acc += w * var_group("test2", [a, n1 - a], [b, n2 - b])
        assert acc == pytest.approx(target, abs=1e-12)

    @pytest.mark.parametrize("which", ["test4", "test5", "test6"])
    def test_plugin_labels(self, which):
        ds = dataset(([3, 2], [2, 3]))
        est = run_global_test(ds, which).variance
        assert est.estimator == which
        assert est.value == var_group(which, [3, 2], [2, 3])
        assert est.value >= 0.0

    def test_scalar_and_batch_routes_agree(self):
        # the vectorized kernels against the matrix-form definitions
        rng = np.random.default_rng(11)
        for _ in range(50):
            d = rng.integers(2, 6)
            n1 = int(rng.integers(4, 25))
            n2 = int(rng.integers(4, 25))
            c1 = rng.multinomial(n1, np.full(d, 1.0 / d))
            c2 = rng.multinomial(n2, np.full(d, 1.0 / d))
            for which in ("test1", "test2", "test3", "test4", "test5",
                          "test6"):
                assert var_group(which, c1, c2) == pytest.approx(
                    reference_var(which, c1, c2), abs=1e-12
                ), which

    @pytest.mark.parametrize("d", [3, 5, 10])
    def test_stack_shared_terms_are_bit_identical(self, d):
        # the stack shares p1, p2, sum(p1 p2) and trace_cross(p1, p2)
        # between the statistic and the estimators; each must give the
        # bits of the kernel computing them itself
        rng = np.random.default_rng(d)
        n1, n2 = 6, 11
        c1 = rng.multinomial(n1, np.full(d, 1.0 / d), size=(4, 9)).astype(float)
        c2 = rng.multinomial(n2, np.full(d, 1.0 / d), size=(4, 9)).astype(float)
        s = _Stack(c1, c2, n1, n2, 0.05)
        assert np.array_equal(
            s.tu_r, _batch.tu_group(c1 / n1, c2 / n2, n1, n2))
        for which in ("test1", "test2", "test3", "test4", "test5", "test6"):
            alone = _batch.var_group(which, c1, c2, n1, n2).mean(axis=-1)
            assert np.array_equal(s.variance(which), alone), which

    def test_estimators_agree_for_large_samples(self):
        # all six closed-form estimators are ratio-consistent for the same
        # target, so at n = 10^4 they should sit within 5% of each other
        rng = np.random.default_rng(3)
        piv = np.array([0.1, 0.15, 0.2, 0.25, 0.3])
        n = 10_000
        c1, c2 = rng.multinomial(n, piv), rng.multinomial(n, piv)
        values = [
            var_group(which, c1, c2)
            for which in ("test1", "test2", "test3", "test4", "test5",
                          "test6")
        ]
        values.append(var0_true(ProbVector(piv), n, n))
        lo, hi = min(values), max(values)
        assert hi <= 1.05 * lo


# ---------------------------------------------------------------------------
# population ratio bounds behind the mismatched-variance tests
# ---------------------------------------------------------------------------


def var0_population(p1, p2, n1, n2):
    """The null-variance functional evaluated at the actual vectors."""
    s1, s2 = sigma_of(p1), sigma_of(p2)
    return (
        2.0 / (n1 * (n1 - 1)) * trace_product(s1, s1)
        + 2.0 / (n2 * (n2 - 1)) * trace_product(s2, s2)
        + 4.0 / (n1 * n2) * trace_product(s1, s2)
    )


class TestPopulationRatioBounds:
    """What the cross-trace (test 2) and pooled (test 3) estimators
    actually estimate under alternatives stays within a factor of M and
    M + 1 of the null-variance functional, where M is the imbalance of
    the two within-population traces."""

    @given(
        st.lists(st.floats(0.05, 1.0), min_size=2, max_size=6),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_lemma_bounds(self, w1, data):
        d = len(w1)
        w2 = data.draw(
            st.lists(st.floats(0.05, 1.0), min_size=d, max_size=d)
        )
        n1 = data.draw(st.integers(2, 40))
        n2 = data.draw(st.integers(2, 40))
        p1 = np.array(w1) / np.sum(w1)
        p2 = np.array(w2) / np.sum(w2)
        s1, s2 = sigma_of(p1), sigma_of(p2)
        tr1 = trace_product(s1, s1)
        tr2 = trace_product(s2, s2)
        m_const = max(tr1, tr2) / min(tr1, tr2)

        v0 = var0_population(p1, p2, n1, n2)
        v_full = var_true_full(ProbVector(p1), ProbVector(p2), n1, n2)
        v01 = bracket(n1, n2) * trace_product(s1, s2)
        lam = n1 / (n1 + n2)
        pooled_sigma = lam * s1 + (1 - lam) * s2
        v02 = bracket(n1, n2) * trace_product(pooled_sigma, pooled_sigma)

        tol = 1.0 + 1e-9
        assert 0.0 <= v01 <= m_const * v0 * tol
        assert 0.0 <= v02 <= (m_const + 1.0) * v0 * tol
        # the full variance only adds non-negative location terms
        assert v_full >= v0 - 1e-12


# ---------------------------------------------------------------------------
# bootstrap estimator
# ---------------------------------------------------------------------------


class TestBootstrap:
    @staticmethod
    def dataset(seed=0, k=30, n1=12, n2=12, d=4):
        rng = np.random.default_rng(seed)
        piv = np.full(d, 1.0 / d)
        return dataset(
            *(
                (
                    rng.multinomial(n1, piv).tolist(),
                    rng.multinomial(n2, piv).tolist(),
                )
                for _ in range(k)
            )
        )

    def test_deterministic_given_seed(self):
        ds = self.dataset()
        a = var0_bootstrap(ds, B=100, seed=123)
        b = var0_bootstrap(ds, B=100, seed=123)
        c = var0_bootstrap(ds, B=100, seed=124)
        assert a == b
        assert a.estimator == "test7"
        assert a.value != c.value

    def test_unseeded_draws_fresh_entropy(self):
        ds = self.dataset()
        a = var0_bootstrap(ds, B=50)
        b = var0_bootstrap(ds, B=50)
        assert a.value != b.value

    def test_rejects_tiny_b(self):
        with pytest.raises(InvalidB):
            var0_bootstrap(self.dataset(), B=1)

    @pytest.mark.parametrize("B", [200.0, 2.5, "200", None])
    def test_rejects_non_integral_b(self, B, monkeypatch):
        def no_sampling(*args, **kw):
            raise AssertionError("sampled before the bootstrap size was checked")

        monkeypatch.setattr(variance, "_pooled_null_draw", no_sampling)
        monkeypatch.setattr(variance, "ThreadPoolExecutor", no_sampling)
        with pytest.raises(InvalidB, match="integer"):
            var0_bootstrap(self.dataset(), B=B, seed=1)
        with pytest.raises(InvalidB, match="integer"):
            pergroup_bootstrap_pvalues(self.dataset(), B=B, seed=1)

    def test_numpy_integer_b_accepted(self):
        ds = self.dataset()
        assert var0_bootstrap(ds, B=np.int64(60), seed=3) == var0_bootstrap(
            ds, B=60, seed=3)

    def test_tracks_closed_form(self):
        # B = 2000 pins the bootstrap well within 15% of the pooled
        # closed-form estimate on a null dataset
        ds = self.dataset(seed=5, k=60, n1=20, n2=20)
        boot = var0_bootstrap(ds, B=2000, seed=99).value
        closed = float(np.mean(_batch.var_group(
            "test3", ds.c1, ds.c2, ds.sizes(1), ds.sizes(2)
        )))
        assert boot == pytest.approx(closed, rel=0.15)

    def test_mean_is_pooled_plugin(self):
        # Given the data, the pooled-null bootstrap variance of the
        # aggregate has expectation test6: each group's resampled T has
        # the exact null variance var0_true at its pooled proportions.
        # So the mean over seeds must sit within a few of its own
        # standard errors of test6.
        ds, _ = generate_replicate(SettingSpec(3, 5, 40, 5, 10, pi0=2), 0)
        values = [var0_bootstrap(ds, B=200, seed=s).value for s in range(200)]
        test6 = run_global_test(ds, "test6").variance.value
        se = np.std(values, ddof=1) / np.sqrt(len(values))
        assert abs(np.mean(values) - test6) < 4 * se

    @pytest.mark.parametrize("seed", [
        0, 1, 11, 2**32 - 1, 2**32, 2**64 + 5, 2**128 - 1, 2**128,
        2**200 + 3, np.int64(7), int(np.random.SeedSequence(2024).entropy),
        # the Monte Carlo engine's cell seeds
        simulate._cell_seed(0, 0), simulate._cell_seed(2024, 17),
    ])
    def test_stream_keys_match_seed_sequence(self, seed):
        # the Philox keys of spawn keys (g, *salt) are derived for all
        # groups at once; each must be the key numpy derives from the
        # group's own SeedSequence, and the state the draw sets must be
        # the state Philox starts in.  numpy reads an integer from 2**32
        # as two or more 32-bit words; an array may mix one- and two-word
        # entries
        wide = [2**32 - 1, 2**32, 2**32 + 9, 2**64 - 1]
        first = np.concatenate([np.arange(70_000, dtype=np.uint64),
                                np.array(wide, dtype=np.uint64)])
        rows = [0, 1, 2, 255, 65_535, 65_536, 69_999, 70_000, 70_001, 70_002, 70_003]
        for salt in [(), (1,), (2,), (2**32,)]:
            keys = variance._stream_keys(seed, first, *salt)
            for g, key in [*((int(first[i]), keys[i]) for i in rows),
                           *((g, None) for g in (2**64 + 1, 2**70))]:
                state = np.random.Philox(
                    np.random.SeedSequence(seed, spawn_key=(g, *salt))
                ).state
                expected = state["state"]["key"].tolist()
                if key is not None:
                    assert key.tolist() == expected, (g, salt)
                    bitgen = np.random.Philox(0)
                    variance._start_stream(bitgen, key)
                    assert repr(bitgen.state) == repr(state)
                assert variance._stream_keys(seed, g, *salt).tolist() == [expected]

    def test_seed_must_be_an_integer(self):
        with pytest.raises(TypeError):
            var0_bootstrap(self.dataset(), B=10, seed=[1, 2])
        with pytest.raises(ValueError):
            var0_bootstrap(self.dataset(), B=10, seed=-1)

    def test_negative_seed_checked_before_sampling(self, monkeypatch):
        # it failed inside numpy's SeedSequence, with a bare ValueError
        def no_sampling(*args, **kw):
            raise AssertionError("sampled before the seed was checked")

        monkeypatch.setattr(variance, "_stream_keys", no_sampling)
        monkeypatch.setattr(variance, "ThreadPoolExecutor", no_sampling)
        for seed in (-1, np.int64(-3)):
            with pytest.raises(OutOfRange, match="non-negative integer"):
                var0_bootstrap(self.dataset(), B=10, seed=seed)
            with pytest.raises(OutOfRange, match="non-negative integer"):
                pergroup_bootstrap_pvalues(self.dataset(), B=10, seed=seed)

    def test_value_is_frozen_dataclass(self):
        est = VarianceEstimate(1.0, "test1")
        with pytest.raises(AttributeError):
            est.value = 2.0


def _int64_buffers(shape, max_total):
    return np.empty(shape, np.int64), np.empty(shape, np.int64)


@pytest.fixture
def count_dtypes(monkeypatch):
    """The dtype of every pair of bootstrap count buffers allocated."""
    dtypes = []
    count_buffers = variance._count_buffers

    def recording(shape, max_total):
        buffers = count_buffers(shape, max_total)
        dtypes.append(buffers[0].dtype)
        return buffers

    monkeypatch.setattr(variance, "_count_buffers", recording)
    return dtypes


class TestCountDtype:
    """Bootstrap counts are int16 while every sample total is at most
    181; every result must equal the one from int64 counts."""

    @staticmethod
    def dataset(total):
        # point masses make sum c^2 and sum c1 c2 reach total^2, which
        # wraps in int16 from a total of 182
        rng = np.random.default_rng(total)
        pairs = [([total, 0, 0], [total, 0, 0]), ([0, total, 0], [0, 0, total]),
                 ([total - 1, 1, 0], [total, 0, 0])]
        for _ in range(5):
            p = rng.dirichlet(np.ones(3))
            pairs.append((rng.multinomial(total, p).tolist(),
                          rng.multinomial(rng.integers(2, total + 1), p).tolist()))
        return dataset(*pairs)

    @pytest.mark.parametrize("total, dtype", [(181, np.int16), (182, np.int64)])
    def test_library_matches_int64(self, total, dtype, count_dtypes,
                                   monkeypatch):
        ds = self.dataset(total)

        def results():
            return (var0_bootstrap(ds, B=300, seed=5),
                    pergroup_bootstrap_pvalues(ds, B=300, seed=5))

        got = results()
        assert set(count_dtypes) == {np.dtype(dtype)}
        monkeypatch.setattr(variance, "_count_buffers", _int64_buffers)
        assert got == results()

    @pytest.mark.parametrize("n2, dtype", [(181, np.int16), (182, np.int64)])
    def test_engine_matches_int64(self, n2, dtype, count_dtypes, monkeypatch):
        spec = SettingSpec(2, 5, 6, 150, n2, master_seed=25)

        def statistics():
            _, stats = simulate._run_cell(
                spec, ("test7", "minp"), 3, 0.05, 1, 40, 40,
            )
            return stats["test7"], stats["minp"]

        z, p = statistics()
        assert set(count_dtypes) == {np.dtype(dtype)}
        monkeypatch.setattr(variance, "_count_buffers", _int64_buffers)
        z64, p64 = statistics()
        np.testing.assert_array_equal(z, z64)
        np.testing.assert_array_equal(p, p64)

    def test_tu_numerator_int16_at_181(self):
        rng = np.random.default_rng(3)
        c1 = rng.multinomial(181, [0.97, 0.01, 0.01, 0.01], size=500)
        c2 = rng.multinomial(181, [0.97, 0.01, 0.01, 0.01], size=500)
        c1[0] = c2[0] = [181, 0, 0, 0]
        c1[1], c2[1] = [0, 181, 0, 0], [0, 0, 0, 181]
        for n in (181, np.full(500, 181)):
            want = _batch.tu_numerator(c1, c2, n, n)
            got = _batch.tu_numerator(
                c1.astype(np.int16), c2.astype(np.int16), n, n
            )
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)
