"""Decision layer: global test, multiplicity adjustments, per-group
bootstrap."""

from __future__ import annotations

import hashlib
import math
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri
from scipy.stats import norm

from grouphom import _batch, variance
from grouphom.decision import (
    ESTIMATORS,
    adjust_pvalues,
    global_minp_rule,
    pergroup_bootstrap_pvalues,
    run_all_tests,
    run_global_test,
)
from grouphom.data import CountVector, GroupedDataset, GroupPair
from grouphom.errors import InvalidB, OutOfRange, SampleTooSmall
from grouphom.simulate import SettingSpec, generate_replicate
from grouphom.ustat import aggregate_statistic
from grouphom.variance import var0_bootstrap


def pair(c1, c2, gid="g"):
    return GroupPair(gid, CountVector(c1), CountVector(c2))


def null_dataset(seed=0, k=40, n1=15, n2=15, d=4):
    rng = np.random.default_rng(seed)
    piv = np.full(d, 1.0 / d)
    return GroupedDataset(
        tuple(
            pair(
                rng.multinomial(n1, piv).tolist(),
                rng.multinomial(n2, piv).tolist(),
                f"g{i:03d}",
            )
            for i in range(k)
        )
    )


class TestRunGlobalTest:
    def test_pieces_fit_together(self):
        ds = null_dataset(seed=1)
        stat = aggregate_statistic(ds)
        for estimator in ESTIMATORS:
            report = run_global_test(ds, estimator, alpha=0.10, seed=3, B=100)
            if estimator == "test7":
                var = var0_bootstrap(ds, B=100, seed=3).value
            else:
                var = float(np.mean(_batch.var_group(
                    estimator, ds.c1, ds.c2, ds.sizes(1), ds.sizes(2)
                )))
            assert report.statistic == pytest.approx(stat)
            assert report.variance.value == pytest.approx(var, abs=1e-12)
            assert report.z == pytest.approx(stat / math.sqrt(var))
            assert report.p_value == pytest.approx(norm.sf(report.z))
            assert report.reject == (report.z >= ndtri(0.90))
            assert report.variance.estimator == estimator
            assert not report.degenerate_variance

    def test_statistic_identical_across_estimators(self):
        ds = null_dataset(seed=2, k=10)
        reports = run_all_tests(ds, seed=5)
        assert set(reports) == set(ESTIMATORS)
        stats = {round(r.statistic, 12) for r in reports.values()}
        assert len(stats) == 1

    def test_unknown_estimator(self):
        with pytest.raises(OutOfRange):
            run_global_test(null_dataset(), "test8")

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 2.0])
    def test_bad_alpha(self, alpha):
        with pytest.raises(OutOfRange):
            run_global_test(null_dataset(), "test1", alpha=alpha)

    def test_test1_minimum_sample_size(self):
        ds = GroupedDataset((pair([2, 1], [2, 2]),))
        with pytest.raises(SampleTooSmall):
            run_global_test(ds, "test1")
        # but the cross-trace estimator only needs two per sample
        run_global_test(ds, "test2")

    def test_degenerate_zero_statistic(self):
        # identical point masses: statistic 0, variance 0 -> retain, flagged
        ds = GroupedDataset(
            tuple(pair([5, 0], [5, 0], f"g{i}") for i in range(3))
        )
        report = run_global_test(ds, "test2")
        assert report.degenerate_variance
        assert math.isnan(report.z)
        assert report.p_value == 1.0
        assert not report.reject

    def test_degenerate_positive_statistic(self):
        # disjoint point masses: statistic positive, variance estimate 0
        ds = GroupedDataset(
            tuple(pair([5, 0], [0, 5], f"g{i}") for i in range(3))
        )
        report = run_global_test(ds, "test2")
        assert report.degenerate_variance
        assert report.p_value == 0.0
        assert report.reject

    def test_bootstrap_estimator_deterministic(self):
        ds = null_dataset(seed=3, k=12)
        a = run_global_test(ds, "test7", seed=11, B=100)
        b = run_global_test(ds, "test7", seed=11, B=100)
        assert a.variance.value == b.variance.value
        assert a.p_value == b.p_value


class TestSeededGolden:
    """Exact seeded values, compared with ``==`` so that no change to the
    data model or the kernels shifts a seeded stream or an operation order
    silently."""

    C1 = [[3, 1, 0, 2], [1, 1, 1, 1], [0, 4, 2, 1],
          [2, 2, 2, 0], [5, 0, 1, 1], [1, 3, 0, 4]]
    C2 = [[1, 2, 2, 1], [0, 3, 1, 2], [2, 1, 1, 3],
          [1, 0, 4, 1], [2, 2, 2, 2], [0, 1, 5, 1]]
    VARIANCES = {
        "test1": 0.03427380866682778,
        "test2": 0.04000100245439572,
        "test3": 0.04189320044195327,
        "test4": 0.0350532807211792,
        "test5": 0.027161380264616185,
        "test6": 0.042705410533937206,
        "test7": 0.033197105592253605,
    }

    def dataset(self):
        return GroupedDataset(
            tuple(pair(a, b, f"g{i}")
                  for i, (a, b) in enumerate(zip(self.C1, self.C2)))
        )

    def test_variances_bit_identical(self):
        reports = run_all_tests(self.dataset(), seed=2024, B=50)
        assert {est: r.variance.value for est, r in reports.items()} == (
            self.VARIANCES
        )
        assert reports["test1"].statistic == pytest.approx(
            0.2634636359773593, rel=1e-12
        )

    def test_bootstrap_bit_identical(self):
        ds = self.dataset()
        assert var0_bootstrap(ds, B=30, seed=5).value == 0.04033586889851901
        # large B spreads the groups over several resampling chunks
        assert var0_bootstrap(ds, B=5000, seed=5).value == 0.042935000121606386
        # many groups: the running total must add them one at a time
        many, _ = generate_replicate(
            SettingSpec(3, 5, 400, 5, 10, pi0=4, master_seed=3), 0
        )
        assert var0_bootstrap(many, B=200, seed=9).value == 0.04018303591910168
        assert var0_bootstrap(many, B=1000, seed=9).value == (
            0.03683006462757819
        )


class TestAdjustPvalues:
    def test_bonferroni_example(self):
        out = adjust_pvalues([0.001, 0.04, 0.5], "bonferroni")
        assert out == pytest.approx([0.003, 0.12, 1.0])

    def test_bh_example(self):
        out = adjust_pvalues([0.001, 0.04, 0.5], "bh")
        assert out == pytest.approx([0.003, 0.06, 0.5])

    def test_bh_step_up_tie_handling(self):
        out = adjust_pvalues([0.02, 0.02, 0.9], "bh")
        assert out == pytest.approx([0.03, 0.03, 0.9])

    def test_input_order_preserved(self):
        p = [0.5, 0.001, 0.04]
        out = adjust_pvalues(p, "bh")
        assert out == pytest.approx([0.5, 0.003, 0.06])

    def test_unknown_method(self):
        with pytest.raises(OutOfRange):
            adjust_pvalues([0.1], "holm")

    def test_rejects_bad_input(self):
        with pytest.raises(OutOfRange):
            adjust_pvalues([], "bh")
        with pytest.raises(OutOfRange):
            adjust_pvalues([[0.1, 0.2]], "bh")
        with pytest.raises(OutOfRange):
            adjust_pvalues([0.5, 1.5], "bh")

    @pytest.mark.parametrize("method", ["bh", "bonferroni"])
    @pytest.mark.parametrize("p", [[0.01, np.nan, 0.2], [np.nan], [-0.1, 0.5]])
    def test_rejects_nan_and_out_of_range(self, p, method):
        # a NaN would otherwise turn every BH-adjusted value into NaN
        with pytest.raises(OutOfRange, match=r"\[0, 1\]"):
            adjust_pvalues(p, method)

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30))
    @settings(max_examples=150, deadline=None)
    def test_bh_properties(self, pvals):
        p = np.array(pvals)
        bh = adjust_pvalues(p, "bh")
        bonf = adjust_pvalues(p, "bonferroni")
        assert np.all(bh >= p - 1e-15)
        assert np.all(bh <= bonf + 1e-15)
        assert np.all((bh >= 0) & (bh <= 1))
        # monotone: ordering of adjusted values follows the raw ordering
        order = np.argsort(p, kind="stable")
        assert np.all(np.diff(bh[order]) >= -1e-15)


class TestGlobalMinp:
    def test_threshold_is_alpha_over_k(self):
        assert global_minp_rule([0.01, 0.8], alpha=0.05)  # 0.01 <= 0.025
        assert not global_minp_rule([0.03, 0.8], alpha=0.05)
        assert global_minp_rule([0.025, 0.8], alpha=0.05)  # boundary

    def test_validation(self):
        with pytest.raises(OutOfRange):
            global_minp_rule([])
        for alpha in (0.0, 1.0, 1.5, -0.2):
            with pytest.raises(OutOfRange, match="alpha"):
                global_minp_rule([0.01, 0.8], alpha=alpha)

    @pytest.mark.parametrize("p", [[1e-4, np.nan], [-1, 0.5], [0.01, 1.5],
                                   [[0.01, 0.8], [np.nan, 0.9]]])
    def test_rejects_nan_and_out_of_range(self, p):
        # [1e-4, nan] used to be retained and [-1, 0.5] rejected
        with pytest.raises(OutOfRange, match=r"\[0, 1\]"):
            global_minp_rule(p)

    def test_stacked_pvalues(self):
        # one decision per leading index, as the Monte Carlo engine asks
        p = [[0.01, 0.8], [0.03, 0.8], [0.025, 0.9]]
        assert global_minp_rule(p, alpha=0.05).tolist() == [True, False, True]


class TestPergroupBootstrap:
    def test_deterministic_and_order_independent_streams(self):
        ds = null_dataset(seed=4, k=8)
        a = pergroup_bootstrap_pvalues(ds, B=300, seed=21)
        b = pergroup_bootstrap_pvalues(ds, B=300, seed=21)
        assert a == b
        # prepending a group must not change later groups' p-values --
        # streams are keyed by position, so compare a shifted dataset
        c = pergroup_bootstrap_pvalues(ds, B=300, seed=22)
        assert any(x.p_raw != y.p_raw for x, y in zip(a, c))

    def test_unseeded_draws_fresh_entropy(self):
        ds = null_dataset(seed=4, k=8)
        a = pergroup_bootstrap_pvalues(ds, B=300)
        b = pergroup_bootstrap_pvalues(ds, B=300)
        assert [r.p_raw for r in a] != [r.p_raw for r in b]

    def test_adjustments_match_direct_call(self):
        ds = null_dataset(seed=5, k=10)
        results = pergroup_bootstrap_pvalues(ds, B=200, seed=3)
        raw = [r.p_raw for r in results]
        assert [r.p_bh for r in results] == pytest.approx(
            adjust_pvalues(raw, "bh")
        )
        assert [r.p_bonferroni for r in results] == pytest.approx(
            adjust_pvalues(raw, "bonferroni")
        )

    def test_smoothed_convention(self):
        ds = null_dataset(seed=6, k=6)
        B = 199
        smooth = pergroup_bootstrap_pvalues(ds, B=B, seed=9, smoothed=True)
        for r in smooth:
            assert 1.0 / (B + 1) <= r.p_raw <= 1.0

    def test_degenerate_group_flagged(self):
        ds = GroupedDataset(
            (pair([5, 0], [5, 0], "flat"), pair([4, 2], [1, 5], "live"))
        )
        results = pergroup_bootstrap_pvalues(ds, B=100, seed=1)
        flat = {r.group_id: r for r in results}["flat"]
        live = {r.group_id: r for r in results}["live"]
        assert flat.degenerate
        assert flat.p_raw == 0.0  # strict ">" convention on a point mass
        assert not live.degenerate

    def test_ties_are_not_exceedances(self):
        # pooled proportions (0, 0, 0, 6, 9)/15 leave two live categories,
        # so T* is a function of two binomial counts and its tail is exact
        n1, n2, q = 5, 10, 0.4

        def stat(a, b):
            c1, c2 = (a, n1 - a), (b, n2 - b)
            return (
                (Fraction(sum(x * x for x in c1), n1) - 1) / (n1 - 1)
                + (Fraction(sum(x * x for x in c2), n2) - 1) / (n2 - 1)
                - 2 * Fraction(sum(x * y for x, y in zip(c1, c2)), n1 * n2)
            )

        def pmf(n, a):
            return math.comb(n, a) * q**a * (1 - q) ** (n - a)

        observed = stat(1, 5)
        above = tied = 0.0
        for a in range(n1 + 1):
            for b in range(n2 + 1):
                t = stat(a, b)
                above += pmf(n1, a) * pmf(n2, b) * (t > observed)
                tied += pmf(n1, a) * pmf(n2, b) * (t == observed)
        assert round(above, 4) == 0.2115
        assert round(above + tied, 4) == 0.2884
        B = 20_000
        ds = GroupedDataset((pair([0, 0, 0, 1, 4], [0, 0, 0, 5, 5]),))
        result = pergroup_bootstrap_pvalues(ds, B=B, seed=1)[0]
        se = math.sqrt(above * (1 - above) / B)
        assert abs(result.p_raw - above) < 4 * se
        smoothed = pergroup_bootstrap_pvalues(ds, B=B, seed=1, smoothed=True)
        se = math.sqrt((above + tied) * (1 - above - tied) / B)
        assert abs(smoothed[0].p_raw - (above + tied)) < 4 * se

    def test_large_totals_fall_back_to_float(self):
        # n1 * n2 >= 2**30, where the integer numerator can overflow: a
        # large group is compared in floating point, here checked against
        # the same draws redone from its documented stream; the small group
        # in the same resampling chunk keeps its exact result
        small = pair([3, 2, 1], [1, 2, 3], "small")
        c1, c2 = [50_000, 37_500, 12_500], [49_700, 37_800, 12_500]
        both = pergroup_bootstrap_pvalues(
            GroupedDataset((small, pair(c1, c2, "large"))), B=200, seed=4
        )
        alone = pergroup_bootstrap_pvalues(
            GroupedDataset((small,)), B=200, seed=4
        )
        assert both[0].p_raw == alone[0].p_raw
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(4, spawn_key=(1,)))
        )
        n1, n2 = sum(c1), sum(c2)
        phat = (np.array(c1) + np.array(c2)) / (n1 + n2)
        b1 = rng.multinomial(n1, phat, size=200)
        b2 = rng.multinomial(n2, phat, size=200)
        t_star = _batch.tu_group(b1 / n1, b2 / n2, float(n1), float(n2))
        assert both[1].p_raw == np.mean(t_star > both[1].statistic)
        assert 0.0 < both[1].p_raw < 1.0
        # disjoint samples: T = 2 times n1 (n1-1) n2 (n2-1) ~ 2e20 does
        # not fit in int64, yet no pooled-null draw comes near T
        split = pair([100_000, 0], [0, 100_000], "split")
        result = pergroup_bootstrap_pvalues(
            GroupedDataset((split,)), B=50, seed=4
        )
        assert result[0].statistic == pytest.approx(2.0)
        assert result[0].p_raw == 0.0

    def test_rejects_tiny_b(self):
        with pytest.raises(InvalidB):
            pergroup_bootstrap_pvalues(null_dataset(), B=1)

    def test_small_samples_rejected(self):
        ds = GroupedDataset((pair([1, 0], [3, 3]),))
        with pytest.raises(SampleTooSmall):
            pergroup_bootstrap_pvalues(ds, B=10, seed=0)

    def test_null_pvalues_roughly_uniform(self):
        # raw bootstrap p-values under the null should not concentrate:
        # check mean over many groups sits near 1/2 (discreteness pulls
        # it below slightly because of the strict inequality)
        ds = null_dataset(seed=7, k=150, n1=25, n2=25)
        results = pergroup_bootstrap_pvalues(ds, B=400, seed=13)
        mean_p = np.mean([r.p_raw for r in results])
        assert 0.35 < mean_p < 0.6


class TestThreadedDraws:
    """The library bootstraps draw their chunks on a thread pool sized by
    ``variance._available_cpus``; every output must be bit-identical at
    any thread count."""

    @staticmethod
    def dataset(k):
        ds, _ = generate_replicate(
            SettingSpec(3, 5, 400, 5, 10, pi0=4, master_seed=3), 0
        )
        return GroupedDataset.from_counts(ds.c1[:k], ds.c2[:k], ds.ids[:k])

    @staticmethod
    def outputs(ds, B):
        return (
            var0_bootstrap(ds, B=B, seed=8).value,
            pergroup_bootstrap_pvalues(ds, B=B, seed=9),
            pergroup_bootstrap_pvalues(ds, B=B, seed=9, smoothed=True),
        )

    @pytest.mark.parametrize("k", [1, 37, 400])
    @pytest.mark.parametrize("B", [2, 7, 200, 1000])
    def test_bit_identical_at_any_thread_count(self, k, B, monkeypatch):
        ds = self.dataset(k)
        monkeypatch.setattr(variance, "_available_cpus", lambda: 1)
        serial = self.outputs(ds, B)
        for threads in (2, 3):
            monkeypatch.setattr(variance, "_available_cpus", lambda: threads)
            assert self.outputs(ds, B) == serial

    def test_buffers_not_reused_early_under_contention(self, monkeypatch):
        # more threads than cores and a switch every microsecond: a chunk
        # whose buffer were refilled before the caller finished with it
        # would change the result
        ds = self.dataset(120)
        monkeypatch.setattr(variance, "_available_cpus", lambda: 1)
        serial = self.outputs(ds, 150)
        monkeypatch.setattr(variance, "_available_cpus", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert self.outputs(ds, 150) == serial
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("cpus, k, B, threads", [
        (3, 1, 1000, 1),  # one chunk
        (3, 400, 1000, 3),  # 100 chunks of 4 groups
        (2, 400, 200, 2),
        (4, 2, 7000, 2),  # one group per chunk, two in flight
        (4, 400, 20_000, 1),  # B alone fills the resampling budget
    ])
    def test_one_thread_per_cpu_and_chunk(self, cpus, k, B, threads,
                                          monkeypatch):
        sizes = []

        class Recording(variance.ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(variance, "_available_cpus", lambda: cpus)
        monkeypatch.setattr(variance, "ThreadPoolExecutor", Recording)
        var0_bootstrap(self.dataset(k), B=B, seed=1)
        # with one thread, the calling thread draws and no pool starts
        assert sizes == ([threads] if threads > 1 else [])

    def test_many_chunk_golden(self):
        # recorded when these 400 groups were resampled serially, in 25
        # chunks of 16; on two CPUs they are now 80 chunks of 5
        ds = self.dataset(400)

        def digest(results):
            return hashlib.sha256(repr([
                (r.p_raw, r.p_bh, r.p_bonferroni, r.degenerate)
                for r in results
            ]).encode()).hexdigest()

        plain = pergroup_bootstrap_pvalues(ds, B=1000, seed=17)
        assert [r.p_raw for r in plain[:4]] == [0.15, 0.021, 0.929, 0.082]
        assert digest(plain) == (
            "4a944b2b80f84e029c9eee9d6bce0d483b603711404f952997951668a3855c3b"
        )
        smoothed = pergroup_bootstrap_pvalues(ds, B=1000, seed=17,
                                              smoothed=True)
        assert digest(smoothed) == (
            "647d6ebea5790463a93fd4d72fe3cf4c86a736526da1e91fd30903c91438aede"
        )

    @pytest.mark.parametrize("run", [
        lambda ds: var0_bootstrap(ds, B=50, seed=1),
        lambda ds: pergroup_bootstrap_pvalues(ds, B=50, seed=1),
    ], ids=["test7", "pergroup"])
    def test_worker_exception_reaches_caller(self, run, monkeypatch):
        draw = variance._pooled_null_draw

        def failing(rng, n1, n2, phat, B):
            if threading.current_thread() is threading.main_thread():
                raise AssertionError("drawn on the calling thread")
            if n1 == 5 and phat[3] > 0.3:  # a group in a middle chunk
                raise FloatingPointError("worker failed")
            return draw(rng, n1, n2, phat, B)

        ds = self.dataset(400)
        flagged = np.flatnonzero((ds.c1 + ds.c2)[:, 3] / 15 > 0.3)
        assert 0 < flagged[0] < 300
        monkeypatch.setattr(variance, "_available_cpus", lambda: 3)
        monkeypatch.setattr(variance, "_pooled_null_draw", failing)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="worker failed"):
            run(ds)
        assert threading.active_count() == before

    @pytest.mark.parametrize("k, B", [(1, 2), (400, 200)])
    def test_no_thread_outlives_a_call(self, k, B, monkeypatch):
        monkeypatch.setattr(variance, "_available_cpus", lambda: 3)
        ds = self.dataset(k)
        before = threading.active_count()
        var0_bootstrap(ds, B=B, seed=2)
        assert threading.active_count() == before
        pergroup_bootstrap_pvalues(ds, B=B, seed=2)
        assert threading.active_count() == before
