"""Statistical acceptance battery: the reference-table reproductions.

Each test prints a single ``[PASS]``/``[FAIL]`` line (bypassing pytest's
capture) so that a full run ends with a readable ten-point checklist, and
then asserts.  Replicate counts are the ones the reference values were
computed with, which makes this the slow part of the suite — several
minutes on one core.  When iterating on code, run

    pytest --ignore=tests/test_acceptance.py

and leave this module for the final gate.  Every Monte Carlo call below
uses a frozen master seed, so a passing run is reproducible bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from grouphom import _batch
from grouphom import (
    SettingSpec,
    estimate_rejection_rate,
    group_ustat,
    group_ustat_kernel_oracle,
    null_z_scores,
    reproduce_table,
)


def _report(capsys, number: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] acceptance {number:2d}: {detail}")


# ---------------------------------------------------------------------------
# 1. Type I error of Tests 1-3, Setting 1, d=5: the full 24-cell grid.
# ---------------------------------------------------------------------------

# Reference rejection rates at alpha=0.05, 10,000 replicates, indexed by
# (k, n1, n2); triples are (test1, test2, test3).
REFERENCE_TAB2 = {
    (20, 5, 10): (0.058, 0.063, 0.056),
    (20, 10, 10): (0.057, 0.060, 0.055),
    (20, 20, 30): (0.057, 0.058, 0.056),
    (20, 30, 30): (0.054, 0.054, 0.053),
    (50, 5, 10): (0.056, 0.060, 0.055),
    (50, 10, 10): (0.056, 0.058, 0.054),
    (50, 20, 30): (0.055, 0.056, 0.054),
    (50, 30, 30): (0.055, 0.056, 0.054),
    (100, 5, 10): (0.055, 0.056, 0.054),
    (100, 10, 10): (0.054, 0.054, 0.054),
    (100, 20, 30): (0.054, 0.054, 0.053),
    (100, 30, 30): (0.052, 0.053, 0.052),
    (200, 5, 10): (0.054, 0.056, 0.053),
    (200, 10, 10): (0.052, 0.053, 0.052),
    (200, 20, 30): (0.052, 0.053, 0.052),
    (200, 30, 30): (0.049, 0.050, 0.049),
    (500, 5, 10): (0.052, 0.054, 0.052),
    (500, 10, 10): (0.051, 0.052, 0.051),
    (500, 20, 30): (0.052, 0.052, 0.052),
    (500, 30, 30): (0.053, 0.053, 0.053),
    (750, 5, 10): (0.052, 0.054, 0.052),
    (750, 10, 10): (0.053, 0.053, 0.052),
    (750, 20, 30): (0.054, 0.054, 0.054),
    (750, 30, 30): (0.052, 0.053, 0.052),
}


def test_01_type1_error_grid_d5(capsys):
    result = reproduce_table("tab2", seed=101, workers=1)
    assert len(result.rows) == 24
    worst = 0.0
    outside = []
    for row in result.rows:
        key = (row["k"], row["n1"], row["n2"])
        for test, ref in zip(("test1", "test2", "test3"), REFERENCE_TAB2[key]):
            diff = abs(row[test] - ref)
            worst = max(worst, diff)
            if diff > 0.01:
                outside.append(f"{key} {test}: {row[test]:.4f} vs {ref:.3f}")
    ok = not outside
    _report(
        capsys, 1, ok,
        f"type I error grid (Setting 1, d=5, 24 cells x Tests 1-3, "
        f"reps=10000): max deviation {worst:.4f} (tolerance 0.01)",
    )
    assert ok, "cells outside tolerance:\n" + "\n".join(outside)


# ---------------------------------------------------------------------------
# 2. The naively standardized chi-square aggregate W_k is not level.
# ---------------------------------------------------------------------------


def test_02_naive_aggregate_breaks_down(capsys):
    res = estimate_rejection_rate(
        SettingSpec(1, 5, 750, 10, 10, master_seed=102), ("wk",), reps=10_000
    )
    inflated = res["wk"].rate
    collapsed = {}
    for k in (20, 50, 100, 200, 500, 750):
        res_k = estimate_rejection_rate(
            SettingSpec(1, 10, k, 5, 10, master_seed=102_000 + k),
            ("wk",),
            reps=10_000,
        )
        collapsed[k] = res_k["wk"].rate
    ok_inflated = 0.37 <= inflated <= 0.45
    ok_collapsed = all(rate < 0.005 for rate in collapsed.values())
    ok = ok_inflated and ok_collapsed
    _report(
        capsys, 2, ok,
        f"naive W_k miscalibration: d=5 k=750 (10,10) rate {inflated:.3f} "
        f"(want [0.37, 0.45]); d=10 (5,10) rates "
        f"{[round(v, 4) for v in collapsed.values()]} (want each < 0.005)",
    )
    assert ok_inflated, f"W_k rate {inflated} outside [0.37, 0.45]"
    assert ok_collapsed, f"W_k d=10 rates not collapsed: {collapsed}"


# ---------------------------------------------------------------------------
# 3. The oracle-standardized aggregate W_k' holds its level.
# ---------------------------------------------------------------------------


def test_03_oracle_standardized_aggregate_is_level(capsys):
    # Six cells of the d=5 column, all standardized by exact moments:
    # both k extremes at the two smaller size pairs, plus the two larger
    # size pairs at k=200.
    cells = [
        (200, 5, 10),
        (200, 10, 10),
        (750, 5, 10),
        (750, 10, 10),
        (200, 20, 30),
        (200, 30, 30),
    ]
    rates = {}
    for i, (k, n1, n2) in enumerate(cells):
        res = estimate_rejection_rate(
            SettingSpec(1, 5, k, n1, n2, master_seed=103_000 + i),
            ("wkprime",),
            reps=10_000,
        )
        rates[(k, n1, n2)] = res["wkprime"].rate
    ok = all(0.04 <= rate <= 0.06 for rate in rates.values())
    _report(
        capsys, 3, ok,
        f"oracle-standardized W_k' level (d=5, reps=10000): rates "
        f"{[round(v, 4) for v in rates.values()]} (want each in [0.04, 0.06])",
    )
    assert ok, f"W_k' cells outside [0.04, 0.06]: {rates}"


# ---------------------------------------------------------------------------
# 4. Likelihood-ratio aggregates: V_k inflates, V_k' is level.
# ---------------------------------------------------------------------------


def test_04_lrt_aggregates(capsys):
    res = estimate_rejection_rate(
        SettingSpec(1, 5, 20, 5, 10, master_seed=104),
        ("vk", "vkprime"),
        reps=10_000,
    )
    vk, vkp = res["vk"].rate, res["vkprime"].rate
    ok_vk = 0.70 <= vk <= 0.77
    ok_vkp = 0.04 <= vkp <= 0.07
    ok = ok_vk and ok_vkp
    _report(
        capsys, 4, ok,
        f"LRT aggregates (d=5, k=20, (5,10), reps=10000): naive V_k "
        f"{vk:.3f} (want [0.70, 0.77]), oracle V_k' {vkp:.3f} "
        f"(want [0.04, 0.07])",
    )
    assert ok_vk, f"V_k rate {vk} outside [0.70, 0.77]"
    assert ok_vkp, f"V_k' rate {vkp} outside [0.04, 0.07]"


# ---------------------------------------------------------------------------
# 5. Power, and the grouping advantage under mixed-direction alternatives.
# ---------------------------------------------------------------------------


def test_05_power_and_grouping_advantage(capsys):
    tests = ("test1", "test2", "test3", "chi2")
    same_dir = estimate_rejection_rate(
        SettingSpec(3, 5, 200, 30, 30, pi0=4, master_seed=105),
        tests,
        reps=1000,
    )
    mixed_dir = estimate_rejection_rate(
        SettingSpec(4, 5, 200, 30, 30, pi0=4, master_seed=105_500),
        tests,
        reps=1000,
    )
    ok_same = all(same_dir[t].rate >= 0.99 for t in tests)
    ok_mixed_tests = all(mixed_dir[t].rate >= 0.94 for t in tests[:3])
    ok_mixed_chi2 = 0.30 <= mixed_dir["chi2"].rate <= 0.43
    ok = ok_same and ok_mixed_tests and ok_mixed_chi2
    _report(
        capsys, 5, ok,
        f"power (d=5, k=200, (30,30), pi0=4, reps=1000): same-direction "
        f"{[round(same_dir[t].rate, 3) for t in tests]} (want each >= 0.99); "
        f"mixed-direction Tests 1-3 "
        f"{[round(mixed_dir[t].rate, 3) for t in tests[:3]]} (want >= 0.94) "
        f"vs pooled chi2 {mixed_dir['chi2'].rate:.3f} (want [0.30, 0.43])",
    )
    assert ok_same, {t: same_dir[t].rate for t in tests}
    assert ok_mixed_tests, {t: mixed_dir[t].rate for t in tests[:3]}
    assert ok_mixed_chi2, mixed_dir["chi2"].rate


# ---------------------------------------------------------------------------
# 6. Plug-in variance estimators are anticonservative/conservative at d=10.
# ---------------------------------------------------------------------------


def test_06_plugin_variance_deficiency(capsys):
    res = estimate_rejection_rate(
        SettingSpec(1, 10, 20, 5, 10, master_seed=106),
        ("test4", "test5"),
        reps=10_000,
    )
    t4, t5 = res["test4"].rate, res["test5"].rate
    ok_t4 = 0.02 <= t4 <= 0.05
    ok_t5 = 0.07 <= t5 <= 0.11
    ok = ok_t4 and ok_t5
    _report(
        capsys, 6, ok,
        f"plug-in deficiency (Setting 1, d=10, k=20, (5,10), reps=10000): "
        f"Test 4 rate {t4:.3f} (want [0.02, 0.05]), Test 5 rate {t5:.3f} "
        f"(want [0.07, 0.11])",
    )
    assert ok_t4, f"test4 rate {t4} outside [0.02, 0.05]"
    assert ok_t5, f"test5 rate {t5} outside [0.07, 0.11]"


# ---------------------------------------------------------------------------
# 7. Exact-enumeration unbiasedness of the two core estimators.
# ---------------------------------------------------------------------------


def _binomial_weights(n: int, p: float) -> np.ndarray:
    return np.array(
        [math.comb(n, c) * p**c * (1.0 - p) ** (n - c) for c in range(n + 1)]
    )


def _compositions(n: int, d: int):
    if d == 1:
        yield (n,)
        return
    for c in range(n + 1):
        for rest in _compositions(n - c, d - 1):
            yield (c, *rest)


def _multinomial_support(n: int, pi):
    for counts in _compositions(n, len(pi)):
        weight = float(math.factorial(n))
        for c, p in zip(counts, pi):
            weight *= p**c / math.factorial(c)
        yield counts, weight


def test_07_exact_unbiasedness(capsys):
    # E[T_{U_1}] over two independent binomial samples equals the squared
    # Euclidean distance of the probability vectors, on a 9x9 grid.
    n = 4
    grid = [i / 10 for i in range(1, 10)]
    worst_tu = 0.0
    for a in grid:
        w1 = _binomial_weights(n, a)
        for b in grid:
            w2 = _binomial_weights(n, b)
            mean = 0.0
            for c1 in range(n + 1):
                for c2 in range(n + 1):
                    tu = group_ustat((c1, n - c1), (c2, n - c2))
                    mean += w1[c1] * w2[c2] * tu
            worst_tu = max(worst_tu, abs(mean - 2.0 * (a - b) ** 2))

    # E[trace estimator] over one multinomial sample equals tr(Sigma_pi^2).
    worst_tr = 0.0
    for pi in ((0.3, 0.7), (0.15, 0.85), (0.2, 0.3, 0.5), (0.1, 0.2, 0.7)):
        sigma = np.diag(pi) - np.outer(pi, pi)
        target = float(np.trace(sigma @ sigma))
        for size in (4, 5, 6):
            mean = sum(
                weight * _batch.trace_sq_unbiased(counts)
                for counts, weight in _multinomial_support(size, pi)
            )
            worst_tr = max(worst_tr, abs(mean - target))

    ok = worst_tu < 1e-10 and worst_tr < 1e-10
    _report(
        capsys, 7, ok,
        f"exact unbiasedness: max |E[T_U1] - dist^2| = {worst_tu:.2e}, "
        f"max |E[trace est] - tr(Sigma^2)| = {worst_tr:.2e} "
        f"(tolerance 1e-10)",
    )
    assert worst_tu < 1e-10
    assert worst_tr < 1e-10


# ---------------------------------------------------------------------------
# 8. Closed form vs. the four-index kernel average.
# ---------------------------------------------------------------------------


def test_08_kernel_oracle_equivalence(capsys):
    rng = np.random.default_rng(108)
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 5))
        n1 = int(rng.integers(2, 9))
        n2 = int(rng.integers(2, 9))
        c1 = rng.multinomial(n1, rng.dirichlet(np.ones(d)))
        c2 = rng.multinomial(n2, rng.dirichlet(np.ones(d)))
        worst = max(
            worst, abs(group_ustat(c1, c2) - group_ustat_kernel_oracle(c1, c2))
        )
    ok = worst < 1e-10
    _report(
        capsys, 8, ok,
        f"kernel-oracle equivalence over 1000 random pairs "
        f"(totals <= 8, d <= 4): max |closed - kernel| = {worst:.2e} "
        f"(tolerance 1e-10)",
    )
    assert ok, f"worst deviation {worst}"


# ---------------------------------------------------------------------------
# 9. Null normality of the standardized statistic at large k.
# ---------------------------------------------------------------------------


def test_09_null_z_normality(capsys):
    z = null_z_scores(
        SettingSpec(1, 5, 500, 30, 30, master_seed=109), "test1", reps=2000
    )
    finite = z[np.isfinite(z)]
    mean = float(np.mean(finite))
    var = float(np.var(finite, ddof=1))
    ok = (
        finite.size == 2000
        and -0.07 <= mean <= 0.07
        and 0.9 <= var <= 1.1
    )
    _report(
        capsys, 9, ok,
        f"null z-scores (Setting 1, d=5, k=500, (30,30), 2000 reps): "
        f"mean {mean:+.4f} (want [-0.07, 0.07]), variance {var:.4f} "
        f"(want [0.9, 1.1])",
    )
    assert ok, f"mean={mean}, var={var}, finite={finite.size}"


# ---------------------------------------------------------------------------
# 10. Bit-identical rejection counts for any worker count.
# ---------------------------------------------------------------------------


def test_10_worker_count_determinism(capsys):
    battery = (
        "test1", "test2", "test3", "test4", "test5", "test6", "test7",
        "chi2", "wk", "wkprime", "vk", "vkprime", "minp",
    )
    spec = SettingSpec(1, 5, 50, 10, 10, master_seed=110)
    # 2200 replicates split into three blocks, so the worker pool has
    # real scheduling freedom to (fail to) disturb.
    counts = []
    for workers in (1, 2, 8):
        res = estimate_rejection_rate(
            spec,
            battery,
            reps=2200,
            workers=workers,
            bootstrap_B=100,
            minp_B=60,
        )
        counts.append(
            {t: (res[t].rejections, res[t].degenerate) for t in battery}
        )
    ok = counts[0] == counts[1] == counts[2]
    _report(
        capsys, 10, ok,
        f"worker-count determinism (13 tests, reps=2200, workers 1/2/8): "
        f"rejection counts "
        f"{'identical' if ok else 'DIFFER: ' + repr(counts)}",
    )
    assert ok, counts
