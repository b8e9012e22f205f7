"""Tests of the benchmark's reference computations, checks and tracer.

    python3 -m pytest perfbench/test_checks.py

They run no workload.  The references are pinned by exact expectations
over every outcome of small multinomials, not by grouphom's own output.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import forking  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def cov(pi):
    return np.diag(pi) - np.outer(pi, pi)


def outcomes(n, pi):
    """Every count vector of a Multinomial(n, pi) with its probability."""
    v = checks.compositions(n, len(pi))
    return v, stats.multinomial.pmf(v, n, pi)


PI1 = np.array([0.5, 0.3, 0.2])
PI2 = np.array([0.2, 0.2, 0.6])


def test_compositions_are_all_vectors_with_the_total():
    v = checks.compositions(5, 4)
    assert v.shape == (math.comb(8, 3), 4)
    assert (v.sum(axis=1) == 5).all() and (v >= 0).all()
    assert len({tuple(r) for r in v}) == v.shape[0]


def test_ustat_is_unbiased_for_the_squared_distance():
    v1, w1 = outcomes(4, PI1)
    v2, w2 = outcomes(5, PI2)
    t = checks.ustat_groups(v1[:, None, :], v2[None, :, :])
    assert w1 @ t @ w2 == pytest.approx(np.sum((PI1 - PI2) ** 2), abs=1e-13)


@pytest.mark.parametrize("n", [4, 5, 9])
def test_trace_sigma_sq_estimate_is_unbiased(n):
    v, w = outcomes(n, PI1)
    sigma = cov(PI1)
    expected = np.trace(sigma @ sigma)
    assert w @ checks.trace_sigma_sq_unbiased(v) == pytest.approx(expected, abs=1e-13)


def test_test1_variance_is_unbiased_for_the_variance_terms():
    n1, n2 = 4, 5
    s1, s2 = cov(PI1), cov(PI2)
    expected = (
        2 / (n1 * (n1 - 1)) * np.trace(s1 @ s1)
        + 2 / (n2 * (n2 - 1)) * np.trace(s2 @ s2)
        + 4 / (n1 * n2) * np.trace(s1 @ s2)
    )
    v1, w1 = outcomes(n1, PI1)
    v2, w2 = outcomes(n2, PI2)
    mean = sum(
        w1[i] * w2[j] * checks.variance_estimates(v1[i:i + 1], v2[j:j + 1])["test1"]
        for i, j in itertools.product(range(len(v1)), range(len(v2)))
    )
    assert mean == pytest.approx(expected, abs=1e-13)


def test_plugin_variances_use_the_empirical_covariances():
    c1 = np.array([[3, 1, 1]])
    c2 = np.array([[2, 2, 6]])
    p1, p2, pp = c1[0] / 5, c2[0] / 10, (c1[0] + c2[0]) / 15
    bracket = 2 / 20 + 2 / 90 + 4 / 50
    est = checks.variance_estimates(c1, c2)
    assert est["test5"] == pytest.approx(bracket * np.trace(cov(p1) @ cov(p2)), rel=1e-12)
    assert est["test6"] == pytest.approx(bracket * np.trace(cov(pp) @ cov(pp)), rel=1e-12)


def test_chi2_reference_is_pearsons_statistic_on_the_pooled_table():
    c1 = np.array([[3, 1, 1], [2, 2, 1]])
    c2 = np.array([[2, 2, 6], [1, 4, 5]])
    table = np.vstack([c1.sum(0), c2.sum(0)]).astype(float)
    expected = table.sum(1)[:, None] * table.sum(0)[None, :] / table.sum()
    stat, p = checks.chi2_pooled_reference(c1, c2)
    assert stat == pytest.approx(((table - expected) ** 2 / expected).sum(), rel=1e-12)
    assert p == pytest.approx(stats.chi2.sf(stat, 2), rel=1e-12)


def test_exact_tail_matches_a_large_simulation():
    exact = checks.ExactTail(5, 10, 5)
    c1, c2 = np.array([1, 0, 2, 1, 1]), np.array([0, 3, 2, 4, 1])
    gt, ge = exact.tails(c1, c2)
    assert 0.0 <= gt <= ge <= 1.0
    rng = np.random.default_rng(0)
    phat = (c1 + c2) / 15
    b1 = rng.multinomial(5, phat, size=200_000)
    b2 = rng.multinomial(10, phat, size=200_000)
    t_star = checks.ustat_groups(b1, b2)
    t_obs = checks.ustat_groups(c1, c2)
    assert np.mean(t_star > t_obs + 1e-12) == pytest.approx(gt, abs=0.005)
    assert np.mean(t_star >= t_obs - 1e-12) == pytest.approx(ge, abs=0.005)


def test_exact_tail_at_the_smallest_statistic_is_one():
    exact = checks.ExactTail(5, 10, 5)
    _, ge = exact.tails(np.array([5, 0, 0, 0, 0]), np.array([10, 0, 0, 0, 0]))
    assert ge == pytest.approx(1.0, abs=1e-12)


def test_binomial_window():
    lo, hi = checks.binomial_window(1000, 0.3, 0.3)
    assert lo < 300 < hi and hi - lo < 200
    assert checks.binomial_window(100, 0.0, 1.0) == (0, 100)


def pergroup_payload(c1, c2, p_raw):
    k = len(p_raw)
    return {
        "minp_reject": bool(p_raw.min() <= 0.05 / k),
        "per_group": [
            {"statistic": float(t), "p_raw": float(p), "p_bh": float(bh),
             "p_bonferroni": float(min(1.0, k * p))}
            for t, p, bh in zip(checks.ustat_groups(c1, c2), p_raw,
                                stats.false_discovery_control(p_raw))
        ],
    }


def test_pergroup_check_accepts_consistent_output_and_rejects_bad_adjustment():
    c1, c2 = inputs.setting3_counts(inputs.input_rng(3, "cli-pergroup"), 30)
    exact = checks.ExactTail(5, 10, 5)
    p_raw = np.array([exact.tails(c1[g], c2[g])[0] for g in range(30)]).round(3)
    payload = pergroup_payload(c1, c2, p_raw)
    assert checks.check_pergroup_payload(payload, c1, c2) == []
    assert checks.tail_misses(payload, c1, c2, range(30), 1000) == []
    payload["per_group"][0]["p_bh"] += 0.01
    assert checks.check_pergroup_payload(payload, c1, c2) != []


def test_tail_check_counts_ties_only_when_asked():
    c1, c2 = inputs.tie_counts()
    exact = checks.ExactTail(5, 10, 5)
    tails = np.array([exact.tails(c1[g], c2[g]) for g in range(len(c1))])
    assert (tails[:, 1] - tails[:, 0] > 0.05).all()
    b = 20_000
    groups = range(len(c1))
    strict = pergroup_payload(c1, c2, np.round(tails[:, 0] * b) / b)
    ties = pergroup_payload(c1, c2, np.round(tails[:, 1] * b) / b)
    assert checks.tail_misses(strict, c1, c2, groups, b) == []
    assert len(checks.tail_misses(ties, c1, c2, groups, b)) == len(c1)
    assert checks.tail_misses(ties, c1, c2, groups, b, ties_either_way=True) == []


def test_test_payload_check_rejects_a_wrong_variance():
    c1, c2 = inputs.setting3_counts(inputs.input_rng(4, "cli-test"), 2000)
    t_u = float(checks.ustat_groups(c1, c2).sum() / math.sqrt(2000))
    variances = checks.variance_estimates(c1, c2)
    variances["test7"] = variances["test6"]
    reports = {}
    for name, v in variances.items():
        z = t_u / math.sqrt(v)
        reports[name] = {"statistic": t_u, "variance": v, "z": z,
                         "p_value": float(stats.norm.sf(z)),
                         "reject": bool(z >= stats.norm.isf(0.05)),
                         "degenerate_variance": False}
    stat, p = checks.chi2_pooled_reference(c1, c2)
    payload = {"groups": 2000, "categories": 5, "reports": reports,
               "chi2_pooled": {"statistic": stat, "p_value": p}}
    assert checks.check_test_payload(payload, c1, c2) == []
    reports["test2"]["variance"] *= 1 + 1e-6
    assert any("test2: variance" in e for e in checks.check_test_payload(payload, c1, c2))


def test_level_check_uses_the_published_table():
    rows = [{"k": k, "n1": n1, "n2": n2, "test1": r[0], "test2": r[1], "test3": r[2]}
            for (k, n1, n2), r in checks.TABLE2.items()]
    assert checks.check_level_rows(rows, 2000) == []
    rows[3]["test2"] = 0.12
    assert len(checks.check_level_rows(rows, 2000)) == 1


def test_input_generator_is_seeded_and_keeps_the_sizes():
    a = inputs.setting3_counts(inputs.input_rng(7, "cli-test"), 500)
    b = inputs.setting3_counts(inputs.input_rng(7, "cli-test"), 500)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert (a[0].sum(axis=1) == 5).all() and (a[1].sum(axis=1) == 10).all()


def test_bom_csv_starts_with_the_byte_order_mark(tmp_path):
    c1, c2 = inputs.setting3_counts(inputs.input_rng(1, "small"), 3)
    inputs.write_counts_csv(tmp_path / "a.csv", c1, c2, bom=True)
    raw = (tmp_path / "a.csv").read_bytes()
    assert raw.startswith(b"\xef\xbb\xbfgroup,population,c1")


def test_tracer_self_time_subtracts_child_spans():
    clock = iter([0.0, 1.0, 3.0, 6.0]).__next__
    tracer = tracing.Tracer(clock=clock)
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", inner)
    outer()
    assert tracer.self_time[(None, "inner")] == 2.0
    assert tracer.self_time[(None, "outer")] == 4.0
    spans = {s[3]: s for s in tracer.spans}
    assert spans["inner"][2] == spans["outer"][1]


def test_merged_tracer_adds_self_times_and_counts():
    def traced_once():
        tracer = tracing.Tracer(clock=iter([0.0, 2.0]).__next__)
        with tracer.trace("a"):
            pass
        return tracer

    merged = tracing.Tracer()
    merged.merge(traced_once())
    merged.merge(traced_once())
    assert merged.self_time[("a", "op:a")] == 4.0
    assert merged.calls["op:a"] == 2 and len(merged.spans) == 2


def test_forked_returns_the_childs_result_and_reports_its_errors():
    output, wall, cpu, rss = forking.forked(lambda: sum(range(10)))
    assert output == 45 and wall >= 0 and cpu >= 0 and rss > 0
    with pytest.raises(RuntimeError, match="ZeroDivisionError"):
        forking.forked(lambda: 1 / 0)


def test_patched_restores_attributes():
    class Target:
        value = 1

    with tracing.patched([(Target, "value", 2)]):
        assert Target.value == 2
    assert Target.value == 1


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:      2269 |      54953 | site",
        "import time:      1605 |    1063915 |       scipy.stats",
        "import time:      1237 |    1602540 |   grouphom",
        "import time:      8435 |    1610975 | grouphom.cli",
    ])
    assert tracing.parse_importtime(text) == (1.610975, 1.063915)


def test_benchmark_json_names_the_metrics_run_py_reports():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
