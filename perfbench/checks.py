"""Independent reference computations and output checks.

Everything here is written from the method's definitions with numpy and
scipy; nothing calls grouphom.  Each ``check_*`` function returns a list
of failure messages, empty when the output is correct.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy import stats

ALPHA = 0.05
REL_TOL = 1e-9
# Tail probability allowed to each Monte Carlo window; small enough that
# no seed trips a window by chance over many runs.
WINDOW_TAIL = 1e-9

# Published Table 2 (Setting 1, d = 5, alpha = 0.05, 10^4 replicates):
# rejection rates of test1, test2, test3 per (k, n1, n2).
TABLE2 = {
    (20, 5, 10): (0.058, 0.063, 0.056),
    (20, 10, 10): (0.057, 0.060, 0.055),
    (20, 20, 30): (0.057, 0.058, 0.056),
    (20, 30, 30): (0.054, 0.054, 0.053),
    (50, 5, 10): (0.056, 0.060, 0.055),
    (50, 10, 10): (0.056, 0.058, 0.054),
    (50, 20, 30): (0.055, 0.056, 0.054),
    (50, 30, 30): (0.055, 0.056, 0.054),
}
# The published values carry their own Monte Carlo error; this is the
# allowance the package's acceptance battery gives them at 10^4 replicates.
TABLE2_ALLOWANCE = 0.01
TABLE2_SE_MULTIPLE = 4.0

# Ranges the true rejection rate of a level-0.05 test may take in the
# resample-cell (Setting 1, d = 5, k = 50, sizes (5, 10)).
LEVEL_WINDOWS = {
    "test7": (0.02, 0.10),
    "wkprime": (0.04, 0.06),
    "vkprime": (0.04, 0.07),
    "chi2": (0.03, 0.07),
}


# ---------------------------------------------------------------------------
# Reference statistics.
# ---------------------------------------------------------------------------


def ustat_groups(c1, c2):
    """Per-group unbiased squared distance, from integer power sums:
    (S11 - n1)/(n1(n1-1)) + (S22 - n2)/(n2(n2-1)) - 2 S12/(n1 n2)."""
    c1 = np.asarray(c1, dtype=np.int64)
    c2 = np.asarray(c2, dtype=np.int64)
    n1 = c1.sum(axis=-1)
    n2 = c2.sum(axis=-1)
    s11 = (c1 * c1).sum(axis=-1)
    s22 = (c2 * c2).sum(axis=-1)
    s12 = (c1 * c2).sum(axis=-1)
    return (
        (s11 - n1) / (n1 * (n1 - 1.0))
        + (s22 - n2) / (n2 * (n2 - 1.0))
        - 2.0 * s12 / (n1 * n2)
    )


def _falling(c, m):
    out = np.ones_like(c, dtype=np.float64)
    for i in range(m):
        out = out * (c - i)
    return out


def trace_sigma_sq_unbiased(c):
    """Unbiased estimate of tr(Sigma^2) = sum p^2 - 2 sum p^3 + (sum p^2)^2
    for the one-trial multinomial covariance, by falling factorials."""
    c = np.asarray(c, dtype=np.float64)
    n = c.sum(axis=-1)
    f2 = _falling(c, 2)
    sum_p2 = f2.sum(axis=-1) / _falling(n, 2)
    sum_p3 = _falling(c, 3).sum(axis=-1) / _falling(n, 3)
    sq_sum_p2 = (
        _falling(c, 4).sum(axis=-1) + f2.sum(axis=-1) ** 2 - (f2 * f2).sum(axis=-1)
    ) / _falling(n, 4)
    return sum_p2 - 2.0 * sum_p3 + sq_sum_p2


def _covariance(p):
    """diag(p) - p p' per row, as a (..., d, d) array."""
    eye = np.eye(p.shape[-1])
    return p[..., :, None] * eye - p[..., :, None] * p[..., None, :]


def _trace_product(a, b):
    return np.einsum("...ij,...ji->...", a, b)


def variance_estimates(c1, c2) -> dict[str, float]:
    """Aggregate null-variance estimates test1..test6 (mean over groups)."""
    c1 = np.asarray(c1, dtype=np.float64)
    c2 = np.asarray(c2, dtype=np.float64)
    n1 = c1.sum(axis=-1)
    n2 = c2.sum(axis=-1)
    s1 = _covariance(c1 / n1[:, None])
    s2 = _covariance(c2 / n2[:, None])
    sp = _covariance((c1 + c2) / (n1 + n2)[:, None])
    s1u = (n1 / (n1 - 1.0))[:, None, None] * s1
    s2u = (n2 / (n2 - 1.0))[:, None, None] * s2
    w1 = 2.0 / (n1 * (n1 - 1.0))
    w2 = 2.0 / (n2 * (n2 - 1.0))
    w12 = 4.0 / (n1 * n2)
    bracket = w1 + w2 + w12
    cross_u = _trace_product(s1u, s2u)
    per_group = {
        "test1": w1 * trace_sigma_sq_unbiased(c1)
        + w2 * trace_sigma_sq_unbiased(c2)
        + w12 * cross_u,
        "test2": bracket * cross_u,
        "test3": bracket * trace_sigma_sq_unbiased(c1 + c2),
        "test4": w1 * _trace_product(s1, s1)
        + w2 * _trace_product(s2, s2)
        + w12 * _trace_product(s1, s2),
        "test5": bracket * _trace_product(s1, s2),
        "test6": bracket * _trace_product(sp, sp),
    }
    return {name: float(v.mean()) for name, v in per_group.items()}


def chi2_pooled_reference(c1, c2) -> tuple[float, float]:
    table = np.vstack([np.sum(c1, axis=0), np.sum(c2, axis=0)])
    res = stats.chi2_contingency(table, correction=False)
    return float(res.statistic), float(res.pvalue)


def compositions(n: int, d: int) -> np.ndarray:
    """Every count vector of length d summing to n, as an (m, d) array."""
    rows = []
    for bars in itertools.combinations(range(n + d - 1), d - 1):
        edges = (-1,) + bars + (n + d - 1,)
        rows.append([edges[i + 1] - edges[i] - 1 for i in range(d)])
    return np.array(rows, dtype=np.int64)


class ExactTail:
    """Exact pooled-null tail probabilities of one group's statistic.

    Under pooled resampling both samples are multinomial on the group's
    pooled proportions.  The statistic times ``n1(n1-1) n2(n2-1) n1 n2``
    is an integer, so ties with the observed value are decided exactly.
    """

    def __init__(self, n1: int, n2: int, d: int):
        self.n1, self.n2 = n1, n2
        self.v1 = compositions(n1, d)
        self.v2 = compositions(n2, d)
        self.scaled = self._scaled(
            (self.v1 * self.v1).sum(axis=1)[:, None],
            (self.v2 * self.v2).sum(axis=1)[None, :],
            self.v1 @ self.v2.T,
        )

    def _scaled(self, s11, s22, s12):
        n1, n2 = self.n1, self.n2
        a1, a2, a12 = n1 * (n1 - 1), n2 * (n2 - 1), n1 * n2
        den = a1 * a2 * a12
        return (s11 - n1) * (den // a1) + (s22 - n2) * (den // a2) - 2 * s12 * (den // a12)

    def tails(self, c1, c2) -> tuple[float, float]:
        """(P(T* > T_obs), P(T* >= T_obs)) for observed counts c1, c2."""
        c1 = np.asarray(c1, dtype=np.int64)
        c2 = np.asarray(c2, dtype=np.int64)
        observed = self._scaled(c1 @ c1, c2 @ c2, c1 @ c2)
        phat = (c1 + c2) / float(self.n1 + self.n2)
        w1 = stats.multinomial.pmf(self.v1, self.n1, phat)
        w2 = stats.multinomial.pmf(self.v2, self.n2, phat)
        gt = float(w1 @ (self.scaled > observed) @ w2)
        ge = float(w1 @ (self.scaled >= observed) @ w2)
        # Rounding in the weighted sums can step just past 1.
        return min(gt, 1.0), min(ge, 1.0)


def binomial_window(reps: int, p_lo: float, p_hi: float, tail=WINDOW_TAIL):
    """Counts out of ``reps`` consistent with a success probability in
    [p_lo, p_hi]: each end leaves at most ``tail`` outside."""
    lo = 0 if p_lo <= 0.0 else int(stats.binom.ppf(tail, reps, p_lo))
    hi = reps if p_hi >= 1.0 else int(stats.binom.isf(tail, reps, p_hi))
    return lo, hi


# ---------------------------------------------------------------------------
# Checks.
# ---------------------------------------------------------------------------


def _close(a, b, rel=REL_TOL, abs_=0.0) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_)


def check_test_payload(payload, c1, c2, alpha=ALPHA, bootstrap_b=200) -> list[str]:
    """``grouphom test --estimator all --format json`` against references."""
    errors = []
    k = c1.shape[0]
    if payload.get("groups") != k or payload.get("categories") != c1.shape[1]:
        errors.append(f"dataset shape {payload.get('groups')}x{payload.get('categories')}")
    reports = payload.get("reports", {})
    if sorted(reports) != [f"test{i}" for i in range(1, 8)]:
        return errors + [f"estimators reported: {sorted(reports)}"]
    t_u = float(ustat_groups(c1, c2).sum() / math.sqrt(k))
    variances = variance_estimates(c1, c2)
    z_crit = stats.norm.isf(alpha)
    for name, rep in reports.items():
        if not _close(rep["statistic"], t_u, abs_=1e-12):
            errors.append(f"{name}: T_U {rep['statistic']!r} != {t_u!r}")
        if name in variances and not _close(rep["variance"], variances[name]):
            errors.append(f"{name}: variance {rep['variance']!r} != {variances[name]!r}")
        if rep["degenerate_variance"]:
            errors.append(f"{name}: degenerate variance at k = {k}")
            continue
        z = t_u / math.sqrt(rep["variance"])
        if not _close(rep["z"], z):
            errors.append(f"{name}: z {rep['z']!r} != {z!r}")
        p = float(stats.norm.sf(z))
        if not _close(rep["p_value"], p, abs_=1e-300):
            errors.append(f"{name}: p {rep['p_value']!r} != {p!r}")
        if rep["reject"] != (z >= z_crit):
            errors.append(f"{name}: reject {rep['reject']} at z = {z}")
    for name in ("test1", "test2", "test3"):
        if not reports[name]["reject"]:
            errors.append(f"{name} retains homogeneity on the alternative mixture")
    # test7 is a B-replicate sample variance whose conditional mean is the
    # test6 value; for a near-normal aggregate its sd is v*sqrt(2/(B-1)).
    v6 = variances["test6"]
    tol = 6.0 * v6 * math.sqrt(2.0 / (bootstrap_b - 1))
    if abs(reports["test7"]["variance"] - v6) > tol:
        errors.append(
            f"test7 variance {reports['test7']['variance']!r} is more than "
            f"{tol:.3g} from its expectation {v6!r}"
        )
    chi = payload.get("chi2_pooled")
    stat, p = chi2_pooled_reference(c1, c2)
    if chi is None or not _close(chi["statistic"], stat):
        errors.append(f"chi2_pooled {chi} != statistic {stat!r}")
    elif not _close(chi["p_value"], p, rel=1e-6, abs_=1e-300):
        errors.append(f"chi2_pooled p {chi['p_value']!r} != {p!r}")
    return errors


def check_statistic(payload, c1, c2) -> list[str]:
    """Only the aggregate statistic (the small CLI calls)."""
    t_u = float(ustat_groups(c1, c2).sum() / math.sqrt(c1.shape[0]))
    got = payload.get("reports", {}).get("test1", {}).get("statistic")
    if got is None or not _close(got, t_u, abs_=1e-12):
        return [f"T_U {got!r} != {t_u!r}"]
    return []


def check_pergroup_payload(payload, c1, c2, alpha=ALPHA) -> list[str]:
    """``grouphom pergroup --format json`` against references, all but
    the tail probabilities (``tail_misses``)."""
    errors = []
    rows = payload.get("per_group", [])
    k = c1.shape[0]
    if len(rows) != k:
        return [f"{len(rows)} per-group records for {k} groups"]
    stat = np.array([r["statistic"] for r in rows])
    p_raw = np.array([r["p_raw"] for r in rows])
    p_bh = np.array([r["p_bh"] for r in rows])
    p_bonf = np.array([r["p_bonferroni"] for r in rows])
    ref = ustat_groups(c1, c2)
    bad = ~np.isclose(stat, ref, rtol=REL_TOL, atol=1e-12)
    if bad.any():
        errors.append(f"{int(bad.sum())} per-group statistics differ from the formula")
    if not np.allclose(p_bh, stats.false_discovery_control(p_raw), rtol=0, atol=1e-12):
        errors.append("p_bh differs from scipy's Benjamini-Hochberg adjustment")
    if not np.allclose(p_bonf, np.minimum(1.0, k * p_raw), rtol=0, atol=1e-12):
        errors.append("p_bonferroni differs from min(1, k p_raw)")
    if payload.get("minp_reject") != bool(p_raw.min() <= alpha / k):
        errors.append(f"minp_reject {payload.get('minp_reject')} != min p <= alpha/k")
    return errors


def tail_misses(payload, c1, c2, groups, bootstrap_b, ties_either_way=False) -> list[str]:
    """Groups whose ``p_raw``·B lies outside the binomial window of the
    exact P(T* > T), the share of bootstrap statistics strictly above the
    observed one.  With ``ties_either_way`` the window reaches up to that
    of P(T* >= T), so that draws tying the observed value may count as
    exceedances."""
    rows = payload["per_group"]
    exact = ExactTail(int(c1[0].sum()), int(c2[0].sum()), c1.shape[1])
    misses = []
    for g in groups:
        gt, ge = exact.tails(c1[g], c2[g])
        lo, hi = binomial_window(bootstrap_b, gt, gt)
        if ties_either_way:
            _, hi = binomial_window(bootstrap_b, ge, ge)
        count = round(rows[g]["p_raw"] * bootstrap_b)
        if not lo <= count <= hi:
            misses.append(
                f"group {g}: p_raw {rows[g]['p_raw']} outside [{lo}, {hi}]/{bootstrap_b} "
                f"(exact P(>) = {gt:.4f}, P(>=) = {ge:.4f})"
            )
    return misses


def check_level_rows(rows, reps) -> list[str]:
    """Reproduced Table 2 cells against the published rates."""
    if len(rows) != len(TABLE2):
        return [f"{len(rows)} rows, expected {len(TABLE2)}"]
    errors = []
    for row in rows:
        key = (row["k"], row["n1"], row["n2"])
        if key not in TABLE2:
            errors.append(f"unexpected cell {key}")
            continue
        for test, ref in zip(("test1", "test2", "test3"), TABLE2[key]):
            tol = TABLE2_SE_MULTIPLE * math.sqrt(ref * (1 - ref) / reps) + TABLE2_ALLOWANCE
            if abs(row[test] - ref) > tol:
                errors.append(f"{key} {test}: rate {row[test]} vs published {ref} (tol {tol:.4f})")
    return errors


def check_resample_results(results, reps, alpha=ALPHA) -> list[str]:
    """Rejection counts of the resample cell against level windows."""
    errors = []
    for test, res in results.items():
        if res.reps != reps or not 0 <= res.rejections <= reps:
            errors.append(f"{test}: {res.rejections} rejections of {res.reps}")
    for test, (p_lo, p_hi) in LEVEL_WINDOWS.items():
        lo, hi = binomial_window(reps, p_lo, p_hi)
        if not lo <= results[test].rejections <= hi:
            errors.append(f"{test}: {results[test].rejections}/{reps} outside [{lo}, {hi}]")
    _, hi = binomial_window(reps, alpha, alpha)
    if results["minp"].rejections > hi:
        errors.append(f"minp: {results['minp'].rejections}/{reps} above {hi}")
    return errors
