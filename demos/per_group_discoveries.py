"""
Which groups actually differ?  Bootstrap p-values with multiplicity control
===========================================================================

A sparse alternative: most of 120 groups are homogeneous, eight carry a
real difference.  The global test answers "is anything going on"; the
per-group bootstrap with Benjamini-Hochberg (or the stricter Bonferroni)
answers "where".  The punchline is the asymmetry: detecting *that*
something differs is much easier than naming the groups, because each
localization claim must survive a 120-way multiplicity correction on 30
observations a side.
"""

import numpy as np

from grouphom import (
    GroupedDataset,
    global_minp_rule,
    pergroup_bootstrap_pvalues,
    run_global_test,
)

rng = np.random.default_rng(7)

k = 120
n1, n2 = 30, 30
base = np.array([0.5, 0.3, 0.2])
shifted = np.array([0.15, 0.3, 0.55])   # ||base - shifted||^2 = 0.245
truly_different = set(rng.choice(k, size=8, replace=False).tolist())

c1, c2 = np.empty((2, k, 3), dtype=np.int64)
for r in range(k):
    p2 = shifted if r in truly_different else base
    c1[r] = rng.multinomial(n1, base)
    c2[r] = rng.multinomial(n2, p2)
ds = GroupedDataset(c1, c2, [f"g{r + 1:03d}" for r in range(k)])

report = run_global_test(ds, estimator="test1")
print(f"global test: z = {report.z:.2f}, p = {report.p_value:.4f} "
      f"-- heterogeneity detected")

# Per-group bootstrap under each group's pooled null.  The smoothed
# (count+1)/(B+1) convention keeps p-values off exact zero; with
# B = 4000 the smallest reachable raw p is 1/4001.
results = pergroup_bootstrap_pvalues(ds, B=4000, seed=42, smoothed=True)

alpha = 0.05
bh_hits = {r.group_id for r in results if r.p_bh <= alpha}
bonf_hits = {r.group_id for r in results if r.p_bonferroni <= alpha}
truth = {f"g{r + 1:03d}" for r in truly_different}

print(f"\ntruly different ({len(truth)}): {sorted(truth)}")
print(f"BH discoveries at q={alpha}: {sorted(bh_hits)}")
print(f"  false discoveries: {sorted(bh_hits - truth) or 'none'}, "
      f"missed: {len(truth - bh_hits)} of {len(truth)}")
print(f"Bonferroni discoveries: {sorted(bonf_hits)}")

# Localization lags detection: the global z aggregates all eight weak
# signals at once, while each discovery has to clear alpha/120 (or the
# BH step-up) on its own 30-vs-30 evidence.

raw = [r.p_raw for r in results]
print(f"\nmin-p global rule (reject iff min p <= alpha/k): "
      f"{global_minp_rule(raw, alpha=alpha)}")

print("\nten smallest p-values (* = truly different):")
print("group    stat    p_raw    p_BH     p_Bonf")
for r in sorted(results, key=lambda x: x.p_raw)[:10]:
    mark = "*" if r.group_id in truth else " "
    print(f"{r.group_id}{mark}  {r.statistic:7.4f}  {r.p_raw:.4f}  "
          f"{r.p_bh:.4f}  {min(r.p_bonferroni, 1.0):.4f}")
