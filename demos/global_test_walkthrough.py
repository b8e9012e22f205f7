"""
Aggregating a weak signal across many small groups
==================================================

Each group contributes two tiny multinomial samples (n = 12 apiece, four
outcome categories).  The populations differ by the same small tilt in
every group — far too little for any single-group chi-square test to
see, but the aggregated U-statistic accumulates it.
"""

import numpy as np

from grouphom import (
    GroupedDataset,
    run_all_tests,
    run_global_test,
    write_dataset_csv,
)

rng = np.random.default_rng(20260824)

k = 150
n = 12
pi1 = np.array([0.25, 0.25, 0.25, 0.25])
pi2 = np.array([0.36, 0.28, 0.22, 0.14])   # ||pi1 - pi2||^2 = 0.026

# one row per group: row r of c1 and c2 are group r's two samples
c1, c2 = np.empty((2, k, 4), dtype=np.int64)
for r in range(k):
    c1[r] = rng.multinomial(n, pi1)
    c2[r] = rng.multinomial(n, pi2)
ds = GroupedDataset(c1, c2, [f"g{r + 1:03d}" for r in range(k)])

# How does a per-group chi-square fare?  With 12 observations a side the
# 95th percentile of chi2(3) is 7.81; count the groups that clear it.
# Pearson's statistic of each group's 2 x 4 table is
# (n1 n2 / (n1 + n2)) sum_j (p1j - p2j)^2 / pj, pj the pooled share; an
# empty pooled category adds nothing.
p1, p2 = ds.c1 / n, ds.c2 / n
pooled = (p1 + p2) / 2
per_group = n / 2 * np.sum(
    (p1 - p2) ** 2 / np.where(pooled > 0, pooled, 1), axis=1
)
print(f"groups with per-group chi-square above 7.81: "
      f"{sum(t > 7.81 for t in per_group)} of {k} "
      f"(about {0.05 * k:.0f} expected under the null)")

# The aggregated test, default variance estimator.
report = run_global_test(ds, estimator="test1")
print(f"\naggregated U-statistic: z = {report.z:.3f}, "
      f"p = {report.p_value:.5f}, reject at 5%: {report.reject}")

# All seven null-variance estimators agree here; test7 is the bootstrap
# one and needs a seed to be reproducible.
print("\nestimator   z       p")
for name, rep in run_all_tests(ds, seed=1).items():
    print(f"{name:9s}  {rep.z:6.3f}  {rep.p_value:.5f}")

# The same dataset through the command line:
write_dataset_csv(ds, "walkthrough_counts.csv")
print("\nwrote walkthrough_counts.csv -- try:")
print("  grouphom test walkthrough_counts.csv --estimator all")
