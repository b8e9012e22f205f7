"""
Monte Carlo rejection rates: level and power in miniature
=========================================================

The simulation harness that produced the reference tables, run at 1/10
of the replicate budget so it finishes in about a minute.  Same grids,
same per-cell seeding scheme -- only the Monte Carlo error is larger
(about +-0.007 at 1000 replicates for a rate near 0.05).
"""

from grouphom import SettingSpec, estimate_rejection_rate, reproduce_table

# Null rejection rates (type I error) at nominal alpha = 0.05, for the
# unbiased-variance tests and the group-count-standardized chi-square
# aggregate W_k, which drifts off level as k grows.
print("Setting 1 (homogeneous), d = 5, samples (10, 10):")
print(f"{'k':>5}  {'test1':>6}  {'test2':>6}  {'test3':>6}  {'wk':>6}")
for k in (20, 100, 500):
    res = estimate_rejection_rate(
        SettingSpec(setting=1, d=5, k=k, n1=10, n2=10, master_seed=2024),
        tests=("test1", "test2", "test3", "wk"),
        reps=1000,
    )
    print(f"{k:>5}  " + "  ".join(
        f"{res[t].rate:6.3f}" for t in ("test1", "test2", "test3", "wk")))

# Power under Setting 3: every group's second population is tilted with
# probability 0.2 toward library vector 4 (squared distance 0.090).
print("\nSetting 3 (sparse common-direction alternative), d = 5, (30, 30):")
print(f"{'k':>5}  {'test1':>6}  {'chi2':>6}")
for k in (20, 50, 200):
    res = estimate_rejection_rate(
        SettingSpec(setting=3, d=5, k=k, n1=30, n2=30, pi0=4,
                    master_seed=2025),
        tests=("test1", "chi2"),
        reps=1000,
    )
    print(f"{k:>5}  {res['test1'].rate:6.3f}  {res['chi2'].rate:6.3f}")

# Whole reference tables can be re-run by id; reps below the published
# budget is fine for a quick look.  The CSV and a JSON sidecar recording
# seeds, replicate counts and standard errors land in the out directory.
result = reproduce_table("tab2", reps=500, seed=0, outdir=".",
                         k_values=(20, 50), size_pairs=((5, 10), (10, 10)))
print(f"\nreproduce_table('tab2', reps=500) -> {result.csv_path}")
for row in result.rows:
    print("   ", {c: row[c] for c in result.columns[:6]})
