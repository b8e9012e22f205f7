"""
Two ways to trust the core statistic
====================================

First: the per-group statistic is exactly unbiased for the squared
distance ||pi1 - pi2||^2, checked here by full enumeration of a binomial
pair (no Monte Carlo, no tolerance games -- the expectation comes out to
machine precision).  Second: the production closed form agrees with a
brute-force evaluation of the defining kernel sum over all index pairs.
"""

import math

import numpy as np

from grouphom import group_ustat, group_ustat_kernel_oracle

# --- exact unbiasedness, d = 2, n = 4 per sample -------------------------
n = 4
a, b = 0.35, 0.60          # success probabilities of the two populations
target = 2 * (a - b) ** 2  # ||pi1 - pi2||^2 for pi = (p, 1-p)

expectation = 0.0
for x in range(n + 1):
    px = math.comb(n, x) * a**x * (1 - a) ** (n - x)
    for y in range(n + 1):
        py = math.comb(n, y) * b**y * (1 - b) ** (n - y)
        expectation += px * py * group_ustat((x, n - x), (y, n - y))

print(f"E[T_U] by enumeration: {expectation:.15f}")
print(f"||pi1 - pi2||^2:       {target:.15f}")
print(f"difference:            {abs(expectation - target):.2e}")

# Contrast with the naive plug-in ||p1_hat - p2_hat||^2, which is biased
# upward by the sampling noise of both proportions.
plug = 0.0
for x in range(n + 1):
    px = math.comb(n, x) * a**x * (1 - a) ** (n - x)
    for y in range(n + 1):
        py = math.comb(n, y) * b**y * (1 - b) ** (n - y)
        diff = np.array([x - y, (n - x) - (n - y)]) / n
        plug += px * py * float(diff @ diff)
print(f"naive plug-in E:       {plug:.15f}  (bias {plug - target:+.4f})")

# --- closed form vs kernel definition ------------------------------------
# The statistic is defined as an average of a kernel over all pairs of
# distinct indices within each sample; the shipped implementation is an
# algebraic collapse of that sum.  The kernel oracle evaluates the sum
# literally (O(n^2 d) instead of O(d)), so agreement is a real check.
rng = np.random.default_rng(3)
worst = 0.0
for _ in range(300):
    d = rng.integers(2, 6)
    n1, n2 = rng.integers(2, 9, size=2)
    pi = rng.dirichlet(np.ones(d))
    c1 = rng.multinomial(n1, pi)
    c2 = rng.multinomial(n2, rng.dirichlet(np.ones(d)))
    worst = max(worst, abs(group_ustat(c1, c2) - group_ustat_kernel_oracle(c1, c2)))
print(f"\nclosed form vs kernel sum, 300 random pairs: "
      f"max |difference| = {worst:.2e}")
