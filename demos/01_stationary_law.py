"""Stationary behavior of the noisy voter model on the complete graph.

The particle count is reversible with a Beta-Binomial(n, a, b) stationary
law: heavier re-randomization toward 1 (larger a) tilts the count upward,
and a = b = 1 makes every count equally likely.  This script prints the
exact pmf for a small system, confirms reversibility numerically, and checks
the two-step sampler (Beta draw, then Binomial) against the exact law.
"""

import numpy as np

from noisyvoter import (
    ModelParams,
    detailed_balance_gap,
    empirical_pmf,
    stationary_pmf,
    w1_discrete,
)

params = ModelParams(n=12, a=2.0, b=1.0)
pmf = stationary_pmf(params)

print(f"stationary count pmf for n={params.n}, a={params.a}, b={params.b}:")
for k, p in zip(pmf.support, pmf.probs):
    bar = "#" * int(round(60 * p))
    print(f"  k={int(k):2d}  p={p:.5f}  {bar}")
print(f"mean density {pmf.mean() / params.n:.4f} "
      f"(drift balance point a/(a+b) = {params.a / (params.a + params.b):.4f})")

for n in (10, 100, 1000):
    gap = detailed_balance_gap(ModelParams(n, 1.3, 0.4))
    print(f"reversibility gap at n={n}: {gap:.2e} (log scale)")

rng = np.random.default_rng(1)
draws = rng.binomial(params.n, rng.beta(params.a, params.b, size=200_000))
dist = w1_discrete(empirical_pmf(draws), pmf)
print(f"W1(empirical law of 2e5 sampler draws, exact pmf) = {dist:.5f}")

flat = stationary_pmf(ModelParams(12, 1.0, 1.0))
print(f"a=b=1 gives the uniform count law: spread of probs = "
      f"{flat.probs.max() - flat.probs.min():.2e}")
