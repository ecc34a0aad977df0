"""The exact Kantorovich (W1) distance engines used throughout the suite.

Every distance in this package is computed exactly for the discrete objects
at hand: sorted pairing / CDF integration in one dimension, piecewise
analytic integration against Gaussian CDFs, and optimal assignment for 2-D
point clouds under the Euclidean and the l1 (cityblock) cost.  This script
exercises each engine against an independent check.
"""

import itertools
import os

import numpy as np

from noisyvoter import (
    Pmf,
    point_mass,
    pushforward_check,
    w1_discrete,
    w1_discrete_vs_gaussian,
    w1_matching,
    w1_sorted,
)

rng = np.random.default_rng(0)

xs = rng.normal(size=300)
print(f"translation exactness: W1(xs + 0.7, xs) = {w1_sorted(xs + 0.7, xs):.15f}")

small_x = rng.uniform(size=(6, 2))
small_y = rng.uniform(size=(6, 2))
cost = np.linalg.norm(small_x[:, None] - small_y[None, :], axis=2)
brute = min(np.mean([cost[i, j] for i, j in enumerate(p)])
            for p in itertools.permutations(range(6)))
print(f"matching vs 6! brute force: {w1_matching(small_x, small_y):.12f} "
      f"vs {brute:.12f}")
# the l1 matching is solved from the per-coordinate 1-D potentials as a dual
# start; its optimum is the same as on the plain cost matrix
cost = np.abs(small_x[:, None] - small_y[None, :]).sum(axis=2)
brute = min(np.mean([cost[i, j] for i, j in enumerate(p)])
            for p in itertools.permutations(range(6)))
print(f"cityblock matching vs 6! brute force: "
      f"{w1_matching(small_x, small_y, metric='cityblock'):.12f} vs {brute:.12f}")

p = Pmf([0.0, 1.0], [0.75, 0.25])
q = Pmf([0.0, 1.0], [0.25, 0.75])
print(f"two-point pmfs (3/4,1/4) vs (1/4,3/4): W1 = {w1_discrete(p, q)} (exactly 1/2)")

sd = 0.4
got = w1_discrete_vs_gaussian(point_mass(0.0), 0.0, sd)
print(f"point mass vs N(0, {sd}^2): {got:.12f} = sd sqrt(2/pi) = "
      f"{sd * np.sqrt(2 / np.pi):.12f}")

cloud_a = rng.normal(size=(120, 2))
cloud_b = rng.normal(loc=0.5, size=(120, 2))
d2, d1 = pushforward_check(cloud_a, cloud_b, [[1.0, 0.0]])
print(f"projection contracts W1: 1-D {d1:.5f} <= 2-D {d2:.5f}")

os.makedirs("demos/output", exist_ok=True)
np.savetxt("demos/output/cloud.csv", cloud_a, fmt="%.17g", delimiter=",",
           header="x,y", comments="")
print("wrote demos/output/cloud.csv (x,y columns, full precision)")
