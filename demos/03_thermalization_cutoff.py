"""Thermalization: forgetting particle positions (not counts).

Start two copies of the chain with the same number of particles, one with
the particles at fixed sites and one with positions drawn uniformly.  The
distance between the two laws collapses around time
(1/2) log n + log m0(1-m0), and along the window parameter tau the scaled
distance follows the cut-off profile 2 exp(-tau).  The distance is measured
as an exact minimum-cost matching between paired block-count clouds under
the l1 ground metric, which is what the configuration-space Hamming distance
reduces to.  Only the fixed-site clouds are simulated: the uniform start stays
exchangeable, so each uniform-site replica is drawn from its fixed partner's
particle count X as a Hypergeometric(n, n1, X) block split.
"""

import numpy as np

from noisyvoter import ExperimentConfig
from noisyvoter.experiments import run_thermalize

n = 2500
cfg = ExperimentConfig(scenario="thermalize", n=(n,), m0=0.5,
                       grid=(-1.0, -0.5, 0.0, 0.5, 1.0, 1.5),
                       samples=800, repetitions=6, seed=0,
                       out="demos/output/thermalize")
records, _ = run_thermalize(cfg)

t_half = 0.5 * np.log(n) + np.log(0.25)
print(f"n={n}: thermalization happens around time {t_half:.2f} "
      f"(compare with the O(n) density relaxation above)\n")
print(f"{'tau':>5} | {'estimate':>9} | {'stderr':>7} | {'2 e^-tau':>8} | "
      f"{'finite-n surrogate':>18}")
est = [r for r in records if r.scenario == "thermalize"]
sur = {r.t_or_tau: r.estimate for r in records if r.scenario == "thermalize:surrogate"}
for r in est:
    print(f"{r.t_or_tau:5.1f} | {r.estimate:9.4f} | {r.stderr:7.4f} | "
          f"{r.theory:8.4f} | {sur[r.t_or_tau]:18.4f}")
print("\nthe estimate tracks the profile 2 exp(-tau): the position memory "
      "dies in a window of width O(1) around t_n, a genuine cut-off")
