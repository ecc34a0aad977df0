"""Convergence profile of the particle density.

Sped up by n, the density follows a Wright-Fisher diffusion; its distance to
the stationary law therefore decays along a continuous profile rather than
dropping abruptly; the chain has no cut-off on this time scale.  This script
computes the exact distance-to-stationarity curve from exact transient laws for a
dyadic n-sweep against the exact Wright-Fisher marginal, shows the curves
collapsing onto the limit profile D(t) = W1(WF_t(m0), Beta(a, b)), and
extracts the scaled mixing times at several thresholds.
"""

import numpy as np

from noisyvoter import ExperimentConfig
from noisyvoter.experiments import run_mixing_curve, run_profile

grid = tuple(np.geomspace(0.02, 2.5, 20))
cfg = ExperimentConfig(scenario="profile", n=(64, 128, 256), m0=0.5,
                       grid=grid, seed=0, out="demos/output/profile")
records, _ = run_profile(cfg)

print("distance of the density law at time n*t ...")
print(f"{'t':>8} | " + " | ".join(f"to diffusion n={n}" for n in cfg.n)
      + " | " + f"to stationarity n={cfg.n[-1]} | limit D(t)")
for i, t in enumerate(grid):
    wf = [r.estimate for r in records if r.scenario == "profile:wf" and r.t_or_tau == t]
    st = [r for r in records
          if r.scenario == "profile:stationary" and r.t_or_tau == t and r.n == cfg.n[-1]]
    print(f"{t:8.3f} | " + " | ".join(f"{v:17.5f}" for v in wf)
          + f" | {st[0].estimate:22.5f} | {st[0].theory:.5f}")

mix_cfg = ExperimentConfig(scenario="mixing-curve", n=(64, 128, 256), m0=0.5,
                           grid=tuple(np.geomspace(0.01, 3.0, 50)),
                           seed=0, out="demos/output/mixing")
_, extra = run_mixing_curve(mix_cfg)
mix = extra["mixing"]
print("\nscaled mixing times t_mix/n (rows: n; columns: eps "
      f"{mix['eps']}):")
for n, tm in mix["tmix_over_n"].items():
    print(f"  n={n:>4}: " + "  ".join(f"{v:.4f}" for v in tm))
print(f"spread over eps = {mix['spread']:.4f}, successive dyadic drift = "
      f"{mix['drift_abs']:.5f}: the window does not collapse, i.e. no cut-off")
