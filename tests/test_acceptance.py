"""Acceptance suite.

Runs every acceptance criterion at its stated tolerance and prints one
PASS/FAIL line per criterion (use ``pytest tests/test_acceptance.py -v -s``).

Criterion 4b (log-log rate band for the density QCLT) is implemented exactly
as stated and is expected to FAIL: the Kantorovich distance between the
exact count law and the exact diffusion marginal decays like 1/n at this
model's scale, faster than the asserted 1/sqrt(n) band, which is an upper
bound and not tight here.  See README "Known limitations".
"""

import itertools

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from noisyvoter import cli
from noisyvoter.diffusion import WFParams, derivative_decay_probe
from noisyvoter.experiments import (
    ExperimentConfig,
    run_mixing_curve,
    run_qclt_rate,
    run_thermalize,
)
from noisyvoter.model import (
    BlockPartition,
    ModelParams,
    block_mean_ode,
    density_drift,
    detailed_balance_gap,
    mean_ode,
)
from noisyvoter.stein import (
    SteinProblem,
    exclusion_stein_residual,
    hypergeom_gaussian_w1,
    hypergeom_zeta_pmf,
    stein_bound_margins,
    stein_solve,
    stein_test_family,
    zeta_support,
)
from noisyvoter.transport import w1_matching, w1_sorted

SEED = 0  # master seed for every stochastic criterion, fixed up front


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")


# ---------------------------------------------------------------------------
# 1. exact identities
# ---------------------------------------------------------------------------

def test_criterion_1_exact_identities():
    gap_db = max(detailed_balance_gap(ModelParams(n, a, b))
                 for n in (10, 100, 1000) for a, b in ((1.0, 1.0), (1.3, 0.4)))
    ok_db = gap_db <= 1e-12

    gap_var = 0.0
    for n in (4, 7, 16, 100, 573, 1024, 4096):
        for ell in {1, n // 3, n // 2, n - 1}:
            if 1 <= ell <= n - 1:
                pmf = hypergeom_zeta_pmf(n, ell)
                m0 = ell / n
                target = n / (n - 1) * m0 ** 2 * (1 - m0) ** 2
                gap_var = max(gap_var, abs(pmf.var() - target))
    ok_var = gap_var <= 1e-12

    rng = np.random.default_rng(SEED)
    xs = rng.normal(size=500)
    gap_tr = max(abs(w1_sorted(xs + v, xs) - abs(v)) for v in (-3.0, 0.25, 11.0))
    ok_tr = gap_tr <= 1e-13

    sol = stein_solve(SteinProblem(lambda x: x, lambda x: np.ones_like(x), 1.0),
                      np.linspace(-8, 8, 4001))
    gap_st = float(np.max(np.abs(sol.f + 1.0)))
    ok_st = gap_st <= 1e-10

    ok = ok_db and ok_var and ok_tr and ok_st
    report("1 (exact identities)", ok,
           f"detailed balance {gap_db:.2e} (tol 1e-12), variance identity "
           f"{gap_var:.2e} (tol 1e-12), translation {gap_tr:.2e} (tol 1e-13), "
           f"linear Stein solution {gap_st:.2e} (tol 1e-10)")
    assert ok


# ---------------------------------------------------------------------------
# 2. oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(SEED + 1)
    gap_match = 0.0
    for size in (5, 7, 8):
        xs = rng.uniform(size=(size, 2))
        ys = rng.uniform(size=(size, 2))
        cost = np.linalg.norm(xs[:, None, :] - ys[None, :, :], axis=2)
        best = min(np.mean([cost[i, j] for i, j in enumerate(perm)])
                   for perm in itertools.permutations(range(size)))
        gap_match = max(gap_match, abs(w1_matching(xs, ys) - best))
    ok_match = gap_match <= 1e-12

    gap_enum = 0.0
    for n, ell in ((6, 2), (9, 4), (12, 6), (12, 3)):
        block1 = set(range(n - ell, n))
        counts = {}
        total = 0
        for occ in itertools.combinations(range(n), ell):
            y = len(set(occ) & block1)
            counts[y] = counts.get(y, 0) + 1
            total += 1
        ys, _ = zeta_support(n, ell)
        pmf = hypergeom_zeta_pmf(n, ell)
        for y, p in zip(ys, pmf.probs):
            gap_enum = max(gap_enum, abs(counts.get(int(y), 0) / total - p))
    ok_enum = gap_enum <= 1e-12

    gap_ode = 0.0
    params = ModelParams(50, 1.3, 0.6)
    for m0 in (0.0, 0.3, 1.0):
        for t in (0.5, 7.0, 120.0):
            sol = solve_ivp(lambda _, m: density_drift(params, m) / params.n,
                            (0, t), [m0], rtol=1e-12, atol=1e-14)
            gap_ode = max(gap_ode, abs(mean_ode(params, m0, t) - sol.y[0, -1]))
    params_b = ModelParams(90, 1.4, 0.8)
    part = BlockPartition(30, 60)
    a0, a1 = part.weights

    def rhs(_, m):
        mbar = a0 * m[0] + a1 * m[1]
        rate = 1.0 + (params_b.a + params_b.b) / params_b.n
        return [params_b.a / params_b.n + mbar - rate * m[0],
                params_b.a / params_b.n + mbar - rate * m[1]]

    for t in (0.4, 3.0, 20.0):
        sol = solve_ivp(rhs, (0, t), [0.0, 1.0], rtol=1e-12, atol=1e-14)
        got = block_mean_ode(params_b, part, t)
        gap_ode = max(gap_ode, abs(got[0] - sol.y[0, -1]), abs(got[1] - sol.y[1, -1]))
    ok_ode = gap_ode <= 1e-10

    ok = ok_match and ok_enum and ok_ode
    report("2 (oracle equivalence)", ok,
           f"matching vs factorial brute force {gap_match:.2e} (tol 1e-12), "
           f"hypergeometric vs enumeration {gap_enum:.2e} (tol 1e-12), "
           f"mean paths vs integrator {gap_ode:.2e} (tol 1e-10)")
    assert ok


# ---------------------------------------------------------------------------
# 3. Stein suite
# ---------------------------------------------------------------------------

def test_criterion_3_stein_suite():
    min_margin = np.inf
    for nu in (0.1, 0.25, 1.0):
        grid = np.linspace(-8 * nu, 8 * nu, 4001)
        for h, dh in stein_test_family():
            sol = stein_solve(SteinProblem(h, dh, nu), grid)
            min_margin = min(min_margin, min(stein_bound_margins(sol, nu).values()))
    ok_bounds = min_margin >= -1e-9

    cases = [
        (lambda x: x ** 2, lambda x: 2 * x,
         lambda x: 2 * np.ones_like(x), lambda x: np.zeros_like(x)),
        (lambda x: x ** 3, lambda x: 3 * x ** 2,
         lambda x: 6 * x, lambda x: 6 * np.ones_like(x)),
        (np.tanh, lambda x: 1 / np.cosh(x) ** 2,
         lambda x: -2 * np.tanh(x) / np.cosh(x) ** 2,
         lambda x: (4 * np.tanh(x) ** 2 - 2 / np.cosh(x) ** 2) / np.cosh(x) ** 2),
    ]
    min_resid = np.inf
    for n, ell in ((64, 32), (256, 64), (1024, 512)):
        for fns in cases:
            min_resid = min(min_resid, exclusion_stein_residual(n, ell, *fns).min_margin)
    ok_resid = min_resid >= -1e-12

    ok = ok_bounds and ok_resid
    report("3 (Stein suite)", ok,
           f"20-function bound margin {min_margin:.3e} (>= -1e-9), exclusion "
           f"residual margin {min_resid:.3e} (>= -1e-12) at the three (n, count) pairs")
    assert ok


# ---------------------------------------------------------------------------
# 4. QCLT rates
# ---------------------------------------------------------------------------

def test_criterion_4a_normalized_clt_constant():
    cs = [hypergeom_gaussian_w1(n, n // 2)[1] for n in (256, 512, 1024, 2048, 4096)]
    variation = (max(cs) - min(cs)) / max(cs)
    ok = variation < 0.25
    report("4a (normalized CLT constant)", ok,
           f"normalized distance varies {variation * 100:.3f}% over n in 2^8..2^12 "
           f"(< 25% required); values {np.round(cs, 6).tolist()}")
    assert ok


def test_criterion_4b_density_rate_band():
    # Known-red criterion, implemented faithfully and left to fail.  Both
    # laws are exact: the count law from the spectral transient law and the
    # Wright-Fisher marginal from its Jacobi series, so the distances carry
    # no Monte Carlo or time-step error (``samples`` is unused).  They are
    # 0.0025925, 0.0012987 and 0.0006500 at n = 128, 256, 512 (a=b=1, t=1),
    # a slope of about -0.998: the count chain's moment recursions match the
    # diffusion to O(1/n) and lattice quantization adds ~1/(4n), so the
    # asserted [-0.65, -0.35] band, which presumes the 1/sqrt(n) upper-bound
    # rate is sharp, cannot be met.  See README, "Known limitations".
    cfg = ExperimentConfig(scenario="qclt-rate", n=(128, 256, 512), a=1.0, b=1.0,
                           m0=0.5, grid=(1.0,), samples=1_000_000, seed=SEED,
                           out="/tmp/noisyvoter-acceptance-qclt")
    records, extra = run_qclt_rate(cfg)
    slope = extra["qclt"]["slope"]
    err = extra["qclt"]["slope_stderr"]
    dists = {r.n: r.estimate for r in records if r.scenario == "qclt-rate"}
    ok = -0.65 <= slope <= -0.35
    report("4b (density QCLT rate band)", ok,
           f"log-log slope {slope:.3f} +- {err:.3f} vs band [-0.65, -0.35]; "
           f"exact distances {dists}; the exact distance decays ~1/n (the "
           f"upper-bound rate 1/sqrt(n) is not tight), so the band cannot be met")
    assert ok


# ---------------------------------------------------------------------------
# 5. thermalization profile
# ---------------------------------------------------------------------------

def test_criterion_5_thermalization_profile():
    cfg = ExperimentConfig(scenario="thermalize", n=(10_000,), a=1.0, b=1.0, m0=0.5,
                           grid=(-1.0, 0.0, 1.0), samples=2000, repetitions=10,
                           seed=SEED, out="/tmp/noisyvoter-acceptance-therm")
    records, _ = run_thermalize(cfg)
    est = {r.t_or_tau: r for r in records if r.scenario == "thermalize"}
    sur = {r.t_or_tau: r for r in records if r.scenario == "thermalize:surrogate"}
    ok = True
    lines = []
    for tau in (-1.0, 0.0, 1.0):
        e, s = est[tau], sur[tau]
        rel = abs(e.estimate - e.theory) / e.theory
        band = abs(e.estimate - s.estimate) / (2 * e.stderr)
        ok = ok and rel <= 0.15 and band <= 1.0
        lines.append(f"tau={tau:+.0f}: est {e.estimate:.4f}+-{e.stderr:.4f} vs "
                     f"2e^-tau {e.theory:.4f} (rel {rel * 100:.2f}% <= 15%), "
                     f"surrogate gap {band:.2f} of the 2-stderr band")
    report("5 (thermalization profile)", ok, "; ".join(lines))
    assert ok


# ---------------------------------------------------------------------------
# 6. no-cutoff diagnostic
# ---------------------------------------------------------------------------

def test_criterion_6_no_cutoff():
    cfg = ExperimentConfig(scenario="mixing-curve", n=(128, 256, 512), a=1.0, b=1.0,
                           m0=0.5, grid=tuple(np.geomspace(0.01, 3.0, 60)),
                           eps=(0.01, 0.05, 0.1), seed=SEED,
                           out="/tmp/noisyvoter-acceptance-mix")
    _, extra = run_mixing_curve(cfg)
    mix = extra["mixing"]
    ok = mix["drift_rel"] < 0.10 and mix["spread"] > 5.0 * mix["drift_abs"]
    report("6 (no-cutoff diagnostic)", ok,
           f"dyadic drift {mix['drift_rel'] * 100:.2f}% (< 10%), eps spread "
           f"{mix['spread']:.4f} vs 5x drift {5 * mix['drift_abs']:.4f}; "
           f"scaled mixing times {mix['tmix_over_n']}")
    assert ok


# ---------------------------------------------------------------------------
# 7. regularity probe
# ---------------------------------------------------------------------------

def test_criterion_7_regularity_probe():
    wf = WFParams(1.0, 1.0)
    grid = np.linspace(0.2, 0.8, 5)
    rng = np.random.default_rng(np.random.SeedSequence(SEED, spawn_key=(71,)))
    res1 = derivative_decay_probe(wf, lambda x: x, 1, 0.0, 0.5, grid,
                                  100_000, rng, deriv_sup=1.0)
    exact = np.exp(-2.0 * 0.5)
    rel = abs(res1.ratio - exact) / exact
    ok1 = rel <= 0.05

    rng2 = np.random.default_rng(np.random.SeedSequence(SEED, spawn_key=(72,)))
    res2 = derivative_decay_probe(wf, lambda x: x * x, 2, 0.0, 0.5, grid,
                                  100_000, rng2, deriv_sup=2.0, step=0.1)
    ok2 = res2.ratio <= res2.bound + 0.10

    ok = ok1 and ok2
    report("7 (regularity probe)", ok,
           f"first derivative {res1.ratio:.5f} vs exact {exact:.5f} "
           f"(rel {rel * 100:.2f}% <= 5%); second derivative {res2.ratio:.5f} "
           f"vs bound {res2.bound:.5f} + 0.10")
    assert ok


# ---------------------------------------------------------------------------
# 8. determinism
# ---------------------------------------------------------------------------

def test_criterion_8_determinism(tmp_path):
    scenarios = [
        ["profile", "--n", "48", "--grid", "0.2,0.8", "--samples", "4000"],
        ["thermalize", "--n", "400", "--samples", "120", "--repetitions", "3",
         "--grid", "0,1"],
        ["qclt-rate", "--n", "32,64,128", "--grid", "1.0", "--samples", "5000"],
        ["stein-rate", "--n", "64,128,256"],
        ["mixing-curve", "--n", "32,64", "--grid",
         "0.02,0.05,0.1,0.2,0.35,0.6,0.9,1.3"],
        ["validate", "--samples", "100"],
    ]
    ok = True
    details = []
    for args in scenarios:
        name = args[0]
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}-{tag}"
            code = cli.main(args + ["--seed", str(SEED), "--out", str(out)])
            assert code == 0, f"{name} exited {code}"
            outs.append((out / "results.csv").read_bytes())
        same = outs[0] == outs[1]
        ok = ok and same
        details.append(f"{name}:{'identical' if same else 'DIFFERS'}")
    report("8 (determinism)", ok, ", ".join(details))
    assert ok
