"""Declarative experiment runner for the convergence suite.

Each scenario composes the model, diffusion, transport and Stein modules to
measure one headline quantity: the distance-to-stationarity profile, the
thermalization cut-off profile, the density QCLT rate, the hypergeometric CLT
rate, the no-cutoff mixing curve, or the full invariant validation sweep.
Runs are seed-exact: a config (including seed) maps to byte-identical
results.csv output; wall-clock timings live in manifest.json only.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, asdict, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import diffusion, model, stein, transport
from .errors import CapacityError, ConfigError, DiagnosticError
from .pmf import Pmf, empirical_pmf

SCENARIOS = ("profile", "thermalize", "qclt-rate", "stein-rate", "validate", "mixing-curve")

# scenarios whose estimates are Monte Carlo distances
_MC_SCENARIOS = ("profile", "thermalize", "qclt-rate")

DEFAULT_GRIDS = {
    "profile": tuple(np.geomspace(0.05, 3.0, 24)),
    "mixing-curve": tuple(np.geomspace(0.01, 3.0, 60)),
    "thermalize": (-1.0, 0.0, 1.0),
    "qclt-rate": (1.0,),
    "stein-rate": (),
    "validate": (),
}

# fixed stream ids so every random draw hangs off (seed, purpose, index...)
_STREAM = {
    "profile-wf": 1, "profile-mc": 2, "qclt-ref": 3, "qclt-half": 4,
    "thermalize": 5, "validate-mc": 6, "profile-wf-mc": 7,
}


def replica_stream(seed: int, purpose: str, *indices: int) -> np.random.Generator:
    """Independent generator for (master seed, purpose, replica indices)."""
    key = (_STREAM[purpose],) + tuple(int(i) for i in indices)
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=key))


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one scenario run."""

    scenario: str
    n: tuple[int, ...] = (1024,)
    a: float = 1.0
    b: float = 1.0
    m0: float = 0.5
    ell: int | None = None
    grid: tuple[float, ...] = ()
    samples: int = 2000
    repetitions: int = 10
    seed: int = 0
    out: str = "results"
    tol: float = 1e-9
    eps: tuple[float, ...] = (0.01, 0.05, 0.1)
    wf_dt: float = 1e-3
    dense_cap: int = model.DENSE_LAW_CAP

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}; choose from {SCENARIOS}")
        ns = tuple(int(v) for v in (self.n if isinstance(self.n, (tuple, list)) else (self.n,)))
        if not ns or any(v < 1 for v in ns):
            raise ConfigError("n must be one or more positive integers")
        object.__setattr__(self, "n", ns)
        if not (self.a > 0 and self.b > 0 and np.isfinite(self.a) and np.isfinite(self.b)):
            raise ConfigError("a and b must be positive and finite")
        if not 0.0 < self.m0 < 1.0:
            raise ConfigError("m0 must lie strictly inside (0, 1)")
        grid = tuple(float(g) for g in self.grid) or DEFAULT_GRIDS[self.scenario]
        if self.scenario not in ("stein-rate", "validate"):
            if not grid:
                raise ConfigError("grid must be nonempty")
            if not np.isfinite(grid).all():
                raise ConfigError("grid values must be finite")
            if any(g2 <= g1 for g1, g2 in zip(grid, grid[1:])):
                raise ConfigError("grid must be strictly increasing")
            if self.scenario != "thermalize" and grid[0] < 0:
                raise ConfigError("time grid must be nonnegative")
        object.__setattr__(self, "grid", grid)
        if self.samples < 1 or (self.scenario in _MC_SCENARIOS and self.samples < 100):
            raise ConfigError("distance-estimation scenarios need samples >= 100")
        if self.repetitions < 2:
            raise ConfigError("repetitions must be at least 2")
        if self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        if not 0 < self.tol <= 1e-6:
            raise ConfigError("tol must lie in (0, 1e-6]")
        if not (self.wf_dt > 0 and np.isfinite(self.wf_dt)):
            raise ConfigError("wf_dt must be positive and finite")
        if self.dense_cap < 0:
            raise ConfigError("dense_cap must be nonnegative")
        eps = tuple(float(e) for e in self.eps)
        if not eps or not all(0 < e < np.inf for e in eps) or len(set(eps)) != len(eps):
            raise ConfigError("eps must be distinct positive thresholds")
        object.__setattr__(self, "eps", eps)
        if self.scenario in ("stein-rate", "thermalize"):
            for n in ns:
                if not 1 <= self.particle_count(n) <= n - 1:
                    raise ConfigError(f"particle count at n={n} must lie in [1, n-1]")
        if self.scenario == "thermalize":
            if len(ns) != 1:
                raise ConfigError("thermalize runs at a single n")
            n = ns[0]
            m0e = self.particle_count(n) / n
            if m0e * (1 - m0e) < n ** (-1.0 / 3.0):
                raise ConfigError("m0(1-m0) must be at least n^(-1/3) for thermalization")
            t_min = 0.5 * np.log(n) + np.log(m0e * (1 - m0e)) + grid[0]
            if t_min < 0:
                raise ConfigError("smallest tau gives a negative thermalization time")
        if self.scenario == "qclt-rate":
            if len(ns) < 3:
                raise ConfigError("qclt-rate needs a sweep of at least 3 sizes")
            if any(n2 != 2 * n1 for n1, n2 in zip(ns, ns[1:])):
                raise ConfigError("qclt-rate sweep must be dyadic (each size double the last)")
            if len(grid) != 1:
                raise ConfigError("qclt-rate uses a single observation time")
        if self.scenario == "mixing-curve" and len(ns) < 2:
            raise ConfigError("mixing-curve needs at least two sizes to measure drift")

    def particle_count(self, n: int) -> int:
        """Initial particle count at size ``n``: ``ell`` when given for a
        single-size run, else m0*n rounded."""
        if self.ell is not None and len(self.n) == 1:
            return int(self.ell)
        return int(np.floor(self.m0 * n + 0.5))


# model parameters, nested under "params" in the JSON schema
_PARAM_KEYS = ("n", "a", "b", "m0", "ell")


def config_from_json(path) -> dict:
    """Flatten the on-disk schema {scenario, params{...}, grid, ...} to kwargs."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    params = raw.pop("params", {})
    kwargs = {key: params[key] for key in _PARAM_KEYS if key in params}
    top_keys = {f.name for f in fields(ExperimentConfig)} - set(_PARAM_KEYS)
    kwargs.update((key, raw[key]) for key in top_keys if key in raw)
    unknown = set(raw) - top_keys
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if isinstance(kwargs.get("n"), (int, float)):
        kwargs["n"] = (int(kwargs["n"]),)
    return kwargs


@dataclass(frozen=True)
class ResultRecord:
    """One output row: estimate (with error bar) against theory when known."""

    scenario: str
    n: int
    a: float
    b: float
    m0: float
    t_or_tau: float
    estimate: float
    stderr: float
    theory: float | None
    runtime_s: float | None
    seed: int


CSV_COLUMNS = ("scenario", "n", "a", "b", "m0", "t_or_tau",
               "estimate", "stderr", "theory", "runtime_s", "seed")


def write_results(records, outdir) -> Path:
    """Write results.csv deterministically (runtime_s stays empty; wall-clock
    timings go to the manifest so reruns are byte-identical)."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "results.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow([
                r.scenario, r.n, repr(float(r.a)), repr(float(r.b)), repr(float(r.m0)),
                repr(float(r.t_or_tau)), repr(float(r.estimate)), repr(float(r.stderr)),
                "" if r.theory is None else repr(float(r.theory)),
                "" if r.runtime_s is None else repr(float(r.runtime_s)),
                r.seed,
            ])
    return path


def write_manifest(cfg: ExperimentConfig, outdir, records, extra=None) -> Path:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        from importlib.metadata import version
        ver = version("noisyvoter")
    except Exception:
        ver = "unknown"
    theory_check = []
    for r in records:
        if r.theory is not None and r.theory != 0:
            rel = abs(r.estimate - r.theory) / abs(r.theory)
            theory_check.append({
                "scenario": r.scenario, "n": r.n, "t_or_tau": r.t_or_tau,
                "rel_error": rel, "flagged": bool(rel > _declared_tolerance(r)),
            })
    payload = {
        "config": asdict(cfg),
        "artifact_version": ver,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "theory_check": theory_check,
    }
    if extra:
        payload.update(extra)
    path = outdir / "manifest.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, default=float)
        fh.write("\n")
    return path


def _declared_tolerance(r: ResultRecord) -> float:
    if r.scenario.startswith("thermalize"):
        return 0.15 if abs(r.t_or_tau) <= 1.0 else 0.20
    if r.scenario == "qclt-rate:slope":
        return 0.30
    return np.inf


def _batched_w1_stderr(law_scaled: Pmf, samples: np.ndarray, batches: int = 10) -> float:
    """Spread-based error bar: std of per-batch distances over sqrt(batches)."""
    parts = np.array_split(samples, batches)
    vals = [transport.w1_discrete(law_scaled, empirical_pmf(p)) for p in parts]
    return float(np.std(vals, ddof=1) / np.sqrt(len(vals)))


# ---------------------------------------------------------------------------
# profile
# ---------------------------------------------------------------------------

def run_profile(cfg: ExperimentConfig):
    """Distance of the density law at time n*t to (i) the Wright-Fisher
    marginal and (ii) the rescaled stationary law, per grid time.

    One diffusion reference ensemble, evolved once along the grid, is shared
    by the whole n-sweep so cross-n curve differences carry no independent
    reference noise.
    """
    wf = diffusion.WFParams(cfg.a, cfg.b)
    rng = replica_stream(cfg.seed, "profile-wf", 0)
    paths = np.full(cfg.samples, cfg.m0)
    wf_samples = []
    t_prev = 0.0
    for t in cfg.grid:
        paths = diffusion.simulate_wf(wf, paths, t - t_prev, cfg.wf_dt, rng)
        wf_samples.append(paths.copy())
        t_prev = t
    records = []
    for n in cfg.n:
        params = model.ModelParams(n, cfg.a, cfg.b)
        k0 = int(np.floor(cfg.m0 * n + 0.5))
        m0e = k0 / n
        stat_scaled = model.stationary_pmf(params).scaled(1.0 / n)
        exact = n <= cfg.dense_cap
        law = None
        mc_rng = None if exact else replica_stream(cfg.seed, "profile-mc", n)
        counts = None if exact else np.full(cfg.samples, k0, dtype=np.int64)
        t_prev = 0.0
        for t, ref in zip(cfg.grid, wf_samples):
            if exact:
                law = model.transient_law(params, k0 if law is None else law,
                                          n * (t - t_prev), cfg.tol, cap=cfg.dense_cap)
                law_scaled = law.scaled(1.0 / n)
                stat_err = 0.0
            else:
                counts = model.simulate_count_batch(params, counts,
                                                    np.array([n * (t - t_prev)]), mc_rng)[0]
                law_scaled = empirical_pmf(counts / n)
                stat_err = _batched_w1_stderr(stat_scaled, counts / n)
            t_prev = t
            d_wf = transport.w1_discrete(law_scaled, empirical_pmf(ref))
            wf_err = _batched_w1_stderr(law_scaled, ref)
            d_stat = transport.w1_discrete(law_scaled, stat_scaled)
            records.append(ResultRecord("profile:wf", n, cfg.a, cfg.b, m0e, t,
                                        d_wf, wf_err, None, None, cfg.seed))
            records.append(ResultRecord("profile:stationary", n, cfg.a, cfg.b, m0e, t,
                                        d_stat, stat_err, None, None, cfg.seed))
    return records, {}


# ---------------------------------------------------------------------------
# qclt-rate
# ---------------------------------------------------------------------------

def run_qclt_rate(cfg: ExperimentConfig):
    """Log-log rate of the density-vs-Wright-Fisher distance over a dyadic
    n-sweep at a fixed observation time."""
    t = cfg.grid[0]
    wf = diffusion.WFParams(cfg.a, cfg.b)
    rng = replica_stream(cfg.seed, "qclt-ref", 0)
    ref = diffusion.simulate_wf(wf, cfg.m0, t, cfg.wf_dt, rng, n_paths=cfg.samples)
    ref_pmf = empirical_pmf(ref)
    # step-halving convergence control for the reference
    rng_half = replica_stream(cfg.seed, "qclt-half", 0)
    ref_half = diffusion.simulate_wf(wf, cfg.m0, t, cfg.wf_dt / 2, rng_half,
                                     n_paths=cfg.samples)
    gap = transport.w1_discrete(ref_pmf, empirical_pmf(ref_half))
    sigma = float(np.std(ref))
    noise_floor = 1.7 * sigma * np.sqrt(2.0 / cfg.samples)
    if gap > max(3.0 * noise_floor, 2e-3):
        raise DiagnosticError(
            f"Wright-Fisher reference not converged under step halving "
            f"(gap {gap:.3g}, noise floor {noise_floor:.3g}); reduce wf_dt"
        )

    def one(n):
        params = model.ModelParams(n, cfg.a, cfg.b)
        k0 = int(np.floor(cfg.m0 * n + 0.5))
        law = model.transient_law(params, k0, n * t, cfg.tol, cap=cfg.dense_cap)
        law_scaled = law.scaled(1.0 / n)
        d = transport.w1_discrete(law_scaled, ref_pmf)
        return d, _batched_w1_stderr(law_scaled, ref)

    results = [one(n) for n in cfg.n]
    records = []
    for n, (d, err) in zip(cfg.n, results):
        records.append(ResultRecord("qclt-rate", n, cfg.a, cfg.b, cfg.m0, t,
                                    d, err, None, None, cfg.seed))
    logn = np.log(np.asarray(cfg.n, dtype=float))
    logd = np.log([d for d, _ in results])
    coeffs, cov = np.polyfit(logn, logd, 1, cov=True)
    slope = float(coeffs[0])
    slope_err = float(np.sqrt(cov[0, 0]))
    records.append(ResultRecord("qclt-rate:slope", cfg.n[-1], cfg.a, cfg.b, cfg.m0, t,
                                slope, slope_err, -0.5, None, cfg.seed))
    extra = {"qclt": {"slope": slope, "slope_stderr": slope_err,
                      "halving_gap": gap, "reference_noise_floor": noise_floor}}
    return records, extra


# ---------------------------------------------------------------------------
# thermalize
# ---------------------------------------------------------------------------

def thermalize_distance(params: model.ModelParams, ell: int, t: float) -> float:
    """Exact thermalization distance 2 sqrt(n) m0 (1-m0) e^{-(1+(a+b)/n) t},
    m0 = ell/n: the l1 Kantorovich distance, over sqrt(n), between the
    block-count laws at time t from the fixed and the uniform start (see
    ``run_thermalize`` for why it is exact)."""
    n = params.n
    m0 = ell / n
    rate = 1.0 + (params.a + params.b) / n
    return float(2.0 * np.sqrt(n) * m0 * (1 - m0) * np.exp(-rate * t))


def run_thermalize(cfg: ExperimentConfig):
    """Profile of the distance between the fixed-positions start and the
    uniform-positions start at times (1/2) log n + log m0(1-m0) + tau.

    The distance is the block-count Kantorovich distance under the l1 ground
    metric (the configuration-space Hamming distance transported through the
    block-count coupling), over sqrt(n).  The ``thermalize`` rows estimate it
    by exact matchings of paired replica clouds, averaged over repetitions.

    The ``thermalize:surrogate`` rows hold its exact value,
    ``thermalize_distance``, for every n, ell, a and b.  With blocks
    (n - ell, ell), the fixed start (0, ell) and the uniform start both hold
    ell particles, so couple their totals X identically.  Given X, a birth
    lands in block i with probability (n_i - x_i)/(n - X) and a death leaves
    it with probability x_i/X; driving both chains with the same uniforms
    keeps x0 <= x0' and x1 >= x1' for the fixed-start chain at all times.
    That coupling costs E[(x1 - x0) - (x1' - x0')], and since x1 - x0 is
    1-Lipschitz for l1 the same quantity is also a lower bound: the coupling
    is optimal.  By ``diffusion.block_mean_ode`` the imbalance gap starts at
    2 n m0 (1-m0) and relaxes at rate 1 + (a+b)/n, so at the times above the
    distance is 2 e^{-tau} e^{-(a+b) t/n}.
    """
    n = cfg.n[0]
    params = model.ModelParams(n, cfg.a, cfg.b)
    ell = cfg.particle_count(n)
    part = model.BlockPartition(n - ell, ell)
    m0e = ell / n
    taus = np.asarray(cfg.grid)
    horizons = 0.5 * np.log(n) + np.log(m0e * (1 - m0e)) + taus
    pairs = cfg.samples
    sqrt_n = np.sqrt(n)

    def one_rep(rep):
        rng = replica_stream(cfg.seed, "thermalize", rep)
        fixed = np.tile(np.array([[0, ell]], dtype=np.int64), (pairs, 1))
        u0, u1 = model.sample_uniform_given_count(params, part, ell, rng, size=pairs)
        starts = np.vstack([fixed, np.stack([u0, u1], axis=1)])
        states = model.simulate_blocks_batch(params, part, starts, horizons, rng)
        out = []
        for i in range(len(taus)):
            cloud_fixed = states[i, :pairs].astype(float)
            cloud_unif = states[i, pairs:].astype(float)
            out.append(transport.w1_matching(cloud_fixed, cloud_unif,
                                             metric="cityblock") / sqrt_n)
        return out

    per_rep = [one_rep(rep) for rep in range(cfg.repetitions)]
    values = np.asarray(per_rep)  # (reps, taus)
    records = []
    for i, tau in enumerate(taus):
        theory = 2.0 * np.exp(-tau)
        est = float(values[:, i].mean())
        err = float(values[:, i].std(ddof=1) / np.sqrt(cfg.repetitions))
        surrogate = thermalize_distance(params, ell, horizons[i])
        records.append(ResultRecord("thermalize", n, cfg.a, cfg.b, m0e, float(tau),
                                    est, err, theory, None, cfg.seed))
        records.append(ResultRecord("thermalize:surrogate", n, cfg.a, cfg.b, m0e, float(tau),
                                    float(surrogate), 0.0, theory, None, cfg.seed))
    return records, {}


# ---------------------------------------------------------------------------
# mixing-curve
# ---------------------------------------------------------------------------

def _invert_curve(ts, ds, eps):
    """First crossing time of the (decaying) distance curve at level eps,
    log-linear interpolation between bracketing grid points."""
    below = np.nonzero(ds <= eps)[0]
    if below.size == 0:
        raise DiagnosticError(f"distance curve never reaches eps={eps}; extend the grid")
    i = below[0]
    if i == 0:
        return float(ts[0])
    frac = (np.log(ds[i - 1]) - np.log(eps)) / (np.log(ds[i - 1]) - np.log(ds[i]))
    return float(ts[i - 1] + (ts[i] - ts[i - 1]) * frac)


def run_mixing_curve(cfg: ExperimentConfig):
    """Scaled mixing times t_mix/n at the eps grid, from exact distance
    curves, with the cross-n drift and the eps spread as summary rows."""
    eps_grid = tuple(sorted(cfg.eps))

    def curve(n):
        params = model.ModelParams(n, cfg.a, cfg.b)
        k0 = int(np.floor(cfg.m0 * n + 0.5))
        stat_scaled = model.stationary_pmf(params).scaled(1.0 / n)
        law = None
        t_prev = 0.0
        ds = []
        for t in cfg.grid:
            law = model.transient_law(params, k0 if law is None else law,
                                      n * (t - t_prev), cfg.tol, cap=cfg.dense_cap)
            t_prev = t
            ds.append(transport.w1_discrete(law.scaled(1.0 / n), stat_scaled))
        ds = np.asarray(ds)
        peak = int(np.argmax(ds))
        if np.any(np.diff(ds[peak:]) > 5e-9):
            raise DiagnosticError(f"distance curve non-monotone beyond noise at n={n}")
        return ds

    curves = [curve(n) for n in cfg.n]
    tmix = {n: [_invert_curve(np.asarray(cfg.grid), ds, e) for e in eps_grid]
            for n, ds in zip(cfg.n, curves)}
    records = []
    for n in cfg.n:
        for e, tm in zip(eps_grid, tmix[n]):
            records.append(ResultRecord("mixing-curve", n, cfg.a, cfg.b, cfg.m0,
                                        float(e), tm, 0.0, None, None, cfg.seed))
    for n in cfg.n:
        vals = tmix[n]
        if not all(v1 > v2 for v1, v2 in zip(vals, vals[1:])):
            raise DiagnosticError("mixing times must decrease strictly in eps")
    n_prev, n_last = cfg.n[-2], cfg.n[-1]
    drift_abs = float(np.max(np.abs(np.asarray(tmix[n_last]) - np.asarray(tmix[n_prev]))))
    drift_rel = float(np.max(np.abs(np.asarray(tmix[n_last]) - np.asarray(tmix[n_prev]))
                             / np.asarray(tmix[n_last])))
    spread = float(tmix[n_last][0] - tmix[n_last][-1])
    records.append(ResultRecord("mixing-curve:drift", n_last, cfg.a, cfg.b, cfg.m0,
                                0.0, drift_abs, 0.0, None, None, cfg.seed))
    records.append(ResultRecord("mixing-curve:spread", n_last, cfg.a, cfg.b, cfg.m0,
                                0.0, spread, 0.0, None, None, cfg.seed))
    extra = {"mixing": {"tmix_over_n": {str(n): tmix[n] for n in cfg.n},
                        "eps": eps_grid, "drift_abs": drift_abs,
                        "drift_rel": drift_rel, "spread": spread,
                        "no_cutoff": bool(spread > 5.0 * drift_abs)}}
    return records, extra


# ---------------------------------------------------------------------------
# stein-rate
# ---------------------------------------------------------------------------

def run_stein_rate(cfg: ExperimentConfig):
    """Gaussian-limit W1 of the hypergeometric start across the n sweep."""
    rows = []
    records = []
    for n in cfg.n:
        ell = cfg.particle_count(n)
        distance, normalized = stein.hypergeom_gaussian_w1(n, ell)
        m0e = ell / n
        nu = m0e * (1 - m0e)
        rows.append((n, ell, m0e, nu, distance, normalized))
        records.append(ResultRecord("stein-rate", n, cfg.a, cfg.b, m0e, 0.0,
                                    distance, 0.0, None, None, cfg.seed))
        records.append(ResultRecord("stein-rate:normalized", n, cfg.a, cfg.b, m0e, 0.0,
                                    normalized, 0.0, None, None, cfg.seed))
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "stein_sweep.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "ell", "m0", "nu", "distance", "normalized"])
        for n, ell, m0e, nu, d, c in rows:
            writer.writerow([n, ell, repr(float(m0e)), repr(float(nu)),
                             repr(float(d)), repr(float(c))])
    return records, {}


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    note: str = ""


def _check_rates(cfg, _rng):
    worst = 0.0
    for n in (7, 100, 1024):
        params = model.ModelParams(n, cfg.a, cfg.b)
        ups, downs = zip(*(model.count_rates(params, k) for k in range(n + 1)))
        worst = max(worst, -min(ups), -min(downs), abs(ups[-1]), abs(downs[0]))
    return CheckResult("rates-boundary", worst <= 0.0, worst, 0.0,
                       "nonnegative rates, absorbing ends closed")


def _check_detailed_balance(cfg, _rng):
    worst = max(model.detailed_balance_gap(model.ModelParams(n, cfg.a, cfg.b))
                for n in (10, 100, 1000))
    return CheckResult("detailed-balance", worst <= 1e-12, worst, 1e-12)


def _check_uniform_variance(cfg, _rng):
    worst = 0.0
    for n in (4, 12, 100, 555, 2048, 4096):
        for ell in {1, n // 3, n // 2, n - 1}:
            if 1 <= ell <= n - 1:
                pmf = stein.hypergeom_zeta_pmf(n, ell)
                m0 = ell / n
                target = n / (n - 1) * m0 ** 2 * (1 - m0) ** 2
                worst = max(worst, abs(pmf.var() - target), abs(pmf.mean()))
    return CheckResult("uniform-start-variance", worst <= 1e-12, worst, 1e-12)


def _check_translation(cfg, _rng):
    rng = np.random.default_rng(20240601)  # fixed: exact check, seed-independent
    xs = rng.normal(size=257)
    err_1d = max(abs(transport.w1_sorted(xs + v, xs) - abs(v))
                 for v in (-2.5, 0.125, 7.0))
    cloud = rng.normal(size=(160, 2))
    err_2d = 0.0
    for vec in ([1.5, -0.25], [0.0, 3.0]):
        shift = np.asarray(vec)
        got = transport.w1_matching(cloud + shift, cloud)
        err_2d = max(err_2d, abs(got - np.linalg.norm(shift)))
    passed = err_1d <= 1e-13 and err_2d <= 1e-9
    return CheckResult("translation-exact", passed, max(err_1d, err_2d), 1e-9,
                       f"1-D gap {err_1d:.2e} (tol 1e-13), 2-D gap {err_2d:.2e} (tol 1e-9)")


def _check_pushforward(cfg, _rng):
    rng = np.random.default_rng(20240602)
    worst = -np.inf
    for _ in range(5):
        xs = rng.normal(size=(120, 2))
        ys = rng.normal(loc=0.3, size=(120, 2))
        for fn in (lambda p: p[0], lambda p: 0.6 * p[0] - 0.8 * p[1], lambda p: 0.0):
            d2, d1 = transport.pushforward_check(xs, ys, fn)
            worst = max(worst, d1 - d2)
    return CheckResult("pushforward-contraction", worst <= 1e-12, worst, 1e-12)


def _check_stein_bounds(cfg, _rng):
    worst = np.inf
    for nu in (0.1, 0.25, 1.0):
        grid = np.linspace(-8 * nu, 8 * nu, 4001)
        for h, dh in stein.stein_test_family():
            sol = stein.stein_solve(stein.SteinProblem(h, dh, nu), grid)
            worst = min(worst, min(stein.stein_bound_margins(sol, nu).values()))
    return CheckResult("stein-bounds", worst >= -1e-9, worst, -1e-9,
                       "min margin over the 20-function family, nu in {0.1,0.25,1}")


def _check_stein_identity(cfg, _rng):
    worst = 0.0
    for nu in (0.25, 1.0):
        grid = np.linspace(-9 * nu, 9 * nu, 3001)
        for h, dh in stein.stein_test_family()[:6]:
            sol = stein.stein_solve(stein.SteinProblem(h, dh, nu), grid)
            w = np.exp(-0.5 * (grid / nu) ** 2)
            w /= np.trapezoid(w, grid)
            val = np.trapezoid((nu ** 2 * sol.df - grid * sol.f) * w, grid)
            worst = max(worst, abs(val))
    return CheckResult("stein-identity", worst <= 1e-8, worst, 1e-8)


def _check_exclusion_stationarity(cfg, _rng):
    fns = [lambda x: x, lambda x: x ** 2, lambda x: x ** 3, np.tanh]
    worst = 0.0
    for (n, ell) in ((64, 32), (256, 64), (1024, 512)):
        pmf = stein.hypergeom_zeta_pmf(n, ell)
        for f in fns:
            worst = max(worst, abs(float(pmf.probs @ stein.exclusion_apply(n, ell, f))))
    return CheckResult("exclusion-stationarity", worst <= 1e-10, worst, 1e-10)


def _check_exclusion_residual(cfg, _rng):
    cases = {
        "x^2": (lambda x: x ** 2, lambda x: 2 * x,
                lambda x: 2 * np.ones_like(x), lambda x: np.zeros_like(x)),
        "x^3": (lambda x: x ** 3, lambda x: 3 * x ** 2,
                lambda x: 6 * x, lambda x: 6 * np.ones_like(x)),
        "tanh": (np.tanh, lambda x: 1 / np.cosh(x) ** 2,
                 lambda x: -2 * np.tanh(x) / np.cosh(x) ** 2,
                 lambda x: (4 * np.tanh(x) ** 2 - 2 / np.cosh(x) ** 2) / np.cosh(x) ** 2),
    }
    worst = np.inf
    for (n, ell) in ((64, 32), (256, 64), (1024, 512)):
        for fns in cases.values():
            res = stein.exclusion_stein_residual(n, ell, *fns)
            worst = min(worst, res.min_margin)
    return CheckResult("exclusion-residual-bounds", worst >= -1e-12, worst, -1e-12)


def _check_coupling(cfg, rng):
    fixed = np.random.default_rng(20240603)
    worst = 0
    for _ in range(50):
        n0 = int(fixed.integers(1, 40))
        n1 = int(fixed.integers(1, 40))
        part = model.BlockPartition(n0, n1)
        x = (int(fixed.integers(0, n0 + 1)), int(fixed.integers(0, n1 + 1)))
        y = (int(fixed.integers(0, n0 + 1)), int(fixed.integers(0, n1 + 1)))
        eta, etap = model.couple_by_block_counts(part, x, y, fixed)
        got = int(np.sum(eta != etap))
        want = abs(x[0] - y[0]) + abs(x[1] - y[1])
        worst = max(worst, abs(got - want))
        if (int(eta[:n0].sum()), int(eta[n0:].sum())) != x:
            worst = max(worst, 1)
        if (int(etap[:n0].sum()), int(etap[n0:].sum())) != y:
            worst = max(worst, 1)
    return CheckResult("coupling-disagreements", worst == 0, float(worst), 0.0)


def _check_coupling_uniformity(cfg, rng):
    part = model.BlockPartition(6, 5)
    x, y = (2, 3), (4, 1)
    draws = max(20000, cfg.samples * 10)
    eta, _ = model.couple_by_block_counts(part, x, y, rng, size=draws)
    freq = eta.mean(axis=0)
    target = np.concatenate([np.full(6, x[0] / 6.0), np.full(5, x[1] / 5.0)])
    se = np.sqrt(target * (1 - target) / draws)
    z = float(np.max(np.abs(freq - target) / se))
    return CheckResult("coupling-uniformity", z <= 4.5, z, 4.5, "max z-score across sites")


def _check_gaussian_coupling(cfg, _rng):
    fixed = np.random.default_rng(20240604)
    # one row per tuple, drawn in the order (var_x, var_y, var_z, rho)
    draws = fixed.uniform([0.05, 0.05, 0.05, -1.0], [5.0, 5.0, 5.0, 1.0],
                          size=(max(10000, cfg.samples * 5), 4))
    var_x, var_y, var_z, rho = draws.T
    cov_yz = rho * np.sqrt(var_y * var_z)
    _, _, mse = diffusion.gaussian_coupling(var_x, var_y, cov_yz, var_z)
    worst = float(np.min(diffusion.gaussian_coupling_bound(var_x, var_y, cov_yz, var_z) - mse))
    return CheckResult("gaussian-coupling-bound", worst >= -1e-12, worst, -1e-12,
                       "min bound slack over random admissible tuples")


def _check_block_mean_identity(cfg, rng):
    worst = 0.0
    for n, n1 in ((50, 20), (1000, 500), (4096, 1111)):
        params = model.ModelParams(n, cfg.a, cfg.b)
        part = model.BlockPartition(n - n1, n1)
        a0, a1 = part.weights
        for t in (0.0, 0.5, 3.0, 40.0):
            m0t, m1t = diffusion.block_mean_ode(params, part, t)
            m = diffusion.mean_ode(params, a1, t)
            worst = max(worst, abs(a0 * m0t + a1 * m1t - m))
    return CheckResult("block-mean-identity", worst <= 1e-12, worst, 1e-12)


# x, x^2, x^3 and a fixed quintic, lowest degree first
_DECAY_FAMILY = ((0.0, 1.0), (0.0, 0.0, 1.0), (0.0, 0.0, 0.0, 1.0),
                 (0.3, -1.2, 0.5, 2.0, -1.5, 0.7))


def _sup_abs_unit(coef) -> float:
    """sup |p| on [0, 1], attained at 0, at 1 or at a critical point of p."""
    crit = np.clip(np.real(npoly.polyroots(npoly.polyder(coef))), 0.0, 1.0)
    return float(np.max(np.abs(npoly.polyval(np.r_[0.0, 1.0, crit], coef))))


def _check_derivative_decay(cfg, _rng):
    """|d^k P_t f| <= e^{-lambda_k t} sup |f^(k)|, evaluated exactly.

    Each ratio sup |e^{lambda_k t} d^k P_t f| / sup |f^(k)| must stay at most
    1; f = x (k = 1) and f = x^2 (k = 2) attain the bound, so theirs must equal 1.
    """
    wf = diffusion.WFParams(cfg.a, cfg.b)
    excess = equality_gap = 0.0
    strict = -np.inf
    for coef in _DECAY_FAMILY:
        for k in (1, 2):
            deriv_sup = _sup_abs_unit(npoly.polyder(coef, k))
            if deriv_sup == 0.0:
                continue
            for t in (0.05, 0.5, 2.0):
                ratio = _sup_abs_unit(diffusion.wf_semigroup(wf, coef, t, k)) / deriv_sup
                excess = max(excess, ratio - 1.0)
                if len(coef) == k + 1:
                    equality_gap = max(equality_gap, abs(ratio - 1.0))
                else:
                    strict = max(strict, ratio)
    measured = max(excess, equality_gap)
    return CheckResult("derivative-decay", measured <= 1e-10, measured, 1e-10,
                       f"equality cases x, x^2 off 1 by {equality_gap:.3e}; "
                       f"largest other ratio {strict:.3e}")


def _check_density_apriori(cfg, _rng):
    worst = -np.inf
    for n in (100, 1000):
        params = model.ModelParams(n, cfg.a, cfg.b)
        m0 = np.floor(cfg.m0 * n + 0.5) / n
        gsup = float(np.max(diffusion.density_noise(params, np.linspace(0, 1, 201))))
        for t in (1.0, 10.0, float(n) / 10.0, float(n)):
            msd = diffusion.density_variance(params, m0, t)
            bound = gsup / (2 * (cfg.a + cfg.b)) * (1 - np.exp(-2 * (cfg.a + cfg.b) * t / n))
            worst = max(worst, msd - bound)
    return CheckResult("density-apriori", worst <= 0.0, worst, 0.0,
                       "exact mean-square density deviation vs Gronwall bound")


def _check_w1_scaling(cfg, rng):
    # informational diagnostic: empirical W1 self-distance scaling constant
    consts = []
    for size in (500, 1000, 2000, 4000):
        vals = [transport.w1_sorted(rng.normal(size=size), rng.normal(size=size))
                for _ in range(4)]
        consts.append(np.mean(vals) * np.sqrt(size))
    return CheckResult("w1-sample-scaling", True, float(np.mean(consts)), np.inf,
                       f"self-distance * sqrt(N) per N: {np.round(consts, 3).tolist()} (logged only)")


_VALIDATE_CHECKS = (
    _check_rates, _check_detailed_balance, _check_uniform_variance,
    _check_translation, _check_pushforward, _check_stein_bounds,
    _check_stein_identity, _check_exclusion_stationarity, _check_exclusion_residual,
    _check_coupling, _check_coupling_uniformity, _check_gaussian_coupling,
    _check_block_mean_identity, _check_derivative_decay, _check_density_apriori,
    _check_w1_scaling,
)


def run_validate(cfg: ExperimentConfig):
    """Execute every module's invariant checks; nonzero exit on any failure."""
    results, runtimes = [], []
    for i, check in enumerate(_VALIDATE_CHECKS):
        rng = replica_stream(cfg.seed, "validate-mc", i)
        start = time.perf_counter()
        results.append(check(cfg, rng))
        runtimes.append(time.perf_counter() - start)
    records = []
    for r in results:
        records.append(ResultRecord(f"validate:{r.name}", cfg.n[0], cfg.a, cfg.b, cfg.m0,
                                    0.0, r.measured,
                                    0.0, r.tolerance if np.isfinite(r.tolerance) else None,
                                    None, cfg.seed))
    # wall seconds go to the manifest and the report only, never to results.csv
    report = {r.name: {"passed": bool(r.passed), "measured": float(r.measured),
                       "tolerance": float(r.tolerance), "note": r.note, "runtime_s": secs}
              for r, secs in zip(results, runtimes)}
    ok = all(r.passed for r in results)
    extra = {"validate": {"ok": ok, "checks": report}}
    return records, extra


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

_RUNNERS = {
    "profile": run_profile,
    "thermalize": run_thermalize,
    "qclt-rate": run_qclt_rate,
    "stein-rate": run_stein_rate,
    "mixing-curve": run_mixing_curve,
    "validate": run_validate,
}


def run(cfg: ExperimentConfig) -> int:
    """Run one scenario, persist results.csv + manifest.json, return exit code."""
    start = time.perf_counter()
    records, extra = _RUNNERS[cfg.scenario](cfg)
    elapsed = time.perf_counter() - start
    extra = dict(extra or {})
    extra["wall_time_s"] = elapsed
    write_results(records, cfg.out)
    write_manifest(cfg, cfg.out, records, extra)
    if cfg.scenario == "validate":
        report = extra["validate"]
        with open(Path(cfg.out) / "validate_report.json", "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        for name, info in report["checks"].items():
            status = "pass" if info["passed"] else "FAIL"
            print(f"{status:4s} {name}: measured={info['measured']:.3e} "
                  f"tol={info['tolerance']:.3e} ({info['runtime_s']:.2f} s) {info['note']}")
        if not report["ok"]:
            return 4
    return 0
