"""Declarative experiment runner for the convergence suite.

Each scenario composes the model, diffusion, transport and Stein modules to
measure one headline quantity: the distance-to-stationarity profile, the
thermalization cut-off profile, the density QCLT rate, the hypergeometric CLT
rate, the no-cutoff mixing curve, or the full invariant validation sweep.
The three exact scenarios (profile, qclt-rate, mixing-curve) are built from
shared steps: per n, ``_density_laws`` makes the one exact-law call and
puts the whole time grid on the density lattice {0, 1/n, ..., 1}; per
distinct start, ``_wf_references`` builds the exact Wright-Fisher marginals;
and ``_w1_to_references`` measures the laws of every size against them, one
crossing search per marginal.
``SCENARIOS`` names every scenario once, with its runner and default grid.
A ``ResultRecord`` holds what varies per row; ``write_results`` takes the
run constants a, b and seed from the config.  Runs are seed-exact: a config
(including seed) maps to byte-identical results.csv output; wall-clock
timings live in manifest.json only.
"""

from __future__ import annotations

import csv
import itertools
import json
import numbers
import time
from collections import Counter
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.linalg import expm

from . import __version__, diffusion, model, stein, transport
from .errors import ConfigError, DiagnosticError
# empirical_pmf is not called here; perfbench/spans.py wraps it under this name
from .pmf import Pmf, empirical_pmf, point_mass

# fixed stream ids so every random draw hangs off (seed, purpose, index...);
# retired ids are not reused, so the remaining streams keep their draws
# (id 2 was profile's Monte Carlo branch, id 6 validate's coupling-uniformity
# draws)
_STREAM = {"thermalize": 5}


def replica_stream(seed: int, purpose: str, *indices: int) -> np.random.Generator:
    """Independent generator for (master seed, purpose, replica indices)."""
    key = (_STREAM[purpose],) + tuple(int(i) for i in indices)
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=key))


def _number(name: str, value, integral: bool):
    """``value`` as an int when ``integral``, else as a float; ConfigError otherwise."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or integral and not float(value).is_integer()):
        kind = "an integer" if integral else "a number"
        raise ConfigError(f"{name} must be {kind}, got {value!r}")
    return int(value) if integral else float(value)


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

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}; "
                              f"choose from {tuple(SCENARIOS)}")
        if not isinstance(self.n, (tuple, list)):
            object.__setattr__(self, "n", (self.n,))
        for field in fields(self)[1:]:
            name, value = field.name, getattr(self, field.name)
            integral = name in ("n", "ell", "samples", "repetitions", "seed")
            if name == "out":
                if not isinstance(value, str):
                    raise ConfigError(f"out must be a directory name, got {value!r}")
            elif name in ("n", "grid", "eps"):
                if not isinstance(value, (tuple, list)):
                    raise ConfigError(f"{name} must be a list of numbers, got {value!r}")
                value = tuple(_number(name, v, integral) for v in value)
            elif name != "ell" or value is not None:
                value = _number(name, value, integral)
            object.__setattr__(self, name, value)
        ns = self.n
        if not ns or any(v < 1 for v in ns):
            raise ConfigError("n must be one or more positive integers")
        if self.ell is not None and not (
                self.scenario == "thermalize" or self.scenario == "stein-rate" and len(ns) == 1):
            raise ConfigError("ell applies only to thermalize and single-size stein-rate")
        if not (self.a > 0 and self.b > 0 and np.isfinite(self.a) and np.isfinite(self.b)):
            raise ConfigError("a and b must be positive and finite")
        if not 0.0 < self.m0 < 1.0:
            raise ConfigError("m0 must lie strictly inside (0, 1)")
        grid = self.grid or SCENARIOS[self.scenario][1]
        if self.scenario not in ("stein-rate", "validate"):
            if not grid:
                raise ConfigError("grid must be nonempty")
            if not np.isfinite(grid).all():
                raise ConfigError("grid values must be finite")
            if any(g2 <= g1 for g1, g2 in zip(grid, grid[1:])):
                raise ConfigError("grid must be strictly increasing")
            if self.scenario != "thermalize" and grid[0] < 0:
                raise ConfigError("time grid must be nonnegative")
            if self.scenario != "thermalize" and not np.isfinite(max(ns) * grid[-1]):
                raise ConfigError(f"time n*t overflows at n = {max(ns)}, t = {grid[-1]:g}")
        object.__setattr__(self, "grid", grid)
        if self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        if not 0 < self.tol <= 1e-6:
            raise ConfigError("tol must lie in (0, 1e-6]")
        eps = self.eps
        if not eps or not all(0 < e < np.inf for e in eps) or len(set(eps)) != len(eps):
            raise ConfigError("eps must be distinct positive thresholds")
        if self.scenario in ("stein-rate", "thermalize"):
            for n in ns:
                if not 1 <= self.particle_count(n) <= n - 1:
                    raise ConfigError(f"particle count at n={n} must lie in [1, n-1]")
        if self.scenario == "thermalize":
            # the one scenario that reads samples and repetitions
            if self.samples < 100:
                raise ConfigError("thermalize needs at least 100 samples")
            if self.repetitions < 2:
                raise ConfigError("thermalize needs at least 2 repetitions")
            if len(ns) != 1:
                raise ConfigError("thermalize runs at a single n")
            n = ns[0]
            m0e = self.particle_count(n) / n
            if m0e * (1 - m0e) < n ** (-1.0 / 3.0):
                raise ConfigError("m0(1-m0) must be at least n^(-1/3) for thermalization")
            if thermalization_times(n, self.particle_count(n), grid[:1])[0] < 0:
                raise ConfigError("smallest tau gives a negative thermalization time")
        if self.scenario == "qclt-rate":
            if len(ns) < 3:
                raise ConfigError("qclt-rate needs a sweep of at least 3 sizes")
            if any(n2 != 2 * n1 for n1, n2 in zip(ns, ns[1:])):
                raise ConfigError("qclt-rate sweep must be dyadic (each size double the last)")
            if len(grid) != 1:
                raise ConfigError("qclt-rate uses a single observation time")
            if grid[0] == 0:
                # both laws are the point mass at the start: every distance is 0
                raise ConfigError("qclt-rate needs a positive observation time")
        if self.scenario == "mixing-curve" and len(ns) < 2:
            raise ConfigError("mixing-curve needs at least two sizes to measure drift")

    def particle_count(self, n: int) -> int:
        """Initial particle count at size ``n``: ``ell`` when given, else m0*n
        rounded.  The one start-count rule of every scenario."""
        return int(np.floor(self.m0 * n + 0.5)) if self.ell is None else self.ell


# model parameters, nested under "params" in the JSON schema
_PARAM_KEYS = ("n", "a", "b", "m0", "ell")


def config_from_json(path) -> dict:
    """Flatten the on-disk schema {scenario, params{...}, grid, ...} to kwargs."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    params = raw.pop("params", {}) if isinstance(raw, dict) else None
    if not isinstance(params, dict):
        raise ConfigError('a config file is a JSON object with the model parameters under "params"')
    top_keys = {f.name for f in fields(ExperimentConfig)} - set(_PARAM_KEYS)
    unknown = set(raw) - top_keys | set(params) - set(_PARAM_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return {**params, **raw}


@dataclass(frozen=True)
class ResultRecord:
    """One output row: estimate (with error bar) against theory when known.
    The run constants a, b and seed come from the config (``write_results``)."""

    scenario: str
    n: int
    m0: float
    t_or_tau: float
    estimate: float
    stderr: float = 0.0
    theory: float | None = None


CSV_COLUMNS = ("scenario", "n", "a", "b", "m0", "t_or_tau",
               "estimate", "stderr", "theory", "runtime_s", "seed")


def write_results(cfg: ExperimentConfig, records) -> Path:
    """Write results.csv to ``cfg.out`` deterministically: the runtime_s
    column stays empty, because wall-clock timings go to the manifest so
    reruns are byte-identical."""
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "results.csv"
    a, b = repr(float(cfg.a)), repr(float(cfg.b))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow([
                r.scenario, r.n, a, b, repr(float(r.m0)),
                repr(float(r.t_or_tau)), repr(float(r.estimate)), repr(float(r.stderr)),
                "" if r.theory is None else repr(float(r.theory)), "", cfg.seed,
            ])
    return path


def write_manifest(cfg: ExperimentConfig, records, extra=None) -> Path:
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    theory_check = []
    for r in records:
        # a validate row's theory column is its check's tolerance, not a prediction
        if r.theory is not None and r.theory != 0 and not r.scenario.startswith("validate:"):
            rel = abs(r.estimate - r.theory) / abs(r.theory)
            theory_check.append({
                "scenario": r.scenario, "n": r.n, "t_or_tau": r.t_or_tau,
                "rel_error": rel, "flagged": bool(rel > _declared_tolerance(r)),
            })
    payload = {
        "config": {f.name: getattr(cfg, f.name) for f in fields(cfg)},
        "artifact_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "theory_check": theory_check,
    }
    if extra:
        payload.update(extra)
    path = outdir / "manifest.json"
    path.write_text(json.dumps(payload, indent=2, default=float) + "\n", encoding="utf-8")
    return path


def _declared_tolerance(r: ResultRecord) -> float:
    if r.scenario.startswith("thermalize"):
        return 0.15 if abs(r.t_or_tau) <= 1.0 else 0.20
    if r.scenario == "qclt-rate:slope":
        return 0.30
    return np.inf


class _DensityLaws(NamedTuple):
    """Exact density laws at one size n on the lattice {0, 1/n, ..., 1}:
    column j of ``probs`` is the law at time n * cfg.grid[j] from the
    density ``start`` = particle_count(n)/n, and ``stationary`` is the
    stationary law."""

    start: float
    lattice: np.ndarray
    probs: np.ndarray
    stationary: np.ndarray

    def columns(self) -> list[Pmf]:
        """The law at each grid time, as a pmf on the lattice."""
        return [Pmf(self.lattice, col) for col in self.probs.T]

    def to_stationary(self) -> np.ndarray:
        """Exact W1 from every column to the stationary density law, at once."""
        return transport.w1_lattice(self.probs, Pmf(self.lattice, self.stationary))

    def start_distance(self) -> float:
        """Exact W1 from the law at t = 0, the point mass at ``start``, to the
        stationary density law."""
        start = (self.lattice == self.start)[:, None]
        return float(transport.w1_lattice(start, Pmf(self.lattice, self.stationary))[0])


def _density_laws(cfg: ExperimentConfig, n: int, law_info: dict) -> _DensityLaws:
    """The per-n step of the exact scenarios: the count laws at every time
    n*t, t in ``cfg.grid``, from the start count ``cfg.particle_count(n)`` by
    one ``model.transient_laws`` call, as density laws on one lattice
    ``arange(n + 1) / n``.  Its start point is particle_count(n)/n exactly,
    so at t = 0 the law is the point mass of ``_wf_references``.

    Records under ``law_info[str(n)]`` the manifest's account of the grid:
    how many columns are the start law (t = 0), came from the spectral
    product or were refilled by uniformization, the eigenmodes used, their
    eigenvector route (``"hahn"``, ``"full"``, ``"dstein"``, or ``"none"``
    when no column is spectral) and the largest a-priori error bound of the
    spectral columns.  When the Hahn recurrence was tried and its
    certificate rejected it, the route is the LAPACK one that ran and
    ``hahn_certificate`` gives the two readings (``residual`` in units of
    (n+1) eps |T|_inf, ``orthonormality`` in units of (n+1) eps).  The
    stationary law comes with the laws, from the same call.
    """
    params = model.ModelParams(n, cfg.a, cfg.b)
    ts = n * np.asarray(cfg.grid)
    k0 = cfg.particle_count(n)
    laws = model.transient_laws(params, k0, ts, cfg.tol)
    start = int(np.count_nonzero(ts == 0))
    uniformized = int(laws.refilled.sum())
    law_info[str(n)] = info = {"columns": ts.size, "start": start,
                               "spectral": ts.size - start - uniformized,
                               "uniformized": uniformized, "modes": laws.modes,
                               "eigen_route": laws.route, "apriori_bound": laws.bound}
    if laws.certificate:
        info["hahn_certificate"] = laws.certificate
    lattice = np.arange(n + 1) / n
    return _DensityLaws(float(lattice[k0]), lattice, laws.probs, laws.stationary.probs)


def _wf_references(cfg: ExperimentConfig):
    """The per-start step of ``profile`` and ``qclt-rate``: for each distinct
    start m0 = particle_count(n)/n, the exact Wright-Fisher marginal from m0
    at every grid time (the point mass at m0 at t = 0, else
    ``diffusion.wf_marginal``).  Exact, so no time step and no sampling
    noise: the manifest summary gives the starts, the longest series per
    grid time and the largest rounding bound.  It also opens the account of
    the crossing searches that ``_w1_to_references`` adds to: one search per
    marginal, however many laws are measured against it.
    """
    wf = diffusion.WFParams(cfg.a, cfg.b)
    refs = {m0: [point_mass(m0) if t == 0 else diffusion.wf_marginal(wf, m0, t, cfg.tol)
                 for t in cfg.grid]
            for m0 in dict.fromkeys(cfg.particle_count(n) / n for n in cfg.n)}
    series = [[getattr(ref, "series_terms", 0) for ref in per_start] for per_start in refs.values()]
    summary = {"starts": list(refs),
               "series_terms": [max(per_time) for per_time in zip(*series)],
               "rounding_bound": max(getattr(ref, "rounding_bound", 0.0)
                                     for per_start in refs.values() for ref in per_start),
               "crossing_passes": 0, "crossing_bound": 0.0}
    return refs, summary


def _w1_to_references(pairs, summary: dict) -> list[float]:
    """Exact W1 of each (pmf, reference) pair, in order.  A point-mass
    reference (t = 0) is measured by ``transport.w1_discrete``.  The pmfs
    paired with one Wright-Fisher marginal object (``_wf_references`` builds
    one per start and grid time) are measured against it by one crossing
    search over all of them (``transport._w1_vs_wf_search``), which gives
    each distance bit for bit as a search of its own would.  Each
    search is added to ``summary``: its CDF passes to ``crossing_passes``
    (summed over the run's searches) and its distances' sums of the cells'
    a-posteriori crossing bounds to ``crossing_bound`` (the largest over the
    run's distances)."""
    out = [0.0] * len(pairs)
    by_ref = {}
    for i, (_, ref) in enumerate(pairs):
        by_ref.setdefault(id(ref), []).append(i)
    for members in by_ref.values():
        ref = pairs[members[0]][1]
        pmfs = [pairs[i][0] for i in members]
        if isinstance(ref, Pmf):
            values = [transport.w1_discrete(p, ref) for p in pmfs]
        else:
            values, bounds, passes = transport._w1_vs_wf_search(pmfs, ref)
            summary["crossing_passes"] += passes
            summary["crossing_bound"] = max(summary["crossing_bound"], *bounds)
        for i, value in zip(members, values):
            out[i] = value
    return out


# ---------------------------------------------------------------------------
# profile
# ---------------------------------------------------------------------------

def run_profile(cfg: ExperimentConfig):
    """Distance of the density law at time n*t to (i) the Wright-Fisher
    marginal and (ii) the rescaled stationary law, per grid time.

    The diffusion marginal is exact and starts where the chain does
    (``_wf_references``).  The density law is exact at every n, the whole
    grid from the slow modes in one ``_density_laws`` step, so every stderr
    is 0.  The ``profile:stationary`` theory is the paper's limit profile
    D(t) = W1(Wright-Fisher marginal at t, Beta(a, b)) from the same start.
    The laws of every size come first; then each marginal, one per
    (start, grid time), takes one crossing search over the laws of all the
    sizes that share it, and Beta(a, b) one over the t = 0 limits of every
    start (``_w1_to_references``).  The manifest's ``profile`` block is the
    ``_wf_references`` summary with the account of those searches.
    """
    refs, summary = _wf_references(cfg)
    beta = diffusion.wf_marginal(diffusion.WFParams(cfg.a, cfg.b), 0.0, np.inf)
    at_zero = iter(_w1_to_references([(ref, beta) for per_start in refs.values()
                                      for ref in per_start if isinstance(ref, Pmf)], summary))
    limits = {m0: [next(at_zero) if isinstance(ref, Pmf) else ref.stationary_distance()
                   for ref in per_start]
              for m0, per_start in refs.items()}
    law_info = {}
    sizes = [_density_laws(cfg, n, law_info) for n in cfg.n]
    to_wf = iter(_w1_to_references([pair for laws in sizes
                                    for pair in zip(laws.columns(), refs[laws.start])], summary))
    records = []
    for n, laws in zip(cfg.n, sizes):
        m0 = laws.start
        for t, d_stat, limit in zip(cfg.grid, laws.to_stationary(), limits[m0]):
            records.append(ResultRecord("profile:wf", n, m0, t, next(to_wf)))
            records.append(ResultRecord("profile:stationary", n, m0, t, float(d_stat),
                                        theory=limit))
    return records, {"profile": summary, "exact_laws": law_info}


# ---------------------------------------------------------------------------
# qclt-rate
# ---------------------------------------------------------------------------

def run_qclt_rate(cfg: ExperimentConfig):
    """Log-log rate of the density-vs-Wright-Fisher distance over a dyadic
    n-sweep at a fixed observation time.

    Both laws are exact, from ``_density_laws`` and ``_wf_references``, so
    the distances carry no Monte Carlo or time-step error and their stderr
    is 0.  The laws of every size come first; then each start's marginal
    takes one crossing search over the laws of all the sizes that share it
    (``_w1_to_references``), one search in all for a dyadic sweep at
    m0 = 1/2.  ``halving_gap`` and ``reference_noise_floor`` stay in the
    manifest at their exact value 0; ``crossing_passes`` is the passes of
    those searches and ``crossing_bound`` the largest distance's bound.  The
    config holds t > 0, where the marginal has a density on (0, 1) and so a
    positive distance to every lattice law.
    """
    t = cfg.grid[0]
    refs, summary = _wf_references(cfg)
    law_info = {}
    sizes = [_density_laws(cfg, n, law_info) for n in cfg.n]
    dists = _w1_to_references([(laws.columns()[0], refs[laws.start][0]) for laws in sizes],
                              summary)
    records = [ResultRecord("qclt-rate", n, cfg.m0, t, d) for n, d in zip(cfg.n, dists)]
    if not min(dists) > 0:
        raise DiagnosticError(f"qclt-rate distance {min(dists)!r} at t={t:g} has no log")
    coeffs, cov = np.polyfit(np.log(np.asarray(cfg.n, dtype=float)), np.log(dists), 1, cov=True)
    slope = float(coeffs[0])
    slope_err = float(np.sqrt(cov[0, 0]))
    records.append(ResultRecord("qclt-rate:slope", cfg.n[-1], cfg.m0, t, slope, slope_err, -0.5))
    # t > 0, so every reference is a Jacobi series
    extra = {"qclt": {"slope": slope, "slope_stderr": slope_err, "reference": "jacobi-series",
                      "series_terms": summary["series_terms"][0],
                      "rounding_bound": summary["rounding_bound"], "starts": summary["starts"],
                      "crossing_passes": summary["crossing_passes"],
                      "crossing_bound": summary["crossing_bound"],
                      "halving_gap": 0.0, "reference_noise_floor": 0.0},
             "exact_laws": law_info}
    return records, extra


# ---------------------------------------------------------------------------
# thermalize
# ---------------------------------------------------------------------------

def thermalization_times(n: int, ell: int, taus) -> np.ndarray:
    """The times (1/2) log n + log m0(1-m0) + tau, m0 = ell/n, of ``taus``."""
    m0 = ell / n
    return 0.5 * np.log(n) + np.log(m0 * (1 - m0)) + np.asarray(taus, dtype=float)


def thermalize_distance(params: model.ModelParams, ell: int, t: float) -> float:
    """Exact thermalization distance 2 sqrt(n) m0 (1-m0) e^{-(1+(a+b)/n) t},
    m0 = ell/n: the l1 Kantorovich distance, over sqrt(n), between the
    block-count laws at time t from the fixed and the uniform start (see
    ``run_thermalize`` for why it is exact).  The decay is
    ``model.block_decay``, the relaxation of ``model.block_mean_ode``."""
    m0 = ell / params.n
    return float(2.0 * np.sqrt(params.n) * m0 * (1 - m0) * model.block_decay(params, t))


def thermalize_clouds(params: model.ModelParams, part: model.BlockPartition, horizons,
                      samples: int, repetitions: int, seed: int):
    """The (fixed, uniform) block counts that ``run_thermalize`` matches,
    int arrays of shape (H, repetitions x samples, 2) at the H ``horizons``,
    repetition r in columns [r samples, (r+1) samples) and drawn from
    ``replica_stream(seed, "thermalize", r)``, after ``model.check_event_budget``.

    One event loop runs the fixed-start (0, n1) replicas.  The uniform start
    is exchangeable and the dynamics are permutation invariant, so given the
    total X its block-1 count is Hypergeometric(n, n1, X), and X, the count
    chain from ell, is the same for both starts: each uniform replica is
    drawn at each horizon from its fixed partner's total, an iid sample of
    the uniform-start law tied to the fixed cloud only through the totals.
    """
    model.check_event_budget(params, horizons[-1], repetitions * samples)
    rngs = [replica_stream(seed, "thermalize", rep) for rep in range(repetitions)]
    start = np.tile(np.array([[0, part.n1]], dtype=np.int64), (repetitions * samples, 1))
    fixed = model.simulate_blocks_batch(params, part, start, horizons, rngs)
    uniform = np.empty_like(fixed)
    for rep, rng in enumerate(rngs):
        cols = slice(samples * rep, samples * (rep + 1))
        uniform[:, cols, 0], uniform[:, cols, 1] = model.sample_uniform_given_count(
            params, part, fixed[:, cols].sum(axis=2), rng)
    return fixed, uniform


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
    is optimal.  By ``model.block_mean_ode`` the imbalance gap starts at
    2 n m0 (1-m0) and relaxes at rate 1 + (a+b)/n, so at the times above the
    distance is 2 e^{-tau} e^{-(a+b) t/n}.

    The clouds come from ``thermalize_clouds``: only the fixed-start ones are
    simulated, and the uniform ones share their totals, as in the coupling
    above.  By joint convexity of W1 the matching estimate stays biased
    upward and consistent.

    The manifest's ``thermalize`` block lists, per tau, the exact distance,
    the Monte Carlo bias (estimate minus exact) and the estimate's stderr.
    Its ``thermalize_work`` block gives the wall seconds spent simulating the
    clouds (``simulate_s``), importing the matching solvers (``import_s``,
    which a first matching would otherwise pay) and matching them, summed
    over repetitions, the number of ``replicas`` the loop ran (repetitions x
    samples), the number of matchings (repetitions x taus), how many of them
    were ``certified``, the assignment rows solved in the others
    (``solved_rows``; 0 for a certified matching) and the pairs matched in
    all of them.  ``samples`` above ``transport.MATCHING_CAP``, and an
    expected event count over ``model.check_event_budget``'s budget, raise
    ``CapacityError`` before anything is simulated.

    Each uniform replica holds its fixed partner's total, so the two clouds
    of a matching share their multiset of totals.  Sorting both by (total,
    block-0 count) and pairing by rank is then the empirical form of the
    ordered coupling above, and ``transport.w1_matching`` returns it without
    the assignment solve (a ``MatchingCost`` of 0 rows) whenever its cost
    equals the sum of the two per-coordinate 1-D distances, a lower bound on
    every matching.  ``certified`` counts those; the values are the solve's
    either way.  The other matchings solve only the points the two clouds do
    not share: a shared point matched to its twin costs 0, and by uncrossing
    (the triangle inequality) some optimal matching pairs every shared point
    so, so the value is again the full solve's.
    """
    transport.check_matching_size(cfg.samples)
    n = cfg.n[0]
    params = model.ModelParams(n, cfg.a, cfg.b)
    ell = cfg.particle_count(n)
    part = model.BlockPartition(n - ell, ell)
    m0e = ell / n
    taus = np.asarray(cfg.grid)
    horizons = thermalization_times(n, ell, taus)
    pairs = cfg.samples
    sqrt_n = np.sqrt(n)
    reps = cfg.repetitions
    start = time.perf_counter()
    states, uniform = thermalize_clouds(params, part, horizons, pairs, reps, cfg.seed)
    simulated = time.perf_counter()
    transport.matching_solvers()
    imported = time.perf_counter()
    values = np.empty((reps, len(taus)))
    certified = solved_rows = 0
    for rep in range(reps):
        cols = slice(pairs * rep, pairs * (rep + 1))
        for i in range(len(taus)):
            dist = transport.w1_matching(states[i, cols].astype(float),
                                         uniform[i, cols].astype(float), metric="cityblock")
            certified += dist.rows == 0
            solved_rows += dist.rows
            values[rep, i] = dist / sqrt_n
    work = {"simulate_s": simulated - start, "import_s": imported - simulated,
            "matching_s": time.perf_counter() - imported,
            "replicas": reps * pairs, "matchings": reps * len(taus), "certified": certified,
            "solved_rows": solved_rows, "pairs": reps * len(taus) * pairs}
    records, checks = [], []
    for i, tau in enumerate(taus):
        theory = 2.0 * np.exp(-tau)
        est = float(values[:, i].mean())
        err = float(values[:, i].std(ddof=1) / np.sqrt(reps))
        surrogate = thermalize_distance(params, ell, horizons[i])
        records.append(ResultRecord("thermalize", n, m0e, float(tau), est, err, theory))
        records.append(ResultRecord("thermalize:surrogate", n, m0e, float(tau),
                                    float(surrogate), theory=theory))
        checks.append({"tau": float(tau), "exact": surrogate,
                       "mc_bias": est - surrogate, "mc_stderr": err})
    return records, {"thermalize": checks, "thermalize_work": work}


# ---------------------------------------------------------------------------
# mixing-curve
# ---------------------------------------------------------------------------

def _invert_curve(ts, ds, eps):
    """First crossing time of the (decaying) distance curve at level eps,
    log-linear interpolation between bracketing grid points; ``ts[0]`` when
    the curve starts at or below eps."""
    below = np.nonzero(ds <= eps)[0]
    if below.size == 0:
        raise DiagnosticError(f"distance curve never reaches eps={eps}; extend the grid")
    i = below[0]
    if i == 0:
        return float(ts[0])
    # a distance of exactly 0 is an infinitely fast decay: log -inf, frac 0
    with np.errstate(divide="ignore"):
        frac = (np.log(ds[i - 1]) - np.log(eps)) / (np.log(ds[i - 1]) - np.log(ds[i]))
    return float(ts[i - 1] + (ts[i] - ts[i - 1]) * frac)


def run_mixing_curve(cfg: ExperimentConfig):
    """Scaled mixing times t_mix/n at the eps grid, from exact distance
    curves, with the cross-n drift and the eps spread as summary rows.

    A curve already at or below an eps at its first grid time t > 0 is led
    by t = 0, where the law is the start's point mass
    (``_DensityLaws.start_distance``), so that crossing is bracketed from
    there."""
    eps_grid = tuple(sorted(cfg.eps))
    law_info = {}
    grid = np.asarray(cfg.grid)

    def curve(n):
        laws = _density_laws(cfg, n, law_info)
        ds = laws.to_stationary()
        peak = int(np.argmax(ds))
        if np.any(np.diff(ds[peak:]) > 5e-9):
            raise DiagnosticError(f"distance curve non-monotone beyond noise at n={n}")
        if grid[0] > 0 and ds[0] <= eps_grid[-1]:
            return np.r_[0.0, grid], np.r_[laws.start_distance(), ds]
        return grid, ds

    curves = [curve(n) for n in cfg.n]
    tmix = {n: [_invert_curve(ts, ds, e) for e in eps_grid] for n, (ts, ds) in zip(cfg.n, curves)}
    records = []
    for n in cfg.n:
        if not all(v1 > v2 for v1, v2 in zip(tmix[n], tmix[n][1:])):
            raise DiagnosticError("mixing times must decrease strictly in eps")
        for e, tm in zip(eps_grid, tmix[n]):
            records.append(ResultRecord("mixing-curve", n, cfg.m0, float(e), tm))
    n_prev, n_last = cfg.n[-2], cfg.n[-1]
    last = np.asarray(tmix[n_last])
    gap = np.abs(last - np.asarray(tmix[n_prev]))
    drift_abs = float(np.max(gap))
    # a mixing time of 0 (a start already within eps) leaves the relative gap undefined
    drift_rel = float(np.max(gap / last)) if np.all(last > 0) else None
    spread = float(tmix[n_last][0] - tmix[n_last][-1])
    records.append(ResultRecord("mixing-curve:drift", n_last, cfg.m0, 0.0, drift_abs))
    records.append(ResultRecord("mixing-curve:spread", n_last, cfg.m0, 0.0, spread))
    extra = {"mixing": {"tmix_over_n": {str(n): tmix[n] for n in cfg.n},
                        "eps": eps_grid, "drift_abs": drift_abs,
                        "drift_rel": drift_rel, "spread": spread,
                        "no_cutoff": bool(spread > 5.0 * drift_abs)},
             "exact_laws": law_info}
    return records, extra


# ---------------------------------------------------------------------------
# stein-rate
# ---------------------------------------------------------------------------

def run_stein_rate(cfg: ExperimentConfig):
    """Gaussian-limit W1 of the hypergeometric start across the n sweep."""
    records = []
    for n in cfg.n:
        ell = cfg.particle_count(n)
        distance, normalized = stein.hypergeom_gaussian_w1(n, ell)
        m0e = ell / n
        records.append(ResultRecord("stein-rate", n, m0e, 0.0, distance))
        records.append(ResultRecord("stein-rate:normalized", n, m0e, 0.0, normalized))
    return records, {}


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def _rates_boundary(cfg):
    worst = 0.0
    for n in (7, 100, 1024):
        ups, downs = model.count_rates(model.ModelParams(n, cfg.a, cfg.b), np.arange(n + 1))
        worst = max(worst, -ups.min(), -downs.min(), abs(ups[-1]), abs(downs[0]))
    return worst, "nonnegative rates, absorbing ends closed"


def _uniform_variance(cfg):
    worst = 0.0
    for n in (4, 12, 100, 555, 2048, 4096):
        for ell in {1, n // 3, n // 2, n - 1}:
            if 1 <= ell <= n - 1:
                pmf = stein.hypergeom_zeta_pmf(n, ell)
                m0 = ell / n
                target = n / (n - 1) * m0 ** 2 * (1 - m0) ** 2
                worst = max(worst, abs(pmf.var() - target), abs(pmf.mean()))
    return worst


def _translation_draws():
    """The fixed sample of both translation checks: 257 points on the line,
    then 160 in the plane, from one seed-independent generator."""
    rng = np.random.default_rng(20240601)
    return rng.normal(size=257), rng.normal(size=(160, 2))


def _translation_1d(cfg):
    xs, _ = _translation_draws()
    return max(abs(transport.w1_sorted(xs + v, xs) - abs(v)) for v in (-2.5, 0.125, 7.0))


def _translation_2d(cfg):
    _, cloud = _translation_draws()
    return max(abs(transport.w1_matching(cloud + shift, cloud) - np.linalg.norm(shift))
               for shift in np.array([[1.5, -0.25], [0.0, 3.0]]))


# the directions u of the pushforward check's maps p -> u0 x + u1 y: two
# projections of norm 1 and the constant 0
_PUSHFORWARD_DIRECTIONS = ((1.0, 0.0), (0.6, -0.8), (0.0, 0.0))


def _pushforward_draws():
    """The fixed clouds of the pushforward check: five pairs of 120-point
    clouds in the plane, the second shifted by 0.3, from one
    seed-independent generator."""
    rng = np.random.default_rng(20240602)
    return [(rng.normal(size=(120, 2)), rng.normal(loc=0.3, size=(120, 2))) for _ in range(5)]


def _pushforward(cfg):
    worst = -np.inf
    for xs, ys in _pushforward_draws():
        d2, d1 = transport.pushforward_check(xs, ys, _PUSHFORWARD_DIRECTIONS)
        worst = max(worst, d1 - d2)
    return worst


def _stein_family(nu, grid, family, work: Counter) -> list:
    """Solutions of the Stein equations of ``family``'s (h, dh) pairs on one
    lattice of (grid, nu).  The solves, the lattice and the h evaluations at
    quadrature nodes, one per node and solve, are added to ``work``."""
    lattice = stein.stein_lattice(grid, nu)
    work.update(stein_solves=len(family), stein_lattices=1,
                stein_nodes=len(family) * lattice.nodes.size)
    return [lattice.solve(stein.SteinProblem(h, dh, nu)) for h, dh in family]


def _stein_bounds(cfg):
    worst, work = np.inf, Counter()
    for nu in (0.1, 0.25, 1.0):
        grid = np.linspace(-8 * nu, 8 * nu, 4001)
        for sol in _stein_family(nu, grid, stein.stein_test_family(), work):
            worst = min(worst, min(stein.stein_bound_margins(sol, nu).values()))
    return (0.0 - worst, "minus the min margin over the 20-function family, nu in {0.1,0.25,1}",
            work)


def _stein_identity(cfg):
    """Largest residual of the Stein ODE nu^2 f' - x f = h - E h at the
    interior grid points, f' the fourth-order centred difference of the
    solved f, relative to max |h - E h| there.  (The solution's own f' comes
    from the ODE, so it would satisfy the ODE for any f.)"""
    worst, work = 0.0, Counter()
    family = stein.stein_test_family()[:6]
    for nu in (0.25, 1.0):
        grid, step = np.linspace(-9 * nu, 9 * nu, 3001, retstep=True)
        x = grid[2:-2]
        for sol, (h, _) in zip(_stein_family(nu, grid, family, work), family):
            f = sol.f
            df = (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / (12.0 * step)
            centred = np.asarray(h(x), float) - sol.e_h
            residual = np.max(np.abs(nu ** 2 * df - x * f[2:-2] - centred))
            worst = max(worst, float(residual / np.max(np.abs(centred))))
    return (worst, "max ODE residual of f over max |h - E h|, 6 functions, nu in {0.25,1}",
            work)


def _exclusion_stationarity(cfg):
    fns = [lambda x: x, lambda x: x ** 2, lambda x: x ** 3, np.tanh]
    worst = 0.0
    for (n, ell) in ((64, 32), (256, 64), (1024, 512)):
        pmf = stein.hypergeom_zeta_pmf(n, ell)
        for f in fns:
            worst = max(worst, abs(float(pmf.probs @ stein.exclusion_apply(n, ell, f))))
    return worst


def _exclusion_residual(cfg):
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
    return 0.0 - worst, "minus the min margin over x^2, x^3, tanh at three (n, ell)"


# blocks (3, 2) reach every branch of the threshold rule: a count of 0, a
# partial count and a full count in each block
_COUPLING_PART = model.BlockPartition(3, 2)


def _coupled_cases():
    """Every case of ``model.couple_by_block_counts`` at ``_COUPLING_PART``:
    the 3!·2! = 12 pairs of within-block rank orders, as the rows of one
    ranks array, under each of the 12 × 12 pairs of block counts.  Returns
    the count pairs (x, y), shape (144, 2, 2), and the coupled pairs
    (eta, etap), shape (144, 2, 12, 5), with one row per rank order."""
    part = _COUPLING_PART
    ranks = np.array([r0 + r1 for r0 in itertools.permutations(range(part.n0))
                      for r1 in itertools.permutations(range(part.n1))])
    counts = list(itertools.product(range(part.n0 + 1), range(part.n1 + 1)))
    pairs = list(itertools.product(counts, repeat=2))
    configs = [model.couple_by_block_counts(part, x, y, ranks) for x, y in pairs]
    return np.array(pairs), np.array(configs)


def _coupling(cfg):
    """Largest gap, over every case, of a pair's disagreements from
    |x0-y0| + |x1-y1|, or of a configuration's block sums from its counts."""
    pairs, configs = _coupled_cases()
    n0 = _COUPLING_PART.n0
    moved = np.sum(configs[:, 0] != configs[:, 1], axis=2)
    gaps = (moved - np.abs(pairs[:, 0] - pairs[:, 1]).sum(axis=1)[:, None],
            configs[..., :n0].sum(axis=3) - pairs[..., :1],
            configs[..., n0:].sum(axis=3) - pairs[..., 1:])
    return max(int(np.abs(gap).max()) for gap in gaps), "largest integer gap over every case"


def _coupling_uniformity(cfg):
    """Largest gap, over every case and both configurations, of how often the
    12 rank orders hit a configuration from 12 / |fiber| on its block-count
    fiber, all C(3, x0) C(2, x1) configurations of it, and from 0 off it; 12
    is a multiple of every fiber's size."""
    pairs, configs = _coupled_cases()
    n0, n = _COUPLING_PART.n0, _COUPLING_PART.n
    # row c of bits is the configuration whose code, config @ 2^arange(n), is c
    bits = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1
    fiber = ((bits[:, :n0].sum(axis=1) == pairs[..., :1])
             & (bits[:, n0:].sum(axis=1) == pairs[..., 1:]))
    hits = np.sum((configs @ (1 << np.arange(n)))[..., None] == np.arange(2 ** n), axis=2)
    want = fiber * (configs.shape[2] // fiber.sum(axis=2, keepdims=True))
    return int(np.abs(hits - want).max()), "largest gap of a configuration's hits over every case"


def _gaussian_coupling(cfg):
    fixed = np.random.default_rng(20240604)
    # one row per tuple, drawn in the order (var_x, var_y, var_z, rho)
    draws = fixed.uniform([0.05, 0.05, 0.05, -1.0], [5.0, 5.0, 5.0, 1.0], size=(10000, 4))
    var_x, var_y, var_z, rho = draws.T
    cov_yz = rho * np.sqrt(var_y * var_z)
    _, _, mse = diffusion.gaussian_coupling(var_x, var_y, cov_yz, var_z)
    worst = float(np.min(diffusion.gaussian_coupling_bound(var_x, var_y, cov_yz, var_z) - mse))
    return 0.0 - worst, "minus the min bound slack over random admissible tuples"


def _block_mean_identity(cfg):
    """Largest gap between each block's ``model.block_mean_ode`` value and the
    exact solution of the linear block-mean ODE
    dm_i/dt = (a + n0 m0 + n1 m1 - (a+b+n) m_i)/n from (0, 1), the matrix
    exponential of its generator augmented by the constant term."""
    a, b = cfg.a, cfg.b
    ts = np.array([0.0, 0.5, 3.0, 40.0])
    worst = 0.0
    for n, n1 in ((50, 20), (1000, 500), (4096, 1111)):
        params = model.ModelParams(n, a, b)
        part = model.BlockPartition(n - n1, n1)
        n0 = n - n1
        gen = np.array([[n0 - (a + b + n), n1, a],
                        [n0, n1 - (a + b + n), a],
                        [0.0, 0.0, 0.0]]) / n
        exact = expm(gen * ts[:, None, None]) @ [0.0, 1.0, 1.0]
        got = [model.block_mean_ode(params, part, t) for t in ts]
        # np.maximum keeps a NaN reference (expm at huge a + b), so the check fails
        worst = np.maximum(worst, np.max(np.abs(np.subtract(got, exact[:, :2]))))
    return worst, "per-block closed-form means vs expm of the linear mean ODE"


# x, x^2, x^3 and a fixed quintic, lowest degree first
_DECAY_FAMILY = ((0.0, 1.0), (0.0, 0.0, 1.0), (0.0, 0.0, 0.0, 1.0),
                 (0.3, -1.2, 0.5, 2.0, -1.5, 0.7))


def _sup_abs_unit(coef) -> float:
    """sup |p| on [0, 1], attained at 0, at 1 or at a critical point of p."""
    crit = np.clip(np.real(npoly.polyroots(diffusion.poly_derivative(coef))), 0.0, 1.0)
    return float(np.max(np.abs(npoly.polyval(np.r_[0.0, 1.0, crit], coef))))


def _derivative_decay(cfg):
    """|d^k P_t f| <= e^{-lambda_k t} sup |f^(k)|, evaluated exactly.

    Each ratio sup |e^{lambda_k t} d^k P_t f| / sup |f^(k)| must stay at most
    1; f = x (k = 1) and f = x^2 (k = 2) attain the bound, so theirs must equal 1.
    """
    wf = diffusion.WFParams(cfg.a, cfg.b)
    excess = equality_gap = 0.0
    strict = -np.inf
    for coef in _DECAY_FAMILY:
        for k in (1, 2):
            deriv_sup = _sup_abs_unit(diffusion.poly_derivative(coef, k))
            if deriv_sup == 0.0:
                continue
            for t in (0.05, 0.5, 2.0):
                ratio = _sup_abs_unit(diffusion.wf_semigroup(wf, coef, t, k)) / deriv_sup
                excess = max(excess, ratio - 1.0)
                if len(coef) == k + 1:
                    equality_gap = max(equality_gap, abs(ratio - 1.0))
                else:
                    strict = max(strict, ratio)
    return max(excess, equality_gap), (f"equality cases x, x^2 off 1 by {equality_gap:.3e}; "
                                       f"largest other ratio {strict:.3e}")


def _density_apriori(cfg):
    worst = -np.inf
    for n in (100, 1000):
        params = model.ModelParams(n, cfg.a, cfg.b)
        m0 = cfg.particle_count(n) / n
        gsup = float(np.max(model.density_noise(params, np.linspace(0, 1, 201))))
        for t in (1.0, 10.0, float(n) / 10.0, float(n)):
            msd = model.density_variance(params, m0, t)
            bound = gsup / (2 * (cfg.a + cfg.b)) * -np.expm1(-2 * (cfg.a + cfg.b) * t / n)
            worst = np.maximum(worst, msd - bound)  # a NaN fails the check
    return worst, "exact mean-square density deviation vs Gronwall bound"


# (name, tolerance, measure): measure(cfg) returns the measured value, or
# (value, note), or (value, note, Stein work counts) for a check that solves
# Stein equations, and the check passes when
# value <= tolerance.  A check of a bound measures its violation,
# 0.0 - margin, so a zero margin reads 0.0.
_VALIDATE_CHECKS = (
    ("rates-boundary", 0.0, _rates_boundary),
    ("detailed-balance", 1e-12,
     lambda cfg: max(model.detailed_balance_gap(model.ModelParams(n, cfg.a, cfg.b))
                     for n in (10, 100, 1000))),
    ("uniform-start-variance", 1e-12, _uniform_variance),
    ("translation-1d", 1e-13, _translation_1d),
    ("translation-2d", 1e-9, _translation_2d),
    ("pushforward-contraction", 1e-12, _pushforward),
    ("stein-bounds", 1e-9, _stein_bounds),
    ("stein-identity", 1e-8, _stein_identity),
    ("exclusion-stationarity", 1e-10, _exclusion_stationarity),
    ("exclusion-residual-bounds", 1e-12, _exclusion_residual),
    ("coupling-disagreements", 0.0, _coupling),
    ("coupling-uniformity", 0.0, _coupling_uniformity),
    ("gaussian-coupling-bound", 1e-12, _gaussian_coupling),
    ("block-mean-identity", 1e-12, _block_mean_identity),
    ("derivative-decay", 1e-10, _derivative_decay),
    ("density-apriori", 0.0, _density_apriori),
)


def run_validate(cfg: ExperimentConfig):
    """Measure every check of ``_VALIDATE_CHECKS`` under one rule, passed =
    measured <= tolerance; the tolerance is also the row's theory column."""
    records, report = [], {}
    stein_work = Counter(stein_solves=0, stein_lattices=0, stein_nodes=0)
    for name, tol, measure in _VALIDATE_CHECKS:
        start = time.perf_counter()
        value = measure(cfg)
        secs = time.perf_counter() - start
        measured, note, *work = value if isinstance(value, tuple) else (value, "")
        for counts in work:
            stein_work.update(counts)
        measured = float(measured)
        records.append(ResultRecord(f"validate:{name}", cfg.n[0], cfg.m0, 0.0, measured,
                                    theory=tol))
        # wall seconds go to the manifest and the report only, never to results.csv
        report[name] = {"passed": measured <= tol, "measured": measured,
                        "tolerance": tol, "note": note, "runtime_s": secs}
    ok = all(info["passed"] for info in report.values())
    extra = {"validate": {"ok": ok, **stein_work, "checks": report}}
    return records, extra


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

# every scenario: its runner and the grid it uses when the config gives none
SCENARIOS = {
    "profile": (run_profile, tuple(np.geomspace(0.05, 3.0, 24))),
    "thermalize": (run_thermalize, (-1.0, 0.0, 1.0)),
    "qclt-rate": (run_qclt_rate, (1.0,)),
    "stein-rate": (run_stein_rate, ()),
    "validate": (run_validate, ()),
    "mixing-curve": (run_mixing_curve, tuple(np.geomspace(0.01, 3.0, 60))),
}


def run(cfg: ExperimentConfig) -> int:
    """Run one scenario, persist results.csv + manifest.json, return exit code."""
    start = time.perf_counter()
    records, extra = SCENARIOS[cfg.scenario][0](cfg)
    elapsed = time.perf_counter() - start
    extra = dict(extra or {})
    extra["wall_time_s"] = elapsed
    write_results(cfg, records)
    write_manifest(cfg, records, extra)
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
