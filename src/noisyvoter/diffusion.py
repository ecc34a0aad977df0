"""Diffusion and Gaussian limit objects of the voter density.

The particle density converges (in time units sped up by n) to the
Wright-Fisher diffusion dx = (a(1-x) - b x) dt + sqrt(2 x (1-x)) dB with
stationary law Beta(a, b).  At shorter times the per-block fluctuations
around the deterministic mean paths follow a time-inhomogeneous
Ornstein-Uhlenbeck system whose variances and covariances are computed here
by quadrature, together with the closed-form Gaussian surrogate that both
fluctuation processes approach for large times.  The density's own mean and
variance from a point start are closed forms: the count chain's first two
moments solve a linear ODE with the Hahn rates (a+b)/n and 2(a+b+1)/n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import DiagnosticError
from .model import BlockPartition, ModelParams

QUAD_TOL = 1e-12


@dataclass(frozen=True)
class WFParams:
    """Drift intensities of the Wright-Fisher diffusion (both positive)."""

    a: float
    b: float

    def __post_init__(self):
        for name in ("a", "b"):
            v = float(getattr(self, name))
            if not (np.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be positive and finite, got {v!r}")
            object.__setattr__(self, name, v)


@dataclass(frozen=True)
class GaussianSpec:
    """Mean vector and covariance matrix of a Gaussian law."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        if cov.shape != (mean.size, mean.size):
            raise ValueError("cov shape must match mean dimension")
        if np.max(np.abs(cov - cov.T)) > 1e-12:
            raise ValueError("cov must be symmetric within 1e-12")
        if np.min(np.linalg.eigvalsh(cov)) < -1e-10:
            raise ValueError("cov must be positive semidefinite (eigenvalues >= -1e-10)")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


# ---------------------------------------------------------------------------
# drift / noise coefficients of the lumped density
# ---------------------------------------------------------------------------

def density_drift(params: ModelParams, m) -> np.ndarray | float:
    """Restoring drift a - (a+b) m of the density (before the 1/n slowdown)."""
    return params.a - (params.a + params.b) * np.asarray(m, dtype=float)


def density_noise(params: ModelParams, m) -> np.ndarray | float:
    """Instantaneous variance production 2m(1-m) + (a(1-m) + b m)/n."""
    m = np.asarray(m, dtype=float)
    return 2.0 * m * (1.0 - m) + (params.a * (1.0 - m) + params.b * m) / params.n


def block_density_noise(params: ModelParams, part: BlockPartition, mvec):
    """Per-block variance production (G0, G1) at local densities (m0, m1)."""
    a0, a1 = part.weights
    m0, m1 = float(mvec[0]), float(mvec[1])
    mbar = a0 * m0 + a1 * m1
    g = []
    for mi in (m0, m1):
        g.append(mbar + mi - 2.0 * mbar * mi
                 + (params.a * (1.0 - mi) + params.b * mi) / params.n)
    return g[0], g[1]


# ---------------------------------------------------------------------------
# mean paths
# ---------------------------------------------------------------------------

def mean_ode(params: ModelParams, m0: float, t: float) -> float:
    """Closed-form mean density path dm/dt = (a - (a+b) m)/n started at m0."""
    if not 0.0 <= m0 <= 1.0:
        raise ValueError("m0 must lie in [0, 1]")
    if t < 0:
        raise ValueError("t must be nonnegative")
    fix = params.a / (params.a + params.b)
    return fix + (m0 - fix) * np.exp(-(params.a + params.b) * t / params.n)


def density_variance(params: ModelParams, m0: float, t: float) -> float:
    """Exact variance of the density at time t from the point start m0.

    The count chain has linear drift and quadratic variance production, so
    in counts dVar/dt = -r2 Var + (a n + (b - a + 2n) m - 2 m^2)/n along the
    mean path m = F + D e^{-r1 t}, F = n a/(a+b), D = n m0 - F, with the
    j = 1, 2 Hahn rates r1 = (a+b)/n and r2 = 2(a+b+1)/n.  Expanding the
    production around F gives c0 + c1 e^{-r1 t} + c2 e^{-2 r1 t} with
    c0 = 2ab(a+b+n)/(a+b)^2, c1 = D (b-a)(a+b+2n)/(n(a+b)), c2 = -2 D^2/n,
    and Var(0) = 0 integrates each term separately; the rates never
    coincide because r2 - 2 r1 = 2/n.  At large t this is the
    Beta-Binomial variance n a b (a+b+n)/((a+b)^2 (a+b+1)), over n^2.
    """
    if not 0.0 <= m0 <= 1.0:
        raise ValueError("m0 must lie in [0, 1]")
    if t < 0:
        raise ValueError("t must be nonnegative")
    n, a, b = params.n, params.a, params.b
    s = a + b
    r1 = s / n
    d = n * m0 - n * a / s
    coef = (2.0 * a * b * (s + n) / s ** 2,
            d * (b - a) * (s + 2 * n) / (n * s),
            -2.0 * d * d / n)
    var = 0.0
    for j, c in enumerate(coef):
        gap = 2.0 * (s + 1) / n - j * r1
        var += c / gap * np.exp(-j * r1 * t) * -np.expm1(-gap * t)
    return float(max(var, 0.0) / n ** 2)


def block_mean_ode(params: ModelParams, part: BlockPartition, t: float) -> tuple[float, float]:
    """Mean local densities at time t, started from (0, 1).

    The weighted mean follows ``mean_ode`` from m0 = n1/n while the block
    offsets relax at rate 1 + (a+b)/n, so a0*m0_t + a1*m1_t equals the global
    mean path exactly.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    _, a1 = part.weights
    m = mean_ode(params, a1, t)
    decay = np.exp(-(1.0 + (params.a + params.b) / params.n) * t)
    return m - a1 * decay, m + (1.0 - a1) * decay


# ---------------------------------------------------------------------------
# Wright-Fisher simulation
# ---------------------------------------------------------------------------

def simulate_wf(params: WFParams, m0, t: float, dt: float | None,
                rng: np.random.Generator, n_paths: int | None = None):
    """Euler-Maruyama endpoint of the Wright-Fisher diffusion at time t.

    The state is clamped to [0, 1] after every step (the drift points inward
    at the boundary), giving weak error O(dt).  ``m0`` may be a scalar or an
    array of starting points; ``n_paths`` replicates a scalar start.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if dt is None:
        dt = min(1e-3, t / 100) if t > 0 else 1e-3
    if not dt > 0:
        raise ValueError("dt must be positive")
    x = np.asarray(m0, dtype=float)
    scalar = x.ndim == 0 and n_paths is None
    if n_paths is not None:
        if x.ndim != 0:
            raise ValueError("n_paths only applies to scalar m0")
        x = np.full(n_paths, float(x))
    else:
        x = np.atleast_1d(x).astype(float).copy()
    if np.any(x < 0) or np.any(x > 1):
        raise ValueError("m0 must lie in [0, 1]")
    a, b = params.a, params.b
    remaining = t
    while remaining > 0:
        h = min(dt, remaining)
        noise = rng.standard_normal(x.shape)
        x += (a * (1.0 - x) - b * x) * h + np.sqrt(2.0 * x * (1.0 - x) * h) * noise
        np.clip(x, 0.0, 1.0, out=x)
        remaining -= h
    return float(x[0]) if scalar else x


# ---------------------------------------------------------------------------
# fluctuation processes
# ---------------------------------------------------------------------------

def simulate_fluctuation(params: ModelParams, part: BlockPartition, mode: str,
                         t: float, dt: float, rng: np.random.Generator,
                         n_paths: int | None = None):
    """Euler-Maruyama sample of the per-block fluctuation pair at time t.

    mode "reference-start": zero initial condition, noise coefficients follow
    the block mean path from (0, 1).  mode "uniform-start": diagonal noise at
    the global mean path and Gaussian initial condition (Z, -Z) with
    Z ~ N(0, nu^2), nu = m0 (1 - m0), m0 = n1/n.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if not dt > 0:
        raise ValueError("dt must be positive")
    if mode not in ("reference-start", "uniform-start"):
        raise ValueError(f"unknown mode {mode!r}")
    a0, a1 = part.weights
    weights = np.array([a0, a1])
    rate = 1.0 + (params.a + params.b) / params.n
    R = 1 if n_paths is None else int(n_paths)
    y = np.zeros((R, 2))
    if mode == "uniform-start":
        m0 = a1
        nu = m0 * (1.0 - m0)
        z = rng.normal(0.0, nu, size=R)
        y[:, 0] = z
        y[:, 1] = -z
    s = 0.0
    while s < t:
        h = min(dt, t - s)
        if mode == "reference-start":
            mvec = block_mean_ode(params, part, s)
            g = block_density_noise(params, part, mvec)
        else:
            m = mean_ode(params, a1, s)
            gm = density_noise(params, m)
            g = (gm, gm)
        drift = weights[None, :] * y.sum(axis=1, keepdims=True) - rate * y
        noise = rng.standard_normal((R, 2))
        y += drift * h + np.sqrt(weights[None, :] * np.asarray(g)[None, :] * h) * noise
        s += h
    return y[0] if n_paths is None else y


def sum_fluctuation_variance(params: ModelParams, part: BlockPartition, t: float) -> float:
    """Variance of the aggregate fluctuation at time t, by quadrature.

    Var = int_0^t exp(-2 (a+b)(t-s)/n) G(m_s) ds with m_s the mean path from
    m0 = n1/n; within C(a,b) t^2 / n of G(m0) t.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0:
        return 0.0
    _, a1 = part.weights
    r = 2.0 * (params.a + params.b) / params.n

    def integrand(s):
        return np.exp(-r * (t - s)) * density_noise(params, mean_ode(params, a1, s))

    val, _ = quad(integrand, 0.0, t, epsabs=QUAD_TOL, epsrel=QUAD_TOL, limit=400)
    return float(val)


def fluctuation_cross_covariance(params: ModelParams, part: BlockPartition, t: float) -> float:
    """Covariance between the aggregate fluctuation and the stationary
    imbalance mode, by quadrature of the exact integrand.

    Decays like t * exp(-t); vanishes identically when the two blocks have
    equal noise coefficients along the mean path.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0:
        return 0.0
    _, a1 = part.weights
    m0 = a1
    g0 = density_noise(params, m0)
    rate = 1.0 + (params.a + params.b) / params.n
    pref = m0 * (1.0 - m0) * np.sqrt(g0)

    def integrand(s):
        gi = block_density_noise(params, part, block_mean_ode(params, part, s))
        return np.exp(-rate * (t - s)) * pref * (np.sqrt(gi[1]) - np.sqrt(gi[0]))

    val, _ = quad(integrand, 0.0, t, epsabs=QUAD_TOL, epsrel=QUAD_TOL, limit=400)
    return float(val)


# ---------------------------------------------------------------------------
# large-time Gaussian surrogate
# ---------------------------------------------------------------------------

def asymptotic_fluctuation_spec(m0: float, g0: float, t: float) -> GaussianSpec:
    """Exact mean/covariance of the large-time fluctuation surrogate.

    Component i equals (2i-1) s W + a_i q W' with independent standard
    normals, s^2 = m0(1-m0) g0 / 2, q^2 = g0 t and block weights
    (a_0, a_1) = (1-m0, m0).  The aggregate has variance g0 t and the
    imbalance coordinate z1 - a1 (z0 + z1) has variance s^2, uncorrelated
    with the aggregate.
    """
    if not 0.0 < m0 < 1.0:
        raise ValueError("m0 must lie strictly inside (0, 1)")
    if not g0 > 0:
        raise ValueError("g0 must be positive")
    if t < 0:
        raise ValueError("t must be nonnegative")
    s2 = 0.5 * m0 * (1.0 - m0) * g0
    q2 = g0 * t
    w = np.array([1.0 - m0, m0])
    sign = np.array([-1.0, 1.0])
    cov = np.outer(sign, sign) * s2 + np.outer(w, w) * q2
    return GaussianSpec(np.zeros(2), cov)


def asymptotic_fluctuation_sample(m0: float, g0: float, t: float,
                                  rng: np.random.Generator, size: int | None = None):
    """Draw from the large-time Gaussian surrogate law built by
    ``asymptotic_fluctuation_spec``."""
    asymptotic_fluctuation_spec(m0, g0, t)  # validates inputs
    R = 1 if size is None else int(size)
    s = np.sqrt(0.5 * m0 * (1.0 - m0) * g0)
    q = np.sqrt(g0 * t)
    w = rng.standard_normal(R)
    wp = rng.standard_normal(R)
    out = np.empty((R, 2))
    out[:, 0] = -s * w + (1.0 - m0) * q * wp
    out[:, 1] = s * w + m0 * q * wp
    return out[0] if size is None else out


def gaussian_coupling(var_x: float, var_y: float, cov_yz: float, var_z: float):
    """Best coupling of Y to X of the form Y~ = alpha X + beta Z.

    X and Z are independent centered Gaussians; the coefficients match the
    law of (Y, Z) exactly and the mean-square gap to X satisfies
    mse <= 2 (var_x - var_y)^2 / var_x + 3 cov_yz^2 / var_z.
    Returns (alpha, beta, mse).
    """
    if not (var_x > 0 and var_z > 0):
        raise ValueError("var_x and var_z must be positive")
    if var_y < 0:
        raise ValueError("var_y must be nonnegative")
    if cov_yz ** 2 > var_y * var_z * (1.0 + 1e-12):
        raise ValueError("cov_yz violates Cauchy-Schwarz")
    beta = cov_yz / var_z
    alpha_sq = var_y / var_x - cov_yz ** 2 / (var_x * var_z)
    alpha = np.sqrt(max(alpha_sq, 0.0))
    mse = (alpha - 1.0) ** 2 * var_x + beta ** 2 * var_z
    return float(alpha), float(beta), float(mse)


def gaussian_coupling_bound(var_x: float, var_y: float, cov_yz: float, var_z: float) -> float:
    """Upper bound 2 (var_x - var_y)^2 / var_x + 3 cov_yz^2 / var_z."""
    return 2.0 * (var_x - var_y) ** 2 / var_x + 3.0 * cov_yz ** 2 / var_z


# ---------------------------------------------------------------------------
# semigroup derivative decay probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProbeResult:
    """Outcome of a derivative-decay probe: measured sup ratio vs theory."""

    ratio: float
    stderr: float
    bound: float
    grid_point: float


def derivative_decay_probe(params: WFParams, f, order: int, s: float, t: float,
                           grid, mc_budget: int, rng: np.random.Generator,
                           deriv_sup: float = 1.0, dt: float = 2e-3,
                           step: float = 0.05, max_rel_se: float = 0.10) -> ProbeResult:
    """Estimate the decay of derivatives of m -> E[f(x_{t-s}(m))].

    Central finite differences of order ``order`` (1 or 2) are applied to
    Monte Carlo estimates on the probe grid, using common random numbers
    across all shifted starting points so the noise largely cancels.  The
    returned ratio max_g |d^order u(g)| / deriv_sup is predicted to be at
    most exp(-order (a + b + order - 1) (t - s)).

    Raises DiagnosticError when the relative standard error at the
    maximizing grid point exceeds ``max_rel_se``.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    if not t >= s >= 0:
        raise ValueError("need t >= s >= 0")
    if not deriv_sup > 0:
        raise ValueError("deriv_sup must be positive")
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if np.any(grid - step < 0) or np.any(grid + step > 1):
        raise ValueError("probe grid +- step must stay inside [0, 1]")
    horizon = t - s
    bound = float(np.exp(-order * (params.a + params.b + order - 1) * horizon))
    shifts = (-step, step) if order == 1 else (-step, 0.0, step)
    starts = (grid[:, None] + np.asarray(shifts)[None, :]).ravel()
    x = np.repeat(starts[:, None], mc_budget, axis=1)
    a, b = params.a, params.b
    remaining = horizon
    while remaining > 0:
        h = min(dt, remaining)
        noise = rng.standard_normal(mc_budget)  # shared: common random numbers
        x += (a * (1.0 - x) - b * x) * h + np.sqrt(2.0 * x * (1.0 - x) * h) * noise[None, :]
        np.clip(x, 0.0, 1.0, out=x)
        remaining -= h
    vals = np.asarray(f(x))
    vals = vals.reshape(grid.size, len(shifts), mc_budget)
    if order == 1:
        per_path = (vals[:, 1, :] - vals[:, 0, :]) / (2.0 * step)
    else:
        per_path = (vals[:, 2, :] - 2.0 * vals[:, 1, :] + vals[:, 0, :]) / step ** 2
    est = per_path.mean(axis=1)
    se = per_path.std(axis=1, ddof=1) / np.sqrt(mc_budget)
    j = int(np.argmax(np.abs(est)))
    if abs(est[j]) > 0 and se[j] / abs(est[j]) > max_rel_se:
        raise DiagnosticError(
            f"relative standard error {se[j] / abs(est[j]):.3g} exceeds {max_rel_se}; "
            "increase mc_budget"
        )
    return ProbeResult(ratio=float(abs(est[j]) / deriv_sup),
                       stderr=float(se[j] / deriv_sup),
                       bound=bound,
                       grid_point=float(grid[j]))
