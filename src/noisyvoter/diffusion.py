"""Diffusion and Gaussian limit objects of the voter density.

Only the limits live here; the finite-n chain and its closed-form moments
are in ``model``, which this module does not import.

The particle density converges (in time units sped up by n) to the
Wright-Fisher diffusion dx = (a(1-x) - b x) dt + sqrt(2 x (1-x)) dB with
stationary law Beta(a, b).  Its law at time t from a point start is exact
here: ``wf_marginal`` sums the Jacobi expansion of the transition density,
integrated in closed form once for the CDF and once more for the CDF's
antiderivative (no quadrature), under an a-priori rounding bound and
a-posteriori checks.  ``transport.w1_discrete_vs_wf`` measures W1 against
it, and ``WFMarginal.stationary_distance`` gives the paper's limit profile
W1(marginal at t, Beta(a, b)).  The Euler-Maruyama ``simulate_wf`` remains
as the independent simulation cross-check.

The Wright-Fisher semigroup P_t maps polynomials of each degree to
themselves, so ``wf_semigroup`` applies it (and its scaled derivatives
e^{lambda_k t} d^k P_t) exactly through the Jacobi eigenvectors of the
generator, found by back-substitution in the monomial basis.  That makes the
derivative-decay estimate |d^k P_t f| <= e^{-k(a+b+k-1)t} sup |f^(k)| of the
paper's PDE bounds checkable without Monte Carlo; the Euler-Maruyama
``derivative_decay_probe`` remains as the independent simulation check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Chebyshev, polynomial as npoly
from scipy.linalg import solve_triangular
from scipy.special import betainc, betaln

from .errors import DiagnosticError


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
    _euler_maruyama(params, x, t, dt, rng, x.shape)
    return float(x[0]) if scalar else x


def _euler_maruyama(params: WFParams, x: np.ndarray, t: float, dt: float,
                    rng: np.random.Generator, noise_shape) -> None:
    """Advance the Wright-Fisher states ``x`` in place to time t in steps of
    at most dt, clamping to [0, 1] after every step.  Each step draws one
    standard normal array of ``noise_shape``, broadcast against ``x``: the
    shape of ``x`` for independent paths, a trailing axis of it for noise
    shared along the leading axes (common random numbers)."""
    a, b = params.a, params.b
    remaining = t
    while remaining > 0:
        h = min(dt, remaining)
        noise = rng.standard_normal(noise_shape)
        x += (a * (1.0 - x) - b * x) * h + np.sqrt(2.0 * x * (1.0 - x) * h) * noise
        np.clip(x, 0.0, 1.0, out=x)
        remaining -= h


# ---------------------------------------------------------------------------
# Gaussian coupling
# ---------------------------------------------------------------------------

def gaussian_coupling(var_x, var_y, cov_yz, var_z):
    """Best coupling of Y to X of the form Y~ = alpha X + beta Z.

    X and Z are independent centered Gaussians; the coefficients match the
    law of (Y, Z) exactly and the mean-square gap to X satisfies
    mse <= 2 (var_x - var_y)^2 / var_x + 3 cov_yz^2 / var_z.
    Returns (alpha, beta, mse), elementwise over broadcast arrays; floats
    for scalar inputs.
    """
    var_x, var_y, cov_yz, var_z = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (var_x, var_y, cov_yz, var_z)))
    if not np.all((var_x > 0) & (var_z > 0)):
        raise ValueError("var_x and var_z must be positive")
    if np.any(var_y < 0):
        raise ValueError("var_y must be nonnegative")
    if np.any(cov_yz ** 2 > var_y * var_z * (1.0 + 1e-12)):
        raise ValueError("cov_yz violates Cauchy-Schwarz")
    beta = cov_yz / var_z
    alpha_sq = var_y / var_x - cov_yz ** 2 / (var_x * var_z)
    alpha = np.sqrt(np.maximum(alpha_sq, 0.0))
    mse = (alpha - 1.0) ** 2 * var_x + beta ** 2 * var_z
    if alpha.ndim == 0:
        return float(alpha), float(beta), float(mse)
    return alpha, beta, mse


def gaussian_coupling_bound(var_x, var_y, cov_yz, var_z):
    """Upper bound 2 (var_x - var_y)^2 / var_x + 3 cov_yz^2 / var_z
    (elementwise over arrays)."""
    return 2.0 * (var_x - var_y) ** 2 / var_x + 3.0 * cov_yz ** 2 / var_z


# ---------------------------------------------------------------------------
# exact Wright-Fisher semigroup on polynomials
# ---------------------------------------------------------------------------

def poly_derivative(coef, order: int = 1) -> np.ndarray:
    """The ``order``-th derivative of a polynomial, coefficients lowest
    degree first: ``numpy.polynomial.polynomial.polyder(coef, order)`` bit
    for bit (each pass multiplies coefficient j by j; past the degree it is
    the single coefficient coef[0] * 0), without its generic axis handling."""
    c = np.array(coef, dtype=float, ndmin=1)
    if order >= c.size:
        return c[:1] * 0
    for _ in range(order):
        c = c[1:] * np.arange(1, c.size)
    return c


def wf_semigroup(params: WFParams, coef, t: float, order: int = 0) -> np.ndarray:
    """Exact e^{lambda_k t} d^k/dm^k (P_t f)(m) for a polynomial f, k = ``order``.

    ``coef`` holds the coefficients of f in the monomial basis, lowest degree
    first (as in ``numpy.polynomial.polynomial``); so does the result.  P_t is
    the Wright-Fisher semigroup with generator
    L = m(1-m) d^2 + (a - (a+b) m) d and lambda_k = k (k-1+a+b).  L keeps the
    polynomials of each degree closed: in the monomial basis
    L m^d = -lambda_d m^d + d (d-1+a) m^(d-1) is upper bidiagonal, so its
    eigenvectors v_j (the shifted Jacobi polynomials) follow by
    back-substitution and P_t f = sum_j e^{-lambda_j t} c_j v_j with no
    quadrature, truncation or random numbers.  Only the modes j >= k survive
    the k-th derivative and each keeps the factor e^{-(lambda_j - lambda_k) t}
    <= 1, so nothing underflows at large a+b.  Since
    d^k P_t^{(a,b)} f = e^{-lambda_k t} P_t^{(a+k,b+k)} f^(k), the result is
    an average of f^(k) and never exceeds sup |f^(k)| on [0, 1].
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if not t >= 0:
        raise ValueError("t must be nonnegative")
    coef = np.atleast_1d(np.asarray(coef, dtype=float))
    if coef.ndim != 1:
        raise ValueError("coef must be a 1-D coefficient sequence")
    coef = np.pad(coef, (0, max(0, order + 1 - coef.size)))
    d = np.arange(coef.size, dtype=float)
    lam = d * (d - 1.0 + params.a + params.b)
    vecs = np.eye(coef.size)
    for i in range(coef.size - 2, -1, -1):
        vecs[i, i + 1:] = ((i + 1) * (i + params.a) * vecs[i + 1, i + 1:]
                           / (lam[i] - lam[i + 1:]))
    modes = solve_triangular(vecs, coef, unit_diagonal=True)
    weights = np.exp(-(lam[order:] - lam[order]) * t) * modes[order:]
    return poly_derivative(vecs[:, order:] @ weights, order)


# ---------------------------------------------------------------------------
# exact Wright-Fisher marginal from a point start
# ---------------------------------------------------------------------------

# Terms whose Cauchy-Schwarz magnitude e^{-lambda_j t} |P_j(m0)| / sqrt(h_j)
# falls below this are dropped; the series ends after _SERIES_RUN such terms
# in a row.
_SERIES_CUTOFF = 1e-18
_SERIES_RUN = 16
_MAX_SERIES_TERMS = 4096
# the a-posteriori checks and the rounding bound evaluate the series here
_CHECK_GRID = np.linspace(0.0, 1.0, 1025)


def _jacobi_values(alpha: float, beta: float, x):
    """P_0(x), P_1(x), ... for the Jacobi polynomials P_k^{(alpha, beta)} on
    [-1, 1], alpha, beta > -1, by the forward three-term recurrence (stable
    inside the interval); ``x`` is a float or an array."""
    prev, cur = 0.0 * x, 1.0 + 0.0 * x
    yield cur
    prev, cur = cur, ((alpha + beta + 2) * x + alpha - beta) / 2
    k = 1
    while True:
        yield cur
        s = 2 * k + alpha + beta
        prev, cur = cur, (((s + 1) * ((s + 2) * s * x + alpha ** 2 - beta ** 2) * cur
                           - 2 * (k + alpha) * (k + beta) * (s + 2) * prev)
                          / (2 * (k + 1) * (k + alpha + beta + 1) * s))
        k += 1


def _jacobi_series(coef, alpha: float, beta: float, x, absolute: bool = False):
    """sum_k coef[k] P_k^{(alpha, beta)}(x), or sum_k coef[k] |P_k(x)|."""
    values = _jacobi_values(alpha, beta, np.asarray(x, dtype=float))
    if absolute:
        return sum(c * np.abs(v) for c, v in zip(coef, values))
    return sum(c * v for c, v in zip(coef, values))


def _beta_weight(a: float, b: float, y):
    """y (1-y) pi(y) = y^a (1-y)^b / B(a, b), exactly 0 at both ends."""
    with np.errstate(divide="ignore"):
        return np.exp(a * np.log(y) + b * np.log1p(-y) - betaln(a, b))


@dataclass(frozen=True)
class WFMarginal:
    """Law of the Wright-Fisher diffusion at time t > 0 from the point m0.

    Built by ``wf_marginal``; ``f_coef`` and ``g_coef`` are the Jacobi
    coefficients of the CDF and of its antiderivative (see there), defined
    on [0, 1].  At t = inf every coefficient vanishes and the law is
    Beta(a, b).
    """

    params: WFParams
    m0: float
    t: float
    f_coef: np.ndarray
    g_coef: np.ndarray
    g_linear: float
    rounding_bound: float

    @property
    def series_terms(self) -> int:
        return int(self.f_coef.size)

    def cdf(self, y):
        """F_t(y) = P(x_t <= y), elementwise on [0, 1]."""
        a, b = self.params.a, self.params.b
        y = np.asarray(y, dtype=float)
        series = _jacobi_series(self.f_coef, b, a, 2.0 * y - 1.0)
        return betainc(a, b, y) - _beta_weight(a, b, y) * series

    def cdf_integral(self, y):
        """G_t(y) = int_0^y F_t, elementwise on [0, 1]; the mean is 1 - G_t(1)."""
        a, b = self.params.a, self.params.b
        y = np.asarray(y, dtype=float)
        series = _jacobi_series(self.g_coef, b + 1.0, a + 1.0, 2.0 * y - 1.0)
        return (y * betainc(a, b, y) - a / (a + b) * betainc(a + 1.0, b, y)
                - self.g_linear * betainc(a + 1.0, b + 1.0, y)
                + y * (1.0 - y) * _beta_weight(a, b, y) * series)

    def stationary_distance(self) -> float:
        """D(t) = W1(law at t, Beta(a, b)) = int_0^1 |F_t - I_y(a, b)| dy.

        F_t - I_y(a, b) = -y(1-y)pi(y) S(y) with S the CDF series, a
        polynomial of degree ``series_terms`` - 1, so the gap changes sign
        only at real roots of S in (0, 1).  Those come from the Chebyshev
        interpolant of S (exact for a polynomial of that degree); between
        consecutive ones the gap integrates to the change of
        G_t - G_inf, G_inf(y) = y I_y(a, b) - a/(a+b) I_y(a+1, b).
        """
        if self.series_terms == 0:
            return 0.0
        a, b = self.params.a, self.params.b
        s = Chebyshev.interpolate(lambda y: _jacobi_series(self.f_coef, b, a, 2.0 * y - 1.0),
                                  self.series_terms - 1, domain=[0.0, 1.0])
        roots = s.roots()
        roots = np.real(roots[(np.abs(np.imag(roots)) < 1e-9)
                              & (np.real(roots) > 0) & (np.real(roots) < 1)])
        edges = np.concatenate(([0.0], np.sort(roots), [1.0]))
        gap = self.cdf_integral(edges) - (edges * betainc(a, b, edges)
                                          - a / (a + b) * betainc(a + 1.0, b, edges))
        return float(np.sum(np.abs(np.diff(gap))))


def wf_marginal(params: WFParams, m0: float, t: float, tol: float = 1e-9) -> WFMarginal:
    """Exact law of the Wright-Fisher diffusion at time t > 0 from m0 in [0, 1].

    The transition density is pi(y) sum_j e^{-lambda_j t} P_j(m0) P_j(y) / h_j
    with pi the Beta(a, b) density, P_j(y) = P_j^{(b-1, a-1)}(2y - 1) its
    Jacobi polynomials, h_j their squared norms and lambda_j = j(j-1+a+b)
    (Griffiths 1979; Karlin & McGregor 1962).  In Sturm-Liouville form
    pi L P = (y(1-y) pi P')', so int_0^y pi P_j = -y(1-y) pi(y) P_j'(y) / lambda_j
    and, with c_j = e^{-lambda_j t} P_j(m0) / (h_j lambda_j),

        F_t(y) = I_y(a, b) - y(1-y) pi(y) sum_{j>=1} c_j P_j'(y).

    P_j' = (j+a+b-1) P_{j-1}^{(b, a)} is an eigenfunction of the generator
    with parameters (a+1, b+1) and eigenvalue (j-1)(j+a+b), whose weight is
    proportional to y(1-y) pi(y), so the same identity integrates once more:

        G_t(y) = int_0^y F_t = y I_y(a, b) - a/(a+b) I_y(a+1, b)
                 - c_1 (a+b) K I_y(a+1, b+1)
                 + y^2 (1-y)^2 pi(y) sum_{j>=2} c_j (j+a+b-1) P_{j-2}^{(b+1, a+1)} / (j-1)

    with K = ab / ((a+b)(a+b+1)).  No quadrature; ``t = inf`` gives Beta(a, b).
    P_j(m0), h_j (from h_1 = ab/(a+b+1) and the rational ratio h_j / h_{j-1})
    and the polynomial in y all come from recurrences of about j steps, so
    term j carries a relative rounding error of order (1 + 3j + lambda_j t) eps.

    Guard, as for ``model.transient_law``: the a-priori rounding bound
    eps * max_y sum_j (1 + 3j + lambda_j t) |term_j(y)| over the CDF and
    antiderivative series on a 1025-point grid must be at most ``tol``; then
    F(0) = 0, F(1) = 1, F nondecreasing on that grid and the mean 1 - G_t(1)
    equal to ``wf_semigroup``'s exact mean, each within ``tol``.  A failure
    raises ``DiagnosticError``: it happens for large asymmetric a/b at small
    t with m0 deep in the tail of pi, where the terms cancel
    catastrophically.
    """
    if not 0.0 <= m0 <= 1.0:
        raise ValueError("m0 must lie in [0, 1]")
    if not t > 0:
        raise ValueError("t must be positive")
    if t == np.inf:
        return WFMarginal(params, float(m0), t, np.empty(0), np.empty(0), 0.0, 0.0)
    a, b = params.a, params.b
    where = f"(a, b, m0, t) = ({a:g}, {b:g}, {m0:g}, {t:g})"
    # the term recurrences run on float64 scalars, not Python floats, so an
    # overflow or a zero denominator (a + b below the rounding of j + a + b - 2)
    # gives a term that is not finite, which fails the check below
    a64, b64 = np.float64(a), np.float64(b)
    values = _jacobi_values(b64 - 1.0, a64 - 1.0, 2.0 * np.float64(m0) - 1.0)
    next(values)  # P_0 = 1
    coef, conditioning, run, h = [], [], 0, 1.0
    # an overflow in the cutoff test fails the cutoff
    with np.errstate(all="ignore"):
        for j in range(1, _MAX_SERIES_TERMS + 1):
            h *= (a64 * b64 / (a64 + b64 + 1) if j == 1 else (j - 1 + a64) * (j - 1 + b64)
                  * (2 * j + a64 + b64 - 3) / ((2 * j + a64 + b64 - 1) * (j + a64 + b64 - 2) * j))
            p = next(values)
            lam = j * (j - 1 + a + b)
            decay = np.exp(-lam * t)
            coef.append(p * decay / (h * lam))
            if not (0.0 < h < np.inf and np.isfinite(coef[-1])):
                raise DiagnosticError(f"Wright-Fisher series term {j} overflows at {where}")
            conditioning.append(1.0 + 3 * j + lam * t)
            run = run + 1 if abs(p) * decay / np.sqrt(h) < _SERIES_CUTOFF else 0
            if run == _SERIES_RUN:
                break
        else:
            raise DiagnosticError(f"Wright-Fisher series needs more than {_MAX_SERIES_TERMS} "
                                  f"terms at {where}")
    coef = np.array(coef[:len(coef) - run])
    conditioning = np.array(conditioning[:coef.size])
    j = np.arange(1, coef.size + 1, dtype=float)
    f_coef = coef * (j + a + b - 1)
    g_coef = coef[1:] * (j[1:] + a + b - 1) / (j[1:] - 1)
    y, x = _CHECK_GRID, 2.0 * _CHECK_GRID - 1.0
    w = _beta_weight(a, b, y)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow fails the bound
        magnitude = np.maximum(
            w * _jacobi_series(np.abs(f_coef) * conditioning, b, a, x, absolute=True),
            y * (1.0 - y) * w * _jacobi_series(np.abs(g_coef) * conditioning[1:],
                                               b + 1.0, a + 1.0, x, absolute=True))
    bound = float(np.finfo(float).eps * np.max(magnitude))
    if not bound <= tol:
        raise DiagnosticError(f"Wright-Fisher series rounding bound {bound:.3g} exceeds "
                              f"tol {tol:g} at {where}")
    law = WFMarginal(params, float(m0), float(t), f_coef, g_coef,
                     g_linear=float(coef[0] * a * b / (a + b + 1)) if coef.size else 0.0,
                     rounding_bound=bound)
    f = law.cdf(y)
    mean = 1.0 - float(law.cdf_integral(1.0))
    exact_mean = float(npoly.polyval(m0, wf_semigroup(params, (0.0, 1.0), t)))
    if not (abs(f[0]) <= tol and abs(f[-1] - 1.0) <= tol and np.all(np.diff(f) >= -tol)
            and abs(mean - exact_mean) <= tol):
        raise DiagnosticError(f"Wright-Fisher series failed its checks at {where}: "
                              f"F(0) = {f[0]:.3g}, F(1) = {f[-1]:.3g}, min step "
                              f"{np.min(np.diff(f)):.3g}, mean {mean!r} vs {exact_mean!r}")
    return law


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
    # one draw per path, shared by every start: common random numbers
    _euler_maruyama(params, x, horizon, dt, rng, mc_budget)
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
