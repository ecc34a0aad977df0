"""Numerical Stein machinery for the Gaussian limit of block fluctuations.

The Stein equation nu^2 f'(x) - x f(x) = h(x) - E[h(W)], W ~ N(0, nu^2), has
a unique bounded solution; it is evaluated here from its integral
representation with a tail-switched quadrature that stays stable across the
whole working interval.  Everything in a solve but h depends on (grid, nu)
only: the refined quadrature lattice, the Gaussian kernel on its nodes and
the grid's tail prefactors.  That lattice is built once and shared by every
solve on the same (grid, nu).  The cache holds a single lattice, because
callers such as ``validate`` solve a whole function family on one grid
before moving to the next, so a second slot would keep a lattice no later
solve asks for.

The complete-graph symmetric exclusion generator acting on the centered,
sqrt(n)-scaled block count supplies the discrete side: its action is an
explicit two-term difference operator whose gap to the Stein operator is
bounded pointwise, which is what turns the generator identity into a
quantitative CLT for the hypergeometric start.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.special import ndtr

from .pmf import Pmf
from .transport import w1_discrete_vs_gaussian

# Exponent cap beyond which exp(x^2 / (2 nu^2)) would lose the integral
# representation to overflow; the far-tail asymptotic takes over there.
_TAIL_EXPONENT = 200.0

# Value given to the mode of the hypergeometric law before normalisation:
# a power of two (exact scaling) far enough above 1 that the products down
# the tails stay normal doubles, and far enough below the overflow threshold
# that the sum of up to 2^100 points stays finite.
_MODE_SEED = 2.0 ** 900


@dataclass(frozen=True)
class SteinProblem:
    """Test function (with derivative) and Gaussian scale for the Stein ODE."""

    h: Callable
    dh: Callable
    nu: float

    def __post_init__(self):
        if not (np.isfinite(self.nu) and self.nu > 0):
            raise ValueError("nu must be positive and finite")


@dataclass(frozen=True)
class SteinSolution:
    """Solution values on the grid plus derivatives recovered from the ODE."""

    grid: np.ndarray
    f: np.ndarray
    df: np.ndarray
    d2f: np.ndarray
    e_h: float
    h_deriv_sup: float


def _refined_edges(grid: np.ndarray, nu: float) -> np.ndarray:
    """Integration lattice: the grid extended by 6 nu on both sides and
    refined so no cell is wider than nu / 16."""
    lo = min(grid[0], -8.0 * nu) - 6.0 * nu
    hi = max(grid[-1], 8.0 * nu) + 6.0 * nu
    anchors = np.unique(np.concatenate([[lo], grid, [hi]]))
    left, right = anchors[:-1], anchors[1:]
    k = np.maximum(1, np.ceil((right - left) / (nu / 16.0))).astype(np.int64)
    # Cell i contributes left + j * ((right - left) / k), j = 1..k, with its
    # last point set to right exactly: the points np.linspace would give.
    ends = np.cumsum(k)
    cell = np.repeat(np.arange(k.size), k)
    j = np.arange(1, ends[-1] + 1) - np.repeat(ends - k, k)
    inner = j * ((right - left) / k)[cell] + left[cell]
    inner[ends - 1] = right
    return np.concatenate([anchors[:1], inner])


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


def _cell_integrals(vals: np.ndarray, half: np.ndarray) -> np.ndarray:
    """Gauss-Legendre(8) integral over each cell of values given at its nodes.

    The eight weighted node values of a cell are added as column arrays, in
    the order numpy's pairwise summation uses for eight terms,
    ((p0 + p1) + (p2 + p3)) + ((p4 + p5) + (p6 + p7)).  That is the result of
    ``(vals * _GL_WEIGHTS).sum(axis=1)`` bit for bit at about half its cost,
    so every Stein solve keeps its values; adding the columns left to right,
    or a matrix-vector product, rounds differently.
    """
    p = vals * _GL_WEIGHTS
    return (((p[:, 0] + p[:, 1]) + (p[:, 2] + p[:, 3]))
            + ((p[:, 4] + p[:, 5]) + (p[:, 6] + p[:, 7]))) * half


@dataclass(frozen=True)
class _SteinLattice:
    """The part of a Stein solve that depends on (grid, nu) only: the
    refined edges, the Gauss-Legendre nodes with the Gaussian kernel K on
    them and its total integral, and, for the grid points, their lattice
    indices and tail prefactors exp(x^2 / 2 nu^2) / nu^2.  ``far`` marks the
    points past the exponent cap, where the far-tail asymptotic applies and
    the prefactor is 0."""

    edges: np.ndarray
    mid: np.ndarray
    half: np.ndarray
    nodes: np.ndarray
    kern: np.ndarray
    kern_mass: float
    idx: np.ndarray
    pref: np.ndarray
    far: np.ndarray


@lru_cache(maxsize=1)
def _stein_lattice(grid_bytes: bytes, nu: float) -> _SteinLattice:
    """Build the lattice of the validated grid whose float64 bytes are
    ``grid_bytes``.  The key is the bytes, not the array, so a grid changed
    in place after a solve gets a new lattice; the cached arrays are
    read-only, because every solve on this (grid, nu) shares them."""
    g = np.frombuffer(grid_bytes, dtype=float)
    edges = _refined_edges(g, nu)
    idx = np.searchsorted(edges, g)
    if not np.allclose(edges[idx], g, rtol=0, atol=1e-12 * max(1.0, nu)):
        raise RuntimeError("grid points must be lattice points")
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * np.diff(edges)
    nodes = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    kern = np.exp(-0.5 * (nodes / nu) ** 2)
    expo = 0.5 * (g / nu) ** 2
    safe = expo <= _TAIL_EXPONENT
    pref = np.zeros_like(g)
    pref[safe] = np.exp(expo[safe]) / nu ** 2
    lattice = _SteinLattice(edges=edges, mid=mid, half=half, nodes=nodes, kern=kern,
                            kern_mass=_cell_integrals(kern, half).sum(), idx=idx,
                            pref=pref, far=~safe)
    for value in vars(lattice).values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return lattice


def _stein_cells(prob: SteinProblem, lattice: _SteinLattice) -> tuple[np.ndarray, float]:
    """Per-cell Gauss-Legendre(8) integrals of K (h - E h), K the Gaussian
    kernel exp(-x^2 / 2 nu^2), and E h = int K h / int K.

    h is evaluated once per node; the nodes, K and int K come from the
    lattice.
    """
    hvals = np.asarray(prob.h(lattice.nodes), float)
    e_h = float(_cell_integrals(lattice.kern * hvals, lattice.half).sum() / lattice.kern_mass)
    return _cell_integrals(lattice.kern * (hvals - e_h), lattice.half), e_h


def stein_solve(prob: SteinProblem, grid) -> SteinSolution:
    """Bounded solution of the Stein equation on ``grid``.

    The left-tail integral form is used for x <= 0 and the right-tail form
    for x > 0 (the two agree because the weighted integral of h - E[h] over
    the whole line vanishes), so the exp(x^2 / 2 nu^2) prefactor only ever
    multiplies a same-scale tail mass.  Derivatives come from the ODE itself:
    f' = (h - E h + x f) / nu^2 and f'' = (h' + f + x f') / nu^2.
    """
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size < 2 or not np.all(np.diff(g) > 0):
        raise ValueError("grid must be 1-D and strictly increasing")
    if not np.all(np.isfinite(g)):
        raise ValueError("grid points must be finite")
    nu = prob.nu
    if g[0] > -8.0 * nu or g[-1] < 8.0 * nu:
        raise ValueError("grid must span at least [-8 nu, 8 nu]")
    lattice = _stein_lattice(g.tobytes(), nu)
    cells, e_h = _stein_cells(prob, lattice)
    cum_left = np.concatenate([[0.0], np.cumsum(cells)])
    cum_right = cum_left[-1] - cum_left

    idx = lattice.idx
    f = lattice.pref * np.where(g <= 0, cum_left[idx], -cum_right[idx])
    if np.any(lattice.far):
        # Far tail: the ODE balances -x f ~ h - E h.
        gx = g[lattice.far]
        f[lattice.far] = -(np.asarray(prob.h(gx), float) - e_h) / gx
    hvals = np.asarray(prob.h(g), dtype=float)
    dhvals = np.asarray(prob.dh(g), dtype=float)
    df = (hvals - e_h + g * f) / nu ** 2
    d2f = (dhvals + f + g * df) / nu ** 2
    h_deriv_sup = float(np.max(np.abs(np.asarray(prob.dh(lattice.mid), dtype=float))))
    return SteinSolution(grid=g, f=f, df=df, d2f=d2f, e_h=e_h, h_deriv_sup=h_deriv_sup)


def stein_test_family() -> list[tuple]:
    """Twenty C^1 test functions with bounded derivative, as (h, dh) pairs:
    tanh ramps, Gaussian-smoothed indicators, arctan, and a rational bump."""
    fam = []
    for k in (0.5, 1.0, 2.0, 5.0):
        for c in (-0.5, 0.0, 0.7):
            fam.append((lambda x, k=k, c=c: np.tanh(k * (x - c)),
                        lambda x, k=k, c=c: k / np.cosh(k * (x - c)) ** 2))
    for w in (0.2, 0.5, 1.0):
        for c in (0.0, 0.3):
            fam.append((lambda x, w=w, c=c: ndtr((x - c) / w),
                        lambda x, w=w, c=c: np.exp(-0.5 * ((x - c) / w) ** 2)
                        / (w * np.sqrt(2 * np.pi))))
    fam.append((np.arctan, lambda x: 1.0 / (1.0 + x ** 2)))
    fam.append((lambda x: x / (1.0 + x ** 2),
                lambda x: (1.0 - x ** 2) / (1.0 + x ** 2) ** 2))
    return fam


def stein_bound_margins(sol: SteinSolution, nu: float) -> dict[str, float]:
    """Slack of the three classical bounds (positive means satisfied):
    ||f|| <= 2||h'||, ||f'|| <= sqrt(2/(pi nu^2)) ||h'||, ||f''|| <= 2||h'||/nu^2."""
    hsup = sol.h_deriv_sup
    return {
        "f": 2.0 * hsup - float(np.max(np.abs(sol.f))),
        "df": np.sqrt(2.0 / (np.pi * nu ** 2)) * hsup - float(np.max(np.abs(sol.df))),
        "d2f": 2.0 / nu ** 2 * hsup - float(np.max(np.abs(sol.d2f))),
    }


# ---------------------------------------------------------------------------
# exclusion generator on the centered block count
# ---------------------------------------------------------------------------

def zeta_support(n: int, ell: int):
    """Reachable block-1 counts Y and their centered scaled values
    Z = (Y - ell^2/n) / sqrt(n), for ell particles and block size ell."""
    n, ell = int(n), int(ell)
    if not 1 <= ell <= n - 1:
        raise ValueError("need 1 <= ell <= n - 1")
    y = np.arange(max(0, 2 * ell - n), ell + 1)
    z = (y - ell * ell / n) / np.sqrt(n)
    return y, z


def exclusion_apply(n: int, ell: int, f) -> np.ndarray:
    """Action of the complete-graph exclusion generator on f(Z), all Y at once.

    L f(Z) = Y(n - 2 ell + Y)/n * (f(Z - 1/sqrt n) - f(Z))
           + (ell - Y)^2 / n   * (f(Z + 1/sqrt n) - f(Z)).
    Its expectation under the hypergeometric law of Y vanishes for every f.
    """
    y, z = zeta_support(n, ell)
    s = 1.0 / np.sqrt(n)
    down = y * (n - 2 * ell + y) / n
    up = (ell - y) ** 2 / n
    fz = np.asarray(f(z), dtype=float)
    return down * (np.asarray(f(z - s), float) - fz) + up * (np.asarray(f(z + s), float) - fz)


def hypergeom_zeta_pmf(n: int, ell: int) -> Pmf:
    """Exact law of Z under the uniform-given-count start.

    Y is Hypergeometric(n, ell, ell); Z has mean 0 and variance
    (n/(n-1)) m0^2 (1-m0)^2 with m0 = ell/n.  The law is built in O(n) from
    the consecutive ratio p(y+1)/p(y) = (ell-y)^2 / ((y+1)(n-2 ell+y+1)),
    whose numerator and denominator are exact integers in doubles.  The
    ratio decreases in y (the law is log-concave), so cumulative products
    taken outward from the mode never exceed the mode's value; the mode is
    seeded with 2^900 so that every product that survives normalisation is a
    normal double and only the final division rounds into the subnormal
    range.  A point k steps from the mode carries 2k roundings (ratio and
    product), which mostly cancel: against ``scipy.stats.hypergeom.pmf``
    (O(n) work per point, O(n^2) per law) the relative error was at most
    1.4e-14 wherever p > 1e-200, with the same zeros, over 3000 laws with n
    up to 20000.
    """
    y, z = zeta_support(n, ell)
    yf = y[:-1].astype(float)
    num = (ell - yf) ** 2
    den = (yf + 1.0) * (n - 2 * ell + yf + 1.0)
    mode = int(np.count_nonzero(num > den))
    right = num[mode:] / den[mode:]
    left = den[:mode][::-1] / num[:mode][::-1]
    probs = np.empty(y.size)
    probs[mode] = _MODE_SEED
    if right.size:
        right[0] *= _MODE_SEED
        probs[mode + 1:] = np.cumprod(right)
    if left.size:
        left[0] *= _MODE_SEED
        probs[:mode] = np.cumprod(left)[::-1]
    return Pmf(z, probs / probs.sum())


@dataclass(frozen=True)
class ExclusionResidual:
    """Pointwise gap between the exclusion action and the Stein operator."""

    y: np.ndarray
    z: np.ndarray
    residual: np.ndarray
    bound: np.ndarray

    @property
    def max_residual(self) -> float:
        return float(np.max(self.residual))

    @property
    def min_margin(self) -> float:
        return float(np.min(self.bound - self.residual))


def exclusion_stein_residual(n: int, ell: int, f, df, d2f, d3f) -> ExclusionResidual:
    """Compare L f(Z) with S f'(Z) = nu^2 f''(Z) - Z f'(Z) at every Y.

    With nu = m0 (1 - m0) the gap is bounded by
    |Z| sup|f''| / (2 sqrt n) + m0 sup|f'''| / (3 sqrt n), the sups taken
    over the reachable Z-range widened by one lattice step.
    """
    y, z = zeta_support(n, ell)
    m0 = ell / n
    nu_sq = (m0 * (1.0 - m0)) ** 2
    lf = exclusion_apply(n, ell, f)
    stein_part = nu_sq * np.asarray(d2f(z), float) - z * np.asarray(df(z), float)
    residual = np.abs(lf - stein_part)
    pad = 1.0 / np.sqrt(n)
    zz = np.linspace(z[0] - pad, z[-1] + pad, 4001)
    sup2 = float(np.max(np.abs(np.asarray(d2f(zz), float))))
    sup3 = float(np.max(np.abs(np.asarray(d3f(zz), float))))
    bound = np.abs(z) * sup2 / (2.0 * np.sqrt(n)) + m0 * sup3 / (3.0 * np.sqrt(n))
    return ExclusionResidual(y=y, z=z, residual=residual, bound=bound)


def hypergeom_gaussian_w1(n: int, ell: int) -> tuple[float, float]:
    """W1 between the centered scaled hypergeometric start and its Gaussian
    limit N(0, nu^2), nu = m0 (1 - m0), plus the normalization
    distance * m0 (1 - m0) * sqrt(n) whose boundedness across n is the
    empirical CLT constant."""
    pmf = hypergeom_zeta_pmf(n, ell)
    m0 = ell / n
    nu = m0 * (1.0 - m0)
    distance = w1_discrete_vs_gaussian(pmf, 0.0, nu)
    return float(distance), float(distance * nu * np.sqrt(n))
