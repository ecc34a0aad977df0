"""Numerical Stein machinery for the Gaussian limit of block fluctuations.

The Stein equation nu^2 f'(x) - x f(x) = h(x) - E[h(W)], W ~ N(0, nu^2), has
a unique bounded solution; it is evaluated here from its integral
representation with a tail-switched quadrature that stays stable across the
whole working interval.  Everything in a solve but h depends on (grid, nu)
only: the refined quadrature lattice, the Gaussian kernel on its nodes and
the grid's tail prefactors.  Each lattice cell gets 4 or 8 Gauss-Legendre
nodes: 4 where an a-priori bound on the 4-node remainder of the Gaussian
factor, (lambda w)^8 (4!)^4 / (9 (8!)^3) for a cell of width w, with lambda
= max(|x| / nu^2, 16 / nu) at its outer end |x|, is below 2^-53, and 8
elsewhere.  On ``validate``'s grids every cell between the grid's ends gets
4 (the bound is at most 4e-18 there) and the nu / 16 cells of the tail
extension get 8.  The cells of one node count form a node block, and the
block's cell integrals are one matrix-vector product of the Gauss-Legendre
weights with its node values (BLAS rounds a cell's few terms in an order of
its own, so a cell can differ by an ulp from numpy's row sum; the sums over
cells stay numpy's).  ``stein_lattice`` builds the (grid, nu) part once, as
a ``SteinLattice`` the caller keeps; its ``solve`` evaluates only h, so a
whole function family on one grid pays for one lattice.

The complete-graph symmetric exclusion generator acting on the centered,
sqrt(n)-scaled block count supplies the discrete side: its action is an
explicit two-term difference operator whose gap to the Stein operator is
bounded pointwise, which is what turns the generator identity into a
quantitative CLT for the hypergeometric start.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import ndtr

from .errors import CapacityError
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

# Largest support of the block-count laws below, min(ell, n - ell) + 1
# points.  ``hypergeom_gaussian_w1`` peaks at 10 doubles a point, so the
# budget is 320 MiB; ``stein-rate`` at m0 = 1/2 reaches n = 2^23 - 1.
ZETA_SUPPORT_CAP = 2**22


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
    refined so no cell is wider than nu / 16.

    That width is the scale on which h is assumed smooth.  The grid's own
    cells are often much narrower (nu / 250 and nu / 167 on ``validate``'s
    grids), so ``_gl_orders`` gives them 4 Gauss-Legendre nodes instead of
    8; the refined cells of the 6 nu extension keep 8.
    """
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


# Gauss-Legendre nodes and weights on [-1, 1], by node count.
_GAUSS_LEGENDRE = {order: np.polynomial.legendre.leggauss(order) for order in (4, 8)}

# The 4-node Gauss-Legendre remainder on a cell of width w is
# w^9 (4!)^4 / (9 (8!)^3) |g^(8)|; per unit of the integral it is this
# constant times (lambda w)^8 when g^(8) / g is of order lambda^8.
_GL4_REMAINDER = 24.0 ** 4 / (9.0 * 40320.0 ** 3)


def _gl_orders(edges: np.ndarray, nu: float) -> np.ndarray:
    """Gauss-Legendre node count of each lattice cell: 4 where the 4-node
    remainder of the Gaussian factor, (lambda w)^8 (4!)^4 / (9 (8!)^3), is
    below 2^-53, else 8.  w is the cell's width and lambda =
    max(|x| / nu^2, 16 / nu), |x| its outer end: the Gaussian's log-slope
    there, floored by the nu / 16 smoothness of h that the lattice assumes.
    Cells of width nu / 16 or more always get 8.
    """
    outer = np.maximum(np.abs(edges[:-1]), np.abs(edges[1:]))
    scale = np.maximum(outer / nu ** 2, 16.0 / nu) * np.diff(edges)
    return np.where(scale ** 8 * _GL4_REMAINDER < 2.0 ** -53, 4, 8)


@dataclass(frozen=True)
class _NodeBlock:
    """The lattice cells of one Gauss-Legendre order: their indices, half
    widths and the slice of the lattice's flat node array that holds their
    nodes, node by node (the first node of every cell, then the second,
    ...).  A block may have no cells."""

    order: int
    cells: np.ndarray
    half: np.ndarray
    nodes: slice


@dataclass(frozen=True)
class SteinLattice:
    """The part of a Stein solve that depends on (grid, nu) only, built by
    ``stein_lattice``: the refined edges and cell midpoints, the
    Gauss-Legendre nodes of all cells in one flat array (4-node cells first,
    then 8-node cells, as ``blocks`` says) with the Gaussian kernel K on them
    and its total integral, and, for the grid points, their tail prefactors
    exp(x^2 / 2 nu^2) / nu^2 and where their tail sums sit.  The grid points
    at or below 0 take the left-tail form: ``left`` gives each one's entry
    in the running sum over the first ``head`` cells.  The points above 0
    take the right-tail form: ``right`` gives each one's entry in the
    running sum from the last cell down to cell ``tail``.  ``far`` indexes
    the points past the exponent cap, where the far-tail asymptotic applies
    and the prefactor is 0.  Each solve evaluates h once per entry of
    ``nodes``, and computes nothing else that depends on (grid, nu) alone."""

    grid: np.ndarray
    nu: float
    edges: np.ndarray
    mid: np.ndarray
    blocks: tuple[_NodeBlock, ...]
    nodes: np.ndarray
    kern: np.ndarray
    kern_mass: float
    pref: np.ndarray
    head: int
    left: np.ndarray
    tail: int
    right: np.ndarray
    far: np.ndarray

    def solve(self, prob: SteinProblem) -> SteinSolution:
        """Bounded solution of the Stein equation of ``prob`` on the lattice's grid.

        The left-tail integral form is used for x <= 0 and the right-tail
        form for x > 0 (the two agree because the weighted integral of
        h - E[h] over the whole line vanishes), so the exp(x^2 / 2 nu^2)
        prefactor only ever multiplies a same-scale tail mass.  Each tail
        mass is summed from its own end: taken as the total minus the left
        sums, the right tail would keep the rounding of a running sum far
        larger than itself, which the prefactor (e^40 at 9 nu) turns into
        errors of up to 1e-13 in f.  Derivatives come from the ODE itself:
        f' = (h - E h + x f) / nu^2 and f'' = (h' + f + x f') / nu^2.
        """
        nu, g = self.nu, self.grid
        if prob.nu != nu:
            raise ValueError(f"problem has nu = {prob.nu!r}, the lattice nu = {nu!r}")
        cells, e_h = _stein_cells(prob, self)
        # each running sum goes only as far as some grid point reads it
        head = np.cumsum(cells[:self.head])
        tail = np.cumsum(cells[self.tail:][::-1])[::-1]
        f = np.concatenate([head[self.left], -tail[self.right]])
        f *= self.pref
        if self.far.size:
            # Far tail: the ODE balances -x f ~ h - E h.
            gx = g[self.far]
            f[self.far] = -(np.asarray(prob.h(gx), float) - e_h) / gx
        hvals = np.asarray(prob.h(g), dtype=float)
        dhvals = np.asarray(prob.dh(g), dtype=float)
        df = (hvals - e_h + g * f) / nu ** 2
        d2f = (dhvals + f + g * df) / nu ** 2
        h_deriv_sup = float(np.max(np.abs(np.asarray(prob.dh(self.mid), dtype=float))))
        return SteinSolution(grid=g, f=f, df=df, d2f=d2f, e_h=e_h, h_deriv_sup=h_deriv_sup)


def _lattice_cells(blocks: tuple[_NodeBlock, ...], vals: np.ndarray) -> np.ndarray:
    """Per-cell integrals, in lattice order, of values given at the flat
    node array of ``blocks``.

    A block's values form a contiguous (order, cells) array, node by node,
    so its weighted sums are one matrix-vector product, the Gauss-Legendre
    weights times that array: one pass over the values in place of one per
    node.  BLAS adds a cell's 4 or 8 terms in an order of its own, with
    fused multiply-adds, and the last few cells of a block can take another
    code path than the rest; so a cell may differ by an ulp from numpy's
    row sum of the same terms, or from the same cell in a block of another
    size.  A lattice's blocks are fixed, so its solves repeat bit for bit,
    and the product splits cells, not terms, over BLAS threads.  Sums across
    cells (E h, the tails) stay numpy reductions over the returned array,
    never a BLAS dot, whose threaded reduction could tie them to the thread
    count.
    """
    out = np.empty(sum(block.cells.size for block in blocks))
    for block in blocks:
        weights = _GAUSS_LEGENDRE[block.order][1]
        out[block.cells] = (weights @ vals[block.nodes].reshape(block.order, -1)) * block.half
    return out


def stein_lattice(grid, nu: float) -> SteinLattice:
    """The quadrature lattice of Stein solves on ``grid`` at scale ``nu``,
    built on a copy of the grid.  The grid must be finite, strictly
    increasing and span at least [-8 nu, 8 nu]; each lattice cell's node
    count comes from ``_gl_orders``."""
    if not (np.isfinite(nu) and nu > 0):
        raise ValueError("nu must be positive and finite")
    g = np.array(grid, dtype=float)
    if g.ndim != 1 or g.size < 2 or not np.all(np.diff(g) > 0):
        raise ValueError("grid must be 1-D and strictly increasing")
    if not np.all(np.isfinite(g)):
        raise ValueError("grid points must be finite")
    if g[0] > -8.0 * nu or g[-1] < 8.0 * nu:
        raise ValueError("grid must span at least [-8 nu, 8 nu]")
    edges = _refined_edges(g, nu)
    idx = np.searchsorted(edges, g)
    if not np.allclose(edges[idx], g, rtol=0, atol=1e-12 * max(1.0, nu)):
        raise RuntimeError("grid points must be lattice points")
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * np.diff(edges)
    orders = _gl_orders(edges, nu)
    blocks, nodes, start = [], [], 0
    for order in (4, 8):
        cells = np.flatnonzero(orders == order)
        nodes.append((mid[cells] + half[cells] * _GAUSS_LEGENDRE[order][0][:, None]).ravel())
        blocks.append(_NodeBlock(order=order, cells=cells, half=half[cells],
                                 nodes=slice(start, start + nodes[-1].size)))
        start += nodes[-1].size
    nodes = np.concatenate(nodes)
    kern = np.exp(-0.5 * (nodes / nu) ** 2)
    expo = 0.5 * (g / nu) ** 2
    safe = expo <= _TAIL_EXPONENT
    pref = np.zeros_like(g)
    pref[safe] = np.exp(expo[safe]) / nu ** 2
    # the lattice reaches 6 nu past both grid ends, so 1 <= idx <= cells - 1:
    # a point's left tail is the sum of its first idx cells, its right tail
    # that of the cells from idx on
    split = int(np.searchsorted(g, 0.0, side="right"))
    head = int(idx[split - 1]) if split else 0
    tail = int(idx[split]) if split < g.size else mid.size
    blocks = tuple(blocks)
    return SteinLattice(grid=g, nu=nu, edges=edges, mid=mid, blocks=blocks, nodes=nodes,
                        kern=kern, kern_mass=_lattice_cells(blocks, kern).sum(), pref=pref,
                        head=head, left=idx[:split] - 1, tail=tail, right=idx[split:] - tail,
                        far=np.flatnonzero(~safe))


def _stein_cells(prob: SteinProblem, lattice: SteinLattice) -> tuple[np.ndarray, float]:
    """Per-cell Gauss-Legendre integrals of K (h - E h), K the Gaussian
    kernel exp(-x^2 / 2 nu^2), and E h = int K h / int K.

    h is evaluated once per node; the nodes, K and int K come from the
    lattice.  Each pass integrates both node blocks into one cell array.
    """
    hvals = np.asarray(prob.h(lattice.nodes), float)
    e_h = float(_lattice_cells(lattice.blocks, lattice.kern * hvals).sum() / lattice.kern_mass)
    return _lattice_cells(lattice.blocks, lattice.kern * (hvals - e_h)), e_h


def stein_solve(prob: SteinProblem, grid) -> SteinSolution:
    """Bounded solution of the Stein equation on ``grid``: one
    ``SteinLattice.solve`` on a lattice built for this call alone."""
    return stein_lattice(grid, prob.nu).solve(prob)


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
    Z = (Y - ell^2/n) / sqrt(n), for ell particles and block size ell.

    More than ``ZETA_SUPPORT_CAP`` points raise ``CapacityError`` before
    anything is allocated."""
    n, ell = int(n), int(ell)
    if not 1 <= ell <= n - 1:
        raise ValueError("need 1 <= ell <= n - 1")
    size = min(ell, n - ell) + 1
    if size > ZETA_SUPPORT_CAP:
        raise CapacityError(f"n={n} ell={ell} has {size} support points, above the cap of "
                            f"{ZETA_SUPPORT_CAP} ({ZETA_SUPPORT_CAP * 80 / 2**20:.0f} MiB budget)")
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
