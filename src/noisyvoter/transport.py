"""Kantorovich (Wasserstein-1) distance engines.

One-dimensional distances are exact: the optimal coupling is the monotone
rearrangement, equivalently the integral of the CDF gap.  Two-dimensional
empirical distances are solved exactly as minimum-cost perfect matchings;
under the l1 (cityblock) ground metric the assignment solver starts from the
dual given by the one-dimensional Kantorovich potentials of each coordinate,
which leaves its optimum unchanged and shortens its search.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import CapacityError
from .pmf import Pmf

MATCHING_CAP = 5000
# w1_discrete_vs_wf brackets each CDF crossing to this width before
# interpolating inside the bracket
_CROSSING_BRACKET = 1e-6


def _as_samples(xs) -> np.ndarray:
    arr = np.asarray(xs, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("empty sample set")
    if not np.all(np.isfinite(arr)):
        raise ValueError("samples must be finite")
    return arr


def _cdf_distance(xs, xw, ys, yw) -> float:
    """Integral of |F_x - F_y| over the merged support (exact W1)."""
    xo = np.argsort(xs, kind="stable")
    yo = np.argsort(ys, kind="stable")
    xs, xw = xs[xo], xw[xo]
    ys, yw = ys[yo], yw[yo]
    grid = np.sort(np.concatenate([xs, ys]))
    fx = np.concatenate([[0.0], np.cumsum(xw)])[np.searchsorted(xs, grid[:-1], side="right")]
    fy = np.concatenate([[0.0], np.cumsum(yw)])[np.searchsorted(ys, grid[:-1], side="right")]
    return float(np.sum(np.abs(fx - fy) * np.diff(grid)))


def w1_sorted(xs, ys, x_weights=None, y_weights=None) -> float:
    """Exact W1 between two 1-D empirical measures.

    Equal-size unweighted inputs take the sorted-pairing fast path; anything
    else falls through to weighted CDF integration.
    """
    xs = _as_samples(xs)
    ys = _as_samples(ys)
    if x_weights is None and y_weights is None and xs.size == ys.size:
        return float(np.mean(np.abs(np.sort(xs) - np.sort(ys))))
    xw = np.full(xs.size, 1.0 / xs.size) if x_weights is None else np.asarray(x_weights, float)
    yw = np.full(ys.size, 1.0 / ys.size) if y_weights is None else np.asarray(y_weights, float)
    for w, s in ((xw, xs), (yw, ys)):
        if w.shape != s.shape or np.any(w < 0) or w.sum() <= 0:
            raise ValueError("weights must be nonnegative, match samples, and have positive mass")
    return _cdf_distance(xs, xw / xw.sum(), ys, yw / yw.sum())


def w1_discrete(p: Pmf, q: Pmf) -> float:
    """Exact W1 between two finite pmfs via merged-grid CDF integration."""
    return _cdf_distance(p.support, p.probs, q.support, q.probs)


def w1_lattice(probs, q: Pmf) -> np.ndarray:
    """Exact W1 between each column of ``probs`` and ``q``, all on the evenly
    spaced support of ``q``.

    ``probs`` has shape (m, T) on the m support points of ``q``; on a lattice
    of spacing h the CDF integral is h * sum_k |F_col(k) - F_q(k)|, and both
    CDFs come from one cumulative sum of ``probs - q``.  Returns shape (T,).
    """
    xs = q.support
    p = np.asarray(probs, dtype=float)
    if p.ndim != 2 or p.shape[0] != xs.size:
        raise ValueError(f"probs must have shape ({xs.size}, T), got {p.shape}")
    if xs.size == 1:
        return np.zeros(p.shape[1])
    h = (xs[-1] - xs[0]) / (xs.size - 1)
    # spacings may differ only by the rounding of the support points
    if np.max(np.abs(np.diff(xs) - h)) > 8 * np.finfo(float).eps * np.abs(xs).max():
        raise ValueError("support of q must be evenly spaced")
    gap = np.cumsum(p - q.probs[:, None], axis=0)[:-1]
    return h * np.abs(gap).sum(axis=0)


def _gauss_partial_moment(x, mean, sd):
    """Antiderivative of the Gaussian CDF: int_{-inf}^{x} Phi((u-mean)/sd) du."""
    z = (x - mean) / sd
    pdf = np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)
    return (x - mean) * ndtr(z) + sd * pdf


def w1_discrete_vs_gaussian(p: Pmf, mean: float, sd: float) -> float:
    """Exact W1 between a finite pmf and a Gaussian.

    The CDF gap is integrated analytically on each support interval (the pmf
    CDF is constant there, and the crossing point with the Gaussian CDF is
    known in closed form) plus the two Gaussian tails; no series is truncated.
    """
    if not sd > 0:
        raise ValueError("sd must be positive")
    xs = p.support
    cum = np.cumsum(p.probs)
    g = _gauss_partial_moment(xs, mean, sd)
    total = g[0]  # left tail: int Phi
    zk = (xs[-1] - mean) / sd
    pdfk = np.exp(-0.5 * zk * zk) / np.sqrt(2.0 * np.pi)
    total += sd * pdfk - (xs[-1] - mean) * ndtr(-zk)  # right tail: int (1 - Phi)
    if xs.size == 1:
        return float(total)
    left, right = xs[:-1], xs[1:]
    c = np.clip(cum[:-1], 0.0, 1.0)
    # Crossing point where Phi equals the flat CDF level c on (left, right).
    with np.errstate(divide="ignore"):
        cross = mean + sd * ndtri(c)
    cross = np.clip(np.nan_to_num(cross, nan=0.0, posinf=np.inf, neginf=-np.inf), left, right)
    return _add_cell_gaps(total, c, left, cross, right, g[:-1],
                          _gauss_partial_moment(cross, mean, sd), g[1:])


def _add_cell_gaps(total, level, left, cross, right, g_left, g_cross, g_right) -> float:
    """``total`` plus int |level - F| over the cells [left, right].

    The pmf CDF is flat at ``level`` on each cell and the continuous CDF F
    crosses it once, at ``cross``; ``g_*`` are values of F's antiderivative.
    On [left, cross] the gap has one sign and on [cross, right] the other, so
    each piece is |level * length - change of the antiderivative|.
    """
    total += np.sum(np.abs(level * (cross - left) - (g_cross - g_left)))
    total += np.sum(np.abs(level * (right - cross) - (g_right - g_cross)))
    return float(total)


def w1_discrete_vs_wf(p: Pmf, law) -> float:
    """Exact W1 between a finite pmf on [0, 1] and a continuous law on [0, 1].

    ``law`` gives its CDF F through ``law.cdf`` and the antiderivative of F
    through ``law.cdf_integral`` (``diffusion.WFMarginal``).  The pmf CDF is
    flat on each cell between consecutive support points (and on [0, first]
    and [last, 1]); the nondecreasing F crosses that level at most once per
    cell.  Vectorized bisection brackets each crossing to a width h = 1e-6
    and linear interpolation of F inside the bracket places it, off by about
    h^2 F''/F'; a crossing off by d changes the result only by about
    F'(cross) d^2.
    """
    xs = p.support
    if xs[0] < 0.0 or xs[-1] > 1.0:
        raise ValueError("pmf support must lie in [0, 1]")
    edges = np.concatenate(([0.0], xs, [1.0]))
    level = np.concatenate(([0.0], np.cumsum(p.probs)))
    f_edges = law.cdf(edges)
    lo, hi = edges[:-1].copy(), edges[1:].copy()
    f_lo, f_hi = f_edges[:-1].copy(), f_edges[1:].copy()
    hi = np.where(f_lo >= level, lo, hi)  # F already above the level: cross at left
    lo = np.where(f_hi <= level, hi, lo)  # F still below it: cross at right
    open_cells = np.nonzero(hi - lo > _CROSSING_BRACKET)[0]
    while open_cells.size:
        mid = 0.5 * (lo[open_cells] + hi[open_cells])
        f_mid = law.cdf(mid)
        below = f_mid < level[open_cells]
        lo[open_cells[below]], f_lo[open_cells[below]] = mid[below], f_mid[below]
        hi[open_cells[~below]], f_hi[open_cells[~below]] = mid[~below], f_mid[~below]
        open_cells = open_cells[hi[open_cells] - lo[open_cells] > _CROSSING_BRACKET]
    rise = f_hi - f_lo
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(rise > 0, np.clip((level - f_lo) / rise, 0.0, 1.0), 0.5)
    cross = lo + frac * (hi - lo)
    g_edges = law.cdf_integral(edges)
    return _add_cell_gaps(0.0, level, edges[:-1], cross, edges[1:], g_edges[:-1],
                          law.cdf_integral(cross), g_edges[1:])


def _as_cloud(xs) -> np.ndarray:
    arr = np.asarray(xs, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] == 0:
        raise ValueError("point set must have shape (N, 2)")
    if not np.all(np.isfinite(arr)):
        raise ValueError("points must be finite")
    return arr


def _cityblock_potentials(xa, ya):
    """Dual start (u, v) for the l1 matching of the equal-size clouds ``xa``
    and ``ya``: u_i = sum_k phi_k(x_ik) and v_j = sum_k phi_k(y_jk), with
    phi_k the optimal 1-D Kantorovich potential of coordinate k.

    phi_k is 0 at the smallest point and has slope sign(F_x - F_y) between
    neighbouring points of the merged coordinates, so it is 1-Lipschitz and
    mean phi_k(y) - mean phi_k(x) = int |F_x - F_y|, the exact 1-D W1.  Hence
    v_j - u_i <= |x_i - y_j|_1, and mean v - mean u, the sum of the
    per-coordinate W1s, is a lower bound on the l1 matching cost.
    """
    u = np.zeros(xa.shape[0])
    v = np.zeros(ya.shape[0])
    for xk, yk in zip(xa.T, ya.T):
        grid = np.sort(np.concatenate([xk, yk]))
        fx = np.searchsorted(np.sort(xk), grid[:-1], side="right")
        fy = np.searchsorted(np.sort(yk), grid[:-1], side="right")
        phi = np.concatenate([[0.0], np.cumsum(np.sign(fx - fy) * np.diff(grid))])
        # tied points share a phi value: the gaps between them are 0
        u += phi[np.searchsorted(grid, xk)]
        v += phi[np.searchsorted(grid, yk)]
    return u, v


def w1_matching(xs, ys, metric: str = "euclidean") -> float:
    """Exact empirical W1 between equal-size 2-D point clouds.

    Solves the minimum-cost perfect matching by the shortest-augmenting-path
    assignment algorithm (exact optimum, O(N^3) worst case) and returns the
    mean matched cost.  ``metric`` is any ``cdist`` ground metric; Euclidean
    is the default, ``cityblock`` gives the Hamming-compatible l1 cost.
    Clouds of more than ``MATCHING_CAP`` points raise ``CapacityError``.

    Under ``cityblock`` the cost matrix is reduced in place to
    cost_ij + u_i - v_j >= 0 with the potentials of ``_cityblock_potentials``
    before it is solved.  Adding a constant to every row and column changes
    the cost of every perfect matching by the same amount, so the optimal
    matchings are the same; the potentials only give the solver a dual start
    close to the optimum (the separable bound mean v - mean u is often the
    optimum itself), which shortens its augmenting paths.  The mean is then
    taken over the l1 costs of the matched pairs, recomputed from the points,
    so on integer points it is bit-identical to solving the plain cost
    matrix.  The O(N^3) worst case is unchanged.
    """
    # imported here, not at module level: only matchings need them, and they
    # are a large share of the package's import time
    from scipy.optimize import linear_sum_assignment
    from scipy.spatial.distance import cdist

    xa = _as_cloud(xs)
    ya = _as_cloud(ys)
    if xa.shape[0] != ya.shape[0]:
        raise ValueError(f"point sets differ in size: {xa.shape[0]} vs {ya.shape[0]}")
    if xa.shape[0] > MATCHING_CAP:
        raise CapacityError(f"matching size {xa.shape[0]} exceeds cap {MATCHING_CAP}")
    cost = cdist(xa, ya, metric)
    if metric != "cityblock":
        rows, cols = linear_sum_assignment(cost)
        return float(cost[rows, cols].mean())
    u, v = _cityblock_potentials(xa, ya)
    cost += u[:, None]
    cost -= v
    rows, cols = linear_sum_assignment(cost)
    return float(np.abs(xa[rows] - ya[cols]).sum(axis=1).mean())


def pushforward_check(xs, ys, map_fn, lip_tol: float = 1e-9):
    """Contraction of W1 under a 1-Lipschitz scalar map of the plane.

    Verifies the Lipschitz property pairwise on the inputs, then returns
    (d2, d1) with d2 the 2-D matching distance and d1 the 1-D distance of the
    mapped samples.  d1 <= d2 always holds for exact distances; a violation
    beyond 1e-12 raises.
    """
    from scipy.spatial.distance import cdist

    xa = _as_cloud(xs)
    ya = _as_cloud(ys)
    pts = np.vstack([xa, ya])
    vals = np.asarray([float(map_fn(p)) for p in pts])
    gaps = np.abs(vals[:, None] - vals[None, :])
    dists = cdist(pts, pts)
    mask = dists > 0
    if np.any(gaps[mask] > (1.0 + lip_tol) * dists[mask]):
        worst = float(np.max(gaps[mask] / dists[mask]))
        raise ValueError(f"map is not 1-Lipschitz on the inputs (ratio {worst:.6g})")
    d2 = w1_matching(xa, ya)
    d1 = w1_sorted(vals[: len(xa)], vals[len(xa):])
    if d1 > d2 + 1e-12:
        raise RuntimeError(f"pushforward contraction violated: {d1} > {d2}")
    return d2, d1
