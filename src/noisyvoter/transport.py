"""Kantorovich (Wasserstein-1) distance engines.

One-dimensional distances are exact: the optimal coupling is the monotone
rearrangement, equivalently the integral of the CDF gap.  Against a
continuous law the gap is integrated in closed form from the antiderivative
of its CDF, cell by cell of the pmf's support; the cell crossings of the
Wright-Fisher CDF are found by the Illinois method, and each stops once an
a-posteriori bound puts its effect on the distance far below rounding.  The
pmfs measured against one marginal share one search over all their cells,
each distance bit for bit what a search of its own gives.
Two-dimensional empirical distances are solved exactly as minimum-cost
perfect matchings under the Euclidean or the l1 (cityblock) ground metric.
The assignment solver starts from a dual that leaves its optimum unchanged
and shortens its search: under l1 the one-dimensional Kantorovich potentials
of each coordinate, under the Euclidean metric the projection onto the
direction between the two clouds' means, which is already optimal for a
translation.
Integer l1 matchings whose sorted coupling attains the bound of the l1
start are certified optimal and skip the solve; the others solve only the
points the two clouds do not share.  The pushforward check
measures the 1-D distances of several maps against one 2-D matching.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import CapacityError
from .pmf import Pmf

MATCHING_CAP = 5000
# pushforward_check accepts a map whose pairwise ratios reach 1 + this
LIP_TOL = 1e-9
# w1_discrete_vs_wf stops a cell's crossing search once moving the crossing
# anywhere in its bracket changes the distance by at most this, far below the
# rounding of the sum
_CROSSING_STOP = 1e-18
# ... and after this many CDF passes, whatever its bound
_CROSSING_PASSES = 64


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


def w1_sorted(xs, ys) -> float:
    """Exact W1 between two 1-D empirical measures with equal weights.

    Equal sizes take the sorted-pairing fast path; unequal sizes fall
    through to CDF integration.  Weighted measures go through
    ``w1_discrete``.
    """
    xs = _as_samples(xs)
    ys = _as_samples(ys)
    if xs.size == ys.size:
        return float(np.mean(np.abs(np.sort(xs) - np.sort(ys))))
    xw, yw = np.full(xs.size, 1.0 / xs.size), np.full(ys.size, 1.0 / ys.size)
    return _cdf_distance(xs, xw, ys, yw)


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
    cell.  The crossings are found together by the Illinois variant of
    regula falsi, and each cell stops on an a-posteriori bound, not a fixed
    width: a crossing off by at most the bracket width w changes the cell's
    term by at most 2 |F(c) - level| w, and every cell stops once that is
    below ``_CROSSING_STOP``.  This is ``_w1_vs_wf_search`` on a batch of
    one pmf.
    """
    return _w1_vs_wf_search([p], law)[0][0]


def _w1_vs_wf_search(pmfs, law) -> tuple[list[float], list[float], int]:
    """``w1_discrete_vs_wf`` from each pmf of ``pmfs`` to the one ``law``,
    by one crossing search over the cells of all of them, with the search's
    account: (values, bounds, passes).  ``bounds[i]`` sums, over the cells
    of ``pmfs[i]``, the a-posteriori bounds on what the crossings' error
    changes in its distance; ``passes`` is the number of ``law.cdf`` calls
    made after the one at the cell edges.

    The cells of every pmf are laid end to end: ``law.cdf`` is called once
    at every pmf's edges, once per pass over the cells still open, whichever
    pmf they belong to, and ``law.cdf_integral`` once at every edge and
    crossing.  Every step below acts on each cell alone, and each pmf's
    value and bound are summed over its own cells, so they are bit for bit
    those of a search over that pmf alone; ``passes`` is the largest of
    those searches' pass counts.

    Each open cell keeps a bracket [lo, hi] with F(lo) < level < F(hi) and
    evaluates F at the regula falsi point of the bracket ends' weighted
    residuals.  When the same end moves twice in a row, the weight of the
    end that stayed is halved (Illinois; Dowell and Jarratt 1971), which
    keeps both ends moving and makes the convergence superlinear.  A cell
    bisects instead when that point is not strictly inside the bracket or
    when an end's residual is within rounding of the level, where F is flat
    to rounding and the residuals no longer place the crossing.

    F is monotone, so the true crossing lies in the bracket, within
    hi - lo of either end, and F stays within |F(end) - level| of the level
    between them: taking the end c with the smaller residual as the
    crossing changes the cell's term by at most 2 |F(c) - level| (hi - lo).
    A cell stops when that is at most ``_CROSSING_STOP``, when its bracket
    holds no float between its ends, or after ``_CROSSING_PASSES`` passes,
    so a CDF that is flat to rounding still ends; the bound is reported as
    it is.
    """
    edges = [np.concatenate(([0.0], p.support, [1.0])) for p in pmfs]
    if any(e[1] < 0.0 or e[-2] > 1.0 for e in edges):
        raise ValueError("pmf support must lie in [0, 1]")
    # pmf i's edges are spans[i] of the joined edges, and its cells, one
    # fewer, are cell_spans[i] of the joined cells
    offsets = list(itertools.accumulate((e.size for e in edges), initial=0))
    spans = list(zip(offsets, offsets[1:]))
    cell_spans = [slice(start - i, end - i - 1) for i, (start, end) in enumerate(spans)]

    def cell_ends(at_edges):
        """Values at the joined edges, at every cell's left and right edge."""
        return (np.concatenate([at_edges[start:end - 1] for start, end in spans]),
                np.concatenate([at_edges[start + 1:end] for start, end in spans]))

    all_edges = np.concatenate(edges)
    left, right = cell_ends(all_edges)
    level = np.concatenate([np.concatenate(([0.0], np.cumsum(p.probs))) for p in pmfs])
    f_left, f_right = cell_ends(law.cdf(all_edges))
    r_left, r_right = f_left - level, f_right - level
    # F already at or above the level: cross at the left edge; still at or
    # below it: at the right edge; otherwise the cell is searched
    cross = np.where(r_left >= 0, left, right)
    bounds = np.zeros(level.size)
    cells = np.nonzero((r_left < 0) & (r_right > 0))[0]
    lo, hi = left[cells], right[cells]
    r_lo, r_hi = r_left[cells], r_right[cells]
    w_lo, w_hi = r_lo, r_hi
    moved = np.zeros(cells.size, dtype=np.int8)  # +1: lo moved last, -1: hi, 0: neither
    # a residual this small is the rounding of F near the level
    flat = 4.0 * np.finfo(float).eps * level[cells]
    passes = 0
    while cells.size:
        c = lo - w_lo * ((hi - lo) / (w_hi - w_lo))
        bisect = ~((c > lo) & (c < hi)) | (np.minimum(-r_lo, r_hi) <= flat)
        c = np.where(bisect, 0.5 * (lo + hi), c)
        r = law.cdf(c) - level[cells]
        passes += 1
        below = r < 0
        w_hi = np.where(below & (moved == 1), 0.5 * w_hi, w_hi)
        w_lo = np.where(~below & (moved == -1), 0.5 * w_lo, w_lo)
        lo, r_lo, w_lo = np.where(below, c, lo), np.where(below, r, r_lo), np.where(below, r, w_lo)
        hi, r_hi, w_hi = np.where(below, hi, c), np.where(below, r_hi, r), np.where(below, w_hi, r)
        moved = np.where(below, 1, -1).astype(np.int8)
        bound = 2.0 * np.minimum(-r_lo, r_hi) * (hi - lo)
        mid = 0.5 * (lo + hi)
        done = ((bound <= _CROSSING_STOP) | ~((mid > lo) & (mid < hi))
                | (passes >= _CROSSING_PASSES))
        cross[cells[done]] = np.where(-r_lo <= r_hi, lo, hi)[done]
        bounds[cells[done]] = bound[done]
        keep = ~done
        cells, lo, hi, r_lo, r_hi, w_lo, w_hi, moved, flat = (
            v[keep] for v in (cells, lo, hi, r_lo, r_hi, w_lo, w_hi, moved, flat))
    g = law.cdf_integral(np.concatenate((all_edges, cross)))
    (g_left, g_right), g_cross = cell_ends(g[:all_edges.size]), g[all_edges.size:]
    values = [_add_cell_gaps(0.0, level[s], left[s], cross[s], right[s], g_left[s], g_cross[s],
                             g_right[s]) for s in cell_spans]
    return values, [float(bounds[s].sum()) for s in cell_spans], passes


def check_matching_size(size: int) -> None:
    """Raise ``CapacityError`` when a matching of ``size`` pairs exceeds
    ``MATCHING_CAP``."""
    if size > MATCHING_CAP:
        raise CapacityError(f"matching size {size} exceeds cap {MATCHING_CAP}")


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


def _euclidean_potentials(xa, ya):
    """Dual start (u, v) for the Euclidean matching of the equal-size clouds
    ``xa`` and ``ya``, or None when their means coincide.

    With e the unit vector along mean(y) - mean(x), u_i = <x_i - c, e> and
    v_j = <y_j - c, e>.  The projection onto e is 1-Lipschitz, so
    v_j - u_i <= |x_i - y_j|, and mean v - mean u = |mean(y) - mean(x)| is a
    lower bound on the matching cost, attained when y is a translate of x.
    Any origin c gives the same reduced costs; c = mean(x) keeps the
    projections, and so their rounding, at the scale of the costs.
    """
    center = xa.mean(axis=0)
    shift = ya.mean(axis=0) - center
    norm = np.hypot(*shift)
    if norm == 0:
        return None
    e = shift / norm
    return (xa - center) @ e, (ya - center) @ e


class MatchingCost(float):
    """A cityblock ``w1_matching`` value on integer clouds, the plain solve's
    float, with ``rows``: the points left to solve once the clouds' shared
    points are cancelled, or 0 when the sorted coupling's certificate proved
    it optimal without a solve."""

    def __new__(cls, value: float, rows: int):
        cost = super().__new__(cls, value)
        cost.rows = rows
        return cost


def _integer_cloud(arr) -> bool:
    """Whether every coordinate is an integer below 2**31 in magnitude.

    For such clouds, of at most ``MATCHING_CAP`` points, every l1 cost, every
    gap between sorted coordinates and every sum of them is an integer below
    2**53, so float64 holds them exactly and equal totals compare equal
    without rounding.
    """
    return bool(np.all(np.abs(arr) < 2.0**31)) and np.array_equal(arr, np.rint(arr))


def _sorted_certificate(xa, ya):
    """Mean cost of the sorted coupling of the integer clouds ``xa`` and
    ``ya`` when its total attains the l1 dual bound, else None.

    Both clouds are sorted by (x0 + x1, then x0) and paired by rank.  The
    bound is the sum of the per-coordinate 1-D distances, times N: the value
    v.sum() - u.sum() of the feasible dual of ``_cityblock_potentials``, here
    taken from the sorted coordinates without building the potentials.  A
    total equal to it is optimal by weak duality.
    """
    bound = np.abs(np.sort(xa, axis=0) - np.sort(ya, axis=0)).sum()
    ox = np.lexsort((xa[:, 0], xa.sum(axis=1)))
    oy = np.lexsort((ya[:, 0], ya.sum(axis=1)))
    costs = np.abs(xa[ox] - ya[oy]).sum(axis=1)
    if costs.sum() != bound:
        return None
    return MatchingCost(costs.mean(), 0)


def _unshared(xa, ya):
    """Index arrays of the points of the integer clouds ``xa`` and ``ya``
    left once their common multiset is removed: a point that occurs i times
    in one cloud and j times in the other keeps |i - j| copies, in the cloud
    that holds more of it.

    Each point is keyed by one int64, x0 * 2**32 + x1, injective for
    coordinates below 2**31 in magnitude (``_integer_cloud``).  In each
    cloud's sorted keys, a copy is shared when its rank among the equal keys
    is below the other cloud's count of that key.
    """
    kx, ky = (a.astype(np.int64) @ np.array([2**32, 1], dtype=np.int64) for a in (xa, ya))
    ox, oy = np.argsort(kx, kind="stable"), np.argsort(ky, kind="stable")
    sx, sy = kx[ox], ky[oy]

    def kept(order, own, other):
        rank = np.arange(own.size) - np.searchsorted(own, own, side="left")
        count = np.searchsorted(other, own, side="right") - np.searchsorted(other, own, side="left")
        return order[rank >= count]

    return kept(ox, sx, sy), kept(oy, sy, sx)


def matching_solvers():
    """``scipy.optimize.linear_sum_assignment`` and
    ``scipy.spatial.distance.cdist``, imported on the first call, not with
    this module: only matchings need them, and they are a large share of the
    package's import time.  A caller that times its matchings calls this
    first, so the import is not charged to the first matching."""
    from scipy.optimize import linear_sum_assignment
    from scipy.spatial.distance import cdist

    return linear_sum_assignment, cdist


def w1_matching(xs, ys, metric: str = "euclidean") -> float:
    """Exact empirical W1 between equal-size 2-D point clouds.

    Solves the minimum-cost perfect matching by the shortest-augmenting-path
    assignment algorithm (exact optimum, O(N^3) worst case) and returns the
    mean matched cost.  ``metric`` is ``"euclidean"`` (the default) or
    ``"cityblock"``, the Hamming-compatible l1 cost; any other value raises
    ``ValueError``.  Clouds of more than ``MATCHING_CAP`` points raise
    ``CapacityError``.

    Both metrics start the solver from a dual: the cost matrix is reduced to
    cost_ij + u_i - v_j >= 0 with the potentials of ``_cityblock_potentials``
    or ``_euclidean_potentials`` before it is solved.  Adding a constant to
    every row and column changes the cost of every perfect matching by the
    same amount, so the optimal matchings are the same; the potentials only
    give the solver a dual start close to the optimum (their bound
    mean v - mean u is often the optimum itself), which shortens its
    augmenting paths.  The O(N^3) worst case is unchanged.  The returned mean
    is taken over the unreduced costs of the matched pairs, so it is the
    plain solve's value: under ``cityblock`` they are recomputed from the
    points (bit-identical on integer points), under ``euclidean`` the
    reduction goes into a second buffer and the mean is read from the
    ``cdist`` matrix.

    Under ``cityblock``, integer clouds (``thermalize``'s block counts) are
    first offered a certificate.  Both clouds are sorted by (x0 + x1, then
    x0) and paired by rank; when that matching's total cost equals the dual
    bound v.sum() - u.sum() of the l1 start, the sum of the per-coordinate
    1-D distances, weak duality proves it optimal, and its mean is returned
    as a ``MatchingCost`` of 0 rows without the potentials, the cost matrix
    or the solve.  On integers every cost and coordinate gap is exact in float64,
    so the equality test is exact and the value is the solve's, bit for bit.
    When the two clouds hold the same multiset of totals, as ``thermalize``'s
    do, this matching is the sorted coupling within each total.  Otherwise,
    and for real-valued clouds, the dual-started solve runs.

    On integer clouds that solve first cancels the multiset of points the two
    clouds share (``_unshared``): each shared point is matched to its twin at
    cost 0.  Some optimal matching does so, by uncrossing: if x = y are
    matched to y' and x' instead, the pairs (x, y) and (x', y') cost
    d(x', y') <= d(x', y) + d(x, y'), no more.  So the optimal total is that
    of the remaining points alone, and the solve runs on them only; the
    returned total / N is the full solve's, bit for bit, since every cost is
    an integer.  Every point is shared only when the multisets are equal,
    which the certificate has already answered (0.0, no solve).  The value
    is a ``MatchingCost`` whose ``rows`` is the size of that solve.
    """
    if metric not in ("euclidean", "cityblock"):
        raise ValueError(f"metric must be 'euclidean' or 'cityblock', got {metric!r}")
    linear_sum_assignment, cdist = matching_solvers()
    xa = _as_cloud(xs)
    ya = _as_cloud(ys)
    size = xa.shape[0]
    if ya.shape[0] != size:
        raise ValueError(f"point sets differ in size: {size} vs {ya.shape[0]}")
    check_matching_size(size)
    if metric == "cityblock":
        integer = _integer_cloud(xa) and _integer_cloud(ya)
        if integer:
            certified = _sorted_certificate(xa, ya)
            if certified is not None:
                return certified
            # the certificate answers equal multisets, so both remainders are
            # nonempty
            keep_x, keep_y = _unshared(xa, ya)
            xa, ya = xa[keep_x], ya[keep_y]
        u, v = _cityblock_potentials(xa, ya)
        cost = cdist(xa, ya, metric)
        cost += u[:, None]
        cost -= v
        rows, cols = linear_sum_assignment(cost)
        matched = np.abs(xa[rows] - ya[cols]).sum(axis=1)
        if integer:
            return MatchingCost(matched.sum() / size, xa.shape[0])
        return float(matched.mean())
    cost = cdist(xa, ya, metric)
    reduced = cost
    potentials = _euclidean_potentials(xa, ya)
    if potentials is not None:
        u, v = potentials
        reduced = cost + u[:, None]
        reduced -= v
    rows, cols = linear_sum_assignment(reduced)
    return float(cost[rows, cols].mean())


def pushforward_check(xs, ys, map_fn):
    """Contraction of W1 under 1-Lipschitz scalar maps of the plane.

    ``map_fn`` is one map or a sequence of maps, each taking a point to a
    float.  Verifies the Lipschitz property of every map pairwise on the
    inputs, up to a relative ``LIP_TOL``, by one row maximum over the pairs
    per map (the pairwise gaps and the worst ratio are formed only to report
    a violation), then returns (d2, d1) with d2 the 2-D matching distance,
    solved once for all maps, and d1 the largest 1-D distance of the mapped
    samples.  d1 <= d2 holds for exact distances; the caller judges the
    measured gap (``validate:pushforward-contraction``).
    """
    cdist = matching_solvers()[1]
    xa = _as_cloud(xs)
    ya = _as_cloud(ys)
    maps = [map_fn] if callable(map_fn) else list(map_fn)
    if not maps:
        raise ValueError("no map given")
    pts = np.vstack([xa, ya])
    dists = cdist(pts, pts)
    limit = (1.0 + LIP_TOL) * dists
    d1 = -np.inf
    for fn in maps:
        vals = np.asarray([float(fn(p)) for p in pts])
        # limit is symmetric, so some pair has |v_i - v_j| > limit_ij iff
        # some pair has v_j - limit_ij > v_i: one pass over limit and one row
        # max (the two round apart only where a gap is within an ulp of its
        # limit).  Coincident points have limit 0 and equal values, so the
        # test can run on every pair.
        if np.any(np.max(vals[None, :] - limit, axis=1) > vals):
            gaps = np.abs(vals[:, None] - vals[None, :])
            mask = dists > 0
            worst = float(np.max(gaps[mask] / dists[mask]))
            raise ValueError(f"map is not 1-Lipschitz on the inputs (ratio {worst:.6g})")
        d1 = max(d1, w1_sorted(vals[: len(xa)], vals[len(xa):]))
    return w1_matching(xa, ya), d1
