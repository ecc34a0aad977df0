"""Reference implementations that only the tests use.

Each one spells out a rule of the model directly, one state at a time, or
computes a law by an independent route in higher precision, so the tests can
check the package's vectorized code against it.
"""

from math import factorial
from unittest import mock

import numpy as np
from scipy.optimize import brentq, linear_sum_assignment
from scipy.spatial.distance import cdist

from noisyvoter import stein
from noisyvoter.model import BlockPartition, ModelParams, count_rates


def _check_block_counts(params: ModelParams, part: BlockPartition, x) -> tuple[int, int]:
    if part.n != params.n:
        raise ValueError(f"partition covers {part.n} sites, params have n={params.n}")
    x0, x1 = int(x[0]), int(x[1])
    if not (0 <= x0 <= part.n0 and 0 <= x1 <= part.n1):
        raise ValueError(f"block counts {(x0, x1)} outside [0,{part.n0}]x[0,{part.n1}]")
    return x0, x1


def block_rates(params: ModelParams, part: BlockPartition, x) -> tuple[float, float, float, float]:
    """Per-block birth/death rates (up0, up1, down0, down1) at counts x=(x0,x1).

    The total count X = x0+x1 enters every rate; the per-block rates sum to
    the lumped ``count_rates``.
    """
    x0, x1 = _check_block_counts(params, part, x)
    n, a, b = params.n, params.a, params.b
    X = x0 + x1
    up0 = (part.n0 - x0) * (a + X) / n
    up1 = (part.n1 - x1) * (a + X) / n
    down0 = x0 * (b + n - X) / n
    down1 = x1 * (b + n - X) / n
    return up0, up1, down0, down1


def generator_residual(params: ModelParams, k: int, f, df, d2f) -> float:
    """Gap between the rescaled discrete generator and its diffusion limit.

    Applies the count generator (sped up by n) to f as a function of the
    density M = k/n, exactly via the jump rates, and subtracts the
    Wright-Fisher generator (a(1-x) - b x) f'(x) + x(1-x) f''(x).  The gap is
    O(||f''||/n + ||f'''||/n^2 + ||f''''||/n^2) and vanishes identically for
    linear f.
    """
    n, a, b = params.n, params.a, params.b
    up, down = count_rates(params, k)
    m = k / n
    discrete = n * (up * (f(m + 1.0 / n) - f(m)) + down * (f(m - 1.0 / n) - f(m)))
    limit = (a * (1 - m) - b * m) * df(m) + m * (1 - m) * d2f(m)
    return float(discrete - limit)


def hahn_laws_longdouble(params: ModelParams, k0: int, times, modes: int) -> np.ndarray:
    """Count laws at ``times`` from the count ``k0``, summed over the ``modes``
    slowest Hahn modes in 80-bit ``np.longdouble``; shape (n+1, T).

    Valid only for few modes.  Run forward in the degree, the recurrence
    below loses accuracy from a degree of about 6 sqrt(n) (mode 48 at n = 64,
    a = b = 1), so it is an oracle for the slow modes at large n, not an
    eigensolver.

    The symmetrized generator's eigenvector of degree j is
    v_j = sqrt(pi) Q_j / |Q_j|, with Q_j(k; alpha, beta, N) the Hahn
    polynomial at alpha = a-1, beta = b-1, N = n, orthogonal under the
    Beta-Binomial weight pi, and its eigenvalue is -j(j-1+a+b)/n (Karlin and
    McGregor 1962).  The v_j follow from the orthonormal three-term
    recurrence v_0 = sqrt(pi),
    v_{j+1} = ((A_j + C_j - k) v_j - b_j v_{j-1}) / b_{j+1}, b_{j+1} = sqrt(A_j C_{j+1}),
    with A_j = (j+s+1)(j+alpha+1)(N-j) / ((2j+s+1)(2j+s+2)),
    C_j = j(j+s+N+1)(j+beta) / ((2j+s)(2j+s+1)), s = alpha + beta, C_0 = 0,
    and A_0 = (alpha+1) N / (s+2), its limit, so that a + b = 1 works.  The
    law at t is sqrt(pi) sum_j e^{lambda_j t} v_j v_j(k0) / sqrt(pi(k0)).
    """
    n = params.n
    a, b, big = np.longdouble(params.a), np.longdouble(params.b), np.longdouble(n)
    alpha, beta = a - 1, b - 1
    s = alpha + beta
    k = np.arange(n + 1, dtype=np.longdouble)
    # detailed balance: pi(k+1) / pi(k) = up(k) / down(k+1)
    up, down = (big - k) * (a + k) / big, k * (b + big - k) / big
    pi = np.concatenate(([np.longdouble(1)], np.cumprod(up[:-1] / down[1:])))
    root = np.sqrt(pi / pi.sum())

    def rise(j):  # A_j
        if j == 0:
            return (alpha + 1) * big / (s + 2)
        return (j + s + 1) * (j + alpha + 1) * (big - j) / ((2 * j + s + 1) * (2 * j + s + 2))

    def fall(j):  # C_j
        return j * (j + s + big + 1) * (j + beta) / ((2 * j + s) * (2 * j + s + 1)) if j else 0

    ts = np.asarray(times, dtype=np.longdouble)
    laws = np.zeros((n + 1, ts.size), dtype=np.longdouble)
    prev, cur, off = np.zeros_like(root), root, np.longdouble(0)
    for j in range(modes):
        laws += np.outer(cur, np.exp(-j * (j - 1 + a + b) / big * ts) * cur[k0])
        if j + 1 < modes:
            nxt = np.sqrt(rise(j) * fall(j + 1))
            prev, cur, off = cur, ((rise(j) + fall(j) - k) * cur - off * prev) / nxt, nxt
    return root[:, None] * laws / root[k0]


def plain_cityblock_matching(xs, ys) -> float:
    """Oracle: the assignment solved on the unreduced l1 cost matrix."""
    c = cdist(xs, ys, "cityblock")
    return float(c[linear_sum_assignment(c)].mean())


def plain_euclidean_matching(xs, ys) -> float:
    """Oracle: the assignment solved cold on the Euclidean cost matrix."""
    c = cdist(xs, ys)
    return float(c[linear_sum_assignment(c)].mean())


def stein_cell_orders(edges, nu):
    """Gauss-Legendre node count of each Stein lattice cell, one cell at a
    time: 4 when (lambda w)^8 (4!)^4 / (9 (8!)^3) < 2^-53 for the cell's
    width w and lambda = max(|x| / nu^2, 16 / nu) at its outer end |x|,
    else 8."""
    remainder = factorial(4) ** 4 / (9 * factorial(8) ** 3)
    orders = []
    for left, right in zip(edges[:-1], edges[1:]):
        lam = max(max(abs(left), abs(right)) / nu ** 2, 16.0 / nu)
        orders.append(4 if (lam * (right - left)) ** 8 * remainder < 2.0 ** -53 else 8)
    return np.array(orders)


def _three_pass_cells(prob, edges, orders, blas_sums):
    """Cell integrals of K, K h and K (h - E h) for the given node counts,
    each with its nodes, kernel and h rebuilt from ``edges`` per order, then
    scattered into lattice order.  With ``blas_sums`` each order's cells are
    summed as the Gauss-Legendre weights times a contiguous (order, cells)
    array, the product ``stein`` forms; otherwise by numpy's row sums."""
    nu = prob.nu

    def cell_integrals(func):
        out = np.empty(edges.size - 1)
        for order in (4, 8):
            cells = np.flatnonzero(orders == order)
            left, right = edges[cells], edges[cells + 1]
            mid, half = 0.5 * (right + left), 0.5 * (right - left)
            x, w = np.polynomial.legendre.leggauss(order)
            nodes = mid[:, None] + half[:, None] * x[None, :]
            if blas_sums:
                out[cells] = (w @ np.ascontiguousarray(func(nodes).T)) * half
            else:
                out[cells] = (func(nodes) * w[None, :]).sum(axis=1) * half
        return out

    def kernel(x):
        return np.exp(-0.5 * (x / nu) ** 2)

    kern_cells = cell_integrals(kernel)
    h_kern_cells = cell_integrals(lambda x: kernel(x) * np.asarray(prob.h(x), float))
    e_h = float(h_kern_cells.sum() / kern_cells.sum())
    cells = cell_integrals(lambda x: kernel(x) * (np.asarray(prob.h(x), float) - e_h))
    return cells, e_h


def three_pass_stein_cells(prob, lattice):
    """The Stein cell integrals with the node counts, the nodes, the kernel
    and h rebuilt from the lattice's edges for each of the three integrals:
    the reference for the single-pass ``stein._stein_cells``, each cell
    summed by the same product."""
    orders = stein_cell_orders(lattice.edges, prob.nu)
    return _three_pass_cells(prob, lattice.edges, orders, blas_sums=True)


def gl8_stein_solve(prob, grid):
    """``stein.stein_solve`` with 8 Gauss-Legendre nodes in every lattice
    cell, each cell summed by numpy's row sum: the accuracy reference for
    the per-cell node counts and the cell sums."""
    def gl8_cells(prob, lattice):
        orders = np.full(lattice.edges.size - 1, 8)
        return _three_pass_cells(prob, lattice.edges, orders, blas_sums=False)

    with mock.patch.object(stein, "_stein_cells", gl8_cells):
        return stein.stein_solve(prob, grid)


def scalar_w1_oracle(p, law):
    """The same cell decomposition as w1_discrete_vs_wf, one cell at a time,
    with each crossing solved by brentq to full precision."""
    edges = np.concatenate(([0.0], p.support, [1.0]))
    levels = np.concatenate(([0.0], np.cumsum(p.probs)))
    total = 0.0
    for left, right, level in zip(edges[:-1], edges[1:], levels):
        if law.cdf(left) >= level:
            cross = left
        elif law.cdf(right) <= level:
            cross = right
        else:
            cross = brentq(lambda y: float(law.cdf(y)) - level, left, right,
                           xtol=1e-16, rtol=1e-15)
        g_left, g_cross, g_right = law.cdf_integral(np.array([left, cross, right]))
        total += (abs(level * (cross - left) - (g_cross - g_left))
                  + abs(level * (right - cross) - (g_right - g_cross)))
    return total
