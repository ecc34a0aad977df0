"""Stein machinery tests: ODE solution bounds, exclusion generator, QCLT."""

import itertools
import math
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import hypergeom

from noisyvoter import stein
from noisyvoter.errors import CapacityError
from noisyvoter.stein import (
    SteinProblem,
    _refined_edges,
    exclusion_apply,
    exclusion_stein_residual,
    hypergeom_gaussian_w1,
    hypergeom_zeta_pmf,
    stein_bound_margins,
    stein_lattice,
    stein_solve,
    stein_test_family,
    zeta_support,
)
from noisyvoter.transport import w1_sorted
from oracles import gl8_stein_solve, stein_cell_orders, three_pass_stein_cells

# (nu, half width in nu, points) of validate's stein-bounds and stein-identity grids
VALIDATE_GRIDS = [(0.1, 8, 4001), (0.25, 8, 4001), (1.0, 8, 4001), (0.25, 9, 3001), (1.0, 9, 3001)]


def default_grid(nu, points=2001):
    return np.linspace(-8 * nu, 8 * nu, points)


def refined_edges_oracle(grid, nu):
    """Cell-by-cell np.linspace construction of the integration lattice."""
    lo = min(grid[0], -8.0 * nu) - 6.0 * nu
    hi = max(grid[-1], 8.0 * nu) + 6.0 * nu
    anchors = np.unique(np.concatenate([[lo], grid, [hi]]))
    maxw = nu / 16.0
    pieces = [np.array([anchors[0]])]
    for left, right in zip(anchors[:-1], anchors[1:]):
        k = max(1, int(np.ceil((right - left) / maxw)))
        pieces.append(np.linspace(left, right, k + 1)[1:])
    return np.concatenate(pieces)


class TestRefinedEdges:
    @pytest.mark.parametrize("nu", [1e-3, 0.1, 0.25, 0.37, 1.0, 3.3])
    def test_matches_linspace_loop(self, nu):
        rng = np.random.default_rng(41)
        grids = [
            np.linspace(-8 * nu, 8 * nu, 4001),
            np.linspace(-9 * nu, 9 * nu, 3001),
            np.array([-8 * nu, 8 * nu]),
            np.unique(np.concatenate([[-8 * nu, 8 * nu], rng.uniform(-20 * nu, 20 * nu, 50)])),
            np.concatenate([[-8 * nu], np.geomspace(1e-3, 10.0, 7) * nu]),
        ]
        for grid in grids:
            got = _refined_edges(grid, nu)
            assert np.array_equal(got, refined_edges_oracle(grid, nu))
            assert np.all(np.diff(got) > 0) and np.max(np.diff(got)) <= nu / 16.0 * (1 + 1e-12)


class TestCellIntegrals:
    @pytest.mark.parametrize("nu,half_width,points", VALIDATE_GRIDS)
    def test_lattice_cells_match_fsum(self, nu, half_width, points):
        # each cell against the exactly rounded sum of its weighted node
        # values, on the lattice's kernel, on kernel times h, and on draws
        # over 35 decades with one value in ten replaced by +-1e300 or a
        # subnormal
        grid = np.linspace(-half_width * nu, half_width * nu, points)
        lattice = stein_lattice(grid, nu)
        rng = np.random.default_rng(43)
        draws = []
        for _ in range(3):
            vals = (rng.normal(size=lattice.nodes.size)
                    * 10.0 ** rng.uniform(-30, 5, size=lattice.nodes.size))
            special = rng.random(vals.size) < 0.1
            vals[special] = rng.choice([5e-324, -3e-310, 2.5e-308, 1e300, -1e300],
                                       size=special.sum())
            draws.append(vals)
        h = stein_test_family()[0][0]
        eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
        for vals in (lattice.kern, lattice.kern * h(lattice.nodes), *draws):
            got = stein._lattice_cells(lattice.blocks, vals)
            for block in lattice.blocks:
                weights = stein._GAUSS_LEGENDRE[block.order][1]
                terms = vals[block.nodes].reshape(block.order, -1) * weights[:, None]
                want = np.array([math.fsum(cell) for cell in terms.T]) * block.half
                # a sum of k products rounds by at most k units of 2^-53 of
                # sum |w v| (fused or not), the reference's products, its
                # sum and both sides' scaling by half by one more each:
                # (k + 4) 2^-53 <= (k + 2) eps of sum |w v| half.  Roundings
                # in the subnormal range add at most 2^-1075 each, a few
                # dozen of them far below the smallest normal
                scale = np.abs(terms).sum(axis=0) * block.half
                bound = (block.order + 2) * eps * scale + tiny
                assert np.all(np.abs(got[block.cells] - want) <= bound)


class TestNodeOrders:
    def test_validate_grids_take_four_nodes_inside_the_grid(self):
        for nu, half_width, points in VALIDATE_GRIDS:
            grid = np.linspace(-half_width * nu, half_width * nu, points)
            lattice = stein_lattice(grid, nu)
            orders = stein._gl_orders(lattice.edges, nu)
            assert np.array_equal(orders, stein_cell_orders(lattice.edges, nu))
            inside = (lattice.mid > grid[0]) & (lattice.mid < grid[-1])
            assert np.all(orders[inside] == 4) and np.all(orders[~inside] == 8)
            four, eight = lattice.blocks
            assert np.array_equal(four.cells, np.flatnonzero(inside))
            assert lattice.nodes.size == 4 * four.cells.size + 8 * eight.cells.size

    @settings(max_examples=30, deadline=None)
    @given(log_nu=st.floats(-1.3, 0.0), kind=st.sampled_from(["linspace", "random", "geom"]),
           half_width=st.floats(8.0, 20.0), points=st.integers(2, 4001),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(log_nu=-0.6, kind="linspace", half_width=20.0, points=4001, seed=0)
    # cells at lambda w = 0.14502 to 0.14518, just below the 8-node threshold
    @example(log_nu=0.0, kind="linspace", half_width=16.5, points=3638, seed=0)
    def test_random_grids_match_gl8(self, log_nu, kind, half_width, points, seed):
        # grids shaped like those of TestRefinedEdges, out to 20 nu, where
        # the Gaussian's log-slope makes the rule go back to 8 nodes
        nu = 10.0 ** log_nu
        rng = np.random.default_rng(seed)
        if kind == "linspace":
            grid = np.linspace(-half_width * nu, half_width * nu, points)
        elif kind == "random":
            grid = np.unique(np.concatenate([[-8 * nu, 8 * nu],
                                             rng.uniform(-20 * nu, 20 * nu, 50)]))
        else:
            grid = np.concatenate([[-8 * nu], np.geomspace(1e-3, 10.0, 7) * nu])
        lattice = stein_lattice(grid, nu)
        edges, orders = lattice.edges, stein._gl_orders(lattice.edges, nu)
        assert np.array_equal(orders, stein_cell_orders(edges, nu))
        outer = np.maximum(np.abs(edges[:-1]), np.abs(edges[1:]))
        lam_w = np.maximum(outer / nu ** 2, 16.0 / nu) * np.diff(edges)
        # the 4-node remainder reaches 2^-53 at lambda w = 0.14518480574635462
        reach = (2.0 ** -53 / stein._GL4_REMAINDER) ** 0.125
        assert np.all(orders[np.diff(edges) >= nu / 16.0 * (1 - 1e-12)] == 8)
        assert np.all(orders[lam_w >= reach * (1 + 1e-12)] == 8)
        assert np.all(orders[lam_w < reach * (1 - 1e-12)] == 4)
        family = stein_test_family()
        for h, dh in (family[9], family[12]):
            prob = SteinProblem(h, dh, nu)
            got, ref = stein_solve(prob, grid), gl8_stein_solve(prob, grid)
            assert np.max(np.abs(got.f - ref.f)) <= 1e-13 * np.max(np.abs(ref.f))
            # the d2f bound grows as 1 / nu^2, and its margin's rounding with it
            got_margins, ref_margins = (stein_bound_margins(sol, nu) for sol in (got, ref))
            for key, value in got_margins.items():
                bound = ref_margins[key] + np.max(np.abs(getattr(ref, key)))
                assert abs(value - ref_margins[key]) <= 1e-13 * bound


class TestSteinSolve:
    def test_constant_h_gives_zero(self):
        prob = SteinProblem(lambda x: 3.0 * np.ones_like(x),
                            lambda x: np.zeros_like(x), 0.5)
        sol = stein_solve(prob, default_grid(0.5))
        assert np.max(np.abs(sol.f)) <= 1e-12

    def test_linear_h_gives_minus_one(self):
        # -x f + nu^2 f' = x is solved by the constant f = -1
        for nu in (0.1, 1.0, 2.0):
            prob = SteinProblem(lambda x: x, lambda x: np.ones_like(x), nu)
            sol = stein_solve(prob, default_grid(nu))
            assert np.max(np.abs(sol.f + 1.0)) <= 1e-10
            assert abs(sol.e_h) <= 1e-12

    def test_linear_h_sup_norm(self):
        prob = SteinProblem(lambda x: x, lambda x: np.ones_like(x), 1.0)
        sol = stein_solve(prob, default_grid(1.0))
        sup = np.max(np.abs(sol.f))
        assert sup == pytest.approx(1.0, abs=1e-9)
        assert sup <= 2.0 * sol.h_deriv_sup

    @pytest.mark.parametrize("nu", [0.1, 0.25, 1.0])
    def test_family_bounds(self, nu):
        grid = np.linspace(-8 * nu, 8 * nu, 4001)
        for h, dh in stein_test_family():
            sol = stein_solve(SteinProblem(h, dh, nu), grid)
            margins = stein_bound_margins(sol, nu)
            assert min(margins.values()) >= -1e-9

    def test_ode_residual_on_grid(self):
        # the recovered derivative satisfies nu^2 f' - x f = h - E h exactly
        nu = 0.4
        prob = SteinProblem(np.tanh, lambda x: 1 / np.cosh(x) ** 2, nu)
        grid = default_grid(nu)
        sol = stein_solve(prob, grid)
        resid = nu ** 2 * sol.df - grid * sol.f - (np.tanh(grid) - sol.e_h)
        assert np.max(np.abs(resid)) <= 1e-12

    def test_finite_difference_consistency(self):
        # df from the ODE identity agrees with numerical differentiation of f
        nu = 1.0
        prob = SteinProblem(np.arctan, lambda x: 1 / (1 + x ** 2), nu)
        grid = default_grid(nu, 4001)
        sol = stein_solve(prob, grid)
        fd = np.gradient(sol.f, grid)
        inner = slice(100, -100)
        assert np.max(np.abs(fd[inner] - sol.df[inner])) <= 5e-4

    def test_gaussian_identity_quadrature(self):
        nu = 0.7
        grid = np.linspace(-9 * nu, 9 * nu, 4001)
        for h, dh in stein_test_family()[:8]:
            sol = stein_solve(SteinProblem(h, dh, nu), grid)
            w = np.exp(-0.5 * (grid / nu) ** 2)
            w /= np.trapezoid(w, grid)
            val = np.trapezoid((nu ** 2 * sol.df - grid * sol.f) * w, grid)
            assert abs(val) <= 1e-8

    # the grids of validate's stein-bounds and stein-identity checks
    @pytest.mark.parametrize("nu,half_width,points",
                             [(0.1, 8, 4001), (0.25, 8, 4001), (1.0, 8, 4001),
                              (0.25, 9, 3001), (1.0, 9, 3001)])
    def test_single_pass_matches_three_pass(self, nu, half_width, points, monkeypatch):
        grid = np.linspace(-half_width * nu, half_width * nu, points)
        probs = [SteinProblem(h, dh, nu) for h, dh in stein_test_family()]
        got = [stein_solve(prob, grid) for prob in probs]
        monkeypatch.setattr(stein, "_stein_cells", three_pass_stein_cells)
        for prob, sol in zip(probs, got):
            ref = stein_solve(prob, grid)
            assert sol.e_h == ref.e_h and sol.h_deriv_sup == ref.h_deriv_sup
            for field in ("f", "df", "d2f"):
                assert np.array_equal(getattr(sol, field), getattr(ref, field))

    @pytest.mark.parametrize("nu,half_width,points", VALIDATE_GRIDS)
    def test_matches_gl8_on_validate_grids(self, nu, half_width, points):
        grid = np.linspace(-half_width * nu, half_width * nu, points)
        for h, dh in stein_test_family():
            prob = SteinProblem(h, dh, nu)
            got, ref = stein_solve(prob, grid), gl8_stein_solve(prob, grid)
            assert np.max(np.abs(got.f - ref.f)) <= 1e-13 * np.max(np.abs(ref.f))
            got_margins, ref_margins = (stein_bound_margins(sol, nu) for sol in (got, ref))
            for key, value in got_margins.items():
                assert abs(value - ref_margins[key]) <= 1e-11

    @pytest.mark.parametrize("nu,half_width,points", [(0.1, 8, 4001), (0.25, 9, 3001)])
    def test_f_against_mpmath(self, nu, half_width, points):
        # f from its tail integrals at 30 digits: no further from it than the
        # 8-node solve plus 4 ulps, and within 1e-14 max|f| out to the right
        # end, where the prefactor exp(x^2 / 2 nu^2) is largest
        mp = pytest.importorskip("mpmath")
        grid = np.linspace(-half_width * nu, half_width * nu, points)
        pick = [0, 500, points // 2 + 3, points - 300, points - 50, points - 2, points - 1]
        cases = [(stein_test_family()[0], lambda t: mp.tanh(0.5 * (t + 0.5))),
                 (stein_test_family()[15], lambda t: mp.ncdf((t - 0.3) / 0.5))]
        with mp.workdps(30):
            nu_mp = mp.mpf(nu)

            def kern(t):
                return mp.exp(-t ** 2 / (2 * nu_mp ** 2))

            for (h, dh), h_mp in cases:
                prob = SteinProblem(h, dh, nu)
                got, ref = stein_solve(prob, grid), gl8_stein_solve(prob, grid)
                e_h = (mp.quad(lambda t: kern(t) * h_mp(t),
                               [-mp.inf, -5 * nu_mp, 0, 5 * nu_mp, mp.inf])
                       / (nu_mp * mp.sqrt(2 * mp.pi)))
                for i in pick:
                    x = mp.mpf(float(grid[i]))
                    if x <= 0:
                        tail = mp.quad(lambda t: kern(t) * (h_mp(t) - e_h), [-mp.inf, x - nu_mp, x])
                    else:
                        tail = -mp.quad(lambda t: kern(t) * (h_mp(t) - e_h), [x, x + nu_mp, mp.inf])
                    exact = float(mp.exp(x ** 2 / (2 * nu_mp ** 2)) / nu_mp ** 2 * tail)
                    error = abs(got.f[i] - exact)
                    assert error <= abs(ref.f[i] - exact) + 4 * np.spacing(abs(exact))
                    assert error <= 1e-14 * np.max(np.abs(got.f))

    def test_grid_span_validation(self):
        prob = SteinProblem(lambda x: x, lambda x: np.ones_like(x), 1.0)
        with pytest.raises(ValueError):
            stein_solve(prob, np.linspace(-4, 4, 101))
        for grid in ([-np.inf, 0.0, 8.0], [-8.0, 0.0, np.inf], [-np.inf, np.inf]):
            with pytest.raises(ValueError, match="grid points must be finite"):
                stein_solve(prob, grid)


class TestSteinLattice:
    def test_solves_match_stein_solve(self):
        # a family solved on one caller-owned lattice equals a fresh solve of
        # each problem bit for bit
        family = stein_test_family()[3:6]
        grid = np.linspace(-8.0, 8.0, 801)
        nudged = grid.copy()
        nudged[300] += 1e-3
        # one grid at two nu, then a grid that differs from it in one point
        for nu, g in ((1.0, grid), (0.5, grid), (0.5, nudged)):
            lattice = stein_lattice(g, nu)
            for h, dh in family:
                prob = SteinProblem(h, dh, nu)
                got, fresh = lattice.solve(prob), stein_solve(prob, g)
                for field in ("grid", "f", "df", "d2f", "e_h", "h_deriv_sup"):
                    assert (np.asarray(getattr(got, field)).tobytes()
                            == np.asarray(getattr(fresh, field)).tobytes())
        # the lattice keeps its own copy of the grid
        changing = grid.copy()
        lattice = stein_lattice(changing, 1.0)
        changing[-1] = 9.0
        prob = SteinProblem(*family[0], 1.0)
        assert np.array_equal(lattice.solve(prob).f, stein_solve(prob, grid).f)

    def test_input_errors(self):
        for grid in ([-np.inf, 0.0, 8.0], [-8.0, 0.0, np.inf], [-np.inf, np.inf]):
            with pytest.raises(ValueError, match="grid points must be finite"):
                stein_lattice(grid, 1.0)
        for grid in ([-8.0, 1.0, 0.0, 8.0], [-8.0, 0.0, 0.0, 8.0], [[-8.0, 8.0]], [-8.0]):
            with pytest.raises(ValueError, match="strictly increasing"):
                stein_lattice(grid, 1.0)
        for grid, nu in (([-8.0, 7.9], 1.0), ([-7.9, 8.0], 1.0), ([-8.0, 8.0], 1.01)):
            with pytest.raises(ValueError, match=r"span at least \[-8 nu, 8 nu\]"):
                stein_lattice(grid, nu)
        for nu in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="nu must be positive and finite"):
                stein_lattice([-8.0, 8.0], nu)
        lattice = stein_lattice(np.linspace(-8.0, 8.0, 101), 1.0)
        h, dh = stein_test_family()[0]
        with pytest.raises(ValueError, match="nu"):
            lattice.solve(SteinProblem(h, dh, 0.5))


class TestExclusionGenerator:
    def test_linear_gives_minus_z(self):
        for n, ell in ((10, 3), (64, 32), (200, 150)):
            _, z = zeta_support(n, ell)
            out = exclusion_apply(n, ell, lambda x: x)
            assert np.max(np.abs(out + z)) <= 1e-12

    def test_constant_annihilated(self):
        out = exclusion_apply(30, 12, lambda x: np.full_like(x, 4.2))
        assert np.max(np.abs(out)) <= 1e-15

    @pytest.mark.parametrize("f", [lambda x: x, lambda x: x ** 2,
                                   lambda x: x ** 3, np.tanh])
    def test_stationarity(self, f):
        # hypergeometric expectation of the generator action vanishes
        for n, ell in ((20, 7), (64, 32), (256, 64)):
            pmf = hypergeom_zeta_pmf(n, ell)
            val = float(pmf.probs @ exclusion_apply(n, ell, f))
            assert abs(val) <= 1e-10


class TestZetaPmf:
    @pytest.mark.parametrize("n,ell", [(14, 7), (14, 6), (40, 7), (40, 33), (40, 34)])
    def test_support_cap(self, n, ell, monkeypatch):
        # min(ell, n - ell) + 1 points: 8 at (14, 7), (40, 7) and (40, 33),
        # one above a cap of 7; 7 at (14, 6) and (40, 34), at it
        monkeypatch.setattr(stein, "ZETA_SUPPORT_CAP", 7)
        if min(ell, n - ell) + 1 > 7:
            with pytest.raises(CapacityError, match="support points, above the cap of 7"):
                zeta_support(n, ell)
        else:
            assert zeta_support(n, ell)[0].size == 7

    def test_small_case_variance(self):
        pmf = hypergeom_zeta_pmf(4, 2)
        assert pmf.var() == pytest.approx(1.0 / 12.0, abs=1e-12)
        assert abs(pmf.mean()) <= 1e-14

    @pytest.mark.parametrize("n,ell", [(16, 8), (100, 33), (4096, 2048), (4096, 137)])
    def test_variance_identity(self, n, ell):
        pmf = hypergeom_zeta_pmf(n, ell)
        m0 = ell / n
        target = n / (n - 1) * m0 ** 2 * (1 - m0) ** 2
        assert abs(pmf.var() - target) <= 1e-12
        assert abs(pmf.mean()) <= 1e-12

    @pytest.mark.parametrize("n,ell", [(6, 2), (9, 4), (12, 6), (12, 3)])
    def test_enumeration_oracle(self, n, ell):
        # uniform configurations with ell particles: count block-1 occupancy
        sites = range(n)
        block1 = set(range(n - ell, n))  # canonical: block 1 holds the last ell sites
        counts = {}
        total = 0
        for occ in itertools.combinations(sites, ell):
            y = len(set(occ) & block1)
            counts[y] = counts.get(y, 0) + 1
            total += 1
        ys, zs = zeta_support(n, ell)
        pmf = hypergeom_zeta_pmf(n, ell)
        for y, z, p in zip(ys, zs, pmf.probs):
            assert counts.get(int(y), 0) / total == pytest.approx(p, abs=1e-13)

    def test_exact_fractions(self):
        # every (n, ell) with n <= 60 against C(ell, y) C(n - ell, ell - y) / C(n, ell)
        worst = 0.0
        for n in range(2, 61):
            for ell in range(1, n):
                ys, _ = zeta_support(n, ell)
                got = hypergeom_zeta_pmf(n, ell).probs
                exact = [Fraction(comb(ell, int(y)) * comb(n - ell, ell - int(y)), comb(n, ell))
                         for y in ys]
                worst = max(worst, max(abs(Fraction(p) - q) / q for p, q in zip(got, exact)))
        assert worst <= 1e-14

    @given(st.integers(2, 20000).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 1))))
    @example((20000, 10000))  # the widest law
    @example((3214, 1855))  # subnormal tails: products seeded at 1, not 2^900, lose these zeros
    @example((6238, 2079))
    @settings(max_examples=30, deadline=None)
    def test_matches_scipy_hypergeom(self, n_ell):
        n, ell = n_ell
        ys, _ = zeta_support(n, ell)
        got = hypergeom_zeta_pmf(n, ell).probs
        ref = hypergeom.pmf(ys, n, ell, ell)
        above = ref > 1e-200
        assert np.all(np.abs(got[above] - ref[above]) <= 1e-13 * ref[above])
        assert np.array_equal(got == 0, ref == 0)
        assert got.sum() == pytest.approx(1.0, abs=1e-14)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            hypergeom_zeta_pmf(10, 0)
        with pytest.raises(ValueError):
            hypergeom_zeta_pmf(10, 10)


class TestExclusionSteinResidual:
    def test_linear_zero_residual(self):
        res = exclusion_stein_residual(64, 32, lambda x: x,
                                       lambda x: np.ones_like(x),
                                       lambda x: np.zeros_like(x),
                                       lambda x: np.zeros_like(x))
        assert res.max_residual <= 1e-12

    def test_quadratic_pointwise_bound(self):
        n, ell = 100, 40
        res = exclusion_stein_residual(n, ell, lambda x: x ** 2, lambda x: 2 * x,
                                       lambda x: 2 * np.ones_like(x),
                                       lambda x: np.zeros_like(x))
        _, z = zeta_support(n, ell)
        assert np.all(res.residual <= np.abs(z) / np.sqrt(n) + 1e-12)
        assert res.min_margin >= -1e-12

    @pytest.mark.parametrize("n,ell", [(64, 32), (256, 64), (1024, 512)])
    def test_smooth_family_bounds(self, n, ell):
        cases = [
            (lambda x: x ** 2, lambda x: 2 * x,
             lambda x: 2 * np.ones_like(x), lambda x: np.zeros_like(x)),
            (lambda x: x ** 3, lambda x: 3 * x ** 2,
             lambda x: 6 * x, lambda x: 6 * np.ones_like(x)),
            (np.tanh, lambda x: 1 / np.cosh(x) ** 2,
             lambda x: -2 * np.tanh(x) / np.cosh(x) ** 2,
             lambda x: (4 * np.tanh(x) ** 2 - 2 / np.cosh(x) ** 2) / np.cosh(x) ** 2),
        ]
        for fns in cases:
            res = exclusion_stein_residual(n, ell, *fns)
            assert res.min_margin >= -1e-12

    def test_residual_scaling_in_n(self):
        # quadrupling n at fixed density roughly halves the worst residual
        # (density kept away from 1/2, where the leading term degenerates)
        def worst(n):
            res = exclusion_stein_residual(
                n, n // 4, np.tanh, lambda x: 1 / np.cosh(x) ** 2,
                lambda x: -2 * np.tanh(x) / np.cosh(x) ** 2,
                lambda x: (4 * np.tanh(x) ** 2 - 2 / np.cosh(x) ** 2) / np.cosh(x) ** 2)
            return res.max_residual

        ratio = worst(4096) / worst(1024)
        assert 0.35 <= ratio <= 0.65


class TestGaussianDistance:
    def test_small_case_monte_carlo(self):
        n, ell = 4, 2
        exact, _ = hypergeom_gaussian_w1(n, ell)
        rng = np.random.default_rng(6)
        draws = 10_000_000
        zs = (rng.hypergeometric(ell, n - ell, ell, size=draws) - ell ** 2 / n) / np.sqrt(n)
        gs = rng.normal(0.0, 0.25, size=draws)
        batches = 10
        vals = [w1_sorted(z, g) for z, g in zip(np.array_split(zs, batches),
                                                np.array_split(gs, batches))]
        mc = np.mean(vals)
        se = np.std(vals, ddof=1) / np.sqrt(batches)
        floor = 1.7 * 0.25 * np.sqrt(2.0 / (draws / batches))
        assert abs(exact - mc) <= 3 * se + floor

    def test_distance_shrinks_along_sweep(self):
        ds = [hypergeom_gaussian_w1(n, n // 2)[0] for n in (64, 128, 256, 512)]
        assert all(d1 > d2 for d1, d2 in zip(ds, ds[1:]))

    def test_normalized_constant_stable(self):
        cs = [hypergeom_gaussian_w1(n, n // 2)[1] for n in (64, 256, 1024)]
        assert (max(cs) - min(cs)) / max(cs) <= 0.25
