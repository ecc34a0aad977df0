"""Stein machinery tests: ODE solution bounds, exclusion generator, QCLT."""

import itertools
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import hypergeom

from noisyvoter import stein
from noisyvoter.stein import (
    SteinProblem,
    _refined_edges,
    exclusion_apply,
    exclusion_stein_residual,
    hypergeom_gaussian_w1,
    hypergeom_zeta_pmf,
    stein_bound_margins,
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
    @staticmethod
    def check_against_numpy_sum(order):
        rng = np.random.default_rng(43)
        weights = stein._GAUSS_LEGENDRE[order][1]
        for trial in range(40):
            vals = rng.normal(size=(4194, order)) * 10.0 ** rng.uniform(-30, 5, size=(4194, order))
            special = rng.random(vals.shape) < 0.1
            vals[special] = rng.choice([5e-324, -3e-310, 2.5e-308, 1e300, -1e300],
                                       size=special.sum())
            half = rng.uniform(0.0, 1.0, size=4194)
            want = (vals * weights[None, :]).sum(axis=1) * half
            assert np.array_equal(stein._cell_integrals(np.ascontiguousarray(vals.T), half), want)

    def test_column_sums_match_numpy_pairwise_reduction(self):
        # _cell_integrals spells out the order numpy's sum(axis=1) adds eight
        # terms in; a numpy release that changes that order fails here
        self.check_against_numpy_sum(8)

    def test_four_column_sums_match_numpy_reduction(self):
        # four terms are added left to right
        self.check_against_numpy_sum(4)


class TestNodeOrders:
    def test_validate_grids_take_four_nodes_inside_the_grid(self):
        for nu, half_width, points in VALIDATE_GRIDS:
            grid = np.linspace(-half_width * nu, half_width * nu, points)
            lattice = stein._stein_lattice(grid.tobytes(), nu)
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
        lattice = stein._stein_lattice(grid.tobytes(), nu)
        edges, orders = lattice.edges, stein._gl_orders(lattice.edges, nu)
        assert np.array_equal(orders, stein_cell_orders(edges, nu))
        outer = np.maximum(np.abs(edges[:-1]), np.abs(edges[1:]))
        # the 4-node remainder reaches 2^-53 at lambda w = 0.1447
        assert np.all(orders[np.diff(edges) >= nu / 16.0 * (1 - 1e-12)] == 8)
        assert np.all(orders[outer * np.diff(edges) / nu ** 2 >= 0.145] == 8)
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
        # non-finite points are rejected before any lattice is built
        before = stein._stein_lattice.cache_info()
        for grid in ([-np.inf, 0.0, 8.0], [-8.0, 0.0, np.inf], [-np.inf, np.inf]):
            with pytest.raises(ValueError, match="grid points must be finite"):
                stein_solve(prob, grid)
        assert stein._stein_lattice.cache_info() == before


class TestSteinLatticeCache:
    @staticmethod
    def solve_and_compare(prob, grid):
        """Solve through the cache, then again right after clearing it; the
        two solutions must agree bit for bit."""
        got = stein_solve(prob, grid)
        assert stein._stein_lattice.cache_info().currsize <= 1
        lattice = stein._stein_lattice(np.asarray(grid, float).tobytes(), prob.nu)
        arrays = [value for part in (lattice, *lattice.blocks) for value in vars(part).values()
                  if isinstance(value, np.ndarray)]
        assert len(arrays) == 11
        for value in arrays:
            assert not value.flags.writeable
            with pytest.raises(ValueError):
                value[...] = 0
        stein._stein_lattice.cache_clear()
        fresh = stein_solve(prob, grid)
        for field in ("grid", "f", "df", "d2f", "e_h", "h_deriv_sup"):
            assert (np.asarray(getattr(got, field)).tobytes()
                    == np.asarray(getattr(fresh, field)).tobytes())

    def test_cached_solves_match_fresh_solves(self):
        h, dh = stein_test_family()[4]
        wide, narrow = SteinProblem(h, dh, 1.0), SteinProblem(h, dh, 0.5)
        grid = np.linspace(-8.0, 8.0, 801)
        nudged = grid.copy()
        nudged[300] += 1e-3
        changing = grid.copy()
        # one grid at two nu, then two grids of one size that differ in one point
        for prob, g in ((wide, grid), (narrow, grid), (narrow, grid), (narrow, nudged),
                        (narrow, grid)):
            self.solve_and_compare(prob, g)
        # a grid changed in place after a solve
        self.solve_and_compare(wide, changing)
        changing[-1] = 9.0
        self.solve_and_compare(wide, changing)
        # back to the first pair
        self.solve_and_compare(wide, grid)


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
