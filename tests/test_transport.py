"""Transport tests: exact W1 engines against brute-force oracles."""

import contextlib
import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.spatial.distance import cdist
from scipy.stats import wasserstein_distance

from noisyvoter import transport
from noisyvoter.diffusion import WFParams, wf_marginal
from noisyvoter.model import ModelParams, stationary_pmf, transient_law

from noisyvoter.errors import CapacityError
from noisyvoter.pmf import Pmf, empirical_pmf, point_mass
from noisyvoter.stein import hypergeom_zeta_pmf
from noisyvoter.transport import (
    MATCHING_CAP,
    MatchingCost,
    _CROSSING_PASSES,
    _cityblock_potentials,
    _euclidean_potentials,
    _sorted_certificate,
    _unshared,
    _w1_vs_wf_search,
    pushforward_check,
    w1_discrete,
    w1_discrete_vs_gaussian,
    w1_discrete_vs_wf,
    w1_lattice,
    w1_matching,
    w1_sorted,
)
from oracles import plain_cityblock_matching, plain_euclidean_matching, scalar_w1_oracle

finite_floats = st.floats(-50, 50, allow_nan=False, allow_infinity=False)


def brute_force_w1_equal(xs, ys):
    """Minimum mean matched distance over all pairings (equal-size, uniform)."""
    best = np.inf
    for perm in itertools.permutations(range(len(ys))):
        cost = np.mean([abs(x - ys[j]) for x, j in zip(xs, perm)])
        best = min(best, cost)
    return best


class TestW1Sorted:
    def test_identical(self):
        xs = np.array([0.3, -2.0, 5.5])
        assert w1_sorted(xs, xs.copy()) == 0.0

    def test_translation_exact(self):
        rng = np.random.default_rng(1)
        xs = rng.normal(size=400)
        for v in (-3.5, 0.01, 12.0):
            assert abs(w1_sorted(xs + v, xs) - abs(v)) <= 1e-13

    def test_three_point_brute_force(self):
        xs = [0.0, 1.0, 4.0]
        ys = [0.5, 2.5, 3.0]
        assert w1_sorted(xs, ys) == pytest.approx(brute_force_w1_equal(xs, ys), abs=1e-12)

    @given(st.lists(finite_floats, min_size=1, max_size=6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_brute_force_equivalence(self, xs, data):
        ys = data.draw(st.lists(finite_floats, min_size=len(xs), max_size=len(xs)))
        assert w1_sorted(xs, ys) == pytest.approx(brute_force_w1_equal(xs, ys), abs=1e-9)

    def test_unequal_sizes_against_scipy(self):
        rng = np.random.default_rng(2)
        xs = rng.normal(size=137)
        ys = rng.normal(loc=0.4, size=260)
        assert w1_sorted(xs, ys) == pytest.approx(wasserstein_distance(xs, ys), abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            w1_sorted([], [1.0])
        with pytest.raises(ValueError):
            w1_sorted([np.inf], [0.0])


class TestW1Discrete:
    def test_point_masses(self):
        assert w1_discrete(point_mass(0.0), point_mass(1.0)) == 1.0
        p = point_mass(2.5)
        assert w1_discrete(p, p) == 0.0

    def test_two_point_swap(self):
        p = Pmf([0.0, 1.0], [0.75, 0.25])
        q = Pmf([0.0, 1.0], [0.25, 0.75])
        assert w1_discrete(p, q) == pytest.approx(0.5, abs=1e-15)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            Pmf([0.0, 1.0], [0.75, 0.75])

    def test_weighted_against_scipy(self):
        # weighted 1-D measures go through w1_discrete's CDF integration
        rng = np.random.default_rng(3)
        xs, ys = rng.normal(size=40), rng.normal(size=55)
        xw, yw = rng.uniform(0.1, 2.0, 40), rng.uniform(0.1, 2.0, 55)
        ox, oy = np.argsort(xs), np.argsort(ys)
        got = w1_discrete(Pmf(xs[ox], xw[ox] / xw.sum()), Pmf(ys[oy], yw[oy] / yw.sum()))
        assert got == pytest.approx(wasserstein_distance(xs, ys, xw, yw), abs=1e-12)

    def test_matches_sorted_on_empirical(self):
        rng = np.random.default_rng(4)
        xs = rng.normal(size=300)
        ys = rng.normal(loc=1.0, scale=2.0, size=300)
        got = w1_discrete(empirical_pmf(xs), empirical_pmf(ys))
        assert got == pytest.approx(w1_sorted(xs, ys), abs=1e-12)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_metric_axioms(self, data):
        def rand_pmf():
            size = data.draw(st.integers(1, 6))
            support = sorted(set(data.draw(
                st.lists(st.floats(-5, 5, allow_nan=False), min_size=size, max_size=size))))
            if not support:
                support = [0.0]
            w = data.draw(st.lists(st.floats(0.01, 1.0), min_size=len(support),
                                   max_size=len(support)))
            w = np.asarray(w) / np.sum(w)
            return Pmf(np.asarray(support, dtype=float), w)

        p, q, r = rand_pmf(), rand_pmf(), rand_pmf()
        dpq, dqp = w1_discrete(p, q), w1_discrete(q, p)
        assert dpq == pytest.approx(dqp, abs=1e-12)
        assert dpq >= 0
        assert w1_discrete(p, r) <= dpq + w1_discrete(q, r) + 1e-9


class TestW1Lattice:
    @given(st.integers(1, 60), st.integers(1, 6), st.floats(-1.0, 1.0),
           st.floats(0.01, 1.0), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_w1_discrete_per_column(self, m, cols, x0, span, seed):
        # supports of width at most 1, as the density lattices {0, 1/n, ..., 1}
        rng = np.random.default_rng(seed)
        support = x0 + span / max(m - 1, 1) * np.arange(m)
        q = Pmf(support, rng.dirichlet(np.ones(m)))
        # sparse columns too, as exact laws near a boundary are
        probs = rng.dirichlet(np.full(m, 0.3), size=cols).T
        got = w1_lattice(probs, q)
        assert got.shape == (cols,)
        for d, col in zip(got, probs.T):
            assert d == pytest.approx(w1_discrete(Pmf(support, col), q), rel=0, abs=1e-14)

    def test_count_laws_against_stationary(self):
        params = ModelParams(50, 0.8, 2.0)
        stat = stationary_pmf(params).scaled(1 / 50)
        laws = [transient_law(params, 7, t).scaled(1 / 50) for t in (0.0, 5.0, 40.0, 400.0)]
        got = w1_lattice(np.stack([law.probs for law in laws], axis=1), stat)
        want = [w1_discrete(law, stat) for law in laws]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)

    def test_shape_and_spacing_checked(self):
        q = Pmf([0.0, 1.0, 3.0], [0.2, 0.3, 0.5])
        with pytest.raises(ValueError):
            w1_lattice(np.full((3, 1), 1 / 3), q)
        even = Pmf([0.0, 0.5, 1.0], [0.2, 0.3, 0.5])
        with pytest.raises(ValueError):
            w1_lattice(np.full((2, 1), 0.5), even)


class TestW1DiscreteVsGaussian:
    def test_point_mass_closed_form(self):
        # W1(delta_mu, N(mu, sd^2)) = E|N(0, sd^2)| = sd sqrt(2/pi)
        for sd in (1e-6, 0.2, 3.0):
            got = w1_discrete_vs_gaussian(point_mass(0.7), 0.7, sd)
            assert got == pytest.approx(sd * np.sqrt(2 / np.pi), rel=1e-9)

    def test_reflection_symmetry(self):
        p = Pmf([-2.0, -0.5, 0.5, 2.0], [0.2, 0.3, 0.3, 0.2])
        refl = Pmf([-2.0, -0.5, 0.5, 2.0], [0.2, 0.3, 0.3, 0.2])
        a = w1_discrete_vs_gaussian(p, 0.0, 0.8)
        b = w1_discrete_vs_gaussian(refl, 0.0, 0.8)
        assert a == pytest.approx(b, abs=1e-14)

    def test_against_discrete_grid_oracle(self):
        # quantized Gaussian on a fine grid: the two engines must agree
        from scipy.stats import norm
        sd, mean = 0.7, 0.3
        grid = np.linspace(mean - 9 * sd, mean + 9 * sd, 6001)
        q = norm.pdf(grid, mean, sd)
        gauss_pmf = Pmf(grid, q / q.sum())
        p = Pmf([-0.9, 0.1, 0.55], [0.25, 0.5, 0.25])
        exact = w1_discrete_vs_gaussian(p, mean, sd)
        approx = w1_discrete(p, gauss_pmf)
        assert exact == pytest.approx(approx, abs=5e-4)

    def test_hypergeometric_against_monte_carlo(self):
        rng = np.random.default_rng(5)
        n, ell = 64, 32
        pmf = hypergeom_zeta_pmf(n, ell)
        nu = 0.25
        exact = w1_discrete_vs_gaussian(pmf, 0.0, nu)
        draws = 10_000_000
        zs = (rng.hypergeometric(ell, n - ell, ell, size=draws) - ell ** 2 / n) / np.sqrt(n)
        gs = rng.normal(0.0, nu, size=draws)
        batches = 10
        vals = [w1_sorted(z, g) for z, g in zip(np.array_split(zs, batches),
                                                np.array_split(gs, batches))]
        mc, se = np.mean(vals), np.std(vals, ddof=1) / np.sqrt(batches)
        # the empirical estimate carries a positive noise floor of its own
        floor = 1.7 * nu * np.sqrt(2.0 / (draws / batches))
        assert abs(exact - mc) <= 3 * se + floor


def dense_grid_w1(p, law, points=400_000):
    """int_0^1 |F_p - F| by the midpoint rule on cells aligned with the pmf
    support, where F_p is flat."""
    edges = np.concatenate(([0.0], p.support, [1.0]))
    levels = np.concatenate(([0.0], np.cumsum(p.probs)))
    total = 0.0
    for left, right, level in zip(edges[:-1], edges[1:], levels):
        k = max(1, int(points * (right - left)))
        mids = left + (right - left) * (np.arange(k) + 0.5) / k
        total += np.sum(np.abs(level - law.cdf(mids))) * (right - left) / k
    return total


def log_uniform(lo, hi):
    return st.floats(np.log(lo), np.log(hi)).map(np.exp)


@st.composite
def euclidean_clouds(draw):
    """Two equal-size 2-D clouds.  Integer coordinates give ties, duplicate
    points and, for a permuted copy, exactly equal means (no dual start);
    real coordinates give generic clouds, and a permuted copy means that
    agree to rounding."""
    size = draw(st.integers(1, 60), label="size")
    if draw(st.booleans(), label="integer"):
        coord = st.integers(0, draw(st.integers(0, 6), label="width")).map(float)
    else:
        coord = st.floats(-10, 10, allow_nan=False)
    cloud = st.lists(st.tuples(coord, coord), min_size=size, max_size=size).map(np.array)
    xs = draw(cloud, label="xs")
    if draw(st.booleans(), label="permuted copy"):
        return xs, xs[draw(st.permutations(range(size)), label="perm")]
    return xs, draw(cloud, label="ys")


class CountingLaw:
    """``law`` with its ``cdf`` calls counted and its CDF times ``scale``."""

    def __init__(self, law, scale=1.0):
        self.law, self.scale, self.cdf_calls = law, scale, 0

    def cdf(self, y):
        self.cdf_calls += 1
        return self.law.cdf(y) * self.scale

    def cdf_integral(self, y):
        return self.law.cdf_integral(y)


class TestW1DiscreteVsWF:
    @pytest.mark.parametrize("a,b,m0,t", [(1.0, 1.0, 0.5, 1.0), (0.3, 4.0, 0.8, 0.05),
                                          (2.0, 0.5, 0.1, 0.3)])
    def test_against_dense_grid(self, a, b, m0, t):
        law = wf_marginal(WFParams(a, b), m0, t)
        n = 32
        lattice = transient_law(ModelParams(n, a, b), int(m0 * n + 0.5), n * t).scaled(1 / n)
        rng = np.random.default_rng(3)
        for p in (lattice, point_mass(m0), point_mass(0.0),
                  Pmf(np.sort(rng.uniform(size=5)), np.full(5, 0.2))):
            assert w1_discrete_vs_wf(p, law) == pytest.approx(dense_grid_w1(p, law),
                                                               rel=0, abs=1e-8)

    @pytest.mark.parametrize("a,b,m0,t", [(1.0, 1.0, 0.5, 1.0), (0.3, 4.0, 0.8, 0.05)])
    def test_against_scalar_oracle(self, a, b, m0, t):
        # the bracketed-and-interpolated crossings match full-precision roots
        law = wf_marginal(WFParams(a, b), m0, t)
        n = 32
        lattice = transient_law(ModelParams(n, a, b), int(m0 * n + 0.5), n * t).scaled(1 / n)
        assert w1_discrete_vs_wf(lattice, law) == pytest.approx(
            scalar_w1_oracle(lattice, law), rel=0, abs=2e-15)

    @settings(max_examples=40, deadline=None)
    @given(a=log_uniform(0.1, 10.0), b=log_uniform(0.1, 10.0),
           m0=st.floats(0.02, 0.98, exclude_min=True, exclude_max=True),
           t=st.one_of(log_uniform(0.02, 3.0), st.just(np.inf)),
           n=st.sampled_from([16, 40, 128, 300]), seed=st.integers(0, 2**32 - 1))
    # a or b below 1: the density is singular at that end
    @example(a=0.1, b=0.15, m0=0.9, t=0.02, n=300, seed=0)
    @example(a=0.2, b=5.0, m0=0.5, t=np.inf, n=40, seed=1)
    def test_against_scalar_oracle_sweep(self, a, b, m0, t, n, seed):
        law = wf_marginal(WFParams(a, b), m0, t)
        params = ModelParams(n, a, b)
        count_law = (stationary_pmf(params) if t == np.inf
                     else transient_law(params, round(m0 * n), n * t))
        rng = np.random.default_rng(seed)
        for p in (count_law.scaled(1 / n), point_mass(0.0), point_mass(m0), point_mass(1.0),
                  Pmf(np.sort(rng.uniform(size=7)), rng.dirichlet(np.ones(7)))):
            assert w1_discrete_vs_wf(p, law) == pytest.approx(scalar_w1_oracle(p, law),
                                                               rel=0, abs=1e-14)

    def test_crossing_pass_budget(self):
        # the qclt-rate reference shape, where bisecting every crossing to a
        # width of 1e-6 takes 13 to 15 passes
        law = CountingLaw(wf_marginal(WFParams(1.0, 1.0), 0.5, 1.0))
        for n in (32, 64, 128):
            p = transient_law(ModelParams(n, 1.0, 1.0), n // 2, float(n)).scaled(1 / n)
            law.cdf_calls = 0
            (value,), (bound,), passes = _w1_vs_wf_search([p], law)
            assert law.cdf_calls == 1 + passes  # one more pass, at the cell edges
            assert passes <= 5
            assert value == w1_discrete_vs_wf(p, law.law)
            assert 0.0 <= bound <= 1e-15

    def test_crossing_search_where_cdf_is_flat_to_rounding(self):
        # F(1) rounds above 1, so the last cell of a point mass below 1 holds
        # a crossing where F is within rounding of its level 1; ten masses of
        # 0.1 sum to a last level just below 1, with the same effect
        beta = wf_marginal(WFParams(1.0, 4.0), 0.5, np.inf)
        law = CountingLaw(beta, 1.0 + 4.0 * np.finfo(float).eps)
        assert law.cdf(1.0) > 1.0
        for p in (point_mass(0.3), point_mass(0.9), point_mass(1.0),
                  Pmf(np.linspace(0.05, 0.95, 10), np.full(10, 0.1))):
            law.cdf_calls = 0
            (value,), (bound,), passes = _w1_vs_wf_search([p], law)
            assert law.cdf_calls == 1 + passes < 1 + _CROSSING_PASSES
            assert bound <= 1e-15
            assert value == pytest.approx(scalar_w1_oracle(p, beta), rel=0, abs=1e-15)
        # the ten masses against the plain CDFs, flat to rounding near 1:
        # bisection ends the last cell's search where Illinois steps alone
        # creep toward the crossing for 20 passes or more
        tenths = Pmf(np.linspace(0.05, 0.95, 10), np.full(10, 0.1))
        for a, b in ((1.0, 4.0), (2.0, 8.0)):
            law = wf_marginal(WFParams(a, b), 0.5, np.inf)
            (value,), (bound,), passes = _w1_vs_wf_search([tenths], law)
            assert passes <= 8 and bound <= 1e-15
            assert value == pytest.approx(scalar_w1_oracle(tenths, law), rel=0, abs=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(a=log_uniform(0.1, 10.0), b=log_uniform(0.1, 10.0),
           m0=st.floats(0.02, 0.98, exclude_min=True, exclude_max=True),
           t=st.one_of(log_uniform(0.02, 3.0), st.just(np.inf)),
           kinds=st.lists(st.sampled_from([16, 40, 128, 300, "support", "mass"]),
                          min_size=1, max_size=4),
           seed=st.integers(0, 2**32 - 1))
    def test_batch_matches_one_pmf_searches(self, a, b, m0, t, kinds, seed):
        # lattice laws of different n, non-lattice supports and point masses
        # inside (0, 1), all against one marginal: each distance and bound
        # is the one-pmf search's, and the batch runs as long as the longest
        law = wf_marginal(WFParams(a, b), m0, t)
        rng = np.random.default_rng(seed)
        pmfs = []
        for kind in kinds:
            if kind == "support":
                pmfs.append(Pmf(np.sort(rng.uniform(size=7)), rng.dirichlet(np.ones(7))))
            elif kind == "mass":
                pmfs.append(point_mass(rng.uniform(0.01, 0.99)))
            else:
                params = ModelParams(kind, a, b)
                count_law = (stationary_pmf(params) if t == np.inf
                             else transient_law(params, round(m0 * kind), kind * t))
                pmfs.append(count_law.scaled(1 / kind))
        values, bounds, passes = _w1_vs_wf_search(pmfs, law)
        alone = [_w1_vs_wf_search([p], law) for p in pmfs]
        assert values == [value for (value,), _, _ in alone]
        assert bounds == [bound for _, (bound,), _ in alone]
        assert passes == max(one for _, _, one in alone)

    def test_batch_with_a_creeping_cell(self):
        # the ten masses of 0.1 against the scaled Beta(1, 4), whose last
        # cell searches for about 30 passes, among pmfs that end in a few:
        # their distances do not change while it runs on
        beta = wf_marginal(WFParams(1.0, 4.0), 0.5, np.inf)
        law = CountingLaw(beta, 1.0 + 4.0 * np.finfo(float).eps)
        tenths = Pmf(np.linspace(0.05, 0.95, 10), np.full(10, 0.1))
        rng = np.random.default_rng(5)
        batch = [stationary_pmf(ModelParams(64, 1.0, 4.0)).scaled(1 / 64), tenths,
                 point_mass(0.3), Pmf(np.sort(rng.uniform(size=7)), np.full(7, 1 / 7))]
        law.cdf_calls = 0
        values, bounds, passes = _w1_vs_wf_search(batch, law)
        assert law.cdf_calls == 1 + passes
        alone = [_w1_vs_wf_search([p], law) for p in batch]
        assert values == [value for (value,), _, _ in alone]
        assert bounds == [bound for _, (bound,), _ in alone]
        assert passes == alone[1][2] > 2 * max(alone[i][2] for i in (0, 2, 3))

    def test_qclt_reference_values(self):
        # exact count law at n t = n against the exact marginal, a = b = 1, t = 1
        law = wf_marginal(WFParams(1.0, 1.0), 0.5, 1.0)
        for n, want in ((32, 0.0102526), (64, 0.0051651), (128, 0.0025925)):
            p = transient_law(ModelParams(n, 1.0, 1.0), n // 2, float(n)).scaled(1 / n)
            assert w1_discrete_vs_wf(p, law) == pytest.approx(want, abs=1e-7)

    def test_point_mass_against_beta(self):
        # W1(delta_m, Beta(1, 1)) = m^2/2 + (1-m)^2/2
        beta = wf_marginal(WFParams(1.0, 1.0), 0.5, np.inf)
        for m in (0.0, 0.3, 1.0):
            got = w1_discrete_vs_wf(point_mass(m), beta)
            assert got == pytest.approx(0.5 * m ** 2 + 0.5 * (1 - m) ** 2, abs=1e-15)

    def test_support_outside_unit_interval(self):
        law = wf_marginal(WFParams(1.0, 1.0), 0.5, 1.0)
        with pytest.raises(ValueError):
            w1_discrete_vs_wf(Pmf([-0.1, 0.5], [0.5, 0.5]), law)


@contextlib.contextmanager
def solve_shapes():
    """The shapes of the cost matrices that ``w1_matching`` hands to the
    assignment solver while the block runs."""
    shapes = []
    linear_sum_assignment, cdist_ = transport.matching_solvers()

    def recording(cost):
        shapes.append(cost.shape)
        return linear_sum_assignment(cost)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transport, "matching_solvers", lambda: (recording, cdist_))
        yield shapes


def shared_count(xs, ys):
    """Size of the common multiset of two point clouds."""
    return sum((Counter(map(tuple, xs)) & Counter(map(tuple, ys))).values())


class TestW1Matching:
    def test_single_pair(self):
        assert w1_matching([[0.0, 0.0]], [[3.0, 4.0]]) == pytest.approx(5.0, abs=1e-12)

    def test_identical_clouds(self):
        rng = np.random.default_rng(6)
        xs = rng.normal(size=(40, 2))
        assert w1_matching(xs, xs.copy()) <= 1e-12

    @pytest.mark.parametrize("size", [5, 7, 8])
    def test_brute_force_factorial(self, size):
        rng = np.random.default_rng(size)
        xs = rng.uniform(size=(size, 2))
        ys = rng.uniform(size=(size, 2))
        cost = np.linalg.norm(xs[:, None, :] - ys[None, :, :], axis=2)
        best = min(np.mean([cost[i, j] for i, j in enumerate(perm)])
                   for perm in itertools.permutations(range(size)))
        assert w1_matching(xs, ys) == pytest.approx(best, abs=1e-12)

    def test_translation(self):
        rng = np.random.default_rng(7)
        xs = rng.normal(size=(150, 2))
        v = np.array([1.25, -2.0])
        assert abs(w1_matching(xs + v, xs) - np.linalg.norm(v)) <= 1e-9

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(8)
        xs = rng.normal(size=(30, 2))
        ys = rng.normal(loc=0.5, size=(30, 2))
        zs = rng.normal(scale=2.0, size=(30, 2))
        assert w1_matching(xs, ys) == pytest.approx(w1_matching(ys, xs), abs=1e-12)
        assert w1_matching(xs, zs) <= w1_matching(xs, ys) + w1_matching(ys, zs) + 1e-9

    def test_cityblock_metric(self):
        xs = np.array([[0.0, 0.0]])
        ys = np.array([[3.0, 4.0]])
        assert w1_matching(xs, ys, metric="cityblock") == pytest.approx(7.0, abs=1e-12)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_cityblock_integer_clouds_bit_identical(self, data):
        # narrow coordinate ranges give ties, duplicates and shared points; a
        # shift wider than the range separates the clouds in that coordinate
        size = data.draw(st.integers(1, 80), label="size")
        coord = st.integers(0, data.draw(st.integers(0, 6), label="width"))
        cloud = st.lists(st.tuples(coord, coord), min_size=size, max_size=size)
        xs = np.array(data.draw(cloud, label="xs"), dtype=float)
        if data.draw(st.booleans(), label="same totals"):
            # a permuted copy of xs, each point moved along (-1, +1): the
            # clouds share their multiset of totals, as thermalize's do, so
            # the sorted certificate often answers
            perm = data.draw(st.permutations(range(size)), label="perm")
            moves = data.draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size),
                              label="moves")
            ys = xs[perm] + np.outer(moves, [-1.0, 1.0])
        else:
            shift = data.draw(st.tuples(st.integers(-10, 10), st.integers(-10, 10)),
                              label="shift")
            ys = np.array(data.draw(cloud, label="ys"), dtype=float) + shift
        assert w1_matching(xs, ys, metric="cityblock") == plain_cityblock_matching(xs, ys)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_cityblock_shared_points_cancel(self, data):
        # a common multiset, with repeated points, plus each cloud's own
        # points, which may repeat or coincide with the common ones: the
        # solve receives only the points left once the common multiset is
        # removed, and the value is the plain solve's, bit for bit
        coord = st.integers(0, data.draw(st.integers(0, 5), label="width"))
        point = st.tuples(coord, coord)
        common = data.draw(st.lists(point, max_size=40), label="common")
        own = data.draw(st.integers(0 if common else 1, 40), label="own")
        part = st.lists(point, min_size=own, max_size=own)
        xs = np.array(common + data.draw(part, label="xs own"), dtype=float).reshape(-1, 2)
        ys = np.array(common + data.draw(part, label="ys own"), dtype=float).reshape(-1, 2)
        ys = ys[data.draw(st.permutations(range(len(ys))), label="perm")]
        with solve_shapes() as shapes:
            got = w1_matching(xs, ys, metric="cityblock")
        assert got == plain_cityblock_matching(xs, ys)
        rows = len(xs) - shared_count(xs, ys)
        # a certified matching reports 0 rows and takes no solve
        assert isinstance(got, MatchingCost) and got.rows in (0, rows)
        assert shapes == ([(rows, rows)] if got.rows else [])
        keep_x, keep_y = _unshared(xs, ys)
        assert keep_x.size == keep_y.size == rows
        assert shared_count(xs[keep_x], ys[keep_y]) == 0

    def test_cityblock_shared_repeats_cancel(self):
        # (0, 0) three times against twice, (1, 1) twice against once and
        # (2, 2) twice in both: 5 shared, and one (0, 0) of xs stays to be
        # solved with the 3 points the clouds do not share; both marginals
        # agree, so the certificate's bound is 0 and cannot answer
        common = [(0, 0), (0, 0), (1, 1), (2, 2), (2, 2)]
        xs = np.array([(0, 0), (1, 1)] + common, dtype=float)
        ys = np.array([(1, 0), (0, 1)] + common, dtype=float)[::-1]
        assert shared_count(xs, ys) == 5
        with solve_shapes() as shapes:
            got = w1_matching(xs, ys, metric="cityblock")
        assert shapes == [(2, 2)] and got.rows == 2
        assert got == plain_cityblock_matching(xs, ys) == 2 / 7

    def test_cityblock_shared_everything_takes_no_solve(self):
        rng = np.random.default_rng(401)
        xs = rng.integers(0, 3, size=(50, 2)).astype(float)
        ys = xs[rng.permutation(50)]
        with solve_shapes() as shapes:
            got = w1_matching(xs, ys, metric="cityblock")
        assert shapes == [] and got == 0.0 == plain_cityblock_matching(xs, ys)
        assert [k.size for k in _unshared(xs, ys)] == [0, 0]

    @pytest.mark.parametrize("size", [2, 10, 60])
    def test_cityblock_shared_nothing_solves_every_row(self, size):
        # xs holds (2k, 0) and (2k + 1, 1), ys (2k + 1, 0) and (2k, 1): no
        # point is shared, both marginals agree and every pair costs at
        # least 1, so the certificate's bound of 0 cannot answer
        k = np.repeat(2.0 * np.arange(size // 2), 2)
        flip = np.tile([0.0, 1.0], size // 2)
        xs = np.stack([k + flip, flip], axis=1)
        ys = np.stack([k + 1 - flip, flip], axis=1)[np.random.default_rng(402).permutation(size)]
        assert shared_count(xs, ys) == 0
        with solve_shapes() as shapes:
            got = w1_matching(xs, ys, metric="cityblock")
        assert shapes == [(size, size)] and got.rows == size
        assert got == plain_cityblock_matching(xs, ys)

    @staticmethod
    def thermalize_like_pair():
        # block counts and copies of them moved along (-1, +1), toward block
        # 1 only: equal totals, and within each total the copy's block-0
        # counts are no larger, so the sorted coupling attains the 1-D bound
        rng = np.random.default_rng(400)
        xs = np.stack([rng.integers(0, 40, 300), rng.integers(20, 60, 300)], axis=1)
        moves = rng.integers(0, 4, 300)
        ys = (xs + np.outer(moves, [-1, 1]))[rng.permutation(300)]
        return xs.astype(float), ys.astype(float)

    def test_cityblock_certificate_fires_on_equal_totals(self):
        xs, ys = self.thermalize_like_pair()
        got = w1_matching(xs, ys, metric="cityblock")
        assert isinstance(got, MatchingCost) and got.rows == 0
        assert got == plain_cityblock_matching(xs, ys)

    def test_cityblock_strict_bound_takes_the_solve(self):
        # both coordinates have the same marginals, so the 1-D bound is 0,
        # while every matching costs 1 per pair
        xs = np.array([[0.0, 0.0], [1.0, 1.0]])
        ys = np.array([[1.0, 0.0], [0.0, 1.0]])
        got = w1_matching(xs, ys, metric="cityblock")
        assert got.rows == 2
        assert got == plain_cityblock_matching(xs, ys) == 1.0

    def test_cityblock_real_clouds_take_the_solve(self):
        # the certified pair moved off the integers along (1, -1): totals stay
        # equal and the sorted coupling still attains the bound, with every
        # cost exact, but only integer clouds are offered the certificate
        xs, ys = self.thermalize_like_pair()
        xs += [0.25, -0.25]
        assert _sorted_certificate(xs, ys) is not None
        got = w1_matching(xs, ys, metric="cityblock")
        assert type(got) is float
        assert got == plain_cityblock_matching(xs, ys)

    @pytest.mark.parametrize("seed", range(6))
    def test_cityblock_real_clouds(self, seed):
        rng = np.random.default_rng(100 + seed)
        size = int(rng.integers(20, 300))
        xs = rng.normal(size=(size, 2))
        ys = rng.normal(loc=rng.uniform(-2, 2, size=2), scale=rng.uniform(0.2, 3.0),
                        size=(size, 2))
        assert w1_matching(xs, ys, metric="cityblock") == pytest.approx(
            plain_cityblock_matching(xs, ys), rel=1e-12)

    @pytest.mark.parametrize("size", [5, 7])
    def test_cityblock_brute_force_factorial(self, size):
        rng = np.random.default_rng(20 + size)
        xs = rng.uniform(size=(size, 2))
        ys = rng.uniform(size=(size, 2))
        cost = np.abs(xs[:, None, :] - ys[None, :, :]).sum(axis=2)
        best = min(np.mean([cost[i, j] for i, j in enumerate(perm)])
                   for perm in itertools.permutations(range(size)))
        assert w1_matching(xs, ys, metric="cityblock") == pytest.approx(best, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_cityblock_potentials(self, seed):
        # dual feasible for the l1 cost, and their bound is the sum of the
        # per-coordinate 1-D distances
        rng = np.random.default_rng(200 + seed)
        size = int(rng.integers(1, 200))
        xs = rng.normal(size=(size, 2))
        ys = rng.normal(loc=rng.uniform(-1, 1, size=2), size=(size, 2))
        if seed % 2:
            xs, ys = np.round(4 * xs), np.round(4 * ys)
        cost = cdist(xs, ys, "cityblock")
        u, v = _cityblock_potentials(xs, ys)
        assert (cost + u[:, None] - v).min() >= -1e-12 * cost.max()
        separable = sum(w1_sorted(xs[:, k], ys[:, k]) for k in range(2))
        assert v.mean() - u.mean() == pytest.approx(separable, rel=1e-12, abs=1e-12)
        assert w1_matching(xs, ys, metric="cityblock") >= separable - 1e-12

    @pytest.mark.parametrize("size", [1, 17, 120])
    def test_cityblock_separated_clouds_attain_the_bound(self, size):
        # every x is below every y in both coordinates, so every matching
        # costs the same, the separable bound
        rng = np.random.default_rng(size)
        xs = rng.integers(0, 5, size=(size, 2)).astype(float)
        ys = rng.integers(5, 9, size=(size, 2)).astype(float)
        u, v = _cityblock_potentials(xs, ys)
        assert w1_matching(xs, ys, metric="cityblock") == (v.sum() - u.sum()) / size
        assert w1_matching(xs, ys, metric="cityblock") == pytest.approx(
            sum(w1_sorted(xs[:, k], ys[:, k]) for k in range(2)), rel=1e-12)

    @given(euclidean_clouds())
    @settings(max_examples=150, deadline=None)
    # cdist's squared differences underflow: the distance reads 0, not 6.3e-285
    @example(clouds=(np.array([[0.0, 0.0]]), np.array([[0.0, 6.324356581019469e-285]])))
    def test_euclidean_matches_cold_solve(self, clouds):
        xs, ys = clouds
        assert w1_matching(xs, ys) == pytest.approx(plain_euclidean_matching(xs, ys),
                                                    rel=1e-12, abs=1e-12)
        potentials = _euclidean_potentials(xs, ys)
        if potentials is None:
            assert np.array_equal(xs.mean(axis=0), ys.mean(axis=0))
        else:
            # the dual start is feasible: no reduced cost below rounding, or
            # below the distance cdist loses when a squared difference
            # underflows, sqrt(tiny)
            u, v = potentials
            cost = cdist(xs, ys)
            underflow = np.sqrt(np.finfo(float).tiny)
            assert (cost + u[:, None] - v).min() >= -1e-12 * cost.max() - underflow

    @pytest.mark.parametrize("shift", [(1.5, -0.25), (0.0, 3.0), (-7.25, 0.5), (1e-3, 2e-3)])
    def test_euclidean_translation_attains_the_bound(self, shift):
        # for a translate the projection bound mean v - mean u is the optimum
        rng = np.random.default_rng(300)
        xs = rng.normal(size=(160, 2))
        ys = xs + np.array(shift)
        u, v = _euclidean_potentials(xs, ys)
        assert v.mean() - u.mean() == pytest.approx(np.hypot(*shift), rel=1e-12)
        assert w1_matching(ys, xs) == plain_euclidean_matching(ys, xs)
        assert w1_matching(ys, xs) == pytest.approx(np.hypot(*shift), rel=1e-12)

    @pytest.mark.parametrize("metric", ["sqeuclidean", "minkowski", "chebyshev", "Euclidean"])
    def test_other_metrics_rejected(self, metric):
        # a squared-Euclidean matching cost is not a W1, so it may not pass as one
        with pytest.raises(ValueError, match="'euclidean' or 'cityblock'"):
            w1_matching(np.zeros((3, 2)), np.ones((3, 2)), metric=metric)

    def test_errors(self):
        with pytest.raises(ValueError):
            w1_matching(np.zeros((3, 2)), np.zeros((4, 2)))
        # the size check runs before the cost matrix is built
        big = np.zeros((MATCHING_CAP + 1, 2))
        with pytest.raises(CapacityError):
            w1_matching(big, big)


@st.composite
def pushforward_cases(draw):
    """Two equal clouds on the lattice Z^2 / 8, with repeated and coincident
    points, and a linear map of norm 1 - 1e-12, 1, 1 + 1e-10 (inside
    LIP_TOL), 1 + 1e-6 or 2, or a constant map.  Distinct points are 1/8 apart, so a map's rounding moves
    its gap to distance ratios far less than LIP_TOL and never onto it."""
    size = draw(st.integers(1, 12))
    base = draw(st.lists(st.tuples(st.integers(-40, 40), st.integers(-40, 40)),
                         min_size=1, max_size=2 * size))
    picks = draw(st.lists(st.integers(0, len(base) - 1), min_size=2 * size, max_size=2 * size))
    pts = np.array([base[i] for i in picks], dtype=float) / 8.0
    norm = draw(st.sampled_from([1.0 - 1e-12, 1.0, 1.0 + 1e-10, 1.0 + 1e-6, 2.0, None]))
    if norm is None:
        value = draw(st.floats(-10.0, 10.0))
        return pts[:size], pts[size:], lambda p: value
    angle = draw(st.one_of(st.sampled_from([0.0, np.pi / 4, np.arctan2(3.0, 4.0), np.pi / 2]),
                           st.floats(0.0, 2.0 * np.pi)))
    c0, c1 = norm * np.cos(angle), norm * np.sin(angle)
    return pts[:size], pts[size:], lambda p: c0 * p[0] + c1 * p[1]


class TestPushforward:
    def test_projection_contracts(self):
        rng = np.random.default_rng(9)
        xs = rng.normal(size=(80, 2))
        ys = rng.normal(loc=0.4, size=(80, 2))
        d2, d1 = pushforward_check(xs, ys, lambda p: p[0])
        assert d1 <= d2 + 1e-12
        assert d2 > 0

    def test_identical_inputs(self):
        rng = np.random.default_rng(10)
        xs = rng.normal(size=(25, 2))
        d2, d1 = pushforward_check(xs, xs.copy(), lambda p: p[1])
        assert d2 <= 1e-12 and d1 <= 1e-12

    def test_constant_map(self):
        rng = np.random.default_rng(11)
        xs = rng.normal(size=(20, 2))
        ys = rng.normal(loc=1.0, size=(20, 2))
        d2, d1 = pushforward_check(xs, ys, lambda p: 7.0)
        assert d1 == 0.0 and d2 >= 0.0

    def test_lipschitz_violation(self):
        rng = np.random.default_rng(12)
        xs = rng.normal(size=(10, 2))
        ys = rng.normal(size=(10, 2))
        with pytest.raises(ValueError):
            pushforward_check(xs, ys, lambda p: 2.0 * p[0])

    def test_several_maps_share_one_matching(self):
        rng = np.random.default_rng(13)
        xs = rng.normal(size=(60, 2))
        ys = rng.normal(loc=0.3, size=(60, 2))
        maps = (lambda p: p[0], lambda p: 0.6 * p[0] - 0.8 * p[1], lambda p: 0.0)
        singles = [pushforward_check(xs, ys, fn) for fn in maps]
        d2, d1 = pushforward_check(xs, ys, maps)
        assert all(d2 == single[0] for single in singles)
        assert d1 == max(single[1] for single in singles)
        assert d1 > 0.0

    def test_lipschitz_violation_among_several_maps(self):
        rng = np.random.default_rng(14)
        xs = rng.normal(size=(10, 2))
        ys = rng.normal(size=(10, 2))
        pts = np.vstack([xs, ys])
        dists = cdist(pts, pts)
        mask = dists > 0
        ratio = np.max(2.0 * np.abs(pts[:, None, 0] - pts[None, :, 0])[mask] / dists[mask])
        maps = [lambda p: p[1], lambda p: 2.0 * p[0], lambda p: 0.0]
        with pytest.raises(ValueError, match=f"ratio {ratio:.6g}"):
            pushforward_check(xs, ys, maps)
        with pytest.raises(ValueError, match="no map"):
            pushforward_check(xs, ys, [])

    @settings(max_examples=150, deadline=None)
    @given(case=pushforward_cases())
    @example(case=(np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]]),
                   lambda p: (1.0 + 1e-6) * p[0]))
    @example(case=(np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]]),
                   lambda p: (1.0 + 1e-10) * p[0]))
    @example(case=(np.array([[0.0, 0.0], [0.5, 0.5]]), np.array([[0.0, 0.0], [0.5, 0.5]]),
                   lambda p: p[0]))
    def test_guard_raises_as_the_pairwise_test(self, case):
        # the row-max guard raises exactly when the pairwise test
        # |v_i - v_j| > (1 + LIP_TOL) d_ij does, with the same ratio
        xs, ys, fn = case
        pts = np.vstack([xs, ys])
        dists = cdist(pts, pts)
        limit = (1.0 + transport.LIP_TOL) * dists
        assert np.array_equal(limit, limit.T)
        vals = np.array([float(fn(p)) for p in pts])
        gaps = np.abs(vals[:, None] - vals[None, :])
        if np.any(gaps > limit):
            mask = dists > 0
            ratio = float(np.max(gaps[mask] / dists[mask]))
            with pytest.raises(ValueError) as info:
                pushforward_check(xs, ys, fn)
            assert str(info.value) == f"map is not 1-Lipschitz on the inputs (ratio {ratio:.6g})"
        else:
            d2, d1 = pushforward_check(xs, ys, fn)
            assert d1 <= (1.0 + transport.LIP_TOL) * d2 + 1e-12
