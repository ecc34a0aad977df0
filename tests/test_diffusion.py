"""Diffusion-limit tests: mean paths, density variance, Gaussian couplings,
the Wright-Fisher semigroup and marginal, and the derivative-decay probe."""

import itertools

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq
from scipy.special import betainc, eval_jacobi

from noisyvoter.diffusion import (
    WFParams,
    derivative_decay_probe,
    gaussian_coupling,
    gaussian_coupling_bound,
    poly_derivative,
    simulate_wf,
    wf_marginal,
    wf_semigroup,
)
from noisyvoter import diffusion
from noisyvoter.diffusion import _jacobi_values
from noisyvoter.errors import DiagnosticError
from noisyvoter.model import (
    BlockPartition,
    ModelParams,
    block_mean_ode,
    density_drift,
    density_noise,
    density_variance,
    mean_ode,
    stationary_pmf,
    transient_law,
)
from noisyvoter.pmf import empirical_pmf
from noisyvoter.transport import w1_discrete_vs_wf, w1_sorted


class TestMeanOde:
    def test_fixed_point(self):
        params = ModelParams(100, 2.0, 3.0)
        fix = 2.0 / 5.0
        for t in (0.0, 1.0, 500.0):
            assert mean_ode(params, fix, t) == pytest.approx(fix, abs=1e-15)

    def test_zero_time(self):
        assert mean_ode(ModelParams(10, 1, 1), 0.37, 0.0) == 0.37

    @pytest.mark.parametrize("m0", [0.0, 0.2, 0.85, 1.0])
    @pytest.mark.parametrize("t", [0.5, 7.0, 120.0])
    def test_against_integrator(self, m0, t):
        params = ModelParams(50, 1.3, 0.6)
        sol = solve_ivp(lambda _, m: density_drift(params, m) / params.n,
                        (0.0, t), [m0], rtol=1e-12, atol=1e-14, dense_output=True)
        assert mean_ode(params, m0, t) == pytest.approx(sol.y[0, -1], abs=1e-10)

    def test_bounded_drift_of_mean(self):
        params = ModelParams(200, 1.0, 2.5)
        for m0 in (0.1, 0.9):
            for t in (1.0, 50.0, 1e4):
                gap = abs(mean_ode(params, m0, t) - m0)
                assert gap <= abs(params.a / (params.a + params.b) - m0) + 1e-15


class TestDensityVariance:
    @given(st.sampled_from([1, 2, 7, 64, 300]), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
           st.sampled_from(["zero", "half", "full"]), st.floats(0.0, 1.0))
    @example(300, 3.0, -3.0, "zero", 1.0)
    @example(300, -3.0, -3.0, "half", 1.0)
    @example(64, 0.0, 0.0, "full", 0.0)
    @example(1, -3.0, -3.0, "zero", 0.0)
    @settings(max_examples=40, deadline=None)
    def test_matches_transient_law(self, n, log_a, log_b, start, u):
        # a, b log-uniform on [1e-3, 1e3]; t log-uniform on [1e-3, 10] in
        # units of n/(a+b+1), which keeps the uniformization fallback that
        # tail starts take affordable
        a, b = 10.0 ** log_a, 10.0 ** log_b
        params = ModelParams(n, a, b)
        k0 = {"zero": 0, "half": n // 2, "full": n}[start]
        t = 1e-3 * n / (a + b + 1) * 1e4 ** u
        exact = transient_law(params, k0, t).var() / n ** 2
        got = density_variance(params, k0 / n, t)
        assert abs(got - exact) <= 1e-8 * max(1.0, exact)

    @pytest.mark.parametrize("m0", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("a,b", [(1.3, 0.6), (0.01, 5.0), (40.0, 40.0)])
    def test_against_integrator(self, m0, a, b):
        # dVar/dt = (E G(M) - 2(a+b) Var)/n and E G(M) = G(m) - 2 Var
        params = ModelParams(50, a, b)

        def rhs(_, y):
            m, var = y
            return [density_drift(params, m) / params.n,
                    (density_noise(params, m) - 2.0 * (a + b + 1.0) * var) / params.n]

        sol = solve_ivp(rhs, (0.0, 60.0), [m0, 0.0], rtol=1e-12, atol=1e-15,
                        t_eval=[0.5, 7.0, 60.0])
        for t, var in zip(sol.t, sol.y[1]):
            assert density_variance(params, m0, t) == pytest.approx(var, rel=1e-8, abs=1e-13)

    @pytest.mark.parametrize("n,a,b", [(1, 0.5, 2.0), (100, 1.0, 1.0), (1000, 0.01, 30.0)])
    def test_zero_time_and_stationary_limit(self, n, a, b):
        params = ModelParams(n, a, b)
        assert density_variance(params, 0.25, 0.0) == 0.0
        stationary = stationary_pmf(params).var() / n ** 2
        late = density_variance(params, 1.0, 1e4 * n / (a + b))
        assert late == pytest.approx(stationary, rel=1e-10)

    def test_domain(self):
        params = ModelParams(10, 1, 1)
        with pytest.raises(ValueError):
            density_variance(params, 1.2, 1.0)
        with pytest.raises(ValueError):
            density_variance(params, 0.5, -1.0)


class TestBlockMeanOde:
    def test_initial_condition(self):
        params = ModelParams(60, 1.0, 1.0)
        part = BlockPartition(20, 40)
        assert block_mean_ode(params, part, 0.0) == pytest.approx((0.0, 1.0), abs=1e-15)

    def test_weighted_sum_identity(self):
        params = ModelParams(777, 0.7, 1.9)
        part = BlockPartition(300, 477)
        a0, a1 = part.weights
        for t in (0.0, 0.3, 2.0, 25.0, 400.0):
            m0t, m1t = block_mean_ode(params, part, t)
            assert a0 * m0t + a1 * m1t == pytest.approx(mean_ode(params, a1, t), abs=1e-12)

    def test_against_integrator(self):
        params = ModelParams(90, 1.4, 0.8)
        part = BlockPartition(30, 60)
        a0, a1 = part.weights

        def rhs(_, m):
            mbar = a0 * m[0] + a1 * m[1]
            rate = 1.0 + (params.a + params.b) / params.n
            return [params.a / params.n + mbar - rate * m[0],
                    params.a / params.n + mbar - rate * m[1]]

        for t in (0.4, 3.0, 20.0):
            sol = solve_ivp(rhs, (0.0, t), [0.0, 1.0], rtol=1e-12, atol=1e-14)
            got = block_mean_ode(params, part, t)
            assert got[0] == pytest.approx(sol.y[0, -1], abs=1e-10)
            assert got[1] == pytest.approx(sol.y[1, -1], abs=1e-10)

    def test_offset_decay_bound(self):
        params = ModelParams(120, 1.0, 1.0)
        part = BlockPartition(40, 80)
        a0, a1 = part.weights
        for t in (0.1, 1.0, 4.0):
            m0t, m1t = block_mean_ode(params, part, t)
            m = mean_ode(params, a1, t)
            assert abs(m0t - m) <= (1 - a0) * np.exp(-t) + 1e-12
            assert abs(m1t - m) <= (1 - a1) * np.exp(-t) + 1e-12


class TestSimulateWF:
    def test_zero_time(self):
        assert simulate_wf(WFParams(1, 1), 0.42, 0.0, 1e-3, np.random.default_rng(0)) == 0.42

    def test_stays_in_unit_interval(self):
        rng = np.random.default_rng(1)
        out = simulate_wf(WFParams(0.2, 0.3), 0.95, 2.0, 5e-3, rng, n_paths=5000)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_symmetric_mean(self):
        rng = np.random.default_rng(2)
        out = simulate_wf(WFParams(1.5, 1.5), 0.5, 1.0, 1e-3, rng, n_paths=100_000)
        assert abs(out.mean() - 0.5) <= 3 * out.std() / np.sqrt(out.size)

    def test_relaxes_to_beta(self):
        a, b = 1.0, 2.0
        rng = np.random.default_rng(3)
        out = simulate_wf(WFParams(a, b), 0.9, 20.0 / (a + b), 1e-3, rng, n_paths=60_000)
        ref = rng.beta(a, b, size=60_000)
        floor = 1.7 * ref.std() * np.sqrt(2.0 / ref.size)
        assert w1_sorted(out, ref) <= 3 * floor + 3e-3  # Euler bias allowance

    def test_step_halving_moments_cauchy(self):
        rng = np.random.default_rng(4)
        outs = [simulate_wf(WFParams(1, 1), 0.3, 1.0, dt, rng, n_paths=80_000)
                for dt in (4e-3, 2e-3, 1e-3)]
        gaps = [abs(outs[i].mean() - outs[i + 1].mean()) for i in range(2)]
        se = 3 * outs[0].std() / np.sqrt(80_000)
        assert gaps[1] <= gaps[0] + 2 * se

    def test_bad_dt(self):
        with pytest.raises(ValueError):
            simulate_wf(WFParams(1, 1), 0.5, 1.0, -0.1, np.random.default_rng(0))

    def test_single_step_when_dt_exceeds_t(self):
        rng = np.random.default_rng(5)
        out = simulate_wf(WFParams(1, 1), 0.5, 0.01, 0.5, rng)
        assert 0.0 <= out <= 1.0


class TestGaussianCoupling:
    def test_identity_case(self):
        alpha, beta, mse = gaussian_coupling(1.7, 1.7, 0.0, 2.0)
        assert (alpha, beta, mse) == (1.0, 0.0, 0.0)

    def test_worked_example(self):
        alpha, beta, mse = gaussian_coupling(2.0, 1.0, 0.0, 1.0)
        assert alpha == pytest.approx(np.sqrt(0.5), abs=1e-12)
        assert beta == 0.0
        assert mse == pytest.approx(2.0 * (1 - np.sqrt(0.5)) ** 2, abs=1e-12)
        assert mse <= gaussian_coupling_bound(2.0, 1.0, 0.0, 1.0)

    def test_cauchy_schwarz_guard(self):
        with pytest.raises(ValueError):
            gaussian_coupling(1.0, 1.0, 1.5, 1.0)

    def test_monte_carlo_reconstruction(self):
        var_x, var_y, cov_yz, var_z = 1.4, 0.9, 0.35, 0.8
        alpha, beta, _ = gaussian_coupling(var_x, var_y, cov_yz, var_z)
        rng = np.random.default_rng(5)
        size = 500_000
        x = rng.normal(0, np.sqrt(var_x), size)
        z = rng.normal(0, np.sqrt(var_z), size)
        y_tilde = alpha * x + beta * z
        assert abs(y_tilde.var(ddof=1) - var_y) <= 4 * var_y * np.sqrt(2.0 / size)
        cov_hat = np.mean(y_tilde * z)
        se = np.sqrt(var_y * var_z / size) * 2
        assert abs(cov_hat - cov_yz) <= 4 * se

    def test_arrays_match_scalar_loop(self):
        rng = np.random.default_rng(7)
        var_x, var_y, var_z = rng.uniform(0.05, 5.0, size=(3, 200))
        cov_yz = rng.uniform(-1.0, 1.0, size=200) * np.sqrt(var_y * var_z)
        alpha, beta, mse = gaussian_coupling(var_x, var_y, cov_yz, var_z)
        bound = gaussian_coupling_bound(var_x, var_y, cov_yz, var_z)
        for i in range(200):
            args = (float(var_x[i]), float(var_y[i]), float(cov_yz[i]), float(var_z[i]))
            assert (alpha[i], beta[i], mse[i]) == gaussian_coupling(*args)
            assert bound[i] == gaussian_coupling_bound(*args)
        with pytest.raises(ValueError):
            gaussian_coupling(var_x, var_y, np.where(np.arange(200) == 7, 10.0, cov_yz), var_z)

    @given(st.floats(0.05, 5.0), st.floats(0.05, 5.0), st.floats(0.05, 5.0),
           st.floats(-0.999, 0.999))
    @settings(max_examples=300, deadline=None)
    def test_bound_holds(self, var_x, var_y, var_z, rho):
        cov_yz = rho * np.sqrt(var_y * var_z)
        _, _, mse = gaussian_coupling(var_x, var_y, cov_yz, var_z)
        assert mse <= gaussian_coupling_bound(var_x, var_y, cov_yz, var_z) + 1e-12


class TestDerivativeDecayProbe:
    def test_no_elapsed_time_gives_unit_ratio(self):
        res = derivative_decay_probe(WFParams(1, 1), lambda x: x, 1, 0.3, 0.3,
                                     np.linspace(0.2, 0.8, 5), 500,
                                     np.random.default_rng(0), deriv_sup=1.0)
        assert res.ratio == pytest.approx(1.0, abs=1e-12)

    def test_first_derivative_closed_form(self):
        a, b, dt_gap = 1.0, 1.0, 0.5
        rng = np.random.default_rng(1)
        res = derivative_decay_probe(WFParams(a, b), lambda x: x, 1, 0.0, dt_gap,
                                     np.linspace(0.2, 0.8, 5), 100_000, rng,
                                     deriv_sup=1.0)
        exact = np.exp(-(a + b) * dt_gap)
        assert abs(res.ratio - exact) / exact <= 0.05

    def test_second_derivative_bound(self):
        a, b, dt_gap = 1.0, 1.0, 0.5
        rng = np.random.default_rng(2)
        res = derivative_decay_probe(WFParams(a, b), lambda x: x * x, 2, 0.0, dt_gap,
                                     np.linspace(0.2, 0.8, 5), 100_000, rng,
                                     deriv_sup=2.0, step=0.1)
        assert res.ratio <= res.bound + 0.10
        assert res.bound == pytest.approx(np.exp(-2 * (a + b + 1) * dt_gap), abs=1e-15)

    def test_insufficient_budget_raises(self):
        with pytest.raises(DiagnosticError):
            derivative_decay_probe(WFParams(1, 1), lambda x: np.tanh(3 * x), 2,
                                   0.0, 1.5, np.linspace(0.3, 0.7, 3), 60,
                                   np.random.default_rng(0), deriv_sup=9.0, step=0.02)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            derivative_decay_probe(WFParams(1, 1), lambda x: x, 1, 0.0, 1.0,
                                   [0.01], 100, np.random.default_rng(0), step=0.05)


# a and b log-uniform on [1e-3, 1e3], times log-uniform on [1e-3, 10]
_LOG_AB = st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)
_LOG_T = st.floats(-3.0, 1.0).map(lambda e: 10.0 ** e)
_QUINTIC = (0.3, -1.2, 0.5, 2.0, -1.5, 0.7)
_XS = np.linspace(0.0, 1.0, 11)


def _wf_values(params, coef, t, order=0):
    return npoly.polyval(_XS, wf_semigroup(params, coef, t, order))


class TestWFSemigroup:
    @given(_LOG_AB, _LOG_AB, _LOG_T)
    @example(1.0, 1.0, 0.5)
    @settings(max_examples=60, deadline=None)
    def test_constants_and_zero_time(self, a, b, t):
        wf = WFParams(a, b)
        np.testing.assert_allclose(_wf_values(wf, [1.0], t), 1.0, rtol=0, atol=1e-14)
        np.testing.assert_allclose(_wf_values(wf, _QUINTIC, 0.0), npoly.polyval(_XS, _QUINTIC),
                                   rtol=0, atol=1e-12)

    @given(_LOG_AB, _LOG_AB, _LOG_T)
    @example(1.0, 1.0, 0.5)
    @settings(max_examples=60, deadline=None)
    def test_mean_path(self, a, b, t):
        fix = a / (a + b)
        want = fix + (_XS - fix) * np.exp(-(a + b) * t)
        np.testing.assert_allclose(_wf_values(WFParams(a, b), [0.0, 1.0], t), want,
                                   rtol=0, atol=1e-14)

    @given(_LOG_AB, _LOG_AB, _LOG_T)
    @example(1.0, 1.0, 0.5)
    @settings(max_examples=60, deadline=None)
    def test_beta_stationarity(self, a, b, t):
        # E[x^d] = prod_{i<d} (a+i)/(a+b+i) under Beta(a, b)
        moments = np.cumprod(np.r_[1.0, (a + np.arange(5)) / (a + b + np.arange(5))])
        evolved = wf_semigroup(WFParams(a, b), _QUINTIC, t)
        assert moments @ evolved == pytest.approx(moments @ np.asarray(_QUINTIC),
                                                  rel=0, abs=1e-12)

    @given(_LOG_AB, _LOG_AB, _LOG_T, _LOG_T)
    @example(1.0, 1.0, 0.5, 0.25)
    @settings(max_examples=60, deadline=None)
    def test_semigroup_property(self, a, b, s, t):
        wf = WFParams(a, b)
        np.testing.assert_allclose(_wf_values(wf, wf_semigroup(wf, _QUINTIC, t), s),
                                   _wf_values(wf, _QUINTIC, s + t), rtol=0, atol=1e-12)

    @given(_LOG_AB, _LOG_AB, _LOG_T, st.integers(1, 3))
    @example(1.0, 1.0, 0.5, 2)
    @settings(max_examples=80, deadline=None)
    def test_intertwining(self, a, b, t, k):
        # d^k P_t^{(a,b)} f = e^{-lambda_k t} P_t^{(a+k,b+k)} f^(k)
        got = _wf_values(WFParams(a, b), _QUINTIC, t, k)
        want = _wf_values(WFParams(a + k, b + k), npoly.polyder(_QUINTIC, k), t)
        scale = np.max(np.abs(npoly.polyval(_XS, npoly.polyder(_QUINTIC, k))))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)

    def test_equality_cases(self):
        # the derivative-decay bound is attained by x (k = 1) and x^2 (k = 2)
        for a, b in ((1e3, 1e-3), (1e-3, 1e3), (1e3, 1e3)):
            wf = WFParams(a, b)
            np.testing.assert_allclose(_wf_values(wf, [0.0, 1.0], 0.5, 1), 1.0, rtol=1e-15)
            np.testing.assert_allclose(_wf_values(wf, [0.0, 0.0, 1.0], 0.5, 2), 2.0, rtol=1e-15)
            assert np.all(_wf_values(wf, [0.0, 1.0], 0.5, 2) == 0.0)

    def test_against_monte_carlo_probe(self):
        # the probe's central differences of E f(x_t(m)), against the same
        # differences of the exact P_t f, on a cubic at a = b = 1; Euler's
        # O(dt) bias takes up about 2 of the 4 standard errors
        wf, t, step = WFParams(1.0, 1.0), 0.5, 0.05
        cubic = (0.1, -0.4, 0.9, 0.6)
        grid = np.linspace(0.2, 0.8, 3)
        res = derivative_decay_probe(wf, lambda x: npoly.polyval(x, cubic), 1, 0.0, t,
                                     grid, 20_000, np.random.default_rng(11))
        evolved = wf_semigroup(wf, cubic, t)
        g = res.grid_point
        exact = (npoly.polyval(g + step, evolved) - npoly.polyval(g - step, evolved)) / (2 * step)
        assert abs(res.ratio - abs(exact)) <= 4 * res.stderr

    def test_domain(self):
        with pytest.raises(ValueError):
            wf_semigroup(WFParams(1, 1), [0.0, 1.0], -0.1)
        with pytest.raises(ValueError):
            wf_semigroup(WFParams(1, 1), [0.0, 1.0], 0.5, order=-1)
        with pytest.raises(ValueError):
            wf_semigroup(WFParams(1, 1), [[0.0, 1.0]], 0.5)

    def test_poly_derivative_is_polyder(self):
        # bit for bit, signed zeros included: order 0 copies, an order at or
        # past the length gives the single coefficient c[0] * 0
        rng = np.random.default_rng(17)
        for length in range(1, 10):
            draws = [rng.normal(size=length) * 10.0 ** rng.uniform(-300, 300, size=length)
                     for _ in range(20)]
            draws += [-np.ones(length), np.full(length, -0.0), np.arange(length, 0, -1.0)]
            for coef, order in itertools.product(draws, range(10)):
                got = poly_derivative(coef, order)
                want = npoly.polyder(coef, order)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
                if order >= length:
                    assert got.size == 1 and got[0] == 0.0


class TestWFMarginal:
    @given(_LOG_AB, _LOG_AB, st.floats(0.0, 1.0), st.floats(-3.0, 1.0).map(lambda e: 10.0 ** e))
    @example(1.0, 1.0, 0.5, 1.0)
    @example(1e-3, 1e-3, 0.5, 1e-3)
    @example(97.1961, 0.00237852, 0.825488, 0.00213312)
    @settings(max_examples=60, deadline=None)
    def test_law_and_moments(self, a, b, m0, t):
        # a proper CDF whose first two moments are P_t x and P_t x^2, or a
        # DiagnosticError from the guard
        wf = WFParams(a, b)
        try:
            law = wf_marginal(wf, m0, t, tol=1e-12)
        except DiagnosticError:
            return
        f = law.cdf(np.linspace(0.0, 1.0, 4097))
        assert f[0] == 0.0 and abs(f[-1] - 1.0) <= 1e-12
        assert np.all(np.diff(f) >= -1e-12)
        g1 = float(law.cdf_integral(1.0))
        # E x^2 = 1 - 2 int_0^1 y F = 1 - 2 G(1) + 2 int_0^1 G
        int_g = quad(lambda y: float(law.cdf_integral(y)), 0.0, 1.0,
                     epsabs=1e-13, epsrel=1e-13, limit=200)[0]
        for moment, coef in ((1.0 - g1, (0.0, 1.0)),
                             (1.0 - 2.0 * g1 + 2.0 * int_g, (0.0, 0.0, 1.0))):
            assert moment == pytest.approx(npoly.polyval(m0, wf_semigroup(wf, coef, t)),
                                           rel=0, abs=1e-10)

    @pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (-0.5, 2.0), (-0.999, -0.999),
                                            (3.0, 0.25), (1e3, 1.0)])
    def test_jacobi_recurrence(self, alpha, beta):
        # scipy's own values carry relative errors up to ~1e-12 at these
        # parameters (checked against the explicit binomial sum in 50 digits)
        xs = np.linspace(-1.0, 1.0, 9)
        values = itertools.islice(_jacobi_values(alpha, beta, xs), 31)
        for k, got in enumerate(values):
            want = eval_jacobi(k, alpha, beta, xs)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-11 * np.max(np.abs(want)))

    @pytest.mark.parametrize("a,b,m0,t", [(1.0, 1.0, 0.5, 0.05), (0.3, 4.0, 0.8, 0.05),
                                          (2.0, 0.5, 0.1, 0.02)])
    def test_polynomial_moments(self, a, b, m0, t):
        # E x^k = 1 - k int_0^1 y^(k-1) F(y) dy = (P_t x^k)(m0): modes j <= k
        wf = WFParams(a, b)
        law = wf_marginal(wf, m0, t)
        for k in range(1, 9):
            got = 1.0 - k * quad(lambda y: y ** (k - 1) * float(law.cdf(y)), 0.0, 1.0,
                                 epsabs=1e-14, epsrel=1e-13, limit=200)[0]
            want = npoly.polyval(m0, wf_semigroup(wf, np.eye(k + 1)[k], t))
            assert got == pytest.approx(want, rel=0, abs=1e-10)

    def test_antiderivative_against_quadrature(self):
        for a, b, m0, t in ((1.0, 1.0, 0.5, 1.0), (0.3, 4.0, 0.8, 0.05), (2.0, 0.5, 0.1, 0.01)):
            law = wf_marginal(WFParams(a, b), m0, t)
            for y in (0.05, 0.3, 0.77, 1.0):
                want = quad(lambda z: float(law.cdf(z)), 0.0, y, epsabs=1e-14, epsrel=1e-12,
                            limit=200)[0]
                assert float(law.cdf_integral(y)) == pytest.approx(want, rel=0, abs=1e-12)

    def test_infinite_time_is_beta(self):
        law = wf_marginal(WFParams(0.7, 2.5), 0.9, np.inf)
        ys = np.linspace(0.0, 1.0, 11)
        np.testing.assert_array_equal(law.cdf(ys), betainc(0.7, 2.5, ys))
        assert law.series_terms == 0 and law.stationary_distance() == 0.0

    def test_against_euler(self):
        # the Euler-Maruyama ensemble sits within its sampling noise floor
        # E W1(empirical, law) ~ sqrt(2 / (pi N)) int sqrt(F(1-F)), plus an
        # O(dt) allowance for the clamped Euler bias
        wf, m0, t, paths = WFParams(1.0, 2.0), 0.3, 0.5, 100_000
        law = wf_marginal(wf, m0, t)
        samples = simulate_wf(wf, m0, t, 2e-3, np.random.default_rng(8), n_paths=paths)
        f = law.cdf((np.arange(10_000) + 0.5) / 10_000)
        floor = np.sqrt(2.0 / (np.pi * paths)) * np.mean(np.sqrt(f * (1.0 - f)))
        assert w1_discrete_vs_wf(empirical_pmf(samples), law) <= 3 * floor + 1e-3

    def test_guard_trips_in_the_tail(self):
        # m0 = 0.2 is deep in the tail of Beta(200, 1): the terms cancel
        with pytest.raises(DiagnosticError, match=r"rounding bound .* \(200, 1, 0.2, 0.005\)"):
            wf_marginal(WFParams(200.0, 1.0), 0.2, 0.005)

    def test_checks_catch_a_truncated_series(self, monkeypatch):
        # cutting the series far too early passes the rounding bound but
        # leaves an oscillating, non-monotone CDF
        monkeypatch.setattr(diffusion, "_SERIES_CUTOFF", 1e-2)
        with pytest.raises(DiagnosticError, match="failed its checks"):
            wf_marginal(WFParams(1.0, 1.0), 0.5, 0.01)

    def test_limit_profile_mixing_times(self):
        # D(t) = W1(WF_t(1/2), Beta(1, 1)) crosses eps at the limit t_mix/n
        wf = WFParams(1.0, 1.0)
        for eps, want in ((0.01, 0.45821), (0.05, 0.19246), (0.1, 0.08603)):
            got = brentq(lambda t: wf_marginal(wf, 0.5, t).stationary_distance() - eps,
                         0.01, 3.0, xtol=1e-10)
            assert got == pytest.approx(want, abs=1e-4)

    @pytest.mark.parametrize("a,b,m0", [(0.5, 2.0, 0.75), (3.0, 1.5, 0.2), (1.0, 1.0, 0.3)])
    def test_limit_profile_late_time(self, a, b, m0):
        # the CDF gap has one sign late on, so W1 is the gap of the means
        fix = a / (a + b)
        for t in (1.0, 2.0):
            got = wf_marginal(WFParams(a, b), m0, t).stationary_distance()
            assert got == pytest.approx(abs(m0 - fix) * np.exp(-(a + b) * t), rel=1e-10)

    def test_limit_profile_against_dense_grid(self):
        ys = (np.arange(400_000) + 0.5) / 400_000
        for a, b, m0, t in ((1.0, 1.0, 0.5, 0.02), (3.0, 1.5, 0.9, 0.03)):
            law = wf_marginal(WFParams(a, b), m0, t)
            brute = np.mean(np.abs(law.cdf(ys) - betainc(a, b, ys)))
            assert law.stationary_distance() == pytest.approx(brute, rel=0, abs=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            wf_marginal(WFParams(1, 1), 0.5, 0.0)
        with pytest.raises(ValueError):
            wf_marginal(WFParams(1, 1), 1.5, 1.0)
