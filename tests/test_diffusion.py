"""Diffusion-limit tests: mean paths, fluctuations, couplings, probes."""

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import solve_ivp

from noisyvoter.diffusion import (
    GaussianSpec,
    WFParams,
    asymptotic_fluctuation_sample,
    asymptotic_fluctuation_spec,
    block_density_noise,
    block_mean_ode,
    density_drift,
    density_noise,
    density_variance,
    derivative_decay_probe,
    fluctuation_cross_covariance,
    gaussian_coupling,
    gaussian_coupling_bound,
    mean_ode,
    simulate_fluctuation,
    simulate_wf,
    sum_fluctuation_variance,
    wf_semigroup,
)
from noisyvoter.errors import DiagnosticError
from noisyvoter.model import BlockPartition, ModelParams, stationary_pmf, transient_law
from noisyvoter.transport import w1_sorted


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


class TestFluctuationMoments:
    def test_quadrature_zero_time(self):
        params = ModelParams(500, 1, 1)
        part = BlockPartition(250, 250)
        assert sum_fluctuation_variance(params, part, 0.0) == 0.0

    def test_quadrature_closed_form_at_fixed_point(self):
        a, b = 2.0, 3.0
        n = 1000
        params = ModelParams(n, a, b)
        n1 = int(n * a / (a + b))
        part = BlockPartition(n - n1, n1)  # m0 = a/(a+b): mean path constant
        g0 = density_noise(params, a / (a + b))
        for t in (0.5, 5.0, 40.0):
            expect = n / (2 * (a + b)) * (1 - np.exp(-2 * (a + b) * t / n)) * g0
            assert sum_fluctuation_variance(params, part, t) == pytest.approx(expect, abs=1e-10)

    def test_linear_growth_bound(self):
        # |Var(y_t) - G(m0) t| <= 5 t^2 / n for n = 1000, a = b = 1
        n = 1000
        params = ModelParams(n, 1.0, 1.0)
        part = BlockPartition(700, 300)
        g0 = density_noise(params, 0.3)
        for t in (1.0, 5.0, 15.0, 30.0):
            var = sum_fluctuation_variance(params, part, t)
            assert abs(var - g0 * t) <= 5.0 * t * t / n

    def test_cross_covariance_zero_cases(self):
        params = ModelParams(400, 1.0, 1.0)
        part = BlockPartition(200, 200)
        assert fluctuation_cross_covariance(params, part, 0.0) == 0.0
        # equal blocks with a = b keep both block noise coefficients equal
        assert abs(fluctuation_cross_covariance(params, part, 3.0)) <= 1e-12

    def test_cross_covariance_decay(self):
        params = ModelParams(600, 1.5, 0.5)
        part = BlockPartition(400, 200)
        v4 = abs(fluctuation_cross_covariance(params, part, 4.0))
        v8 = abs(fluctuation_cross_covariance(params, part, 8.0))
        assert v8 <= v4 * 10 * np.exp(-4.0)


class TestSimulateFluctuation:
    def test_reference_start_zero_time(self):
        params = ModelParams(300, 1, 1)
        part = BlockPartition(100, 200)
        out = simulate_fluctuation(params, part, "reference-start", 0.0, 1e-3,
                                   np.random.default_rng(0))
        assert out == pytest.approx((0.0, 0.0), abs=1e-15)

    def test_uniform_start_initial_variance(self):
        params = ModelParams(300, 1, 1)
        part = BlockPartition(120, 180)
        m0 = 0.6
        rng = np.random.default_rng(1)
        out = simulate_fluctuation(params, part, "uniform-start", 0.0, 1e-3, rng,
                                   n_paths=120_000)
        nu_sq = (m0 * (1 - m0)) ** 2
        var = out[:, 0].var(ddof=1)
        assert abs(var - nu_sq) <= 4 * nu_sq * np.sqrt(2.0 / out.shape[0])
        assert np.max(np.abs(out[:, 0] + out[:, 1])) <= 1e-12

    def test_sum_variance_matches_quadrature(self):
        params = ModelParams(800, 1.0, 1.0)
        part = BlockPartition(560, 240)
        t = 2.5
        rng = np.random.default_rng(2)
        out = simulate_fluctuation(params, part, "reference-start", t, 1e-3, rng,
                                   n_paths=60_000)
        total = out.sum(axis=1)
        var = total.var(ddof=1)
        target = sum_fluctuation_variance(params, part, t)
        assert abs(var - target) <= 4 * target * np.sqrt(2.0 / total.size) + 5e-3

    def test_mode_validation(self):
        params = ModelParams(10, 1, 1)
        part = BlockPartition(5, 5)
        with pytest.raises(ValueError):
            simulate_fluctuation(params, part, "bogus", 1.0, 1e-3, np.random.default_rng(0))


class TestAsymptoticFluctuation:
    def test_spec_construction_audit(self):
        m0, g0, t = 0.3, 0.55, 4.0
        spec = asymptotic_fluctuation_spec(m0, g0, t)
        ones = np.ones(2)
        # aggregate variance g0 t, imbalance variance m0(1-m0)g0/2, uncorrelated
        assert ones @ spec.cov @ ones == pytest.approx(g0 * t, abs=1e-12)
        star = np.array([-m0, 1 - m0])  # z1 - a1 (z0 + z1) with a1 = m0
        assert star @ spec.cov @ star == pytest.approx(0.5 * m0 * (1 - m0) * g0, abs=1e-12)
        assert star @ spec.cov @ ones == pytest.approx(0.0, abs=1e-12)

    def test_zero_time_sum_degenerate(self):
        rng = np.random.default_rng(3)
        out = asymptotic_fluctuation_sample(0.4, 0.5, 0.0, rng, size=20_000)
        assert np.max(np.abs(out.sum(axis=1))) <= 1e-12

    def test_sample_moments(self):
        m0, g0, t = 0.5, 0.5, 3.0
        rng = np.random.default_rng(4)
        out = asymptotic_fluctuation_sample(m0, g0, t, rng, size=1_000_000)
        total = out.sum(axis=1)
        star = out[:, 1] - m0 * total
        var_total = total.var(ddof=1)
        var_star = star.var(ddof=1)
        cov = np.mean(star * total)
        assert abs(var_total - g0 * t) <= 4 * g0 * t * np.sqrt(2.0 / out.shape[0])
        s2 = 0.5 * m0 * (1 - m0) * g0
        assert abs(var_star - s2) <= 4 * s2 * np.sqrt(2.0 / out.shape[0])
        assert abs(cov) <= 4 * np.sqrt(g0 * t * s2 / out.shape[0])

    def test_domain(self):
        with pytest.raises(ValueError):
            asymptotic_fluctuation_spec(0.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            GaussianSpec(np.zeros(2), np.array([[1.0, 0.5], [0.4, 1.0]]))


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
