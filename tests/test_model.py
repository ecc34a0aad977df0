"""Model-core tests: rates, exact laws, simulation, coupling."""

import logging
import re
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dstein
from scipy.special import betaln, gammaln
from scipy.stats import binom, poisson

from noisyvoter import model
from noisyvoter.errors import CapacityError, DiagnosticError
from noisyvoter.experiments import SCENARIOS
from noisyvoter.model import (
    BlockPartition,
    ModelParams,
    count_rates,
    couple_by_block_counts,
    density_noise,
    detailed_balance_gap,
    mean_ode,
    sample_uniform_given_count,
    simulate_blocks_batch,
    simulate_count_batch,
    stationary_log_pmf,
    stationary_pmf,
    transient_law,
    transient_laws,
    _count_chain,
    _poisson_isf,
    _poisson_pmf,
    _spectral_laws,
    _spectrum,
    _uniformized_law,
)
from noisyvoter.pmf import Pmf, empirical_pmf
from noisyvoter.transport import w1_discrete
from oracles import block_rates, generator_residual, hahn_laws_longdouble


# a and b log-uniform on [1e-3, 1e3]
_LOG_AB = st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)


def stationary_log_pmf_betaln(params: ModelParams) -> np.ndarray:
    """Direct log-Gamma evaluation of the stationary log pmf (cross-check oracle)."""
    n, a, b = params.n, params.a, params.b
    ks = np.arange(n + 1, dtype=float)
    return (
        gammaln(n + 1) - gammaln(ks + 1) - gammaln(n - ks + 1)
        + betaln(a + ks, b + n - ks) - betaln(a, b)
    )


def empirical_w1_floor(pmf: Pmf, n_samples: int) -> float:
    """Expected W1 between an n-sample empirical law and its source,
    integral of sqrt(F(1-F)) over the support divided by sqrt(n)."""
    f = np.cumsum(pmf.probs)[:-1]
    gaps = np.diff(pmf.support)
    return float(np.sum(np.sqrt(f * (1 - f)) * gaps) / np.sqrt(n_samples))


class TestRates:
    def test_examples(self):
        assert count_rates(ModelParams(2, 1, 1), 1) == (1.0, 1.0)
        up, down = count_rates(ModelParams(17, 2.5, 3.75), 0)
        assert up == 2.5 and down == 0.0
        assert count_rates(ModelParams(1, 2, 3), 1) == (0.0, 3.0)

    def test_boundary_zeros(self):
        params = ModelParams(31, 0.7, 1.9)
        assert count_rates(params, 31)[0] == 0.0
        assert count_rates(params, 0)[1] == 0.0
        for k in range(32):
            up, down = count_rates(params, k)
            assert up >= 0 and down >= 0

    @staticmethod
    def _check_array_rates(n, a, b):
        # the spectral engine, uniformization and detailed_balance_gap call
        # count_rates on the whole count grid; the array call must give the
        # scalar rates bit for bit
        params = ModelParams(n, a, b)
        up, down = count_rates(params, np.arange(n + 1))
        assert list(zip(up, down)) == [count_rates(params, k) for k in range(n + 1)]

    @pytest.mark.parametrize("n,a,b", [(1, 2.0, 3.0), (31, 0.7, 1.9), (3000, 1e-3, 1e3)])
    def test_rate_arrays_match_count_rates(self, n, a, b):
        self._check_array_rates(n, a, b)

    @given(st.integers(1, 3000), _LOG_AB, _LOG_AB)
    @settings(max_examples=60, deadline=None)
    def test_rate_arrays_match_count_rates_property(self, n, a, b):
        self._check_array_rates(n, a, b)

    def test_out_of_range(self):
        params = ModelParams(5, 1, 1)
        for bad in (6, -1, 2.5, [0, 3, 6], np.array([1.0, 2.5])):
            with pytest.raises(ValueError):
                count_rates(params, bad)

    def test_block_example(self):
        params = ModelParams(2, 1, 1)
        part = BlockPartition(1, 1)
        assert block_rates(params, part, (0, 1)) == (1.0, 0.0, 0.0, 1.0)

    def test_block_trivial(self):
        params = ModelParams(10, 1.5, 0.5)
        part = BlockPartition(4, 6)
        u0, u1, d0, d1 = block_rates(params, part, (0, 0))
        assert d0 == 0.0 and d1 == 0.0
        u0, u1, d0, d1 = block_rates(params, part, (4, 6))
        assert u0 == 0.0 and u1 == 0.0

    @given(st.integers(1, 30), st.integers(1, 30),
           st.floats(0.1, 5.0), st.floats(0.1, 5.0), st.data())
    @settings(max_examples=60, deadline=None)
    def test_block_marginals_match_count(self, n0, n1, a, b, data):
        params = ModelParams(n0 + n1, a, b)
        part = BlockPartition(n0, n1)
        x0 = data.draw(st.integers(0, n0))
        x1 = data.draw(st.integers(0, n1))
        u0, u1, d0, d1 = block_rates(params, part, (x0, x1))
        up, down = count_rates(params, x0 + x1)
        assert u0 + u1 == pytest.approx(up, abs=1e-12)
        assert d0 + d1 == pytest.approx(down, abs=1e-12)

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            BlockPartition(0, 5)
        with pytest.raises(ValueError):
            block_rates(ModelParams(4, 1, 1), BlockPartition(2, 3), (0, 0))


class TestStationary:
    def test_two_point_symmetric(self):
        pmf = stationary_pmf(ModelParams(1, 1, 1))
        np.testing.assert_allclose(pmf.probs, [0.5, 0.5], atol=1e-15)

    def test_three_point_uniform(self):
        # C(2,k) B(1+k, 3-k) / B(1,1) gives thirds for every k
        pmf = stationary_pmf(ModelParams(2, 1, 1))
        np.testing.assert_allclose(pmf.probs, [1 / 3, 1 / 3, 1 / 3], atol=1e-14)

    @pytest.mark.parametrize("n", [10, 100, 1000])
    @pytest.mark.parametrize("ab", [(1.0, 1.0), (1.3, 0.4), (5.0, 0.2)])
    def test_detailed_balance(self, n, ab):
        assert detailed_balance_gap(ModelParams(n, *ab)) <= 1e-12

    @pytest.mark.parametrize("n,a,b", [(50, 2.0, 0.7), (500, 0.3, 4.0), (4096, 1.0, 1.0)])
    def test_matches_log_gamma_formula(self, n, a, b):
        params = ModelParams(n, a, b)
        gap = np.max(np.abs(stationary_log_pmf(params) - stationary_log_pmf_betaln(params)))
        assert gap <= 1e-10

    def test_sampler_law(self):
        params = ModelParams(40, 1.5, 0.7)
        pmf = stationary_pmf(params)
        rng = np.random.default_rng(11)
        # the two-step draw: p ~ Beta(a, b), then k ~ Binomial(n, p)
        draws = rng.binomial(params.n, rng.beta(params.a, params.b, size=1_000_000))
        dist = w1_discrete(empirical_pmf(draws), pmf)
        assert dist <= 2.5 * empirical_w1_floor(pmf, draws.size)

    def test_sampler_symmetric_mean(self):
        rng = np.random.default_rng(12)
        draws = rng.binomial(1, rng.beta(1.0, 1.0, size=200_000))
        se = 0.5 / np.sqrt(draws.size)
        assert abs(draws.mean() - 0.5) <= 3 * se

    def test_stochastic_dominance_when_a_dominates(self):
        n = 60
        skew = stationary_pmf(ModelParams(n, 50.0, 1.0))
        flat = stationary_pmf(ModelParams(n, 1.0, 1.0))
        # mass pushed toward k=n: CDF of the skewed law sits below everywhere
        assert np.all(skew.cdf() <= flat.cdf() + 1e-12)
        assert skew.cdf()[n // 2] < flat.cdf()[n // 2]


class TestTransientLaw:
    def test_zero_time_point_mass(self):
        law = transient_law(ModelParams(9, 1, 1), 4, 0.0)
        assert law.probs[4] == 1.0

    @pytest.mark.parametrize("t", [0.05, 0.3, 1.0, 4.0])
    def test_two_state_closed_form(self, t):
        law = transient_law(ModelParams(1, 1, 1), 0, t, 1e-9)
        assert law.probs[1] == pytest.approx((1 - np.exp(-2 * t)) / 2, abs=2e-9)

    def test_long_run_hits_stationary(self):
        params = ModelParams(50, 1, 1)
        law = transient_law(params, 0, 50.0 * params.n, 1e-9)
        assert w1_discrete(law, stationary_pmf(params)) <= 1e-6

    def test_accepts_pmf_start_and_composes(self):
        # a law start is the route of the refill restarts: _spectral_laws
        # from the law at t = 0.75
        params = ModelParams(12, 0.8, 1.7)
        direct = transient_law(params, 3, 2.0, 1e-9)
        half = transient_law(params, 3, 0.75, 1e-9)
        laws, ok = _spectral_laws(_count_chain(params), half.probs, np.array([1.25]), 1e-9)[:2]
        assert ok.all()
        composed = Pmf(half.support, laws[:, 0])
        assert w1_discrete(direct, composed) <= 1e-8

    def test_monotone_approach_to_stationarity(self):
        params = ModelParams(80, 1.2, 0.9)
        stat = stationary_pmf(params)
        grid = transient_laws(params, 5, np.linspace(0.5, 60, 24))
        ds = np.array([w1_discrete(Pmf(stat.support, col), stat) for col in grid.probs.T])
        peak = int(np.argmax(ds))
        assert np.all(np.diff(ds[peak:]) <= 5e-9)

    def test_validation(self):
        params = ModelParams(6, 1, 1)
        for t in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                transient_law(params, 2, t)
        with pytest.raises(ValueError):
            transient_law(params, 2, 1.0, tol=1e-3)
        # count_rates takes count arrays; a start is one count
        for start in ([1, 2], 2.5, 7):
            with pytest.raises(ValueError):
                transient_law(params, start, 1.0)
        # a tail start above the cap: its a-priori bound (2.8e10) cannot be
        # uniformized there
        with pytest.raises(CapacityError):
            transient_law(ModelParams(5000, 20, 20), 0, 1.0)


def uniformization_oracle(params: ModelParams, p0: np.ndarray, t: float) -> np.ndarray:
    """Uniformization at a tolerance well below the 1e-9 and 1e-12 under test."""
    return _uniformized_law(_count_chain(params), p0, t, 1e-13)


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(p - q).sum())


class TestSpectralLaw:
    @given(st.sampled_from([1, 2, 7, 64, 300]),
           st.floats(-2.0, 2.0).map(lambda e: 10.0 ** e),
           st.floats(-2.0, 2.0).map(lambda e: 10.0 ** e),
           st.sampled_from(["zero", "half", "full", "binomial"]), st.floats(0.0, 1.0),
           st.sampled_from([1e-9, 1e-12]))
    @example(300, 1.0, 1.0, "half", 1.0, 1e-9)
    @example(300, 1.0, 1.0, "binomial", 1.0, 1e-12)
    @example(300, 0.01, 100.0, "binomial", 0.5, 1e-12)
    @settings(max_examples=60, deadline=None)
    def test_matches_uniformization(self, n, a, b, start, u, tol):
        # a and b log-uniform on [0.01, 100], t log-uniform on [1e-3, 5n] but
        # at most 2e5 oracle steps; int starts 0, n//2, n and a law start,
        # whose |p0/s|_2 in the a-priori bound is below sum(p0/s), taken as the
        # refill restarts take it: _spectral_laws, uniformization where it fails
        params = ModelParams(n, a, b)
        up, down = count_rates(params, np.arange(n + 1))
        t = min(1e-3 * (5000.0 * n) ** u, 2e5 / (1.05 * float((up + down).max())))
        ks = np.arange(n + 1)
        if start == "binomial":
            p0 = binom.pmf(ks, n, 0.3)
            chain = _count_chain(params)
            laws, ok = _spectral_laws(chain, p0, np.array([t]), tol)[:2]
            law = laws[:, 0] if ok[0] else _uniformized_law(chain, p0, t, tol)
        else:
            k0 = {"zero": 0, "half": n // 2, "full": n}[start]
            p0 = (ks == k0).astype(float)
            law = transient_law(params, k0, t, tol).probs
        assert total_variation(law, uniformization_oracle(params, p0, t)) <= tol

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 300, 1024])
    @pytest.mark.parametrize("a,b", [(0.01, 0.01), (1.0, 1.0), (20.0, 50.0), (50.0, 1.0)])
    def test_hahn_spectrum(self, n, a, b):
        # all n+1 modes, then the slowest eighth; at n = 64, 300 and 1024 also
        # one mode count on each side of each crossover, full against dstein
        # and, at 300 and 1024, the recurrence against both, so that every
        # eigenvector route is checked.  A count the rule gives the recurrence
        # may fall back to the LAPACK route when the certificate rejects its
        # vectors.  The eigenvalues are the closed form, bit for bit, with 0
        # exactly 0
        params = ModelParams(n, a, b)
        chain = _count_chain(params)
        counts = [n + 1, (n + 1) // 8 or 1]
        if n in (64, 300, 1024):
            lapack = [model._lapack_route(chain, m)[0] for m in range(1, n + 2)]
            cross = lapack.index("full") + 1
            assert lapack[cross - 2] == "dstein"
            counts += [cross - 1, cross]
            # at n = 64 the recurrence is never the cheapest
            hahn = [m for m in range(1, n + 2) if model._eigen_route(chain, m) == "hahn"]
            if hahn:
                assert hahn == list(range(hahn[0], hahn[-1] + 1))
                counts += [hahn[0] - 1, hahn[0], hahn[-1], hahn[-1] + 1]
        j = np.arange(n + 1, dtype=float)
        hahn_lam = np.sort(-j * (j - 1 + a + b) / n)
        # eigen-residual of the symmetrized generator, built here from the rates
        up, down = count_rates(params, np.arange(n + 1))
        off = np.sqrt(up[:-1] * down[1:])
        sym = np.diag(-(up + down)) + np.diag(off, 1) + np.diag(off, -1)
        for modes in filter(None, counts):
            pick = model._eigen_route(chain, modes)
            lam, vecs, route = _spectrum(chain, modes)
            assert vecs.shape == (n + 1, modes)
            if route != pick:
                assert pick == "hahn" and route == model._lapack_route(chain, modes)[0]
                assert max(route.certificate.values()) > model._CERTIFIED
            assert np.array_equal(lam, hahn_lam[-modes:]) and lam[-1] == 0.0
            assert np.max(np.abs(sym @ vecs - vecs * lam)) <= 1e-10 * n
            assert np.max(np.abs(vecs.T @ vecs - np.eye(modes))) <= 1e-10

    @pytest.mark.parametrize("n", [32, 128, 1024])
    @pytest.mark.parametrize("a,b", [(0.2, 5.0), (1.0, 1.0), (20.0, 20.0), (50.0, 1.0)])
    def test_hahn_recurrence(self, n, a, b):
        # a third of the rule's largest count for the recurrence, and that
        # count, at the (n, a, b) of the sweep behind the certificate: a third
        # always passes, and vectors that pass are eigh_tridiagonal's to 100
        # units of (n+1) eps, up to sign (the sweep's worst was 75), and give
        # laws within the a-priori rounding term (n+1) eps |p0/s|_2 of the
        # 80-bit Hahn series over the same modes.  (a + b = 0.02 is left out:
        # its gap (a+b)/n leaves eigh_tridiagonal's own vectors off by 1e-9)
        params = ModelParams(n, a, b)
        chain = _count_chain(params)
        unit = (n + 1) * np.finfo(float).eps
        reach = min(n + 1, int(model._HAHN_REACH * np.sqrt(n + 1)))
        full = eigh_tridiagonal(chain.diag, chain.off)[1]
        k0, times = n // 2, n * np.array([0.01, 0.1])
        for modes in (reach // 3, reach):
            j = np.arange(modes - 1, -1, -1, dtype=float)
            lam = -j * (j - 1 + a + b) / n
            rows = model._hahn_rows(chain, modes)
            readings = model._certificate(chain, lam, rows)
            passed = all(r <= model._CERTIFIED for r in readings)
            assert passed or modes == reach
            if not passed:
                continue
            ref = full[:, n + 1 - modes:]
            sign = np.sign(np.sum(ref * rows.T, axis=0))
            assert np.max(np.abs(rows.T - ref * sign)) <= 100 * unit
            q0 = rows[:, k0] / chain.s[k0]
            laws = chain.s[:, None] * (rows.T @ (np.exp(np.outer(lam, times)) * q0[:, None]))
            want = hahn_laws_longdouble(params, k0, times, modes)
            assert np.abs(laws - want).sum(axis=0).max() <= unit / chain.s[k0]

    @pytest.mark.parametrize("n,a,b,fallback", [(64, 1.0, 1.0, "full"), (128, 0.2, 5.0, "dstein")])
    def test_certificate_rejects(self, n, a, b, fallback, monkeypatch, caplog):
        # 50 modes on the mixing-curve grid, past the recurrence's reach at
        # both: with the rule made to pick the recurrence, the certificate
        # rejects it, the rejection is logged, the LAPACK route runs and the
        # laws are that route's to 1e-12 in l1
        params = ModelParams(n, a, b)
        times = n * np.asarray(SCENARIOS["mixing-curve"][1])
        assert model._lapack_route(_count_chain(params), 50)[0] == fallback
        grids = {}
        for route in ("hahn", fallback):
            monkeypatch.setattr(model, "_eigen_route", lambda chain, modes, route=route: route)
            with caplog.at_level(logging.INFO, logger="noisyvoter.model"):
                grids[route] = transient_laws(params, n // 2, times)
            assert grids[route].modes == 50 and not grids[route].refilled.any()
        rejected = grids["hahn"].route
        assert rejected == fallback and min(rejected.certificate.values()) > model._CERTIFIED
        messages = [r.getMessage() for r in caplog.records if r.name == "noisyvoter.model"]
        assert len(messages) == 1 and f"n={n} a={a:g} b={b:g}, 50 modes" in messages[0]
        assert f"falling back to {fallback}" in messages[0]
        assert np.abs(grids["hahn"].probs - grids[fallback].probs).sum(axis=0).max() <= 1e-12

    def test_no_subnormal_weight_reaches_the_product(self, monkeypatch):
        # at the mixing-exact shape (n = 128, 50 modes, 60 times) some weights
        # e^{lam_j t} (V^T q0)_j are subnormal; they are set to 0 before the
        # product V @ weights, which the spy records
        class Spy(np.ndarray):
            def __matmul__(self, other):
                if np.ndim(other) == 2:
                    seen.append(np.array(other))
                return np.asarray(self) @ other

        seen = []
        spectrum = model._spectrum
        monkeypatch.setattr(model, "_spectrum", lambda chain, modes: (
            lambda lam, vecs, route: (lam, vecs.view(Spy), route))(*spectrum(chain, modes)))
        params = ModelParams(128, 1.0, 1.0)
        times = 128 * np.asarray(SCENARIOS["mixing-curve"][1])
        grid = transient_laws(params, 64, times)
        assert grid.route == "hahn" and len(seen) == 1
        tiny = np.finfo(float).tiny
        assert not np.any((seen[0] != 0) & (np.abs(seen[0]) < tiny))
        # without the rule they would be there
        lam, vecs, _ = spectrum(_count_chain(params), grid.modes)
        live = times[times > 0]
        q0 = (np.arange(129) == 64) / _count_chain(params).s
        raw = np.exp(np.outer(lam, live)) * (vecs.T @ q0)[:, None]
        assert np.any((raw != 0) & (np.abs(raw) < tiny))

    def test_unconverged_dstein_vectors_that_pass_the_certificate(self):
        # LAPACK's dstein, on this 2-state chain's T as it stands, reports the
        # slow vector as not converged (info = 1); _spectrum scales T to
        # |T|_inf >= 1 first, and its vectors meet the certificate
        params = ModelParams(1, 0.01, 10.0 ** -1.8125)
        chain = _count_chain(params)
        lam, vecs, route = _spectrum(chain, 2)
        assert route == "dstein"
        info = dstein(chain.diag, chain.off, lam, np.ones(2, dtype=np.int32),
                      np.array([2, 0], dtype=np.int32))[1]
        assert info == 1
        assert np.max(np.abs(vecs.T @ vecs - np.eye(2))) <= 1e-15
        law = transient_law(params, 0, 0.01)
        want = uniformization_oracle(params, np.array([1.0, 0.0]), 0.01)
        assert total_variation(law.probs, want) <= 1e-9

    def test_dstein_below_unit_norm(self):
        # at n = 1, a = b = 0.001, |T|_inf = 0.002: dstein on T as it stands
        # flags the slow vector (info = 1), and the rounding of b + n - k in
        # the rates puts it outside the certificate too; on T scaled by a
        # power of two both vectors converge, to T's own eigenvectors
        params = ModelParams(1, 1e-3, 1e-3)
        chain = _count_chain(params)
        lam, vecs, route = _spectrum(chain, 2)
        assert route == "dstein"
        raw, info = dstein(chain.diag, chain.off, lam, np.ones(2, dtype=np.int32),
                           np.array([2, 0], dtype=np.int32))
        assert info == 1 and model._certificate(chain, lam, raw.T)[0] > model._CERTIFIED
        full = eigh_tridiagonal(chain.diag, chain.off)[1]
        assert np.max(np.abs(np.abs(full.T @ vecs) - np.eye(2))) <= 1e-15
        for t in (0.01, 1.0, 100.0):
            law = transient_law(params, 0, t)
            want = uniformization_oracle(params, np.array([1.0, 0.0]), t)
            assert total_variation(law.probs, want) <= 1e-12

    @pytest.mark.parametrize("n", [128, 256])
    @pytest.mark.parametrize("scenario", ["mixing-curve", "profile"])
    def test_eigen_routes_agree(self, n, scenario, monkeypatch):
        # each route forced through the rule, on a scenario's default grid
        # from n/2: the same laws to 1e-12 in l1, and the route reported
        times = n * np.asarray(SCENARIOS[scenario][1])
        grids = {}
        for route in ("hahn", "full", "dstein"):
            monkeypatch.setattr(model, "_eigen_route", lambda chain, modes, route=route: route)
            grids[route] = transient_laws(ModelParams(n, 1.0, 1.0), n // 2, times)
            assert grids[route].route == route and not grids[route].refilled.any()
        for route in ("hahn", "dstein"):
            assert np.abs(grids["full"].probs - grids[route].probs).sum(axis=0).max() <= 1e-12

    @pytest.mark.parametrize("a,b,k0", [(1.0, 1.0, 8192), (0.5, 2.0, 8192), (1.0, 1.0, 1638)])
    def test_laws_within_bound_of_longdouble_hahn_series(self, a, b, k0):
        # the `profile --n 16384` grid, against the 80-bit Hahn series with
        # twice the engine's modes: every column's l1 error, rounding and
        # dropped modes together, is within the reported a-priori bound
        n = 16384
        params = ModelParams(n, a, b)
        times = n * np.geomspace(0.05, 3.0, 24)
        grid = transient_laws(params, k0, times)
        assert not grid.refilled.any() and grid.route == "hahn"
        want = hahn_laws_longdouble(params, k0, times, 2 * grid.modes)
        assert np.abs(grid.probs - want).sum(axis=0).max() <= grid.bound

    @pytest.mark.parametrize("n,a,b", [(512, 20.0, 20.0), (128, 50.0, 1.0)])
    def test_guard_falls_back_on_tail_starts(self, n, a, b, caplog):
        # starts deep in the stationary tail amplify rounding past tol
        params = ModelParams(n, a, b)
        t = 0.2 * n
        with caplog.at_level(logging.INFO, logger="noisyvoter.model"):
            law = transient_law(params, 0, t)
        messages = [r.getMessage() for r in caplog.records if r.name == "noisyvoter.model"]
        assert len(messages) == 1
        assert f"n={n} a={a:g} b={b:g}" in messages[0] and "a-priori" in messages[0]
        p0 = np.zeros(n + 1)
        p0[0] = 1.0
        assert total_variation(law.probs, uniformization_oracle(params, p0, t)) <= 1e-9

    def test_rejected_bound_solves_no_eigenpairs(self, monkeypatch):
        # the a-priori bound needs only sqrt(pi) and the start, so a tail
        # start that it rejects goes to uniformization without an eigensolve
        def no_eigensolve(params, modes):
            raise AssertionError("eigenpairs computed for a rejected law")

        monkeypatch.setattr(model, "_spectrum", no_eigensolve)
        params = ModelParams(128, 50.0, 1.0)
        law = transient_law(params, 0, 25.6)
        p0 = np.zeros(129)
        p0[0] = 1.0
        assert total_variation(law.probs, uniformization_oracle(params, p0, 25.6)) <= 1e-9

    def test_memory_guard_solves_no_eigenpairs(self, monkeypatch):
        # a tiny first time passes the a-priori bound (6.2e-9) with 5464 slow
        # modes, 2.7 GB of eigenvectors at n = 65536: the call fails on the
        # (DENSE_LAW_CAP + 1)^2 budget before any eigensolve
        def no_eigensolve(params, modes):
            raise AssertionError("eigenpairs computed beyond the memory budget")

        monkeypatch.setattr(model, "_spectrum", no_eigensolve)
        params = ModelParams(65536, 1.0, 1.0)
        with pytest.raises(CapacityError, match="needs 5464 eigenmodes"):
            transient_laws(params, 32768, 65536 * np.array([1e-6, 0.5]), tol=1e-8)

    def test_guard_checks_the_result(self, monkeypatch, caplog):
        # a decomposition that passes the a-priori bound but is wrong must be
        # caught by the a-posteriori checks, on both sides of the cap: below
        # it uniformization refills the law, above it the call fails loudly
        # (the lowered cap still leaves room for this law's eigenvectors)
        params = ModelParams(64, 1.0, 1.0)
        lam, vecs, route = _spectrum(_count_chain(params), 65)
        monkeypatch.setattr(model, "_spectrum", lambda p, modes: (0.5 * lam, vecs, route))
        with caplog.at_level(logging.INFO, logger="noisyvoter.model"):
            law = transient_law(params, 10, 20.0)
        messages = [r.getMessage() for r in caplog.records if r.name == "noisyvoter.model"]
        assert len(messages) == 1 and "a-priori" not in messages[0]
        p0 = np.zeros(65)
        p0[10] = 1.0
        assert total_variation(law.probs, uniformization_oracle(params, p0, 20.0)) <= 1e-9
        monkeypatch.setattr(model, "DENSE_LAW_CAP", 32)
        with pytest.raises(CapacityError, match="n=64") as exc:
            transient_law(params, 10, 20.0)
        assert "a-priori" not in str(exc.value) and "nothing is uniformized" in str(exc.value)

    @pytest.mark.parametrize("n", [64, 300])
    @pytest.mark.parametrize("a,b", [(1.0, 1.0), (0.5, 2.0), (20.0, 20.0)])
    @pytest.mark.parametrize("fraction", [2, 10])
    def test_slow_modes_match_uniformization(self, n, a, b, fraction):
        # the laws come from the slow modes only; every column the guard
        # accepts is within tol of uniformization, and a rejected one is
        # refilled by uniformization
        params = ModelParams(n, a, b)
        k0, tol = n // fraction, 1e-10
        p0 = (np.arange(n + 1) == k0).astype(float)
        times = n * np.array([0.0, 0.01, 0.05, 0.2, 1.0])
        chain = _count_chain(params)
        laws, ok, _, modes, bound, route = _spectral_laws(chain, p0, times, tol)
        # only the a-priori bound rejects here (the tail start at n = 300,
        # a = b = 20); the a-posteriori checks pass every column it accepts
        assert modes < n + 1 and ok.all() == (bound <= tol)
        law, t_prev = p0, 0.0
        for t, col, good in zip(times[1:], laws.T[1:], ok[1:]):
            law, t_prev = _uniformized_law(chain, law, t - t_prev, 1e-13), t
            if good:
                assert total_variation(col, law) <= tol
        grid = transient_laws(params, k0, times, tol)
        if ok.all():
            np.testing.assert_array_equal(grid.probs, laws)
            assert grid.modes == modes and grid.bound == bound <= tol
            assert grid.route == route == model._eigen_route(chain, modes)
        else:
            assert grid.refilled[1]

    def test_spectral_path_logs_nothing(self, caplog):
        with caplog.at_level(logging.INFO, logger="noisyvoter.model"):
            transient_law(ModelParams(128, 1.0, 1.0), 64, 50.0)
        assert not [r for r in caplog.records if r.name == "noisyvoter.model"]


def oracle_grid(params: ModelParams, p0: np.ndarray, times) -> np.ndarray:
    """Uniformization oracle at every time of a grid, each from ``p0``."""
    return np.stack([p0 if t == 0 else uniformization_oracle(params, p0, t) for t in times],
                    axis=1)


class TestLawGrid:
    @given(st.integers(1, 64), st.floats(np.log(0.05), np.log(20.0)).map(np.exp),
           st.floats(np.log(0.05), np.log(20.0)).map(np.exp),
           st.sampled_from(["0", "1", "half", "n-1", "n"]),
           st.lists(st.floats(0.0, 1.0), min_size=0, max_size=7))
    @example(64, 20.0, 0.05, "0", [0.1, 0.2, 0.5])
    @example(64, 0.05, 20.0, "n", [0.1, 0.2, 0.5])
    @example(1, 0.05, 0.05, "1", [1.0])
    @settings(max_examples=60, deadline=None)
    def test_matches_uniformization(self, n, a, b, start, us):
        # times 0 and up to 7 more, log-uniform on [1e-3, 5n]; starts at both
        # ends of the count range, where the guard is most likely to refill
        params = ModelParams(n, a, b)
        times = np.sort([0.0] + [1e-3 * (5000.0 * n) ** u for u in us])
        k0 = {"0": 0, "1": 1, "half": n // 2, "n-1": n - 1, "n": n}[start]
        p0 = (np.arange(n + 1) == k0).astype(float)
        grid = transient_laws(params, k0, times, tol=1e-12)
        want = oracle_grid(params, p0, times)
        assert grid.probs.shape == (n + 1, times.size)
        np.testing.assert_array_equal(grid.probs[:, 0], p0)
        assert not grid.refilled[0]
        for got, ref in zip(grid.probs.T, want.T):
            assert total_variation(got, ref) <= 1e-10

    def test_deep_tail_start_refills_every_column(self, caplog):
        # every column fails the a-priori bound, so each is uniformization
        # stepped from the one before
        params = ModelParams(128, 50.0, 1.0)
        times = 128 * np.array([0.001, 0.002, 0.005])
        with caplog.at_level(logging.INFO, logger="noisyvoter.model"):
            grid = transient_laws(params, 0, times)
        messages = [r.getMessage() for r in caplog.records if r.name == "noisyvoter.model"]
        assert grid.refilled.all() and len(messages) == times.size
        assert all("a-priori" in m for m in messages)
        law, t_prev = (np.arange(129) == 0).astype(float), 0.0
        for t, col in zip(times, grid.probs.T):
            law = _uniformized_law(_count_chain(params), law, t - t_prev, 1e-9)
            t_prev = t
            assert total_variation(col, law) <= 1e-15

    @pytest.mark.filterwarnings("error")
    def test_deep_tail_bound_is_finite(self, caplog):
        # q0 = p0/sqrt(pi) reaches 2.4e154 at k0 = 0 here, so its plain 2-norm
        # overflows; the rejection must still name a finite bound
        params = ModelParams(300, 1e3, 1e-3)
        with caplog.at_level(logging.INFO, logger="noisyvoter.model"):
            grid = transient_laws(params, 0, [1.0])
        messages = [r.getMessage() for r in caplog.records if r.name == "noisyvoter.model"]
        assert grid.refilled.all() and len(messages) == 1
        bound = float(re.search(r"a-priori error bound (\S+) exceeds", messages[0]).group(1))
        want = 301 * np.finfo(float).eps * np.exp(-0.5 * stationary_log_pmf(params)[0])
        assert bound == pytest.approx(want, rel=1e-2) and np.isfinite(bound)
        assert "inf" not in messages[0] and "nan" not in messages[0]

    def test_tail_start_returns_to_the_spectral_path(self):
        # once the refilled law has spread out, later columns are spectral again
        params = ModelParams(128, 50.0, 1.0)
        times = 128 * np.array([0.01, 0.02, 0.05, 0.1, 0.2])
        grid = transient_laws(params, 0, times)
        assert grid.refilled[0] and not grid.refilled[-1]
        p0 = np.zeros(129)
        p0[0] = 1.0
        want = oracle_grid(params, p0, times)
        for got, ref in zip(grid.probs.T, want.T):
            assert total_variation(got, ref) <= 1e-9

    def test_wrong_spectrum_refills_every_column(self, monkeypatch):
        # columns that pass the a-priori bound but fail the a-posteriori
        # checks are refilled too
        params = ModelParams(64, 1.0, 1.0)
        lam, vecs, route = _spectrum(_count_chain(params), 65)
        monkeypatch.setattr(model, "_spectrum", lambda p, modes: (0.5 * lam, vecs, route))
        times = np.array([0.0, 5.0, 20.0, 60.0])
        grid = transient_laws(params, 10, times)
        assert grid.refilled.tolist() == [False, True, True, True]
        p0 = np.zeros(65)
        p0[10] = 1.0
        want = oracle_grid(params, p0, times)
        for got, ref in zip(grid.probs.T, want.T):
            assert total_variation(got, ref) <= 1e-9

    def test_single_time_is_transient_law(self):
        # a single time keeps the modes its own time needs, a grid those of its
        # first positive time, so the two differ by at most both bounds
        params = ModelParams(40, 0.7, 2.5)
        times = np.array([0.0, 3.0, 11.0, 40.0])
        grid = transient_laws(params, 13, times)
        assert not grid.refilled.any()
        for t, col in zip(times, grid.probs.T):
            single = transient_laws(params, 13, [t])
            np.testing.assert_array_equal(transient_law(params, 13, t).probs,
                                          Pmf(np.arange(41), single.probs[:, 0]).probs)
            assert np.abs(single.probs[:, 0] - col).sum() <= grid.bound + single.bound

    def test_validation(self):
        params = ModelParams(6, 1, 1)
        for times in ([], [1.0, 0.5], [-1.0, 1.0], [np.nan], [[1.0]]):
            with pytest.raises(ValueError):
                transient_laws(params, 2, times)
        with pytest.raises(ValueError):
            transient_law(params, 2, np.array([1.0, 2.0]))
        with pytest.raises(CapacityError):
            transient_laws(ModelParams(5000, 20, 20), 0, [1.0])


class TestPoissonTruncation:
    @given(st.floats(-3.0, 6.0), st.sampled_from([1e-6, 1e-9, 1e-12]))
    @example(-3.0, 1e-12)
    @example(6.0, 1e-6)
    @example(5.0343, 1e-12)  # pdtr steps the pdtrik estimate down by one
    @example(4.7455, 1e-12)
    @settings(max_examples=80, deadline=None)
    def test_matches_scipy_stats(self, e, tol):
        # uniformization's truncation and weights, mu log-uniform on [1e-3, 1e6]
        mu = 10.0 ** e
        nsteps = _poisson_isf(tol / 4, mu)
        assert nsteps == int(poisson.isf(tol / 4, mu))
        ks = np.arange(nsteps + 3)
        assert np.array_equal(_poisson_pmf(ks, mu), poisson.pmf(ks, mu))


class TestUniformizationBudget:
    @pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
    def test_admits_the_tail_row(self, tol):
        # (n, a, b, k0, t) = (300, 1e3, 1e-3, 0, 1500), a tail start that
        # every spectral column rejects: about 1.58e6 steps, 16 s
        chain = _count_chain(ModelParams(300, 1e3, 1e-3))
        mu = 1.05 * float((chain.up + chain.down).max()) * 1500.0
        assert 1.5e6 < _poisson_isf(tol / 4, mu) + 2 <= model.UNIFORMIZATION_STEPS

    def test_checked_before_the_series(self, monkeypatch):
        chain = _count_chain(ModelParams(64, 1.0, 1.0))
        p0 = (np.arange(65) == 10).astype(float)
        mu = 1.05 * float((chain.up + chain.down).max()) * 20.0
        steps = _poisson_isf(1e-9 / 4, mu) + 2
        monkeypatch.setattr(model, "UNIFORMIZATION_STEPS", steps)
        law = _uniformized_law(chain, p0, 20.0, 1e-9)
        monkeypatch.setattr(model, "UNIFORMIZATION_STEPS", steps - 1)

        def spy(*args):
            raise AssertionError("Poisson weights computed over the step budget")

        monkeypatch.setattr(model, "_poisson_pmf", spy)
        with pytest.raises(CapacityError, match=f"needs {steps} steps, over the budget"):
            _uniformized_law(chain, p0, 20.0, 1e-9)
        # a Poisson mean over the budget never reaches the quantile
        monkeypatch.setattr(model, "_poisson_isf", spy)
        with pytest.raises(CapacityError, match="over the budget"):
            _uniformized_law(chain, p0, 1e300, 1e-9)
        assert law.sum() == pytest.approx(1.0)

    def test_tol_below_the_tail_resolution(self):
        # 1 - tol/4 rounds to 1 up to tol = 2^-52: no tail to truncate at
        chain = _count_chain(ModelParams(16, 1.0, 1.0))
        p0 = (np.arange(17) == 3).astype(float)
        with pytest.raises(DiagnosticError, match="tol=1e-16 is below"):
            _uniformized_law(chain, p0, 1.0, 1e-16)
        with pytest.raises(DiagnosticError, match="1 - tol/4 rounds to 1"):
            _uniformized_law(chain, p0, 1.0, 2.0**-52)
        assert _uniformized_law(chain, p0, 1.0, 2.0**-51).sum() == pytest.approx(1.0)


def scalar_chain(params: ModelParams, sizes, x0, horizons, rng) -> list:
    """One replica of the lockstep engine, event by event in Python floats.

    Same rates, running sums and draw calls as ``model._lockstep`` at R = 1:
    per event one exponential, then (unless every horizon is recorded) one
    uniform scaled by the total rate; events ordered up_0.., down_0...
    """
    n, a, b = params.n, params.a, params.b
    x = [float(v) for v in x0]
    t, out = 0.0, []
    while True:
        X = sum(x)
        grow, shrink = (a + X) / n, (b + n - X) / n
        rates = [(s - c) * grow for s, c in zip(sizes, x)] + [c * shrink for c in x]
        thresholds = list(accumulate(rates))
        t_next = t + rng.exponential() / thresholds[-1]
        while len(out) < len(horizons) and horizons[len(out)] < t_next:
            out.append(list(x))
        if len(out) == len(horizons):
            return out
        u = rng.random() * thresholds[-1]
        event = next((i for i, c in enumerate(thresholds[:-1]) if u < c), len(rates) - 1)
        x[event % len(sizes)] += 1 if event < len(sizes) else -1
        t = t_next


class TestSimulation:
    def test_zero_horizon(self):
        rng = np.random.default_rng(0)
        assert simulate_count_batch(ModelParams(10, 1, 1), [7], [0.0], rng).tolist() == [[7]]
        blocks = simulate_blocks_batch(ModelParams(10, 1, 1), BlockPartition(4, 6), [(2, 3)],
                                       [0.0], rng)
        assert blocks.tolist() == [[[2, 3]]]

    def test_engine_matches_scalar_oracle(self):
        # draw for draw: same states at every horizon, same stream position after
        for seed in range(30):
            setup = np.random.default_rng(seed)
            n = int(setup.integers(2, 60))
            params = ModelParams(n, *setup.uniform(0.05, 5.0, size=2))
            n0 = int(setup.integers(1, n))
            h = np.sort(setup.uniform(0.0, 3.0, size=2))
            horizons = [0.0, h[0], h[0], h[1]]
            x = [int(setup.integers(0, n0 + 1)), int(setup.integers(0, n - n0 + 1))]
            for sizes, start in (((n,), [sum(x)]), ((n0, n - n0), x)):
                r1, r2 = np.random.default_rng(seed + 1000), np.random.default_rng(seed + 1000)
                if len(sizes) == 1:
                    got = simulate_count_batch(params, start, horizons, r1)[:, :, None]
                else:
                    part = BlockPartition(*sizes)
                    got = simulate_blocks_batch(params, part, [start], horizons, r1)
                assert got[:, 0].tolist() == scalar_chain(params, sizes, start, horizons, r2)
                assert r1.random() == r2.random()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("groups", [2, 3])
    @pytest.mark.parametrize("blocks", [1, 2])
    def test_grouped_engine_matches_separate_calls(self, groups, blocks):
        # one call over G generators is, draw for draw, G calls of its own:
        # same states at every horizon, same stream position after, although
        # the groups pass their last horizon at different iterations
        params, part = ModelParams(40, 0.7, 1.9), BlockPartition(15, 25)
        horizons = [0.0, 0.3, 0.3, 2.5]
        setup = np.random.default_rng(10 * groups + blocks)

        def simulate(x, rng):
            if blocks == 1:
                return simulate_count_batch(params, x.sum(axis=1), horizons, rng)[:, :, None]
            return simulate_blocks_batch(params, part, x, horizons, rng)

        for width in (1, 4):
            x0 = np.stack([setup.integers(0, 16, size=groups * width),
                           setup.integers(0, 26, size=groups * width)], axis=1)
            seeds = setup.integers(0, 2**32, size=groups)
            gens = [np.random.default_rng(seed) for seed in seeds]
            got = simulate(x0, gens)
            for g, seed in enumerate(seeds):
                rows = slice(g * width, (g + 1) * width)
                alone = np.random.default_rng(seed)
                np.testing.assert_array_equal(got[:, rows], simulate(x0[rows], alone))
                after = gens[g].random()
                assert alone.random() == after
                if width == 1:
                    oracle = np.random.default_rng(seed)
                    sizes, start = ((40,), [x0[g].sum()]) if blocks == 1 else ((15, 25), x0[g])
                    assert got[:, g].tolist() == scalar_chain(params, sizes, start, horizons,
                                                              oracle)
                    assert oracle.random() == after

    @pytest.mark.parametrize("streams", [0, 2, 4])
    def test_groups_must_split_evenly(self, streams):
        gens = [np.random.default_rng(s) for s in range(streams)]
        with pytest.raises(ValueError, match="equal groups"):
            simulate_count_batch(ModelParams(10, 1, 1), [1, 2, 3, 4, 5], [1.0], gens)
        with pytest.raises(ValueError, match="equal groups"):
            simulate_blocks_batch(ModelParams(10, 1, 1), BlockPartition(4, 6),
                                  np.ones((5, 2), dtype=int), [1.0], gens)

    def test_two_state_law(self):
        params = ModelParams(1, 1, 1)
        rng = np.random.default_rng(21)
        t = 0.7
        ks = simulate_count_batch(params, np.zeros(100_000, dtype=int), [t], rng)[0]
        p_hat = ks.mean()
        p = (1 - np.exp(-2 * t)) / 2
        se = np.sqrt(p * (1 - p) / ks.size)
        assert abs(p_hat - p) <= 3 * se

    def test_long_horizon_reaches_stationarity(self):
        params = ModelParams(30, 1, 1)
        pmf = stationary_pmf(params)
        rng = np.random.default_rng(22)
        ks = simulate_count_batch(params, np.zeros(20_000, dtype=int), [8.0 * params.n], rng)[0]
        assert w1_discrete(empirical_pmf(ks), pmf) <= 3 * empirical_w1_floor(pmf, ks.size)

    def test_batch_matches_exact_law(self):
        params = ModelParams(64, 1.4, 0.6)
        rng = np.random.default_rng(23)
        ks = simulate_count_batch(params, np.full(30_000, 10), [2.0, 6.0], rng)
        for i, t in enumerate([2.0, 6.0]):
            law = transient_law(params, 10, t)
            assert w1_discrete(empirical_pmf(ks[i]), law) <= 3 * empirical_w1_floor(law, 30_000)

    def test_lumping_consistency(self):
        # the block-chain total has the same law as the count chain
        params = ModelParams(120, 1.0, 1.0)
        part = BlockPartition(40, 80)
        rng = np.random.default_rng(24)
        reps = 10_000
        t = 3.0
        starts = np.tile([[10, 50]], (reps, 1))
        blocks = simulate_blocks_batch(params, part, starts, [t], rng)[0]
        law = transient_law(params, 60, t)
        dist = w1_discrete(empirical_pmf(blocks.sum(axis=1)), law)
        assert dist <= 4 * empirical_w1_floor(law, reps)

    def test_block_exchangeability_after_mixing(self):
        # with equal blocks, local counts become nearly exchangeable
        n = 2000
        params = ModelParams(n, 1, 1)
        part = BlockPartition(n // 2, n // 2)
        rng = np.random.default_rng(25)
        reps = 3000
        starts = np.tile([[0, n // 2]], (reps, 1))
        blocks = simulate_blocks_batch(params, part, starts, [5.0], rng)[0].astype(float)
        shift = blocks[:, 1].mean() - blocks[:, 0].mean()
        # noise floor: distance between two independent samples of the same law
        half = reps // 2
        floor = np.abs(np.sort(blocks[:half, 1]) - np.sort(blocks[half:2 * half, 1])).mean()
        gap = np.abs(np.sort(blocks[:, 1]) - np.sort(blocks[:, 0] + shift)).mean()
        assert gap <= 3 * floor + 1.0

    def test_negative_horizon(self):
        self.check_horizons_rejected([-0.5])

    @pytest.mark.parametrize("horizons", [[np.nan], [np.inf], [1.0, np.inf], [2.0, 1.0], []])
    def test_bad_horizons(self, horizons):
        # a NaN or inf horizon would never be crossed, so the loop would not end
        self.check_horizons_rejected(horizons)

    @staticmethod
    def check_horizons_rejected(horizons):
        params, rng = ModelParams(5, 1, 1), np.random.default_rng(0)
        with pytest.raises(ValueError, match="horizons"):
            simulate_count_batch(params, [2], horizons, rng)
        with pytest.raises(ValueError, match="horizons"):
            simulate_blocks_batch(params, BlockPartition(2, 3), [(1, 1)], horizons, rng)

    @pytest.mark.parametrize("reps", [0, 5])
    def test_partition_must_cover_n(self, reps):
        with pytest.raises(ValueError, match="partition covers 9 sites"):
            simulate_blocks_batch(ModelParams(10, 1, 1), BlockPartition(4, 5),
                                  np.zeros((reps, 2), dtype=int), [1.0], np.random.default_rng(0))

    @pytest.mark.parametrize("k0", [[2.7], [3, 11], [-1], [np.nan]])
    def test_bad_count_start(self, k0):
        with pytest.raises(ValueError, match="start counts"):
            simulate_count_batch(ModelParams(10, 1, 1), k0, [1.0], np.random.default_rng(0))

    @pytest.mark.parametrize("x0", [[(1, 1)] * 5 + [(5, 0)], [(1, 1.5)], [(0, -1)]])
    def test_bad_block_start(self, x0):
        with pytest.raises(ValueError, match="start counts"):
            simulate_blocks_batch(ModelParams(10, 1, 1), BlockPartition(4, 6), x0, [1.0],
                                  np.random.default_rng(0))

    def test_start_shape(self):
        params, rng = ModelParams(10, 1, 1), np.random.default_rng(0)
        for k0 in (3, [[1, 2]]):
            with pytest.raises(ValueError, match="shape"):
                simulate_count_batch(params, k0, [1.0], rng)
        for x0 in ((2, 3), [(1, 2, 3)]):
            with pytest.raises(ValueError, match="shape"):
                simulate_blocks_batch(params, BlockPartition(4, 6), x0, [1.0], rng)

    def test_density_apriori_bound(self):
        # mean-square deviation of the density from its mean path obeys the
        # Gronwall bound ||G||_inf / (2(a+b)) * (1 - exp(-2(a+b)t/n))
        params = ModelParams(100, 1, 1)
        rng = np.random.default_rng(26)
        reps = 4000
        ts = np.array([1.0, 10.0, 100.0])
        ks = simulate_count_batch(params, np.full(reps, 50), ts, rng)
        gsup = float(np.max(density_noise(params, np.linspace(0, 1, 401))))
        for i, t in enumerate(ts):
            m_t = mean_ode(params, 0.5, t)
            sq = (ks[i] / params.n - m_t) ** 2
            bound = gsup / 4.0 * (1 - np.exp(-4 * t / params.n))
            assert sq.mean() <= bound + 4 * sq.std(ddof=1) / np.sqrt(reps)


class TestUniformGivenCount:
    def test_edge_counts(self):
        params = ModelParams(10, 1, 1)
        part = BlockPartition(4, 6)
        rng = np.random.default_rng(31)
        assert sample_uniform_given_count(params, part, 0, rng) == (0, 0)
        assert sample_uniform_given_count(params, part, 10, rng) == (4, 6)

    def test_hypergeometric_variance(self):
        params = ModelParams(4, 1, 1)
        part = BlockPartition(2, 2)
        rng = np.random.default_rng(32)
        _, x1 = sample_uniform_given_count(params, part, np.full(200_000, 2), rng)
        var = x1.var(ddof=1)
        se = np.sqrt(2.0 / x1.size) * var  # relative noise of a variance estimate
        assert abs(var - 1.0 / 3.0) <= 4 * se

    def test_matches_exact_pmf(self):
        from scipy.stats import chisquare, hypergeom
        params = ModelParams(12, 1, 1)
        part = BlockPartition(5, 7)
        rng = np.random.default_rng(33)
        _, x1 = sample_uniform_given_count(params, part, np.full(100_000, 6), rng)
        support = np.arange(max(0, 6 - 5), min(7, 6) + 1)
        counts = np.array([(x1 == y).sum() for y in support])
        expected = hypergeom.pmf(support, 12, 7, 6) * x1.size
        assert counts.sum() == x1.size  # support is exactly the reachable set
        assert chisquare(counts, expected).pvalue > 1e-6

    def test_array_counts_match_scalar_loop(self):
        # an (H, R) array of counts draws, in C order, what a loop of one-count
        # calls on the same generator draws
        params, part = ModelParams(20, 1, 1), BlockPartition(8, 12)
        k = np.random.default_rng(34).integers(0, 21, size=(3, 50))
        r1, r2 = np.random.default_rng(35), np.random.default_rng(35)
        x0, x1 = sample_uniform_given_count(params, part, k, r1)
        assert x0.shape == x1.shape == k.shape
        loop = [sample_uniform_given_count(params, part, int(c), r2) for c in k.flat]
        np.testing.assert_array_equal(np.stack([x0, x1], axis=-1).reshape(-1, 2), loop)
        assert r1.random() == r2.random()

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            sample_uniform_given_count(ModelParams(4, 1, 1), BlockPartition(2, 2),
                                       5, np.random.default_rng(0))


class TestCoupling:
    def test_equal_counts_identical(self):
        part = BlockPartition(5, 7)
        eta, etap = couple_by_block_counts(part, (2, 4), (2, 4), np.random.default_rng(41))
        assert np.array_equal(eta, etap)
        eta, etap = couple_by_block_counts(part, (2, 4), (2, 4), np.random.default_rng(41), size=50)
        assert np.array_equal(eta, etap)

    def test_full_flip(self):
        part = BlockPartition(3, 4)
        eta, etap = couple_by_block_counts(part, (0, 0), (3, 4), np.random.default_rng(42))
        assert int(np.sum(eta != etap)) == 7
        eta, etap = couple_by_block_counts(part, (0, 0), (3, 4), np.random.default_rng(42), size=0)
        assert eta.shape == etap.shape == (0, 7)

    @given(st.integers(1, 25), st.integers(1, 25), st.one_of(st.none(), st.integers(1, 20)),
           st.data())
    @settings(max_examples=80, deadline=None)
    def test_disagreements_exact(self, n0, n1, size, data):
        part = BlockPartition(n0, n1)
        x = (data.draw(st.integers(0, n0)), data.draw(st.integers(0, n1)))
        y = (data.draw(st.integers(0, n0)), data.draw(st.integers(0, n1)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        eta, etap = couple_by_block_counts(part, x, y, rng, size=size)
        shape = (n0 + n1,) if size is None else (size, n0 + n1)
        assert eta.shape == etap.shape == shape
        assert eta.dtype == etap.dtype == np.int8
        eta, etap = np.atleast_2d(eta), np.atleast_2d(etap)
        assert np.all(np.sum(eta != etap, axis=1) == abs(x[0] - y[0]) + abs(x[1] - y[1]))
        for config, counts in ((eta, x), (etap, y)):
            assert np.all(config[:, :n0].sum(axis=1) == counts[0])
            assert np.all(config[:, n0:].sum(axis=1) == counts[1])

    def test_marginal_uniformity(self):
        part = BlockPartition(6, 5)
        x, y = (2, 3), (4, 1)
        draws = 60_000
        eta, etap = couple_by_block_counts(part, x, y, np.random.default_rng(43), size=draws)
        for config, counts in ((eta, x), (etap, y)):
            target = np.concatenate([np.full(6, counts[0] / 6), np.full(5, counts[1] / 5)])
            se = np.sqrt(target * (1 - target) / draws)
            assert np.max(np.abs(config.mean(axis=0) - target) / se) <= 4.5


class TestGeneratorResidual:
    def test_linear_zero(self):
        params = ModelParams(37, 1.1, 2.3)
        for k in (0, 5, 20, 37):
            r = generator_residual(params, k, lambda x: 3 * x - 1,
                                   lambda x: 3.0, lambda x: 0.0)
            assert r == pytest.approx(0.0, abs=1e-13)

    def test_quadratic_closed_form(self):
        params = ModelParams(64, 1.5, 0.7)
        for k in (0, 10, 32, 64):
            m = k / params.n
            r = generator_residual(params, k, lambda x: x * x,
                                   lambda x: 2 * x, lambda x: 2.0)
            assert r == pytest.approx((params.a * (1 - m) + params.b * m) / params.n,
                                      abs=1e-14)

    def test_quartic_first_order_scaling(self):
        # the worst-case residual for f = x^4 halves when n doubles
        def max_resid(n):
            params = ModelParams(n, 1.0, 1.0)
            return max(abs(generator_residual(params, k, lambda x: x ** 4,
                                              lambda x: 4 * x ** 3,
                                              lambda x: 12 * x ** 2))
                       for k in range(n + 1))

        ratio = max_resid(256) / max_resid(128)
        assert 0.4 <= ratio <= 0.6
