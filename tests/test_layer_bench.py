"""Layer benchmarks at the shapes of scenario runs.

    PYTHONPATH=src python -m pytest tests/test_layer_bench.py --benchmark-only

``test_layer_bench_lockstep`` times ``simulate_blocks_batch`` at the
``thermalize-cloud`` shape: 3 streams of 600 fixed-start replicas (n = 500,
blocks (250, 250), start (0, 250), the horizons of tau = -1, 0, 1), the one
call that ``run_thermalize`` makes.  ``test_layer_bench_spectral_laws`` times
``transient_laws`` at the ``profile --n 16384`` shape (a = b = 1, start
n/2, the default 24-point grid), where the eigenvectors of the 23 slow
modes come from the Hahn recurrence, over 20 rounds (a few ms each, so the
median is stable), and ``test_layer_bench_spectral_laws_mixing`` at the
``mixing-exact`` shape, n = 128 on the default 60-point ``mixing-curve``
grid, where the rule picks the recurrence for the 50 slow modes too.
``test_layer_bench_stein_solve`` times ``SteinLattice.solve``
over the 20-function family on ``validate``'s nu = 0.1, 4001-point grid,
with the quadrature lattice built outside the timed call, as ``validate``
builds one per grid.
``test_layer_bench_matching`` times the two Euclidean ``w1_matching`` calls
of ``validate``'s ``translation-2d`` check (160 points), and
``test_layer_bench_cityblock_matching`` the 9 cityblock calls of
``thermalize-cloud``: the clouds of ``thermalize_clouds`` at the lockstep
bench's shape and seed 0, 3 taus x 3 streams of 600 pairs.
``test_layer_bench_w1_vs_wf`` times the 24
``w1_discrete_vs_wf`` calls of ``profile --n 1024`` (a = b = 1, start n/2,
the default grid), each density law against the exact Wright-Fisher
marginal.  There is no time gate: the tests only check that the lockstep
call equals one call per stream, that no law column is refilled and the
eigenvector route is the one the rule picks, that the
Stein solutions equal the three-pass reference bit for bit, that the
matchings equal the plain assignment solve (the cityblock ones bit for bit)
and that the distances to the marginal match the brentq oracle, so they
give before/after numbers.
"""

import numpy as np

from noisyvoter import stein
from noisyvoter.diffusion import WFParams, wf_marginal
from noisyvoter.experiments import (SCENARIOS, _translation_draws, replica_stream,
                                    thermalization_times, thermalize_clouds)
from noisyvoter.model import (
    BlockPartition,
    ModelParams,
    _count_chain,
    _eigen_route,
    simulate_blocks_batch,
    transient_laws,
)
from noisyvoter.pmf import Pmf
from noisyvoter.transport import w1_discrete_vs_wf, w1_matching
from oracles import (
    plain_cityblock_matching,
    plain_euclidean_matching,
    scalar_w1_oracle,
    three_pass_stein_cells,
)

N, ELL, PAIRS, STREAMS = 500, 250, 600, 3
PARAMS, PART = ModelParams(N, 1.0, 1.0), BlockPartition(N - ELL, ELL)
HORIZONS = thermalization_times(N, ELL, SCENARIOS["thermalize"][1])
FIXED = np.tile([[0, ELL]], (PAIRS, 1))
LAW_N = 16384
MIXING_N = 128
PROFILE_N = 1024
STEIN_NU = 0.1
SHIFTS = np.array([[1.5, -0.25], [0.0, 3.0]])


def streams():
    return [replica_stream(0, "thermalize", rep) for rep in range(STREAMS)]


def test_layer_bench_lockstep(benchmark):
    def setup():
        return (PARAMS, PART, np.tile(FIXED, (STREAMS, 1)), HORIZONS, streams()), {}

    got = benchmark.pedantic(simulate_blocks_batch, setup=setup, rounds=3)
    alone = [simulate_blocks_batch(PARAMS, PART, FIXED, HORIZONS, rng) for rng in streams()]
    np.testing.assert_array_equal(got, np.concatenate(alone, axis=1))


def test_layer_bench_spectral_laws(benchmark):
    times = LAW_N * np.asarray(SCENARIOS["profile"][1])
    args = (ModelParams(LAW_N, 1.0, 1.0), LAW_N // 2, times)
    grid = benchmark.pedantic(transient_laws, args=args, rounds=20, warmup_rounds=1)
    assert not grid.refilled.any() and grid.route == "hahn"


def test_layer_bench_spectral_laws_mixing(benchmark):
    params = ModelParams(MIXING_N, 1.0, 1.0)
    args = (params, MIXING_N // 2, MIXING_N * np.asarray(SCENARIOS["mixing-curve"][1]))
    grid = benchmark.pedantic(transient_laws, args=args, rounds=20, warmup_rounds=2)
    assert not grid.refilled.any()
    assert grid.route == _eigen_route(_count_chain(params), grid.modes) == "hahn"


def test_layer_bench_stein_solve(benchmark, monkeypatch):
    lattice = stein.stein_lattice(np.linspace(-8 * STEIN_NU, 8 * STEIN_NU, 4001), STEIN_NU)
    probs = [stein.SteinProblem(h, dh, STEIN_NU) for h, dh in stein.stein_test_family()]

    def solve_family():
        return [lattice.solve(prob) for prob in probs]

    got = benchmark.pedantic(solve_family, rounds=5, warmup_rounds=1)
    monkeypatch.setattr(stein, "_stein_cells", three_pass_stein_cells)
    for sol, ref in zip(got, solve_family()):
        assert sol.e_h == ref.e_h
        for field in ("f", "df", "d2f"):
            assert np.array_equal(getattr(sol, field), getattr(ref, field))


def test_layer_bench_matching(benchmark):
    _, cloud = _translation_draws()
    pairs = [(cloud + shift, cloud) for shift in SHIFTS]

    def match_all():
        return [w1_matching(xs, ys) for xs, ys in pairs]

    got = benchmark.pedantic(match_all, rounds=5)
    assert got == [plain_euclidean_matching(xs, ys) for xs, ys in pairs]


def test_layer_bench_cityblock_matching(benchmark):
    # one (PAIRS, 2) cloud per horizon and stream
    pairs = list(zip(*(c.reshape(-1, PAIRS, 2).astype(float)
                       for c in thermalize_clouds(PARAMS, PART, HORIZONS, PAIRS, STREAMS, 0))))

    def match_all():
        return [w1_matching(xs, ys, metric="cityblock") for xs, ys in pairs]

    got = benchmark.pedantic(match_all, rounds=5)
    assert got == [plain_cityblock_matching(xs, ys) for xs, ys in pairs]


def test_layer_bench_w1_vs_wf(benchmark):
    grid = np.asarray(SCENARIOS["profile"][1])
    probs = transient_laws(ModelParams(PROFILE_N, 1.0, 1.0), PROFILE_N // 2,
                           PROFILE_N * grid).probs
    lattice = np.arange(PROFILE_N + 1) / PROFILE_N
    pairs = [(Pmf(lattice, col), wf_marginal(WFParams(1.0, 1.0), 0.5, t))
             for col, t in zip(probs.T, grid)]

    def distances():
        return [w1_discrete_vs_wf(p, law) for p, law in pairs]

    got = benchmark.pedantic(distances, rounds=5)
    for i in (0, len(pairs) // 2, len(pairs) - 1):
        assert abs(got[i] - scalar_w1_oracle(*pairs[i])) <= 1e-14
