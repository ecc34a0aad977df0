"""Layer benchmarks at the shapes of scenario runs.

    PYTHONPATH=src python -m pytest tests/test_layer_bench.py --benchmark-only

``test_layer_bench_lockstep`` times ``simulate_blocks_batch`` at the
``thermalize-cloud`` shape: 3 streams of 600 fixed-start replicas (n = 500,
blocks (250, 250), start (0, 250), the horizons of tau = -1, 0, 1), the one
call that ``run_thermalize`` makes.  ``test_layer_bench_spectral_laws`` times
``transient_laws`` at the ``profile --n 16384`` shape (a = b = 1, start
n/2, the default 24-point grid), where the eigenvectors come from inverse
iteration.  ``test_layer_bench_stein_solve`` times ``stein_solve`` over the
20-function family on ``validate``'s nu = 0.1, 4001-point grid, with its
quadrature lattice already cached, as in ``validate``'s later solves.
``test_layer_bench_matching`` times the two Euclidean ``w1_matching`` calls
of ``validate``'s ``translation-2d`` check (160 points), and
``test_layer_bench_cityblock_matching`` the 9 cityblock calls of
``thermalize-cloud``: the lockstep bench's clouds, each stream's uniform
clouds drawn from its totals as ``run_thermalize`` does, 3 taus x 3 streams
of 600 pairs.  There is no time gate: the tests only check that the lockstep
call equals one call per stream, that no law column is refilled, that the
Stein solutions equal the three-pass reference bit for bit, and that the
matchings equal the plain assignment solve (the cityblock ones bit for bit),
so they give before/after numbers.
"""

import numpy as np

from noisyvoter import stein
from noisyvoter.experiments import SCENARIOS, _translation_draws, replica_stream
from noisyvoter.model import (
    BlockPartition,
    ModelParams,
    sample_uniform_given_count,
    simulate_blocks_batch,
    transient_laws,
)
from noisyvoter.transport import w1_matching
from oracles import (
    plain_cityblock_matching,
    plain_euclidean_matching,
    three_pass_stein_cells,
)

N, ELL, PAIRS, STREAMS = 500, 250, 600, 3
PARAMS, PART = ModelParams(N, 1.0, 1.0), BlockPartition(N - ELL, ELL)
HORIZONS = 0.5 * np.log(N) + np.log(0.25) + np.array([-1.0, 0.0, 1.0])
FIXED = np.tile([[0, ELL]], (PAIRS, 1))
LAW_N = 16384
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
    grid = benchmark.pedantic(transient_laws, args=args, rounds=3)
    assert not grid.refilled.any()


def test_layer_bench_stein_solve(benchmark, monkeypatch):
    grid = np.linspace(-8 * STEIN_NU, 8 * STEIN_NU, 4001)
    probs = [stein.SteinProblem(h, dh, STEIN_NU) for h, dh in stein.stein_test_family()]

    def solve_family():
        return [stein.stein_solve(prob, grid) for prob in probs]

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
    rngs = streams()
    states = simulate_blocks_batch(PARAMS, PART, np.tile(FIXED, (STREAMS, 1)), HORIZONS, rngs)
    pairs = []
    for rep, rng in enumerate(rngs):
        fixed = states[:, PAIRS * rep:PAIRS * (rep + 1)]
        u0, u1 = sample_uniform_given_count(PARAMS, PART, fixed.sum(axis=2), rng)
        uniform = np.stack([u0, u1], axis=2)
        pairs += [(fixed[i].astype(float), uniform[i].astype(float)) for i in range(len(HORIZONS))]

    def match_all():
        return [w1_matching(xs, ys, metric="cityblock") for xs, ys in pairs]

    got = benchmark.pedantic(match_all, rounds=5)
    assert got == [plain_cityblock_matching(xs, ys) for xs, ys in pairs]
