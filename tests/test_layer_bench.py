"""Layer benchmarks at the shapes of two scenario runs.

    PYTHONPATH=src python -m pytest tests/test_layer_bench.py --benchmark-only

``test_layer_bench_lockstep`` times ``simulate_blocks_batch`` at the
``thermalize-cloud`` shape: 3 streams of 600 fixed-start replicas (n = 500,
blocks (250, 250), start (0, 250), the horizons of tau = -1, 0, 1), the one
call that ``run_thermalize`` makes.  ``test_layer_bench_spectral_laws`` times
``transient_laws`` at the ``profile --n 16384`` shape (a = b = 1, start
n/2, the default 24-point grid), where the eigenvectors come from inverse
iteration.  There is no time gate: the tests only check that the lockstep
call equals one call per stream and that no law column is refilled, so they
give before/after numbers.
"""

import numpy as np

from noisyvoter.experiments import DEFAULT_GRIDS, replica_stream
from noisyvoter.model import (
    BlockPartition,
    ModelParams,
    simulate_blocks_batch,
    transient_laws,
)

N, ELL, PAIRS, STREAMS = 500, 250, 600, 3
PARAMS, PART = ModelParams(N, 1.0, 1.0), BlockPartition(N - ELL, ELL)
HORIZONS = 0.5 * np.log(N) + np.log(0.25) + np.array([-1.0, 0.0, 1.0])
FIXED = np.tile([[0, ELL]], (PAIRS, 1))
LAW_N = 16384


def streams():
    return [replica_stream(0, "thermalize", rep) for rep in range(STREAMS)]


def test_layer_bench_lockstep(benchmark):
    def setup():
        return (PARAMS, PART, np.tile(FIXED, (STREAMS, 1)), HORIZONS, streams()), {}

    got = benchmark.pedantic(simulate_blocks_batch, setup=setup, rounds=3)
    alone = [simulate_blocks_batch(PARAMS, PART, FIXED, HORIZONS, rng) for rng in streams()]
    np.testing.assert_array_equal(got, np.concatenate(alone, axis=1))


def test_layer_bench_spectral_laws(benchmark):
    times = LAW_N * np.asarray(DEFAULT_GRIDS["profile"])
    args = (ModelParams(LAW_N, 1.0, 1.0), LAW_N // 2, times)
    grid = benchmark.pedantic(transient_laws, args=args, rounds=3)
    assert not grid.refilled.any()
