"""Layer benchmark of the lockstep event loop at the ``thermalize-cloud`` shape.

    PYTHONPATH=src python -m pytest tests/test_layer_bench.py --benchmark-only

times ``simulate_blocks_batch`` over 3 streams of 600 fixed-start replicas
(n = 500, blocks (250, 250), start (0, 250), the horizons of tau = -1, 0, 1),
the one call that ``run_thermalize`` makes.  There is no time gate: the test
only checks that the call equals one call per stream, so it gives
before/after numbers.
"""

import numpy as np

from noisyvoter.experiments import replica_stream
from noisyvoter.model import BlockPartition, ModelParams, simulate_blocks_batch

N, ELL, PAIRS, STREAMS = 500, 250, 600, 3
PARAMS, PART = ModelParams(N, 1.0, 1.0), BlockPartition(N - ELL, ELL)
HORIZONS = 0.5 * np.log(N) + np.log(0.25) + np.array([-1.0, 0.0, 1.0])
FIXED = np.tile([[0, ELL]], (PAIRS, 1))


def streams():
    return [replica_stream(0, "thermalize", rep) for rep in range(STREAMS)]


def test_layer_bench_lockstep(benchmark):
    def setup():
        return (PARAMS, PART, np.tile(FIXED, (STREAMS, 1)), HORIZONS, streams()), {}

    got = benchmark.pedantic(simulate_blocks_batch, setup=setup, rounds=3)
    alone = [simulate_blocks_batch(PARAMS, PART, FIXED, HORIZONS, rng) for rng in streams()]
    np.testing.assert_array_equal(got, np.concatenate(alone, axis=1))
