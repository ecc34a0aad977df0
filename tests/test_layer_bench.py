"""Layer benchmark of the lockstep event loop at the ``thermalize-cloud`` shape.

    PYTHONPATH=src python -m pytest tests/test_layer_bench.py --benchmark-only

times ``simulate_blocks_batch`` over 3 streams of 1200 replicas (n = 500,
blocks (250, 250), the horizons of tau = -1, 0, 1), the one call that
``run_thermalize`` makes.  There is no time gate: the test only checks that
the call equals one call per stream, so it gives before/after numbers.
"""

import numpy as np

from noisyvoter.experiments import replica_stream
from noisyvoter.model import (
    BlockPartition,
    ModelParams,
    sample_uniform_given_count,
    simulate_blocks_batch,
)

N, ELL, PAIRS, STREAMS = 500, 250, 600, 3
PARAMS, PART = ModelParams(N, 1.0, 1.0), BlockPartition(N - ELL, ELL)
HORIZONS = 0.5 * np.log(N) + np.log(0.25) + np.array([-1.0, 0.0, 1.0])


def streams_and_starts():
    """Per stream, PAIRS fixed starts then PAIRS uniform starts drawn from it."""
    rngs = [replica_stream(0, "thermalize", rep) for rep in range(STREAMS)]
    starts = []
    for rng in rngs:
        u0, u1 = sample_uniform_given_count(PARAMS, PART, ELL, rng, size=PAIRS)
        starts.append(np.vstack([np.tile([[0, ELL]], (PAIRS, 1)), np.stack([u0, u1], axis=1)]))
    return rngs, starts


def test_layer_bench_lockstep(benchmark):
    def setup():
        rngs, starts = streams_and_starts()
        return (PARAMS, PART, np.vstack(starts), HORIZONS, rngs), {}

    got = benchmark.pedantic(simulate_blocks_batch, setup=setup, rounds=3)
    rngs, starts = streams_and_starts()
    alone = [simulate_blocks_batch(PARAMS, PART, x0, HORIZONS, rng)
             for x0, rng in zip(starts, rngs)]
    np.testing.assert_array_equal(got, np.concatenate(alone, axis=1))
