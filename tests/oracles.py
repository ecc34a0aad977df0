"""Reference implementations that only the tests use.

Each one spells out a rule of the model directly, one state at a time, so the
tests can check the package's vectorized code against it.
"""

from noisyvoter.model import BlockPartition, ModelParams, count_rates


def _check_block_counts(params: ModelParams, part: BlockPartition, x) -> tuple[int, int]:
    if part.n != params.n:
        raise ValueError(f"partition covers {part.n} sites, params have n={params.n}")
    x0, x1 = int(x[0]), int(x[1])
    if not (0 <= x0 <= part.n0 and 0 <= x1 <= part.n1):
        raise ValueError(f"block counts {(x0, x1)} outside [0,{part.n0}]x[0,{part.n1}]")
    return x0, x1


def block_rates(params: ModelParams, part: BlockPartition, x) -> tuple[float, float, float, float]:
    """Per-block birth/death rates (up0, up1, down0, down1) at counts x=(x0,x1).

    The total count X = x0+x1 enters every rate; the per-block rates sum to
    the lumped ``count_rates``.
    """
    x0, x1 = _check_block_counts(params, part, x)
    n, a, b = params.n, params.a, params.b
    X = x0 + x1
    up0 = (part.n0 - x0) * (a + X) / n
    up1 = (part.n1 - x1) * (a + X) / n
    down0 = x0 * (b + n - X) / n
    down1 = x1 * (b + n - X) / n
    return up0, up1, down0, down1


def generator_residual(params: ModelParams, k: int, f, df, d2f) -> float:
    """Gap between the rescaled discrete generator and its diffusion limit.

    Applies the count generator (sped up by n) to f as a function of the
    density M = k/n, exactly via the jump rates, and subtracts the
    Wright-Fisher generator (a(1-x) - b x) f'(x) + x(1-x) f''(x).  The gap is
    O(||f''||/n + ||f'''||/n^2 + ||f''''||/n^2) and vanishes identically for
    linear f.
    """
    n, a, b = params.n, params.a, params.b
    up, down = count_rates(params, k)
    m = k / n
    discrete = n * (up * (f(m + 1.0 / n) - f(m)) + down * (f(m - 1.0 / n) - f(m)))
    limit = (a * (1 - m) - b * m) * df(m) + m * (1 - m) * d2f(m)
    return float(discrete - limit)
