"""Noisy voter model on the complete graph.

Each of the ``n`` sites copies the opinion of a uniformly chosen site and, on
top of that, re-randomizes spontaneously: at rate ``a`` a uniformly chosen
site is set to 1, at rate ``b`` to 0.  By exchangeability, one-time laws from
permutation-invariant starts are determined by the particle count (or by
per-block counts for a two-block split), so simulation happens on lumped
birth-death chains at O(1) cost per event.  The stationary count is
Beta-Binomial(n, a, b).

Exact transient laws come from the spectral decomposition of the count
chain: reversibility makes its generator, symmetrized by sqrt(pi), a
symmetric tridiagonal matrix with the Hahn spectrum -j(j-1+a+b)/n, so one
cached eigendecomposition per (n, a, b) turns every later time into two
O(n^2) products.  An accuracy guard (an a-priori rounding bound, then
nonnegativity, unit mass and the closed-form mean) sends the starts it
cannot trust, deep in the stationary tails, to uniformization instead.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import betaln, gammaln
from scipy.stats import poisson

from .errors import CapacityError
from .pmf import Pmf

logger = logging.getLogger(__name__)

# Largest n for which dense exact laws (transient laws, stationary pmf checks)
# are computed by default.
DENSE_LAW_CAP = 4096


@dataclass(frozen=True)
class ModelParams:
    """Population size and spontaneous-flip intensities.

    ``a`` drives flips to 1, ``b`` flips to 0; both must be positive, which
    makes the chain ergodic.
    """

    n: int
    a: float
    b: float

    def __post_init__(self):
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 1):
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        for name in ("a", "b"):
            v = float(getattr(self, name))
            if not (np.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be positive and finite, got {v!r}")
            object.__setattr__(self, name, v)


@dataclass(frozen=True)
class BlockPartition:
    """Non-trivial split of the sites into block 0 and block 1.

    Block 1 is the block carrying the particles of the reference
    configuration; both blocks must be nonempty.  Sites are laid out
    canonically: block 0 occupies positions ``[0, n0)``, block 1 the rest.
    """

    n0: int
    n1: int

    def __post_init__(self):
        if not (self.n0 >= 1 and self.n1 >= 1):
            raise ValueError("both blocks must contain at least one site")
        object.__setattr__(self, "n0", int(self.n0))
        object.__setattr__(self, "n1", int(self.n1))

    @property
    def n(self) -> int:
        return self.n0 + self.n1

    @property
    def weights(self) -> tuple[float, float]:
        n = self.n
        return (self.n0 / n, self.n1 / n)


def _check_count(params: ModelParams, k: int) -> int:
    k = int(k)
    if not 0 <= k <= params.n:
        raise ValueError(f"count {k} outside [0, {params.n}]")
    return k


def _check_block_counts(params: ModelParams, part: BlockPartition, x) -> tuple[int, int]:
    if part.n != params.n:
        raise ValueError(f"partition covers {part.n} sites, params have n={params.n}")
    x0, x1 = int(x[0]), int(x[1])
    if not (0 <= x0 <= part.n0 and 0 <= x1 <= part.n1):
        raise ValueError(f"block counts {(x0, x1)} outside [0,{part.n0}]x[0,{part.n1}]")
    return x0, x1


def count_rates(params: ModelParams, k: int) -> tuple[float, float]:
    """Birth and death rates of the lumped particle-count chain at count k.

    rate_up = (n-k)(a+k)/n, rate_down = k(b+n-k)/n.
    """
    k = _check_count(params, k)
    n, a, b = params.n, params.a, params.b
    up = (n - k) * (a + k) / n
    down = k * (b + n - k) / n
    return up, down


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


def simulate_count(params: ModelParams, k0: int, horizon: float, rng: np.random.Generator) -> int:
    """Exact event-driven simulation of the count chain up to ``horizon``.

    The expected number of events is O(n * horizon * (1 + (a+b)/n)).
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    k = _check_count(params, k0)
    t = 0.0
    while True:
        up, down = count_rates(params, k)
        total = up + down
        t += rng.exponential(1.0 / total)
        if t > horizon:
            return k
        k += 1 if rng.random() * total < up else -1


def simulate_blocks(
    params: ModelParams, part: BlockPartition, x0, horizon: float, rng: np.random.Generator
) -> tuple[int, int]:
    """Event-driven simulation of the two-block count chain up to ``horizon``."""
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    x0_, x1_ = _check_block_counts(params, part, x0)
    t = 0.0
    while True:
        u0, u1, d0, d1 = block_rates(params, part, (x0_, x1_))
        total = u0 + u1 + d0 + d1
        t += rng.exponential(1.0 / total)
        if t > horizon:
            return x0_, x1_
        u = rng.random() * total
        if u < u0:
            x0_ += 1
        elif u < u0 + u1:
            x1_ += 1
        elif u < u0 + u1 + d0:
            x0_ -= 1
        else:
            x1_ -= 1


def simulate_count_batch(
    params: ModelParams, k0, horizons, rng: np.random.Generator
) -> np.ndarray:
    """Run many independent count chains, recording each at every horizon.

    ``k0`` is an int array of shape (R,); ``horizons`` an increasing array of
    shape (H,).  Returns an int array of shape (H, R).  Statistically
    identical to R calls of ``simulate_count`` per horizon, at vectorized
    cost; replicas evolve in lockstep over a shared event loop.
    """
    hs = np.atleast_1d(np.asarray(horizons, dtype=float))
    if hs.size == 0 or np.any(hs < 0) or np.any(np.diff(hs) < 0):
        raise ValueError("horizons must be nonnegative and ascending")
    k = np.array([_check_count(params, v) for v in np.atleast_1d(k0)], dtype=np.int64)
    n, a, b = params.n, params.a, params.b
    R, H = k.size, hs.size
    t = np.zeros(R)
    hidx = np.zeros(R, dtype=np.int64)
    out = np.empty((H, R), dtype=np.int64)
    alive = np.ones(R, dtype=bool)
    while alive.any():
        up = (n - k) * (a + k) / n
        down = k * (b + n - k) / n
        total = up + down
        tnew = t + rng.exponential(size=R) / total
        # record the pre-event state at every horizon the waiting time jumps over
        crossed = alive & (hs[np.minimum(hidx, H - 1)] < tnew) & (hidx < H)
        while crossed.any():
            out[hidx[crossed], np.nonzero(crossed)[0]] = k[crossed]
            hidx[crossed] += 1
            alive &= hidx < H
            crossed = alive & (hs[np.minimum(hidx, H - 1)] < tnew) & (hidx < H)
        move = alive
        if move.any():
            u = rng.random(R) * total
            k = np.where(move & (u < up), k + 1, np.where(move, k - 1, k))
            t = np.where(move, tnew, t)
    return out


def simulate_blocks_batch(
    params: ModelParams, part: BlockPartition, x0, horizons, rng: np.random.Generator
) -> np.ndarray:
    """Batched two-block analogue of ``simulate_count_batch``.

    ``x0`` has shape (R, 2); returns int array (H, R, 2).
    """
    hs = np.atleast_1d(np.asarray(horizons, dtype=float))
    if hs.size == 0 or np.any(hs < 0) or np.any(np.diff(hs) < 0):
        raise ValueError("horizons must be nonnegative and ascending")
    x0a = np.asarray(x0, dtype=np.int64)
    if x0a.ndim != 2 or x0a.shape[1] != 2:
        raise ValueError("x0 must have shape (R, 2)")
    for row in x0a[: min(len(x0a), 4)]:
        _check_block_counts(params, part, row)
    if np.any(x0a[:, 0] < 0) or np.any(x0a[:, 0] > part.n0):
        raise ValueError("block-0 counts out of range")
    if np.any(x0a[:, 1] < 0) or np.any(x0a[:, 1] > part.n1):
        raise ValueError("block-1 counts out of range")
    n, a, b = params.n, params.a, params.b
    n0, n1 = part.n0, part.n1
    xc0 = x0a[:, 0].copy()
    xc1 = x0a[:, 1].copy()
    R, H = xc0.size, hs.size
    t = np.zeros(R)
    hidx = np.zeros(R, dtype=np.int64)
    out = np.empty((H, R, 2), dtype=np.int64)
    alive = np.ones(R, dtype=bool)
    while alive.any():
        X = xc0 + xc1
        grow = (a + X) / n
        shrink = (b + n - X) / n
        u0 = (n0 - xc0) * grow
        u1 = (n1 - xc1) * grow
        d0 = xc0 * shrink
        d1 = xc1 * shrink
        total = u0 + u1 + d0 + d1
        tnew = t + rng.exponential(size=R) / total
        crossed = alive & (hs[np.minimum(hidx, H - 1)] < tnew) & (hidx < H)
        while crossed.any():
            rows = np.nonzero(crossed)[0]
            out[hidx[crossed], rows, 0] = xc0[crossed]
            out[hidx[crossed], rows, 1] = xc1[crossed]
            hidx[crossed] += 1
            alive &= hidx < H
            crossed = alive & (hs[np.minimum(hidx, H - 1)] < tnew) & (hidx < H)
        move = alive
        if move.any():
            u = rng.random(R) * total
            e0 = move & (u < u0)
            e1 = move & ~e0 & (u < u0 + u1)
            e2 = move & ~e0 & ~e1 & (u < u0 + u1 + d0)
            e3 = move & ~e0 & ~e1 & ~e2
            xc0 = xc0 + e0 - e2
            xc1 = xc1 + e1 - e3
            t = np.where(move, tnew, t)
    return out


def _rate_arrays(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """``count_rates`` at every count k = 0..n, as two arrays."""
    n = params.n
    ks = np.arange(n + 1, dtype=float)
    return (n - ks) * (params.a + ks) / n, ks * (params.b + n - ks) / n


@lru_cache(maxsize=1)
def _spectrum(params: ModelParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigendecomposition of the count generator symmetrized by sqrt(pi).

    Detailed balance makes diag(s) Q diag(1/s), s = sqrt(pi), the symmetric
    tridiagonal matrix with diagonal -(up+down) and off-diagonal
    sqrt(up[k] down[k+1]).  Returns ascending eigenvalues, orthonormal
    eigenvectors (columns) and s, all read-only.  The spectrum is
    -j(j-1+a+b)/n, j = 0..n.  Only the latest (n, a, b) is kept, so the cache
    holds at most one (n+1)^2 matrix of doubles (128 MB at n = 4096).
    """
    up, down = _rate_arrays(params)
    lam, vecs = eigh_tridiagonal(-(up + down), np.sqrt(up[:-1] * down[1:]))
    # The stationary eigenvalue is exactly 0; left at its rounded value
    # (about 1e-14) the mass would drift like exp(lam t) over long times.
    lam[-1] = 0.0
    s = np.exp(0.5 * stationary_log_pmf(params))
    for arr in (lam, vecs, s):
        arr.setflags(write=False)
    return lam, vecs, s


def _spectral_law(params: ModelParams, p0: np.ndarray, t: float, tol: float):
    """Law at time ``t`` from the cached eigendecomposition, or None (with
    the reason logged) when the accuracy guard rejects it."""
    n, a, b = params.n, params.a, params.b
    lam, vecs, s = _spectrum(params)
    with np.errstate(divide="ignore", invalid="ignore"):
        q0 = np.where(p0 > 0, p0 / s, 0.0)
    # rounding in the eigenvectors is amplified by the conditioning of the
    # similarity transform on this start
    bound = (n + 1) * np.finfo(float).eps * s.sum() * q0.sum()
    if not bound <= tol:
        reason = f"a-priori error bound {bound:.3g} exceeds tol"
    else:
        p = s * (vecs @ (np.exp(lam * t) * (vecs.T @ q0)))
        ks = np.arange(n + 1, dtype=float)
        fix = n * a / (a + b)
        # the closed-form mean path of diffusion.mean_ode (which imports this module)
        mean = fix + (p0 @ ks - fix) * np.exp(-(a + b) * t / n)
        if not p.min() >= -tol:
            reason = f"min probability {p.min():.3g} below -tol"
        elif not abs(p.sum() - 1.0) <= tol:
            reason = f"mass {p.sum()!r} deviates from 1 by more than tol"
        elif not abs(p @ ks - mean) <= n * tol:
            reason = f"mean {p @ ks!r} misses the closed form {mean!r} by more than n*tol"
        else:
            p = np.clip(p, 0.0, None)
            return p / p.sum()
    logger.info("spectral law rejected for n=%d a=%g b=%g (%s, tol=%g); "
                "falling back to uniformization", n, a, b, reason, tol)
    return None


def _uniformized_law(params: ModelParams, p0: np.ndarray, t: float, tol: float) -> np.ndarray:
    """Law at time ``t > 0`` by uniformization, total-variation accurate to ``tol``.

    The chain is subordinated to a Poisson clock of rate 1.05 * max total
    jump rate; the Poisson series is truncated once its tail is below
    ``tol/4`` and renormalized.
    """
    up, down = _rate_arrays(params)
    lam = 1.05 * float((up + down).max())
    mu = lam * t
    nsteps = int(poisson.isf(tol / 4, mu)) + 2
    weights = poisson.pmf(np.arange(nsteps + 1), mu)
    pu = up / lam
    pd = down / lam
    stay = 1.0 - pu - pd
    acc = weights[0] * p0
    v = p0
    for j in range(1, nsteps + 1):
        w = v * stay
        w[1:] += v[:-1] * pu[:-1]
        w[:-1] += v[1:] * pd[1:]
        v = w
        acc += weights[j] * v
    return acc / acc.sum()


def transient_law(params: ModelParams, start, t: float, tol: float = 1e-9,
                  cap: int = DENSE_LAW_CAP) -> Pmf:
    """Exact marginal law of the count at time ``t``, total-variation
    accurate to ``tol``.

    ``start`` is either an integer count or a Pmf on {0,...,n} (so curves can
    be evolved incrementally).  The law is p(t) = s * V exp(lam t) V^T (p0/s)
    from one eigendecomposition of the generator symmetrized by s = sqrt(pi),
    cached for the latest (n, a, b): (n+1)^2 doubles, 128 MB at n = 4096.
    That product is trusted only when an a-priori bound on its rounding
    error, (n+1) eps sum(s) sum(p0/s), is at most ``tol`` and the result
    passes a-posteriori checks: no probability below -tol, mass within tol of
    1, and mean within n*tol of the closed-form mean path.  Otherwise (starts
    deep in the stationary tails) the law comes from uniformization, and
    the fallback is logged at INFO on ``noisyvoter.model``.
    """
    n = params.n
    if n > cap:
        raise CapacityError(f"n={n} exceeds the dense-law cap {cap}")
    if t < 0:
        raise ValueError("t must be nonnegative")
    if not 0 < tol <= 1e-6:
        raise ValueError("tol must lie in (0, 1e-6]")
    ks = np.arange(n + 1, dtype=float)
    if isinstance(start, Pmf):
        if start.support.size != n + 1 or not np.allclose(start.support, ks):
            raise ValueError("start pmf must live on the full count grid {0,...,n}")
        p0 = start.probs
    else:
        p0 = np.zeros(n + 1)
        p0[_check_count(params, start)] = 1.0
    if t == 0:
        return Pmf(ks, p0)
    law = _spectral_law(params, p0, t, tol)
    if law is None:
        law = _uniformized_law(params, p0, t, tol)
    return Pmf(ks, law)


def stationary_log_pmf(params: ModelParams) -> np.ndarray:
    """Log of the Beta-Binomial(n, a, b) stationary count pmf.

    Computed in log space from the cumulative consecutive-odds
    log[(n-k)(a+k)] - log[(k+1)(b+n-k-1)] and normalized by log-sum-exp.
    This is the same Beta function algebra as the direct log-Gamma formula
    (``stationary_log_pmf_betaln``) but keeps the consecutive ratios accurate
    to a few ulps, which the reversibility identity needs; it stays finite
    for n up to 1e6.
    """
    n, a, b = params.n, params.a, params.b
    ks = np.arange(n, dtype=float)
    steps = np.log((n - ks) * (a + ks)) - np.log((ks + 1.0) * (b + n - ks - 1.0))
    logp = np.concatenate([[0.0], np.cumsum(steps)])
    peak = logp.max()
    return logp - (peak + np.log(np.exp(logp - peak).sum()))


def stationary_log_pmf_betaln(params: ModelParams) -> np.ndarray:
    """Direct log-Gamma evaluation of the same pmf (cross-check oracle)."""
    n, a, b = params.n, params.a, params.b
    ks = np.arange(n + 1, dtype=float)
    return (
        gammaln(n + 1) - gammaln(ks + 1) - gammaln(n - ks + 1)
        + betaln(a + ks, b + n - ks) - betaln(a, b)
    )


def stationary_pmf(params: ModelParams) -> Pmf:
    """Stationary count distribution, Beta-Binomial(n, a, b)."""
    logp = stationary_log_pmf(params)
    p = np.exp(logp - logp.max())
    return Pmf(np.arange(params.n + 1, dtype=float), p / p.sum())


def detailed_balance_gap(params: ModelParams) -> float:
    """Max log-scale violation of rate_up(k) pi(k) = rate_down(k+1) pi(k+1)."""
    n = params.n
    logp = stationary_log_pmf(params)
    rates = [count_rates(params, k) for k in range(n + 1)]
    with np.errstate(divide="ignore", invalid="ignore"):
        log_up = np.log([r[0] for r in rates[:-1]])
        log_down = np.log([r[1] for r in rates[1:]])
        gap = np.abs(log_up + logp[:-1] - log_down - logp[1:])
    return float(np.max(gap)) if np.all(np.isfinite(gap)) else np.inf


def sample_stationary(params: ModelParams, rng: np.random.Generator, size=None):
    """Draw counts from the stationary law: p ~ Beta(a, b), k ~ Binomial(n, p)."""
    p = rng.beta(params.a, params.b, size=size)
    return rng.binomial(params.n, p)


def sample_uniform_given_count(
    params: ModelParams, part: BlockPartition, k: int, rng: np.random.Generator, size=None
):
    """Block counts of a uniform configuration with exactly ``k`` particles.

    The block-1 count is Hypergeometric(n, n1, k); block 0 takes the rest.
    Returns a pair of ints, or a pair of arrays when ``size`` is given.
    """
    if part.n != params.n:
        raise ValueError("partition does not match params")
    k = _check_count(params, k)
    x1 = rng.hypergeometric(part.n1, part.n0, k, size=size)
    return k - x1, x1


def couple_by_block_counts(part: BlockPartition, x, y, rng: np.random.Generator):
    """Couple two uniform-given-block-counts configurations block by block.

    Within each block one uniform permutation places both particle sets, so
    the smaller set is a uniform subset of the larger; marginally each output
    is uniform on its block-count fiber and the configurations disagree on
    exactly |x0-y0| + |x1-y1| sites.  Returns two 0/1 arrays of length n.
    """
    x0, x1 = int(x[0]), int(x[1])
    y0, y1 = int(y[0]), int(y[1])
    sizes = (part.n0, part.n1)
    for counts in ((x0, x1), (y0, y1)):
        for c, ni in zip(counts, sizes):
            if not 0 <= c <= ni:
                raise ValueError(f"block count {c} outside [0, {ni}]")
    eta = np.zeros(part.n, dtype=np.int8)
    etap = np.zeros(part.n, dtype=np.int8)
    offsets = (0, part.n0)
    for xi, yi, off, ni in zip((x0, x1), (y0, y1), offsets, sizes):
        perm = off + rng.permutation(ni)
        eta[perm[:xi]] = 1
        etap[perm[:yi]] = 1
    return eta, etap


def generator_residual(params: ModelParams, k: int, f, df, d2f) -> float:
    """Gap between the rescaled discrete generator and its diffusion limit.

    Applies the count generator (sped up by n) to f as a function of the
    density M = k/n, exactly via the jump rates, and subtracts the
    Wright-Fisher generator (a(1-x) - b x) f'(x) + x(1-x) f''(x).  The gap is
    O(||f''||/n + ||f'''||/n^2 + ||f''''||/n^2) and vanishes identically for
    linear f.
    """
    k = _check_count(params, k)
    n, a, b = params.n, params.a, params.b
    up, down = count_rates(params, k)
    m = k / n
    discrete = n * (up * (f(m + 1.0 / n) - f(m)) + down * (f(m - 1.0 / n) - f(m)))
    limit = (a * (1 - m) - b * m) * df(m) + m * (1 - m) * d2f(m)
    return float(discrete - limit)
