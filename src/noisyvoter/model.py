"""Noisy voter model on the complete graph.

Each of the ``n`` sites copies the opinion of a uniformly chosen site and, on
top of that, re-randomizes spontaneously: at rate ``a`` a uniformly chosen
site is set to 1, at rate ``b`` to 0.  By exchangeability, one-time laws from
permutation-invariant starts are determined by the particle count (or by
per-block counts for a two-block split), so simulation happens on lumped
birth-death chains at O(1) cost per event: one event loop advances many
replicas in lockstep, with the count chain as its one-block case.  The
stationary count is Beta-Binomial(n, a, b).

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
from itertools import accumulate

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


def _lockstep(params: ModelParams, sizes: tuple[int, ...], x0, horizons,
              rng: np.random.Generator) -> np.ndarray:
    """Event loop shared by R independent replicas of the B-block chain.

    Block i of ``sizes`` (which must sum to n) gains a particle at rate
    (sizes[i] - x_i)(a + X)/n and loses one at rate x_i (b + n - X)/n, with X
    the total count; B = 1 is the count chain.  ``x0`` holds the (R, B)
    starting counts.  Returns the int counts at each horizon, shape (H, R, B).
    Every iteration draws ``exponential(size=R)`` for the waiting times, then
    ``random(R)`` scaled by the total rate, and takes the first event of
    up_0..up_{B-1}, down_0..down_{B-1} whose running rate sum exceeds it.
    """
    n, a, b = params.n, params.a, params.b
    hs = np.atleast_1d(np.asarray(horizons, dtype=float))
    if (hs.ndim != 1 or hs.size == 0 or not np.isfinite(hs).all()
            or np.any(hs < 0) or np.any(np.diff(hs) < 0)):
        raise ValueError("horizons must be finite, nonnegative and ascending")
    if sum(sizes) != n:
        raise ValueError(f"partition covers {sum(sizes)} sites, params have n={n}")
    x = np.asarray(x0, dtype=float)
    if x.ndim != 2 or x.shape[1] != len(sizes):
        raise ValueError(f"starts must have shape (R, {len(sizes)}), got {x.shape}")
    if not (np.all(x == np.round(x)) and np.all(x >= 0) and np.all(x <= sizes)):
        raise ValueError(f"start counts must be integers in [0, size] for block sizes {sizes}")
    counts = list(x.T.copy())
    R, H = x.shape[0], hs.size
    # a replica past its last horizon keeps moving, but is never recorded again
    stops = np.append(hs, np.inf)
    t = np.zeros(R)
    hidx = np.zeros(R, dtype=np.int64)
    out = np.empty((H, R, len(sizes)), dtype=np.int64)
    while True:
        X = sum(counts)
        grow, shrink = (a + X) / n, (b + n - X) / n
        cum = list(accumulate([(s - c) * grow for s, c in zip(sizes, counts)]
                              + [c * shrink for c in counts]))
        tnew = t + rng.exponential(size=R) / cum[-1]
        # record the pre-event state at every horizon the waiting time jumps over
        crossed = np.nonzero(stops[hidx] < tnew)[0]
        while crossed.size:
            for i, c in enumerate(counts):
                out[hidx[crossed], crossed, i] = c[crossed]
            hidx[crossed] += 1
            crossed = crossed[stops[hidx[crossed]] < tnew[crossed]]
        if (hidx == H).all():
            return out
        u = rng.random(R) * cum[-1]
        below = [u < c for c in cum[:-1]]
        # below is nested, so event i is where u passed threshold i-1 but not i
        events = [below[0], *(hi ^ lo for lo, hi in zip(below, below[1:])), ~below[-1]]
        for c, up, down in zip(counts, events, events[len(sizes):]):
            c += up
            c -= down
        t = tnew


def simulate_count_batch(params: ModelParams, k0, horizons, rng: np.random.Generator) -> np.ndarray:
    """Run many independent count chains, recording each at every horizon.

    ``k0`` is an integer array of shape (R,); ``horizons`` a finite,
    nonnegative, ascending array of shape (H,).  Returns an int array of
    shape (H, R).  The replicas evolve in lockstep over one shared event loop,
    the one-block case of ``simulate_blocks_batch``.
    """
    k0 = np.asarray(k0)
    if k0.ndim != 1:
        raise ValueError(f"k0 must have shape (R,), got {k0.shape}")
    return _lockstep(params, (params.n,), k0[:, None], horizons, rng)[:, :, 0]


def simulate_blocks_batch(
    params: ModelParams, part: BlockPartition, x0, horizons, rng: np.random.Generator
) -> np.ndarray:
    """Two-block analogue of ``simulate_count_batch``: ``x0`` holds (R, 2)
    integer (block-0, block-1) counts; returns an int array of shape (H, R, 2).
    """
    return _lockstep(params, (part.n0, part.n1), x0, horizons, rng)


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
    if not (np.isfinite(t) and t >= 0):
        raise ValueError(f"t must be finite and nonnegative, got {t!r}")
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


def couple_by_block_counts(part: BlockPartition, x, y, rng: np.random.Generator, size=None):
    """Couple two uniform-given-block-counts configurations block by block.

    Within each block one uniform permutation places both particle sets, so
    the smaller set is a uniform subset of the larger; marginally each output
    is uniform on its block-count fiber and the configurations disagree on
    exactly |x0-y0| + |x1-y1| sites.  Each site's rank in its block's
    permutation decides it: a site is occupied when its rank is below the
    block count.  Returns two 0/1 int8 arrays of length n, or two (size, n)
    arrays of independent couplings when ``size`` is given.
    """
    x0, x1 = int(x[0]), int(x[1])
    y0, y1 = int(y[0]), int(y[1])
    sizes = (part.n0, part.n1)
    for counts in ((x0, x1), (y0, y1)):
        for c, ni in zip(counts, sizes):
            if not 0 <= c <= ni:
                raise ValueError(f"block count {c} outside [0, {ni}]")
    rows = 1 if size is None else size
    ranks = np.concatenate([rng.permuted(np.broadcast_to(np.arange(ni), (rows, ni)), axis=1)
                            for ni in sizes], axis=1)
    eta = (ranks < np.repeat((x0, x1), sizes)).astype(np.int8)
    etap = (ranks < np.repeat((y0, y1), sizes)).astype(np.int8)
    return (eta[0], etap[0]) if size is None else (eta, etap)


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
