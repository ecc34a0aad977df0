"""Noisy voter model on the complete graph.

Each of the ``n`` sites copies the opinion of a uniformly chosen site and, on
top of that, re-randomizes spontaneously: at rate ``a`` a uniformly chosen
site is set to 1, at rate ``b`` to 0.  By exchangeability, one-time laws from
permutation-invariant starts are determined by the particle count (or by
per-block counts for a two-block split), so simulation happens on lumped
birth-death chains at O(1) cost per event: one event loop advances many
replicas in lockstep, with the count chain as its one-block case.  The
replicas may come in equal groups, each drawing from its own random stream,
so that one loop runs several independent batches and each batch gets the
same numbers as a loop of its own.  The stationary count is
Beta-Binomial(n, a, b).

The count chain's closed forms live here too: its density k/n has linear
drift and quadratic noise, so the mean path (``mean_ode``, and per block
``block_mean_ode``, whose offsets decay by ``block_decay``) and the variance
(``density_variance``) from a point start are exact at every n.  Rates
whose numerators overflow float64 raise ``DiagnosticError`` (``count_rates``).

Exact transient laws come from the spectral decomposition of the count
chain: reversibility makes its generator, symmetrized by sqrt(pi), a
symmetric tridiagonal matrix with the Hahn spectrum -j(j-1+a+b)/n (Karlin
and McGregor 1962).  The eigenvalues are that closed form; only the
eigenvectors are computed, by the Hahn three-term recurrence, the full
decomposition or LAPACK inverse iteration, whichever a cost model fitted to
measured sweeps predicts to be fastest (``_eigen_route``); the recurrence's
vectors are used only when an a-posteriori certificate holds them to
LAPACK's standard (``_certificate``).  The rates, the stationary law
and sqrt(pi) are computed once per law grid (``_CountChain``), and the grid
hands the stationary law on with its laws.  Every time shares the start's
coefficients in that eigenbasis, so at every n the J slowest eigenpairs,
the fewest that the first time needs, turn a whole grid of times into one
matrix product.  An accuracy guard (an a-priori bound on rounding and on
the dropped modes, checked before any eigenvector is computed, then per
time nonnegativity, unit mass and the closed-form mean) sends the laws it
cannot trust, from starts deep in the stationary tails, to uniformization
up to ``DENSE_LAW_CAP`` and to a ``CapacityError`` above it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dstein
from scipy.special import gammaln, pdtr, pdtrik, xlogy

from .errors import CapacityError, DiagnosticError
from .pmf import Pmf

logger = logging.getLogger(__name__)

# Largest n that may uniformize; eigensolves hold at most (cap + 1)^2 doubles (128 MB).
DENSE_LAW_CAP = 4096
# Most steps one uniformization refill may take: about 20 s at n = 300
UNIFORMIZATION_STEPS = 2**21
# Most events a batch of replicas may expect, each and in all (check_event_budget);
# thermalize's criterion 5 expects about 2.1e4 and 4.2e8, and runs in 13 s
EVENT_BUDGET_PER_REPLICA = 10**6
EVENT_BUDGET = 10**9


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


def _check_count(params: ModelParams, k):
    """A count, or an array of counts, checked to be integers in [0, n]."""
    ks = np.asarray(k)
    if not (np.all(ks == np.round(ks)) and np.all((ks >= 0) & (ks <= params.n))):
        raise ValueError(f"counts must be integers in [0, {params.n}], got {k!r}")
    return int(ks) if ks.ndim == 0 else ks.astype(np.int64)


def count_rates(params: ModelParams, k):
    """Birth and death rates of the lumped particle-count chain at count k,
    or elementwise at an integer array of counts.

    rate_up = (n-k)(a+k)/n, rate_down = k(b+n-k)/n.  Their numerators sum to
    at most n(a+b+2n); when that overflows float64, a total rate would not be
    finite, and ``DiagnosticError`` is raised before any rate is computed.
    While it is finite, so is every rate.
    """
    k = _check_count(params, k)
    n, a, b = params.n, params.a, params.b
    if not np.isfinite(n * (a + b + 2 * n)):
        raise DiagnosticError(f"count rates overflow float64 at n={n} a={a:g} b={b:g}")
    up = (n - k) * (a + k) / n
    down = k * (b + n - k) / n
    return up, down


def density_drift(params: ModelParams, m) -> np.ndarray | float:
    """Restoring drift a - (a+b) m of the density (before the 1/n slowdown)."""
    return params.a - (params.a + params.b) * np.asarray(m, dtype=float)


def density_noise(params: ModelParams, m) -> np.ndarray | float:
    """Instantaneous variance production 2m(1-m) + (a(1-m) + b m)/n."""
    m = np.asarray(m, dtype=float)
    return 2.0 * m * (1.0 - m) + (params.a * (1.0 - m) + params.b * m) / params.n


def _mean_path(params: ModelParams, m0, t):
    """``mean_ode`` unchecked: the spectral guard's m0 may exceed 1 by an ulp."""
    fix = params.a / (params.a + params.b)
    return fix + (m0 - fix) * np.exp(-(params.a + params.b) * t / params.n)


def mean_ode(params: ModelParams, m0: float, t: float) -> float:
    """Closed-form mean density path dm/dt = (a - (a+b) m)/n started at m0."""
    if not 0.0 <= m0 <= 1.0:
        raise ValueError("m0 must lie in [0, 1]")
    if t < 0:
        raise ValueError("t must be nonnegative")
    return _mean_path(params, m0, t)


def density_variance(params: ModelParams, m0: float, t: float) -> float:
    """Exact variance of the density at time t from the point start m0.

    The count chain has linear drift and quadratic variance production, so
    in counts dVar/dt = -r2 Var + (a n + (b - a + 2n) m - 2 m^2)/n along the
    mean path m = F + D e^{-r1 t}, F = n a/(a+b), D = n m0 - F, with the
    j = 1, 2 Hahn rates r1 = (a+b)/n and r2 = 2(a+b+1)/n.  Expanding the
    production around F gives c0 + c1 e^{-r1 t} + c2 e^{-2 r1 t} with
    c0 = 2ab(a+b+n)/(a+b)^2, c1 = D (b-a)(a+b+2n)/(n(a+b)), c2 = -2 D^2/n,
    and Var(0) = 0 integrates each term separately; the rates never
    coincide because r2 - 2 r1 = 2/n.  At large t this is the
    Beta-Binomial variance n a b (a+b+n)/((a+b)^2 (a+b+1)), over n^2.
    The coefficients take a and b only through a/(a+b) and b/(a+b), and
    the rates r2 - j r1 are formed as ((2-j)(a+b) + 2)/n, so neither
    (a+b)^2 nor the difference r2 - 2 r1 is rounded away at extreme a+b.
    """
    if not 0.0 <= m0 <= 1.0:
        raise ValueError("m0 must lie in [0, 1]")
    if t < 0:
        raise ValueError("t must be nonnegative")
    n, a, b = params.n, params.a, params.b
    s = a + b
    pa, pb = a / s, b / s
    r1 = s / n
    d = n * m0 - n * pa
    coef = (2.0 * pa * pb * (s + n), d * (pb - pa) * (s + 2 * n) / n, -2.0 * d * d / n)
    var = 0.0
    for j, c in enumerate(coef):
        gap = ((2 - j) * s + 2) / n
        var += c / gap * np.exp(-j * r1 * t) * -np.expm1(-gap * t)
    return float(max(var, 0.0) / n ** 2)


def block_decay(params: ModelParams, t):
    """Factor e^{-(1 + (a+b)/n) t} by which the gap between two blocks' mean
    densities shrinks over time t: rate 1 from copying, (a+b)/n from flips."""
    return np.exp(-(1.0 + (params.a + params.b) / params.n) * t)


def block_mean_ode(params: ModelParams, part: BlockPartition, t: float) -> tuple[float, float]:
    """Mean local densities at time t, started from (0, 1).

    The weighted mean follows ``mean_ode`` from m0 = n1/n while the block
    offsets relax by ``block_decay``, so a0*m0_t + a1*m1_t equals the global
    mean path exactly.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    _, a1 = part.weights
    m = mean_ode(params, a1, t)
    decay = block_decay(params, t)
    return m - a1 * decay, m + (1.0 - a1) * decay


# all sites occupied at a b that b + n rounds away: total rate 0, an infinite wait
@np.errstate(divide="ignore")
def _lockstep(params: ModelParams, sizes: tuple[int, ...], x0, horizons, rng) -> np.ndarray:
    """Event loop shared by R independent replicas of the B-block chain.

    Block i of ``sizes`` (which must sum to n) gains a particle at rate
    (sizes[i] - x_i)(a + X)/n and loses one at rate x_i (b + n - X)/n, with X
    the total count; B = 1 is the count chain.  ``x0`` holds the (R, B)
    starting counts and ``rng`` is one Generator or a sequence of G of them:
    the replicas split into G equal consecutive groups, group g drawing from
    ``rng[g]``.  Returns the int counts at each horizon, shape (H, R, B).
    Every iteration each group draws ``standard_exponential`` for its waiting
    times, then ``random`` scaled by the total rate, and each replica takes
    the first event of up_0..up_{B-1}, down_0..down_{B-1} whose running rate
    sum exceeds it.  A group stops drawing, before its uniforms, once all its
    replicas have passed the last horizon, so it ends with the states and
    stream position of a call over its replicas and generator alone.
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
    live = [rng] if isinstance(rng, np.random.Generator) else list(rng)
    R, H = x.shape[0], hs.size
    if not live or R % len(live):
        raise ValueError(f"{R} replicas do not split into {len(live)} equal groups")
    width = R // len(live)
    counts = list(x.T.copy())
    # a replica past its last horizon keeps moving, but is never recorded again
    stops = np.append(hs, np.inf)
    t = np.zeros(R)
    hidx = np.zeros(R, dtype=np.int64)
    rows = np.arange(R)  # each replica's column in out, as finished groups drop out
    draws = np.empty(R)
    out = np.empty((H, R, len(sizes)), dtype=np.int64)
    if R == 0:
        return out
    while True:
        X = sum(counts)
        grow, shrink = (a + X) / n, (b + n - X) / n
        cum = list(accumulate([(s - c) * grow for s, c in zip(sizes, counts)]
                              + [c * shrink for c in counts]))
        for g, gen in enumerate(live):
            gen.standard_exponential(out=draws[g * width:(g + 1) * width])
        tnew = t + draws / cum[-1]
        # record the pre-event state at every horizon the waiting time jumps over
        crossed = np.nonzero(stops[hidx] < tnew)[0]
        if crossed.size:
            while crossed.size:
                for i, c in enumerate(counts):
                    out[hidx[crossed], rows[crossed], i] = c[crossed]
                hidx[crossed] += 1
                crossed = crossed[stops[hidx[crossed]] < tnew[crossed]]
            running = (hidx < H).reshape(len(live), width).any(axis=1)
            if not running.any():
                return out
            if not running.all():
                keep = np.repeat(running, width)
                live = [gen for gen, on in zip(live, running) if on]
                counts, cum = [c[keep] for c in counts], [c[keep] for c in cum]
                tnew, hidx, rows, draws = tnew[keep], hidx[keep], rows[keep], draws[keep]
        for g, gen in enumerate(live):
            gen.random(out=draws[g * width:(g + 1) * width])
        u = draws * cum[-1]
        below = [u < c for c in cum[:-1]]
        # below is nested, so event i is where u passed threshold i-1 but not i
        events = [below[0], *(hi ^ lo for lo, hi in zip(below, below[1:])), ~below[-1]]
        for c, up, down in zip(counts, events, events[len(sizes):]):
            c += up
            c -= down
        t = tnew


def simulate_count_batch(params: ModelParams, k0, horizons, rng) -> np.ndarray:
    """Run many independent count chains, recording each at every horizon.

    ``k0`` is an integer array of shape (R,); ``horizons`` a finite,
    nonnegative, ascending array of shape (H,).  Returns an int array of
    shape (H, R).  The replicas evolve in lockstep over one shared event loop,
    the one-block case of ``simulate_blocks_batch``.  ``rng`` is one Generator
    or a sequence of G Generators; with G of them the R replicas split into G
    equal consecutive groups, and group g gets exactly what a call with its
    own starts and ``rng[g]`` alone would give, states and stream position.
    """
    k0 = np.asarray(k0)
    if k0.ndim != 1:
        raise ValueError(f"k0 must have shape (R,), got {k0.shape}")
    return _lockstep(params, (params.n,), k0[:, None], horizons, rng)[:, :, 0]


def simulate_blocks_batch(
    params: ModelParams, part: BlockPartition, x0, horizons, rng
) -> np.ndarray:
    """Two-block analogue of ``simulate_count_batch``: ``x0`` holds (R, 2)
    integer (block-0, block-1) counts; returns an int array of shape (H, R, 2).
    ``rng`` is one Generator or a sequence of G of them, splitting ``x0``
    into G equal consecutive groups as in ``simulate_count_batch``: one call
    runs G independent batches, each on its own stream, in one event loop.
    """
    return _lockstep(params, (part.n0, part.n1), x0, horizons, rng)


def check_event_budget(params: ModelParams, horizon: float, replicas: int) -> None:
    """Raise ``CapacityError`` when ``replicas`` chains run to ``horizon``
    are expected to take more events than the budget: more than
    ``EVENT_BUDGET_PER_REPLICA`` each (the iterations of the lockstep loop)
    or ``EVENT_BUDGET`` over all of them.

    Every partition into blocks has the count chain's total rate, at most
    its largest over the counts, so each replica expects at most that rate
    times ``horizon`` events.  The total rate (n a + X(2n - a + b) - 2X^2)/n
    is concave in the count X, so its largest value is at an integer next to
    X = (2n - a + b)/4, clipped to [0, n].
    """
    n, a, b = params.n, params.a, params.b
    peak = np.clip(np.floor((2 * n - a + b) / 4) + np.array([0.0, 1.0]), 0, n)
    up, down = count_rates(params, peak)
    each = float((up + down).max()) * horizon
    if not (each <= EVENT_BUDGET_PER_REPLICA and each * replicas <= EVENT_BUDGET):
        raise CapacityError(f"{replicas} replicas at n={n} a={a:g} b={b:g} to t={horizon:g} "
                            f"expect up to {each:.3g} events each, {each * replicas:.3g} in "
                            f"all: over the budget of {EVENT_BUDGET_PER_REPLICA:.0e} and "
                            f"{EVENT_BUDGET:.0e}")


class _CountChain(NamedTuple):
    """The per-size quantities of the count chain that exact laws use,
    computed once per ``transient_laws`` call: the birth and death rates at
    every count, the symmetrized generator's diagonal and off-diagonal, its
    norm |T|_inf (= |T|_1, the largest absolute row sum), the stationary law
    pi (which ``stationary_pmf`` returns) and s = sqrt(pi)."""

    params: ModelParams
    up: np.ndarray
    down: np.ndarray
    diag: np.ndarray
    off: np.ndarray
    norm: float
    stationary: Pmf
    s: np.ndarray


def _count_chain(params: ModelParams) -> _CountChain:
    """The chain's per-size quantities; ``DiagnosticError`` when pi or the
    symmetrized generator is not finite: a death rate down(n) = n(b + n - n)/n
    of 0, where b is below the rounding of b + n, or a product up(k) down(k+1)
    that overflows float64."""
    up, down = count_rates(params, np.arange(params.n + 1))
    with np.errstate(over="ignore"):
        off = up[:-1] * down[1:]
    if not (down[-1] > 0 and np.isfinite(off).all()):
        what = ("rate products up(k) down(k+1) overflow float64" if down[-1] > 0 else
                "death rate at k = n rounds to 0 (b below the rounding of b + n)")
        raise DiagnosticError(f"{what} at n={params.n} a={params.a:g} b={params.b:g}")
    logp = stationary_log_pmf(params, (up, down))
    p = np.exp(logp - logp.max())
    off, diag = np.sqrt(off), -(up + down)
    edge = np.concatenate([[0.0], off, [0.0]])
    return _CountChain(params, up, down, diag, off, float(np.max(edge[:-1] + edge[1:] - diag)),
                       Pmf(np.arange(logp.size, dtype=float), p / p.sum()), np.exp(0.5 * logp))


# Eigenvector cost model in microseconds, fitted to a sweep of both routes (a = b = 1,
# n = 32 ... 4096, best of 3 to 7, one BLAS thread, 2-core x86-64 box): the full solve
# takes _FULL_COST[0] + _FULL_COST[1] (n+1)^_FULL_COST[2], and dstein at m eigenvalues
# _STEIN_COST[0] + (n+1) (_STEIN_COST[1] m + _STEIN_COST[2] g^2), with g the slow modes
# it reorthogonalizes against each other.  The Hahn recurrence with its certificate
# takes _HAHN_COST[0] + _HAHN_COST[1] m + (n+1) m (_HAHN_COST[2] + _HAHN_COST[3] m),
# fitted the same way to _spectrum on that route (n = 16 ... 16384, m = 1 up to
# _HAHN_REACH sqrt(n+1), best of 3 to 40; median error 9%, worst 43%), except that its
# fixed cost is the 50 us it takes inside transient_laws, not the 30 us of the fit: its
# ~60 small NumPy calls cost more there than when timed alone.  With it the rule turns
# to the recurrence at 7 modes at n = 128 and 3 at 256, where the two routes tie (within
# 2 us) when each is forced inside transient_laws (medians, alternating)
_FULL_COST = (95.2, 8.07e-3, 2.326)
_STEIN_COST = (13.8, 7.09e-2, 6.67e-4)
_HAHN_COST = (50.0, 3.48, 7.06e-3, 4.71e-5)
# The recurrence is tried for at most _HAHN_REACH sqrt(n+1) slow modes.  At a = b = 1
# the certificate passes up to 3.6 - 5.2 sqrt(n+1) modes over n = 16 ... 4096 (4.5 - 5.2
# from n = 128), at other (a, b) up to 2 - 9 sqrt(n+1), so the rule only spares
# attempts that would fail; the certificate decides
_HAHN_REACH = 4.6
# The certificate's C: residual max|T V - V Lambda| <= C (n+1) eps |T|_inf and
# orthonormality defect max|V^T V - I| <= C (n+1) eps.  Over a sweep (n = 16 ... 1024,
# 11 (a, b) from 0.01 to 100, every mode count up to 10 sqrt(n+1)), LAPACK's own
# vectors read at most 0.09 and 0.56; recurrence vectors that C = 16 accepts are within
# 75 (n+1) eps of the 80-bit recurrence, and 50 modes at n = 128, a = b = 1 read 1.9
# and 7.6, while vectors off by 2.9e-12 or more there read 20 and 100 or more
_CERTIFIED = 16.0


def _lapack_route(chain: _CountChain, modes: int) -> tuple[str, float]:
    """The LAPACK route for the ``modes`` slowest eigenvectors, with its
    predicted cost in microseconds: ``"full"`` when the cost model predicts
    the full decomposition to be the faster and its (n+1)^2 doubles fit the
    ``DENSE_LAW_CAP`` budget, else ``"dstein"``.

    LAPACK's ``dstein`` orthogonalizes each vector against the earlier ones
    of its cluster, a run of eigenvalues at most 1e-3 |T|_1 apart.  The Hahn
    gaps (2j + a + b)/n grow with j, so the one cluster is the slowest g
    modes, and g^2 is dstein's quadratic cost term.
    """
    n, ab = chain.params.n, chain.params.a + chain.params.b
    # gaps j -> j+1 at most 1e-3 |T|_1 for j = 0 .. floor((1e-3 |T|_1 n - a - b)/2)
    g = min(modes, 1 + max(0, int((1e-3 * chain.norm * n - ab) // 2) + 1))
    stein = _STEIN_COST[0] + (n + 1) * (_STEIN_COST[1] * modes + _STEIN_COST[2] * g * g)
    if n > DENSE_LAW_CAP:
        return "dstein", stein
    full = _FULL_COST[0] + _FULL_COST[1] * (n + 1) ** _FULL_COST[2]
    return ("full", full) if full < stein else ("dstein", stein)


def _eigen_route(chain: _CountChain, modes: int) -> str:
    """The eigenvector route that ``_spectrum`` takes for the ``modes``
    slowest eigenpairs: ``"hahn"``, the three-term recurrence, when there
    are at most ``_HAHN_REACH`` sqrt(n+1) of them and the cost model
    predicts it to be the fastest, else the route of ``_lapack_route``,
    which is also where ``_spectrum`` falls back when the recurrence's
    vectors fail their certificate.
    """
    lapack, cost = _lapack_route(chain, modes)
    n = chain.params.n
    hahn = (_HAHN_COST[0] + _HAHN_COST[1] * modes
            + (n + 1) * modes * (_HAHN_COST[2] + _HAHN_COST[3] * modes))
    return "hahn" if modes <= _HAHN_REACH * (n + 1) ** 0.5 and hahn < cost else lapack


def _hahn_rows(chain: _CountChain, modes: int) -> np.ndarray:
    """The eigenvectors of the ``modes`` slowest Hahn eigenvalues by the
    orthonormal Hahn recurrence, one per row, the slowest last (so the rows
    follow the ascending eigenvalues of ``_spectrum``).

    The eigenvector of degree j is v_j = s Q_j / |Q_j|, with Q_j(k) the Hahn
    polynomial at alpha = a - 1, beta = b - 1, N = n (Karlin and McGregor
    1962), so v_0 = s and
    v_{j+1} = ((A_j + C_j - k) v_j - b_j v_{j-1}) / b_{j+1}, b_{j+1} = sqrt(A_j C_{j+1}),
    A_j = (j+a+b-1)(j+a)(n-j) / ((2j+a+b-1)(2j+a+b)), A_0 = a n / (a+b) (its
    limit, so that a + b = 1 works), and
    C_j = j(j+a+b+n-1)(j+b-1) / ((2j+a+b-2)(2j+a+b-1)), C_0 = 0: the
    recurrence of ``tests/oracles.hahn_laws_longdouble``, in float64.  Run
    forward in the degree, it loses accuracy from a degree of about 4 to 8
    sqrt(n), depending on a and b, and can overflow past it, so its rows
    are used only as ``_certificate`` allows.
    """
    n, a, b = chain.params.n, chain.params.a, chain.params.b
    ab = a + b
    j = np.arange(float(modes))
    rows = np.empty((modes, n + 1))
    rows[-1] = chain.s
    tmp = np.empty(n + 1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # A_0 and C_0 are set apart: their formulas read 0/0 at a + b = 1 and 2
        u = 2.0 * j + ab
        rise = (j + (ab - 1.0)) * (j + a) * (n - j) / ((u - 1.0) * u)
        fall = j * (j + (ab + n - 1.0)) * (j + (b - 1.0)) / ((u - 2.0) * (u - 1.0))
        rise[0], fall[0] = a * n / ab, 0.0
        link = np.sqrt(rise[:-1] * fall[1:])  # b_1 .. b_{J-1}
        centred = (rise + fall)[:-1, None] - np.arange(n + 1.0)
        for i in range(modes - 1):
            out = rows[modes - 2 - i]
            np.multiply(centred[i], rows[modes - 1 - i], out=out)
            if i:
                np.multiply(rows[modes - i], link[i - 1], out=tmp)
                out -= tmp
            out /= link[i]
    return rows


def _certificate(chain: _CountChain, lam: np.ndarray, rows: np.ndarray) -> tuple[float, float]:
    """The two readings that measure eigenvectors (one per row) for the
    eigenvalues ``lam`` against the standard LAPACK's own vectors meet: the
    residual max|T V - V Lambda| in units of (n+1) eps |T|_inf and the
    orthonormality defect max|V^T V - I| in units of (n+1) eps, NaN or inf
    for vectors that are not finite.  ``_CERTIFIED`` is the most either may
    read."""
    unit = (chain.params.n + 1) * np.finfo(float).eps
    with np.errstate(over="ignore", invalid="ignore"):
        resid = rows * (chain.diag - lam[:, None])
        resid[:, :-1] += rows[:, 1:] * chain.off
        resid[:, 1:] += rows[:, :-1] * chain.off
        gram = rows @ rows.T
        gram.ravel()[::lam.size + 1] -= 1.0
        return (float(np.abs(resid).max() / (unit * chain.norm)),
                float(np.abs(gram).max() / unit))


def _spectrum(chain: _CountChain, modes: int):
    """The ``modes`` slowest eigenpairs of the count generator symmetrized
    by s = sqrt(pi).

    Detailed balance makes diag(s) Q diag(1/s) the symmetric tridiagonal
    matrix T with diagonal -(up+down) and off-diagonal sqrt(up[k] down[k+1]).
    Its spectrum is the Hahn one, -j(j-1+a+b)/n for j = 0..n (Karlin and
    McGregor 1962), so the eigenvalues are that closed form, ascending, with
    the stationary one exactly 0; only the eigenvectors are computed, by
    the route ``_eigen_route`` picks: the Hahn recurrence, the full
    decomposition, sliced, or LAPACK inverse iteration (``dstein``) at the
    known eigenvalues.  The recurrence's vectors are used only when their
    certificate holds them to the standard LAPACK's own vectors meet,
    residual max|T V - V Lambda| <= C (n+1) eps |T|_inf and orthonormality
    defect max|V^T V - I| <= C (n+1) eps, C = ``_CERTIFIED``; otherwise
    the rejection is logged at INFO and the solve takes the LAPACK route
    (``_lapack_route``).  The sweep behind the cost model, best-of-k ms at
    a = b = 1, one BLAS thread (full solve; dstein at 10 / 20 / 30 / 50 /
    70% of the n+1 modes):

    ====  =======  =====================================
       n     full  dstein
    ====  =======  =====================================
     128    0.721  0.132 / 0.244 / 0.361 / 0.654 / 1.014
     512   13.9    2.38 / 5.93 / 9.07 / 12.9 / 17.1
    1024   73.4    12.1 / 34.5 / 82.6 / 198 / --
    4096   2410    826 / 3029 / 6500 / -- / --
    ====  =======  =====================================

    Returns the eigenvalues, the orthonormal eigenvectors (columns), the
    route taken and the certificate: None, unless the recurrence was tried
    and rejected, then its two readings as ``residual`` and
    ``orthonormality``.  ``dstein`` runs on T scaled to |T|_inf >= 1, since
    below that its convergence test fails converged vectors (at n = 1, a = b =
    0.001 they also miss the certificate, by the rounding of b + n - k in
    the rates).  A ``dstein`` failure to converge raises ``DiagnosticError``
    unless its vectors pass the same certificate.
    """
    n = chain.params.n
    j = np.arange(modes - 1, -1, -1, dtype=float)
    lam = -j * (j - 1 + chain.params.a + chain.params.b) / n
    route, certificate = _eigen_route(chain, modes), None
    if route == "hahn":
        rows = _hahn_rows(chain, modes)
        readings = _certificate(chain, lam, rows)
        if all(r <= _CERTIFIED for r in readings):
            return lam, rows.T, route, certificate
        certificate = dict(zip(("residual", "orthonormality"), readings))
        route = _lapack_route(chain, modes)[0]
        logger.info("Hahn recurrence rejected for n=%d a=%g b=%g, %d modes: residual %.3g, "
                    "orthonormality %.3g, over %g; falling back to %s", n, chain.params.a,
                    chain.params.b, modes, *readings, _CERTIFIED, route)
    if route == "full":
        vecs = eigh_tridiagonal(chain.diag, chain.off)[1]
        return lam, vecs if modes > n else vecs[:, n + 1 - modes:].copy(), route, certificate
    # one unsplit block: iblock all 1, isplit[0] its last row
    block = np.ones(n + 1, dtype=np.int32)
    split = np.zeros(n + 1, dtype=np.int32)
    split[0] = n + 1
    # dstein's convergence test asks its iterates to reach an absolute size,
    # which a T with |T|_inf well below 1 never lets them reach (n = 1 at small
    # a + b), so such a T is scaled up by the power of two that puts |T|_inf in
    # [1, 2): exact, and the eigenvectors are those of T
    scale = 1 - np.frexp(chain.norm)[1] if chain.norm < 1.0 else 0
    vecs, info = dstein(np.ldexp(chain.diag, scale), np.ldexp(chain.off, scale),
                        np.ldexp(lam, scale), block, split)
    if info and not all(r <= _CERTIFIED for r in _certificate(chain, lam, vecs.T)):
        raise DiagnosticError(f"inverse iteration (dstein) failed for n={n}, {modes} modes: "
                              f"info={info}")
    return lam, vecs, route, certificate


class _SpectralLaws(NamedTuple):
    """Laws from one spectral product: ``laws`` holds the (n+1, T) columns,
    ``ok`` marks those that pass the accuracy guard and ``reason`` says why
    the first failing one fails.  ``modes``, ``bound``, ``route`` and
    ``certificate`` are the eigenmodes kept, the a-priori error bound, the
    eigenvector route (``"none"`` when no eigenpair was computed) and the
    readings of a rejected recurrence (``_spectrum``; None otherwise)."""

    laws: np.ndarray
    ok: np.ndarray
    reason: str
    modes: int
    bound: float
    route: str
    certificate: dict | None = None


def _spectral_laws(chain: _CountChain, p0: np.ndarray, times: np.ndarray,
                   tol: float) -> _SpectralLaws:
    """Laws at ``times`` (ascending, >= 0) from the law ``p0`` at time 0, all
    from one product with the slowest eigenpairs (``_spectrum``): the
    columns of s * V (weights), weights = exp(outer(lam, times)) * V^T (p0/s),
    where weights below the smallest normal double are set to 0 first, as
    subnormal operands slow the product several-fold and change no law.

    Columns at time 0 are ``p0`` itself and always pass; when the a-priori
    bound fails, no other column does, and no eigenpair is computed.
    Eigenvectors over their budget of (DENSE_LAW_CAP + 1)^2 doubles raise
    ``CapacityError`` before the solve.  ``route`` and ``certificate`` are
    those of the ``_spectrum`` solve.
    """
    n, a, b = chain.params.n, chain.params.a, chain.params.b
    zero = times == 0
    laws = np.empty((n + 1, times.size))
    laws[:, zero] = p0[:, None]
    ok = zero.copy()
    live = ~zero
    if not live.any():
        return _SpectralLaws(laws, ok, "", 0, 0.0, "none")
    s = chain.s
    ts = times[live]
    j = ks = np.arange(n + 1, dtype=float)
    # sum(s^2) = 1, so an error e before the factor s costs at most |e|_2 in l1
    # (Cauchy-Schwarz): (n+1) eps |q0|_2 for rounding, |q0|_2 exp(lam_j t) for mode
    # j from the first time on; keep the fewest slow modes whose dropped tail <= tol/4
    # scaled by its largest entry, so that tail starts (q0 near 1/sqrt(pi_min)) do not overflow;
    # a start where s underflows to 0, or a norm that overflows, has no finite bound
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        q0 = np.where(p0 > 0, p0 / s, 0.0)
        top = q0.max()
        scale = top * np.linalg.norm(q0 / top)
        decay = np.exp(-j * (j - 1 + a + b) * ts[0] / n)
        tails = scale * np.append(np.cumsum(decay[::-1])[::-1], 0.0)
    if not scale < np.inf:
        return _SpectralLaws(laws, ok, "start law |p0/sqrt(pi)|_2 overflows", 0, np.inf, "none")
    modes = int(np.argmax(tails <= tol / 4))
    rounding = (n + 1) * np.finfo(float).eps * scale
    bound = rounding + tails[modes]
    if not bound <= tol:
        # more modes shrink the tail term, never the rounding term
        return _SpectralLaws(laws, ok, (f"a-priori error bound {bound:.3g} exceeds tol; its "
                                        f"rounding term alone needs tol >= {rounding:.3g}"),
                             modes, bound, "none")
    if (n + 1) * modes > (DENSE_LAW_CAP + 1) ** 2:
        raise CapacityError(f"n={n} a={a:g} b={b:g} needs {modes} eigenmodes at t={ts[0]:g}: "
                            f"{(n + 1) * modes / 2**17:.0f} MB of eigenvectors, over the "
                            f"{(DENSE_LAW_CAP + 1) ** 2 / 2**17:.0f} MB budget")
    lam, vecs, route, certificate = _spectrum(chain, modes)
    # a decay rate times a time that overflows is a factor exp(-inf) = 0
    with np.errstate(over="ignore"):
        weights = np.exp(np.outer(lam, ts)) * (vecs.T @ q0)[:, None]
        # subnormal weights slow the product several-fold and change no law
        weights[np.abs(weights) < np.finfo(float).tiny] = 0.0
        p = s[:, None] * (vecs @ weights)
        # mean_ode's closed-form path at every time at once, in counts
        mean = n * _mean_path(chain.params, (p0 @ ks) / n, ts)
    low, mass, got = p.min(axis=0), p.sum(axis=0), ks @ p
    passed = (low >= -tol) & (np.abs(mass - 1.0) <= tol) & (np.abs(got - mean) <= n * tol)
    p = np.clip(p, 0.0, None)
    laws[:, live] = p / p.sum(axis=0)
    ok[live] = passed
    reason = ""
    if not passed.all():
        i = int(np.argmin(passed))
        if not low[i] >= -tol:
            reason = f"min probability {low[i]:.3g} below -tol"
        elif not abs(mass[i] - 1.0) <= tol:
            reason = f"mass {mass[i]!r} deviates from 1 by more than tol"
        else:
            reason = f"mean {got[i]!r} misses the closed form {mean[i]!r} by more than n*tol"
    return _SpectralLaws(laws, ok, reason, modes, bound, route, certificate)


def _poisson_isf(q: float, mu: float) -> int:
    """Smallest k with P(Poisson(mu) > k) <= q, for 0 < q < 1 and mu > 0:
    the formula of ``scipy.stats.poisson.isf`` (``ceil(pdtrik(1 - q, mu))``,
    stepped down by one where ``pdtr`` allows), so it agrees bit for bit."""
    p = 1.0 - q
    k = np.ceil(pdtrik(p, mu))
    below = max(k - 1.0, 0.0)
    return int(below if pdtr(below, mu) >= p else k)


def _poisson_pmf(k: np.ndarray, mu: float) -> np.ndarray:
    """Poisson(mu) pmf at the counts ``k``, by the formula of
    ``scipy.stats.poisson.pmf``, so it agrees bit for bit."""
    return np.exp(xlogy(k, mu) - gammaln(k + 1) - mu)


def _uniformized_law(chain: _CountChain, p0: np.ndarray, t: float, tol: float) -> np.ndarray:
    """Law at time ``t > 0`` by uniformization, total-variation accurate to ``tol``.

    The chain is subordinated to a Poisson clock of rate 1.05 * max total
    jump rate; the Poisson series is truncated once its tail is below
    ``tol/4`` and renormalized.  A tol whose 1 - tol/4 rounds to 1 leaves
    no tail to resolve and raises ``DiagnosticError``; a series of more than
    ``UNIFORMIZATION_STEPS`` steps raises ``CapacityError`` before the first.
    """
    if 1.0 - tol / 4 == 1.0:
        raise DiagnosticError(f"tol={tol:g} is below what uniformization resolves: "
                              f"1 - tol/4 rounds to 1")
    up, down = chain.up, chain.down
    lam = 1.05 * float((up + down).max())
    mu = lam * t
    # the step count is at least its Poisson mean, so a mean over the budget
    # (or one that overflowed) is not passed to the quantile
    nsteps = _poisson_isf(tol / 4, mu) + 2 if mu <= UNIFORMIZATION_STEPS else mu
    if not nsteps <= UNIFORMIZATION_STEPS:
        n, a, b = chain.params.n, chain.params.a, chain.params.b
        raise CapacityError(f"uniformization for n={n} a={a:g} b={b:g} over t={t:g} needs "
                            f"{nsteps:.3g} steps, over the budget of {UNIFORMIZATION_STEPS}")
    weights = _poisson_pmf(np.arange(nsteps + 1), mu)
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


class LawGrid(NamedTuple):
    """Exact count laws on a time grid: column j of ``probs`` is the law at
    the j-th time, and ``refilled[j]`` marks a column that the accuracy guard
    rejected and uniformization supplied.  ``modes`` is the most slow
    eigenmodes behind a spectral column, ``route`` the eigenvector route
    that solve took and ``certificate`` its readings when the recurrence
    was rejected (``_spectrum``; None otherwise), and ``bound`` the largest
    a-priori error bound among them (0, ``"none"``, None and 0.0 when no
    column is spectral).
    ``stationary`` is the stationary law, the grid's limit at t = inf,
    as ``stationary_pmf`` gives it."""

    probs: np.ndarray
    refilled: np.ndarray
    modes: int
    bound: float
    route: str
    certificate: dict | None
    stationary: Pmf


def transient_laws(params: ModelParams, start, times, tol: float = 1e-9) -> LawGrid:
    """Exact marginal laws of the count at each of the ascending ``times``,
    each total-variation accurate to ``tol``.

    ``start`` is one integer count.  Every time is computed from the start:
    in the eigenbasis of the generator symmetrized by s = sqrt(pi), the laws
    are the columns of s * V (exp(outer(lam, times)) * V^T (p0/s)), one
    matrix product from the J slowest eigenpairs, the fewest whose dropped
    tail |p0/s|_2 sum_{j >= J} exp(-j(j-1+a+b) t1/n) at the first positive
    time t1 is at most tol/4; their eigenvectors come from the route of
    ``_eigen_route``, the Hahn recurrence only where its certificate holds
    (``_spectrum``), and ``route`` in the result names the route that ran.
    Columns at time 0 are the start law exactly.  A column is
    trusted only when the a-priori bound (n+1) eps |p0/s|_2 plus that tail
    is at most ``tol`` (checked before any eigenpair is computed) and it
    passes a-posteriori checks: no probability below -tol, mass within tol
    of 1, and mean within n*tol of the closed-form mean path.  Up to
    ``DENSE_LAW_CAP``, the first column that fails (for starts deep in the
    stationary tails, every column fails the a-priori bound) is refilled by
    uniformization from the previous column, logged at INFO on
    ``noisyvoter.model``, and the later columns are computed again from it.
    Above the cap a rejected column raises ``CapacityError``, as do, at any
    n, eigenvectors over their budget of (DENSE_LAW_CAP + 1)^2 doubles.
    The rates, pi and s are computed once per call (``_CountChain``).
    """
    n = params.n
    ts = np.asarray(times, dtype=float)
    if (ts.ndim != 1 or ts.size == 0 or not np.isfinite(ts).all()
            or np.any(ts < 0) or np.any(np.diff(ts) < 0)):
        raise ValueError(f"times must be finite, nonnegative and ascending, got {times!r}")
    if not 0 < tol <= 1e-6:
        raise ValueError("tol must lie in (0, 1e-6]")
    if np.ndim(start):
        raise ValueError(f"start must be one count, got {start!r}")
    law = np.zeros(n + 1)
    law[_check_count(params, start)] = 1.0
    probs = np.empty((n + 1, ts.size))
    refilled = np.zeros(ts.size, dtype=bool)
    chain = _count_chain(params)
    modes, bound, route, certificate = 0, 0.0, "none", None
    origin, j = 0.0, 0
    while j < ts.size:
        part = _spectral_laws(chain, law, ts[j:] - origin, tol)
        good = part.ok.size if part.ok.all() else int(np.argmin(part.ok))
        if np.any(ts[j:j + good] > origin):
            if part.modes > modes:
                modes, route, certificate = part.modes, part.route, part.certificate
            bound = max(bound, part.bound)
        probs[:, j:j + good] = part.laws[:, :good]
        j += good
        if j == ts.size:
            break
        if n > DENSE_LAW_CAP:
            raise CapacityError(f"spectral law rejected for n={n} a={params.a:g} b={params.b:g} "
                                f"at t={ts[j]:g}, tol={tol:g} ({part.reason}); "
                                f"above n = {DENSE_LAW_CAP} nothing is uniformized")
        logger.info("spectral law rejected for n=%d a=%g b=%g at t=%g (%s, tol=%g); "
                    "falling back to uniformization", n, params.a, params.b, ts[j], part.reason,
                    tol)
        prev, t_prev = (probs[:, j - 1], ts[j - 1]) if j else (law, origin)
        law = probs[:, j] = _uniformized_law(chain, prev, ts[j] - t_prev, tol)
        refilled[j], origin = True, ts[j]
        j += 1
    return LawGrid(probs, refilled, modes, bound, route, certificate, chain.stationary)


def transient_law(params: ModelParams, start, t: float, tol: float = 1e-9) -> Pmf:
    """Exact marginal law of the count at time ``t``, total-variation
    accurate to ``tol``, from the count ``start``: the one-time case of
    ``transient_laws``.
    """
    if np.ndim(t):
        raise ValueError(f"t must be one time, got {t!r}")
    law = transient_laws(params, start, [t], tol).probs[:, 0]
    return Pmf(np.arange(params.n + 1, dtype=float), law)


def stationary_log_pmf(params: ModelParams, rates: tuple | None = None) -> np.ndarray:
    """Log of the Beta-Binomial(n, a, b) stationary count pmf.

    Computed in log space from the cumulative consecutive odds
    log up(k) - log down(k+1) of ``count_rates`` (detailed balance) and
    normalized by log-sum-exp.  ``rates`` is the (up, down) pair of
    ``count_rates`` at every count, for a caller that already has it.
    This is the same Beta function algebra as the direct log-Gamma formula
    (the test suite's cross-check oracle) but keeps the consecutive ratios
    accurate to a few ulps, which the reversibility identity needs; it stays
    finite for n up to 1e6.
    """
    up, down = count_rates(params, np.arange(params.n + 1)) if rates is None else rates
    logp = np.concatenate([[0.0], np.cumsum(np.log(up[:-1]) - np.log(down[1:]))])
    peak = logp.max()
    return logp - (peak + np.log(np.exp(logp - peak).sum()))


def stationary_pmf(params: ModelParams) -> Pmf:
    """Stationary count distribution, Beta-Binomial(n, a, b): the law that
    exact law grids carry (``_CountChain.stationary``)."""
    return _count_chain(params).stationary


def detailed_balance_gap(params: ModelParams) -> float:
    """Max log-scale violation of rate_up(k) pi(k) = rate_down(k+1) pi(k+1)."""
    up, down = count_rates(params, np.arange(params.n + 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        logp = stationary_log_pmf(params, (up, down))
        gap = np.abs(np.log(up[:-1]) + logp[:-1] - np.log(down[1:]) - logp[1:])
    return float(np.max(gap)) if np.all(np.isfinite(gap)) else np.inf


def sample_uniform_given_count(params: ModelParams, part: BlockPartition, k: int | np.ndarray,
                               rng: np.random.Generator):
    """Block counts of a uniform configuration with exactly ``k`` particles.

    The block-1 count is Hypergeometric(n, n1, k); block 0 takes the rest.
    ``k`` is one count or an array of counts.  Returns a pair of ints for
    one count, otherwise a pair of arrays of the shape of ``k``.  An array of
    counts gets, element by element in C order, the draws of a loop of
    one-count calls on the same generator.
    """
    if part.n != params.n:
        raise ValueError("partition does not match params")
    k = _check_count(params, k)
    x1 = rng.hypergeometric(part.n1, part.n0, k)
    return k - x1, x1


def couple_by_block_counts(part: BlockPartition, x, y, ranks):
    """Couple two configurations with block counts ``x`` and ``y`` on given
    within-block rank orders.

    ``ranks`` gives each site its rank in its block: along the last axis, the
    first ``n0`` entries are a permutation of ``range(n0)`` and the last
    ``n1`` one of ``range(n1)``.  A site is occupied when its rank is below
    its block's count, so within each block the smaller particle set is a
    subset of the larger, and the two configurations disagree on exactly
    |x0-y0| + |x1-y1| sites.  Under uniformly random rank orders each output
    is uniform on its block-count fiber.  ``ranks`` has shape (n,) or (R, n);
    returns two 0/1 int8 arrays of that shape, one coupling per row.
    """
    x, y = tuple(map(int, x)), tuple(map(int, y))
    sizes = (part.n0, part.n1)
    ranks = np.asarray(ranks)
    if ranks.ndim not in (1, 2) or ranks.shape[-1] != part.n:
        raise ValueError(f"ranks of shape {ranks.shape}, expected ({part.n},) or (R, {part.n})")
    for block, ni, cx, cy in zip((ranks[..., :part.n0], ranks[..., part.n0:]), sizes, x, y):
        if not (0 <= cx <= ni and 0 <= cy <= ni):
            raise ValueError(f"block counts {cx} and {cy} outside [0, {ni}]")
        if not (np.sort(block, axis=-1) == np.arange(ni)).all():
            raise ValueError(f"ranks of a block of {ni} sites are not a permutation of range({ni})")
    thresholds = np.repeat((x, y), sizes, axis=1)
    return tuple((ranks < t).astype(np.int8) for t in thresholds)
