"""Finite probability mass functions on real support grids."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Constructors renormalize when the mass deviates from 1 by at most this much
# and refuse the input beyond it.
SUM_TOL = 1e-9


@dataclass(frozen=True)
class Pmf:
    """Probability mass function on a strictly increasing support grid.

    Probabilities are renormalized at construction (deviations up to
    ``SUM_TOL`` are tolerated, anything larger is a hard error), so a valid
    instance always sums to 1 up to float accumulation error.
    """

    support: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.support, dtype=float)
        p = np.asarray(self.probs, dtype=float)
        if s.ndim != 1 or p.ndim != 1 or s.size != p.size or s.size == 0:
            raise ValueError("support and probs must be nonempty 1-D arrays of equal length")
        if not np.all(np.isfinite(s)) or not np.all(np.isfinite(p)):
            raise ValueError("support and probs must be finite")
        if s.size > 1 and not np.all(np.diff(s) > 0):
            raise ValueError("support must be strictly increasing")
        if np.any(p < -1e-13):
            raise ValueError("probabilities must be nonnegative")
        total = p.sum()
        if abs(total - 1.0) > SUM_TOL:
            raise ValueError(f"pmf mass {total!r} deviates from 1 by more than {SUM_TOL}")
        p = np.clip(p, 0.0, None)
        p = p / p.sum()
        object.__setattr__(self, "support", s)
        object.__setattr__(self, "probs", p)

    def mean(self) -> float:
        return float(self.probs @ self.support)

    def var(self) -> float:
        m = self.mean()
        return float(self.probs @ (self.support - m) ** 2)

    def cdf(self) -> np.ndarray:
        return np.cumsum(self.probs)

    def scaled(self, factor: float) -> "Pmf":
        """Distribution of ``factor * X``; requires ``factor > 0``."""
        if not factor > 0:
            raise ValueError("scale factor must be positive")
        return Pmf(self.support * factor, self.probs)


def point_mass(x: float) -> Pmf:
    return Pmf(np.array([float(x)]), np.array([1.0]))


def empirical_pmf(samples) -> Pmf:
    """Empirical distribution of a sample set (ties merged)."""
    xs = np.asarray(samples, dtype=float).ravel()
    if xs.size == 0:
        raise ValueError("empty sample set")
    support, counts = np.unique(xs, return_counts=True)
    return Pmf(support, counts / xs.size)
