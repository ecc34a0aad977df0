"""Span tracer for the per-layer benchmark run, installed from outside the package.

Each wrapped function records a span (name, start, end, parent span, sample)
and the work its arguments imply.  Wrappers replace the module attribute that
callers resolve at call time, so ``model.transient_law`` and the by-name
imports ``experiments.empirical_pmf`` and ``stein.w1_discrete_vs_gaussian``
are all seen.  The package itself is not modified; ``uninstall`` restores the
original functions.

Work counts are computed from the call arguments with the rule each function
uses, not measured, so they repeat exactly from run to run.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from collections import Counter, defaultdict

import numpy as np
from scipy.stats import poisson

from noisyvoter import diffusion, experiments, model, pmf, stein, transport


def _transient_law_work(params, start, t, tol=1e-9, cap=model.DENSE_LAW_CAP):
    """Poisson-truncated uniformization steps, by the rule transient_law uses."""
    n = params.n
    if n > cap or t < 0 or not 0 < tol <= 1e-6:
        return {}  # the call itself raises
    ks = np.arange(n + 1, dtype=float)
    up = (n - ks) * (params.a + ks) / n
    down = ks * (params.b + n - ks) / n
    mu = 1.05 * float((up + down).max()) * t
    steps = int(poisson.isf(tol / 4, mu)) + 2 if mu > 0 else 0
    return {"unif_steps": steps, "state_points": n + 1}


def _count_batch_work(params, k0, horizons, rng):
    return {"replica_horizons": np.atleast_1d(k0).size * np.atleast_1d(horizons).size}


def _blocks_batch_work(params, part, x0, horizons, rng):
    return {"replica_horizons": len(x0) * np.atleast_1d(horizons).size}


def _simulate_wf_work(params, m0, t, dt, rng, n_paths=None):
    if dt is None:
        dt = min(1e-3, t / 100) if t > 0 else 1e-3
    if not (t >= 0 and dt > 0):
        return {}
    paths = n_paths if n_paths is not None else np.size(m0)
    return {"path_steps": paths * math.ceil(t / dt)}


def _matching_work(xs, ys, metric="euclidean", cap=transport.MATCHING_CAP):
    size = len(xs)
    return {"pairs": size, "cost_cells": size * size}


def _w1_discrete_work(p, q):
    return {"support_points": p.support.size + q.support.size}


def _w1_sorted_work(xs, ys, x_weights=None, y_weights=None):
    return {"support_points": np.size(xs) + np.size(ys)}


def _pushforward_work(xs, ys, map_fn, lip_tol=1e-9):
    return {"support_points": len(xs) + len(ys)}


def _stein_solve_work(prob, grid):
    return {"grid_points": np.size(grid)}


def _empirical_pmf_work(samples, weights=None):
    return {"samples": np.size(samples)}


# Name of the spans that time the tracer's own work counting.
TRACING_SPAN = "tracing"

# (module, attribute, span name, work counter).  One span name may sit on
# several attributes when a function is also imported by name elsewhere.
TARGETS = (
    (experiments, "run", "experiments.runner", None),
    (experiments, "write_results", "experiments.io", None),
    (experiments, "write_manifest", "experiments.io", None),
    (experiments, "empirical_pmf", "pmf.empirical_pmf", _empirical_pmf_work),
    (pmf, "empirical_pmf", "pmf.empirical_pmf", _empirical_pmf_work),
    (model, "transient_law", "model.transient_law", _transient_law_work),
    (model, "simulate_blocks_batch", "model.simulate_blocks_batch", _blocks_batch_work),
    (model, "simulate_count_batch", "model.simulate_count_batch", _count_batch_work),
    (model, "sample_uniform_given_count", "model.sample_uniform_given_count", None),
    (model, "stationary_pmf", "model.stationary_pmf", None),
    (model, "couple_by_block_counts", "model.couple_by_block_counts", None),
    (diffusion, "simulate_wf", "diffusion.simulate_wf", _simulate_wf_work),
    (diffusion, "derivative_decay_probe", "diffusion.derivative_decay_probe", None),
    (transport, "w1_matching", "transport.w1_matching", _matching_work),
    (transport, "w1_discrete", "transport.w1_discrete", _w1_discrete_work),
    (transport, "w1_sorted", "transport.w1_sorted", _w1_sorted_work),
    (transport, "pushforward_check", "transport.pushforward_check", _pushforward_work),
    (transport, "w1_discrete_vs_gaussian", "transport.w1_discrete_vs_gaussian", None),
    (stein, "w1_discrete_vs_gaussian", "transport.w1_discrete_vs_gaussian", None),
    (stein, "stein_solve", "stein.stein_solve", _stein_solve_work),
    (stein, "hypergeom_zeta_pmf", "stein.hypergeom_zeta_pmf", None),
    (stein, "exclusion_stein_residual", "stein.exclusion_stein_residual", None),
)


class Tracer:
    """In-memory span recorder; one sample is one scenario run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, sample]
        self.counts = []  # per sample: Counter of "<span>.<work>" -> count
        self._stack = []
        self._saved = []

    def new_sample(self) -> None:
        self.counts.append(Counter())

    def _wrap(self, name, fn, work):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sample = len(self.counts) - 1
            parent = self._stack[-1] if self._stack else None
            counts = self.counts[sample]
            counts[name + ".calls"] += 1
            if work is not None:
                # a span of its own, so the caller's self time does not include it
                begin = time.perf_counter()
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in work(**bound.arguments).items():
                    counts[f"{name}.{key}"] += int(value)
                self.spans.append([TRACING_SPAN, begin, time.perf_counter(), parent, sample])
            index = len(self.spans)
            span = [name, 0.0, 0.0, parent, sample]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()

        return wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrapped = {}
        for module, attr, name, work in TARGETS:
            original = getattr(module, attr)
            if original not in wrapped:
                wrapped[original] = self._wrap(name, original, work)
            self._saved.append((module, attr, original))
            setattr(module, attr, wrapped[original])

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def self_times(self) -> list[dict[str, float]]:
        """Per sample, each span name's total duration minus the part of its
        interval that its child spans cover."""
        children = defaultdict(list)
        for index, span in enumerate(self.spans):
            if span[3] is not None:
                children[span[3]].append(index)
        out = [defaultdict(float) for _ in self.counts]
        for index, (name, start, end, _parent, sample) in enumerate(self.spans):
            covered, reach = 0.0, start
            for lo, hi in sorted((self.spans[c][1], self.spans[c][2]) for c in children[index]):
                lo, hi = max(lo, reach), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[sample][name] += (end - start) - covered
        return out

    def dump(self) -> dict:
        keys = ("name", "start", "end", "parent", "sample")
        return {"spans": [dict(zip(keys, span)) for span in self.spans],
                "counts": [dict(c) for c in self.counts]}
