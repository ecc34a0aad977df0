"""Runner tests: config handling, determinism, exit codes, mutation."""

import ast
import contextlib
import csv
import importlib.util
import inspect
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tomllib
import tracemalloc
import warnings
from collections import Counter
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import sparse
from scipy.linalg import expm
from scipy.optimize import brentq, linprog
from scipy.stats import hypergeom

import noisyvoter
from noisyvoter import cli, diffusion, experiments, model, stein, transport
from noisyvoter.errors import ConfigError
from noisyvoter.diffusion import WFParams, wf_marginal
from noisyvoter.experiments import (
    ExperimentConfig,
    config_from_json,
    replica_stream,
    run,
    run_mixing_curve,
    run_profile,
    run_qclt_rate,
    run_thermalize,
    run_validate,
    thermalize_distance,
)
from noisyvoter.pmf import Pmf, point_mass
from noisyvoter.transport import (
    MATCHING_CAP,
    _w1_vs_wf_search,
    w1_discrete,
    w1_discrete_vs_wf,
    w1_matching,
)
from oracles import block_rates


# a and b log-uniform on [1e-3, 1e3]
_LOG_AB = st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)


def _joined(values) -> str:
    return ",".join(repr(v) for v in values)


@st.composite
def _extreme_start_args(draw):
    """CLI arguments of an exact scenario from a start within 0.05 of 0 or 1:
    profile and mixing-curve at any n in 8-64, qclt-rate over a dyadic sweep
    there; a and b log-uniform on [0.05, 20]; every time grid holds 0."""
    scenario = draw(st.sampled_from(["profile", "mixing-curve", "qclt-rate"]))
    m0 = draw(st.floats(0.0, 0.05, exclude_min=True) | st.floats(0.95, 1.0, exclude_max=True))
    a, b = (math.exp(draw(st.floats(math.log(0.05), math.log(20.0)))) for _ in range(2))
    times = st.floats(0.02, 3.0)
    if scenario == "qclt-rate":
        n0 = draw(st.sampled_from([8, 16]))
        ns, grid = (n0, 2 * n0, 4 * n0), (draw(st.just(0.0) | times),)
    else:
        sizes = draw(st.lists(st.integers(8, 64), min_size=1 if scenario == "profile" else 2,
                              max_size=3, unique=True))
        ns = sorted(sizes)
        grid = (0.0, *sorted(draw(st.lists(times, min_size=1, max_size=3, unique=True))))
    return [scenario, "--n", _joined(ns), "--m0", repr(m0), "--a", repr(a), "--b", repr(b),
            "--grid", _joined(grid)]


@st.composite
def _any_config_args(draw):
    """CLI arguments that set every config field of a random scenario, mostly
    valid: sizes up to 64 (one for thermalize, at least two for
    mixing-curve, a dyadic sweep for most qclt-rate draws), a and b
    log-uniform on [1e-300, 1e308], tol log-uniform on [1e-16, 1e-6], m0
    near 0 or 1 or inside, sorted time grids, and the fewest samples and
    repetitions that thermalize accepts.  About one draw in ten breaks one
    rule on purpose: an exact m0 of 0 or 1, an unsorted grid, a start count
    where no scenario reads it, too few samples or repetitions, a size that
    thermalize or qclt-rate refuses."""
    scenario = draw(st.sampled_from(list(experiments.SCENARIOS)))
    sizes = st.integers(1, 64)
    broken = draw(st.integers(0, 9)) == 0
    if scenario == "qclt-rate" and not broken:
        n0 = draw(st.integers(1, 16))
        ns = [n0, 2 * n0, 4 * n0]
    elif scenario == "thermalize" and not broken:
        # m0(1 - m0) >= n^(-1/3) holds at n <= 64 only for n = 64 and m0 = 1/2
        ns = [64]
    else:
        ns = draw(st.lists(sizes, min_size=1 + (scenario == "mixing-curve"),
                           max_size=1 if scenario == "thermalize" else 3))
    a, b = (10.0 ** draw(st.floats(-300.0, 308.0)) for _ in range(2))
    m0 = (0.5 if scenario == "thermalize" else
          draw(st.floats(1e-6, 1e-2) | st.floats(0.99, 1.0 - 1e-6) | st.floats(0.0, 1.0)))
    args = [scenario, "--n", _joined(ns), "--a", repr(a), "--b", repr(b),
            "--m0", repr(draw(st.sampled_from([0.0, 1.0])) if broken else m0),
            "--tol", repr(10.0 ** draw(st.floats(-16.0, -6.0))),
            "--samples", str(draw(st.integers(99 if broken else 100, 110))),
            "--repetitions", str(draw(st.integers(1 if broken else 2, 3))),
            "--seed", str(draw(st.integers(0, 3)))]
    if draw(st.booleans()) and (broken or scenario == "stein-rate"):
        args += ["--ell", str(draw(st.integers(0, 64)))]
    if draw(st.booleans()):
        low = -0.6 if scenario == "thermalize" else 0.0
        grid = draw(st.lists(st.floats(low, 3.0), min_size=1, max_size=4, unique=True))
        args.append("--grid=" + _joined(grid if broken else sorted(grid)))
    if draw(st.booleans()):
        eps = draw(st.lists(st.floats(1e-4, 0.5), min_size=1, max_size=3, unique=True))
        args.append("--eps=" + _joined(eps))
    return args


_MOVES = ((1, 0), (0, 1), (-1, 0), (0, -1))  # the order of block_rates


def _two_block_generator(params, part):
    """Dense generator of the two-block chain on the (x0, x1) grid of shape
    (n0 + 1, n1 + 1), states in C order, and that shape."""
    shape = (part.n0 + 1, part.n1 + 1)
    gen = np.zeros((np.prod(shape), np.prod(shape)))
    for i, x in enumerate(np.ndindex(shape)):
        for rate, (d0, d1) in zip(block_rates(params, part, x), _MOVES):
            if rate > 0:
                gen[i, np.ravel_multi_index((x[0] + d0, x[1] + d1), shape)] = rate
    gen -= np.diag(gen.sum(axis=1))
    return gen, shape


def _uniform_start(part, ell, shape):
    """Law on the grid of the block counts of ell particles at uniform sites."""
    x0, x1 = np.indices(shape)
    return np.where(x0 + x1 == ell, hypergeom(part.n, part.n1, ell).pmf(x1), 0.0).ravel()


def _thermalize_lp_distances(n, ell, a, b, times):
    """l1 Kantorovich distances, over sqrt(n), between the exact two-block
    laws at each time from the fixed start (0, ell) and the uniform start:
    the laws by expm of the dense generator, the distance as a min-cost flow
    on the grid graph (HiGHS)."""
    params, part = model.ModelParams(n, a, b), model.BlockPartition(n - ell, ell)
    gen, shape = _two_block_generator(params, part)
    states = list(np.ndindex(shape))
    fixed = np.zeros(len(states))
    fixed[np.ravel_multi_index((0, ell), shape)] = 1.0
    uniform = _uniform_start(part, ell, shape)
    edges = [(np.ravel_multi_index(x, shape), np.ravel_multi_index((x[0] + d0, x[1] + d1), shape))
             for x in states for d0, d1 in _MOVES
             if 0 <= x[0] + d0 < shape[0] and 0 <= x[1] + d1 < shape[1]]
    src, dst = np.array(edges).T
    cols = np.arange(len(edges))
    flow = sparse.csr_matrix((np.r_[np.ones(len(edges)), -np.ones(len(edges))],
                              (np.r_[src, dst], np.r_[cols, cols])),
                             shape=(len(states), len(edges)))
    out = []
    for t in times:
        step = expm(gen * t)
        lp = linprog(np.ones(len(edges)), A_eq=flow, b_eq=fixed @ step - uniform @ step,
                     bounds=(0, None), method="highs",
                     options={"primal_feasibility_tolerance": 1e-10,
                              "dual_feasibility_tolerance": 1e-10})
        assert lp.status == 0
        out.append(lp.fun / np.sqrt(n))
    return out


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestConfig:
    def test_json_roundtrip_with_overrides(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "scenario": "thermalize",
            "params": {"n": 500, "a": 1.0, "b": 1.0, "m0": 0.5},
            "grid": [0.0, 1.0],
            "samples": 150,
            "seed": 9,
            "out": str(tmp_path / "o"),
        }))
        args = cli.build_parser().parse_args(
            ["thermalize", "--config", str(cfg_path), "--seed", "10"])
        cfg = cli.load_config(args)
        assert cfg.seed == 10           # flag wins over the file
        assert cfg.n == (500,)
        assert cfg.samples == 150

    def test_unknown_keys_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"scenario": "profile", "bogus": 1}))
        with pytest.raises(ConfigError):
            config_from_json(p)
        # a misspelt model parameter is not silently left at its default
        p.write_text(json.dumps({"scenario": "profile", "params": {"n": 48, "m_0": 0.2}}))
        with pytest.raises(ConfigError, match="m_0"):
            config_from_json(p)
        for bad in ([1, 2], {"scenario": "profile", "params": 5}):
            p.write_text(json.dumps(bad))
            with pytest.raises(ConfigError, match="JSON object"):
                config_from_json(p)

    @pytest.mark.parametrize("kwargs", [
        dict(scenario="nope"),
        dict(scenario="profile", n=(0,)),
        dict(scenario="profile", a=-1.0),
        dict(scenario="profile", m0=0.0),
        dict(scenario="thermalize", n=(400,), samples=50),
        dict(scenario="profile", grid=(1.0, 0.5)),
        dict(scenario="thermalize", n=(100, 200)),
        dict(scenario="thermalize", n=(10000,), grid=(-20.0,)),
        dict(scenario="qclt-rate", n=(128, 256)),
        dict(scenario="qclt-rate", n=(128, 200, 400), grid=(1.0,)),
        dict(scenario="mixing-curve", n=(64,)),
        dict(scenario="profile", seed=-1),
        dict(scenario="qclt-rate", n=(32, 64, 128), tol=0.0),
        dict(scenario="qclt-rate", n=(32, 64, 128), tol=1e-3),
        dict(scenario="stein-rate", n=(16,), ell=40),
        dict(scenario="stein-rate", n=(1,)),
        dict(scenario="thermalize", n=(400,), samples=0),
        dict(scenario="mixing-curve", n=(32, 64), eps=(0.0, 0.1)),
        dict(scenario="mixing-curve", n=(32, 64), eps=(0.05, 0.05)),
        dict(scenario="mixing-curve", n=(32, 64), grid=(-0.5, 1.0)),
        dict(scenario="profile", n=(48,), grid=(0.2, float("nan"))),
        dict(scenario="thermalize", n=(400,), grid=(float("nan"),)),
        dict(scenario="thermalize", n=(400,), grid=(0.0, float("inf"))),
        # whole-number fields reject fractions instead of truncating them
        dict(scenario="thermalize", n=(400,), samples=150.5),
        dict(scenario="thermalize", n=(400,), repetitions=2.5),
        dict(scenario="profile", n=100.7),
        dict(scenario="stein-rate", n=(64,), ell=10.6),
        dict(scenario="profile", seed=1.5),
        dict(scenario="mixing-curve", n=(32, 64.5)),
        # numbers must be numbers, and list fields lists
        dict(scenario="profile", a="1"),
        dict(scenario="profile", m0=True),
        dict(scenario="profile", grid=0.1),
        dict(scenario="profile", grid=("0.1",)),
        dict(scenario="profile", samples=None),
        dict(scenario="profile", out=5),
        # ell only where it sets the start: thermalize and single-size stein-rate
        dict(scenario="profile", n=(100,), ell=10),
        dict(scenario="mixing-curve", n=(32, 64), ell=3),
        dict(scenario="qclt-rate", n=(32, 64, 128), ell=3),
        dict(scenario="stein-rate", n=(64, 128), ell=3),
        dict(scenario="validate", ell=3),
    ])
    def test_invalid_configs(self, kwargs):
        kwargs.setdefault("samples", 200)
        with pytest.raises(ConfigError):
            ExperimentConfig(**kwargs)

    def test_whole_numbers_and_ell(self):
        cfg = ExperimentConfig(scenario="thermalize", n=400.0, ell=100, samples=150.0,
                               repetitions=2, seed=np.int64(3))
        assert cfg.n == (400,) and cfg.samples == 150 and isinstance(cfg.samples, int)
        assert cfg.particle_count(400) == 100
        cfg = ExperimentConfig(scenario="stein-rate", n=(64,), ell=10)
        assert cfg.particle_count(64) == 10
        cfg = ExperimentConfig(scenario="stein-rate", n=(64, 128), m0=0.3)
        assert [cfg.particle_count(n) for n in cfg.n] == [19, 38]

    def test_samples_and_repetitions_bind_only_thermalize(self, tmp_path):
        # thermalize is the one scenario that reads them; the others take any
        # integer, and the type checks stay global
        for scenario in ("profile", "validate"):
            ExperimentConfig(scenario=scenario, samples=0, repetitions=1)
        with pytest.raises(ConfigError, match="repetitions"):
            ExperimentConfig(scenario="thermalize", n=(400,), samples=200, repetitions=1)
        with pytest.raises(ConfigError):
            ExperimentConfig(scenario="validate", samples=0.5)
        assert cli.main(["validate", "--samples", "0", "--out", str(tmp_path)]) == 0

    def test_version_matches_pyproject(self, tmp_path):
        with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
            assert noisyvoter.__version__ == tomllib.load(fh)["project"]["version"]
        cfg = ExperimentConfig(scenario="stein-rate", n=(16,), out=str(tmp_path))
        assert run(cfg) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["artifact_version"] == noisyvoter.__version__

    def test_thermalize_density_floor(self):
        # m0(1-m0) >= n^(-1/3) must hold for the thermalization scenario
        with pytest.raises(ConfigError):
            ExperimentConfig(scenario="thermalize", n=(1000,), m0=0.01, samples=200)

    def test_replica_streams_are_independent_and_stable(self):
        a = replica_stream(7, "thermalize", 0).standard_normal(4)
        b = replica_stream(7, "thermalize", 0).standard_normal(4)
        c = replica_stream(7, "thermalize", 1).standard_normal(4)
        np.testing.assert_array_equal(a, b)
        assert not np.allclose(a, c)


# One planted defect per validate row, each in the function the row guards.
# Each original is bound as a default argument, so a defect calls the real
# function while the attribute is patched.
def _open_end(params, k, rates=model.count_rates):
    # births at (n - k + 1)(a + k)/n: the end k = n is left open
    up, down = rates(params, k)
    return up + (params.a + np.asarray(k)) / params.n, down


def _zeta_over_n_minus_1(n, ell, zeta=stein.hypergeom_zeta_pmf):
    # Z = (Y - ell^2/n) / sqrt(n - 1), not / sqrt(n)
    pmf = zeta(n, ell)
    return Pmf(pmf.support * np.sqrt(n / (n - 1)), pmf.probs)


def _mean_over_n_minus_1(xs, ys, w1=transport.w1_sorted):
    return w1(xs, ys) * len(xs) / (len(xs) - 1)


def _cityblock(xs, ys, metric="euclidean", w1=transport.w1_matching):
    return w1(xs, ys, "cityblock")


def _f_bound_times_nu(sol, nu, margins=stein.stein_bound_margins):
    # ||f|| <= 2 nu ||h'||, a nu the bound does not have
    return {**margins(sol, nu), "f": 2.0 * nu * sol.h_deriv_sup - float(np.max(np.abs(sol.f)))}


def _births_one_too_many(n, ell, f):
    # the up rate (ell - Y)(ell - Y + 1)/n, not (ell - Y)^2/n
    y, z = stein.zeta_support(n, ell)
    step, fz = 1.0 / np.sqrt(n), np.asarray(f(z), float)
    return (y * (n - 2 * ell + y) / n * (np.asarray(f(z - step), float) - fz)
            + (ell - y) * (ell - y + 1) / n * (np.asarray(f(z + step), float) - fz))


def _half_residual_bound(n, ell, f, df, d2f, d3f, residual=stein.exclusion_stein_residual):
    # the bound's constants 1/2 and 1/3 read as 1/4 and 1/6
    res = residual(n, ell, f, df, d2f, d3f)
    return stein.ExclusionResidual(res.y, res.z, res.residual, res.bound / 2)


def _two_cov_terms(var_x, var_y, cov_yz, var_z, bound=diffusion.gaussian_coupling_bound):
    # 2 cov_yz^2 / var_z in the bound, not 3
    return bound(var_x, var_y, cov_yz, var_z) - cov_yz ** 2 / var_z


def _unscaled_derivative(params, coef, t, order=0, semigroup=diffusion.wf_semigroup):
    # d^k P_t f without its factor e^{lambda_k t}
    lam = order * (order - 1 + params.a + params.b)
    return semigroup(params, coef, t, order) * np.exp(-lam * t)


def _variance_at_twice_the_time(params, m0, t, variance=model.density_variance):
    return variance(params, m0, 2.0 * t)


def _threshold_at_or_below(part, x, y, ranks):
    # occupied where the rank is at most the count, not below it
    return tuple((np.asarray(ranks) <= np.repeat(c, (part.n0, part.n1))).astype(np.int8)
                 for c in (x, y))


def _block_1_from_block_0(part, x, y, ranks, couple=model.couple_by_block_counts):
    # block 1 ranked by the order of block 0's first n1 sites
    ranks = np.array(ranks)
    ranks[..., part.n0:] = np.argsort(np.argsort(ranks[..., :part.n1], axis=-1), axis=-1)
    return couple(part, x, y, ranks)


# (row, module, attribute, defect, the other rows it fails)
PLANTED_DEFECTS = [
    ("rates-boundary", model, "count_rates", _open_end, []),
    ("uniform-start-variance", stein, "hypergeom_zeta_pmf", _zeta_over_n_minus_1, []),
    ("translation-1d", transport, "w1_sorted", _mean_over_n_minus_1, []),
    ("translation-2d", transport, "w1_matching", _cityblock, []),
    ("stein-bounds", stein, "stein_bound_margins", _f_bound_times_nu, []),
    # exclusion_stein_residual applies the same generator
    ("exclusion-stationarity", stein, "exclusion_apply", _births_one_too_many,
     ["exclusion-residual-bounds"]),
    ("exclusion-residual-bounds", stein, "exclusion_stein_residual", _half_residual_bound, []),
    ("coupling-disagreements", model, "couple_by_block_counts", _threshold_at_or_below,
     ["coupling-uniformity"]),
    ("coupling-uniformity", model, "couple_by_block_counts", _block_1_from_block_0, []),
    ("gaussian-coupling-bound", diffusion, "gaussian_coupling_bound", _two_cov_terms, []),
    ("derivative-decay", diffusion, "wf_semigroup", _unscaled_derivative, []),
    ("density-apriori", model, "density_variance", _variance_at_twice_the_time, []),
]


class TestExitCodes:
    def test_config_error_is_2(self, capsys):
        assert cli.main(["thermalize", "--samples", "10"]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["profile", "--seed", "-1"],
        ["qclt-rate", "--n", "32,64,100"],
        ["stein-rate", "--n", "16", "--ell", "40"],
        ["mixing-curve", "--n", "32,64", "--tol", "-5"],
        ["thermalize", "--n", "400", "--tau", "nan"],
        ["thermalize", "--n", "400", "--tau", "inf"],
        ["profile", "--n", "48", "--grid", "0.2,nan"],
        # ell where no start count would read it
        ["profile", "--n", "100", "--ell", "10"],
        ["mixing-curve", "--n", "32,64", "--ell", "3"],
        ["qclt-rate", "--n", "32,64,128", "--ell", "3"],
        ["stein-rate", "--n", "64,128,256", "--ell", "3"],
        ["validate", "--ell", "3"],
        # n*t overflows to inf
        ["profile", "--n", "64", "--grid", "1e308"],
        ["mixing-curve", "--n", "32,64", "--grid", "0.01,1e307"],
        # at t = 0 every qclt-rate distance is 0, so no slope can be fitted
        ["qclt-rate", "--n", "32,64,128", "--grid", "0"],
    ])
    def test_bad_field_values_exit_2(self, args, tmp_path, capsys):
        # rejected by the config, not by a traceback from the run
        assert cli.main(args + ["--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_profile_at_16384_exits_0(self, tmp_path):
        # the closed-form eigenvalues keep the count laws inside the default
        # tol at n = 16384, off-centre starts included
        assert cli.main(["profile", "--n", "16384", "--m0", "0.1", "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("scenario,params,top", [
        ("thermalize", {"n": 400}, {"samples": 150.5}),
        ("thermalize", {"n": 400}, {"repetitions": 2.5}),
        ("profile", {"n": 48, "a": "1"}, {}),
        ("profile", {"n": 48}, {"grid": 0.1}),
        ("profile", {"n": 100.7}, {}),
        ("stein-rate", {"n": 64, "ell": 10.6}, {}),
        ("profile", {"n": 48}, {"seed": 1.5}),
    ])
    def test_bad_json_values_exit_2(self, scenario, params, top, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"scenario": scenario, "params": params, **top}))
        assert cli.main([scenario, "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    def test_retired_wf_dt_key_exits_2(self, tmp_path, capsys):
        # the Euler step of the old diffusion reference is no longer a config key
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"scenario": "qclt-rate", "params": {"n": [32, 64, 128]},
                                        "wf_dt": 1e-3}))
        assert cli.main(["qclt-rate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
        assert "unknown config keys: ['wf_dt']" in capsys.readouterr().err

    def test_negative_list_values_parse(self, tmp_path):
        # the README synopsis: a list starting with a negative value
        args = ["thermalize", "--n", "400", "--tau", "-1,0,1", "--samples", "100",
                "--repetitions", "2", "--out", str(tmp_path)]
        assert cli.main(args) == 0
        rows = (tmp_path / "results.csv").read_text().splitlines()[1:]
        assert sorted({float(r.split(",")[5]) for r in rows}) == [-1.0, 0.0, 1.0]

    def test_bad_negative_values_exit_2(self, tmp_path, capsys):
        assert cli.main(["mixing-curve", "--n", "32,64", "--eps", "-0.1,0.1",
                         "--out", str(tmp_path)]) == 2
        assert "eps" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            cli.main(["thermalize", "--tau", "-1,x"])
        assert exc.value.code == 2
        assert "argument --tau" in capsys.readouterr().err

    def test_capacity_error_is_3(self, tmp_path, capsys):
        # a tail start above the cap (k0 = 1 at n = 8192, a-priori bound 1.4e12)
        code = cli.main(["mixing-curve", "--n", "8192,16384", "--a", "20", "--b", "20",
                         "--m0", str(1 / 8192), "--out", str(tmp_path)])
        assert code == 3
        # a first grid time so small that the slow modes outgrow the memory budget
        code = cli.main(["mixing-curve", "--n", "32,65536", "--tol", "1e-8",
                         "--grid", "1e-6,0.5,1,2", "--out", str(tmp_path)])
        assert code == 3
        assert "eigenmodes" in capsys.readouterr().err

    def test_profile_above_the_cap(self, tmp_path, capsys):
        # above the cap the laws stay exact and spectral at the default tol;
        # a tail start that the a-priori bound rejects cannot be uniformized
        # there, so it stops the run with exit 3 and names the bound
        args = ["profile", "--n", "8192", "--out", str(tmp_path)]
        assert cli.main(args) == 0
        rows = list(csv.DictReader((tmp_path / "results.csv").read_text().splitlines()))
        assert len(rows) == 48 and {r["stderr"] for r in rows} == {"0.0"}
        info = json.loads((tmp_path / "manifest.json").read_text())["exact_laws"]["8192"]
        assert info["spectral"] == 24 and 0 < info["modes"] < 8193
        assert 0 < info["apriori_bound"] <= 1e-9
        assert cli.main(args + ["--a", "20", "--b", "20", "--m0", str(1 / 8192)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("capacity error: ") and "a-priori error bound 1.4e+12" in err
        # no allowed tol (at most 1e-6) passes a bound of this size
        assert "only a larger tol can pass" not in err
        assert "rounding term alone needs tol >= 1.4e+12" in err

    def test_every_config_field_has_a_flag(self):
        # a flag without a field, or a field without a flag, can only be set
        # one way, or not at all
        flags = {action.dest for action in cli.build_parser()._actions if action.option_strings}
        settable = {field.name for field in fields(ExperimentConfig)} - {"scenario"}
        assert flags - {"help", "config"} == settable

    def test_flags_are_the_config_fields_and_one_alias(self):
        # one --<field> flag per field; besides them only --config and the
        # --tau alias of grid; the scenario choices are the scenario table
        parser = cli.build_parser()
        flags = [flag for action in parser._actions for flag in action.option_strings
                 if flag not in ("-h", "--help")]
        settable = [field.name for field in fields(ExperimentConfig) if field.name != "scenario"]
        assert sorted(flags) == sorted([f"--{name}" for name in settable] + ["--config", "--tau"])
        assert {a.dest for a in parser._actions if "--tau" in a.option_strings} == {"grid"}
        choices = next(a.choices for a in parser._actions if a.dest == "scenario")
        assert list(choices) == list(experiments.SCENARIOS)

    def test_thermalize_matching_cap_before_simulating(self, tmp_path, monkeypatch, capsys):
        # the cap on the matching size is checked before the event loop runs
        def spy(*args, **kwargs):
            raise AssertionError("simulated before the matching cap was checked")

        monkeypatch.setattr(model, "simulate_blocks_batch", spy)
        code = cli.main(["thermalize", "--n", "2000", "--samples", str(MATCHING_CAP + 1),
                         "--repetitions", "2", "--grid", "0", "--out", str(tmp_path)])
        assert code == 3
        assert capsys.readouterr().err == (f"capacity error: matching size {MATCHING_CAP + 1} "
                                           f"exceeds cap {MATCHING_CAP}\n")

    @pytest.mark.parametrize("args", [
        ["profile", "--n", "10", "--a", "1e100"],
        ["profile", "--n", "10", "--a", "1e308"],
        ["profile", "--n", "10", "--b", "1e200"],
        ["qclt-rate", "--n", "8,16,32", "--a", "1e200"],
    ])
    def test_huge_a_or_b_is_1(self, args, tmp_path, capsys):
        # the Wright-Fisher series overflows: a diagnostic, not a traceback
        assert cli.main(args + ["--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(
            "diagnostic error: Wright-Fisher series term 2 overflows at (a, b, m0, t) = ")

    def test_stein_rate_above_the_cap_is_3(self, tmp_path, capsys):
        # one support point above the cap: the check fires before the law's
        # arrays are allocated
        n = 2 * stein.ZETA_SUPPORT_CAP
        tracemalloc.start()
        try:
            code = cli.main(["stein-rate", "--n", str(n), "--out", str(tmp_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3 and peak < 2**20
        assert capsys.readouterr().err.startswith(
            f"capacity error: n={n} ell={n // 2} has {n // 2 + 1} support points")

    @pytest.mark.parametrize("args,code,err", [
        # the rates overflow float64
        (["mixing-curve", "--n", "32,64", "--a", "1e308"], 1,
         "diagnostic error: count rates overflow float64 at n=32 a=1e+308 b=1"),
        # sqrt(pi) underflows at the start, and the refill is over its step budget
        (["mixing-curve", "--n", "32,64", "--b", "1e200"], 3,
         "capacity error: uniformization for n=32 a=1 b=1e+200 over t=0.32 needs 3.36e+199 "
         "steps, over the budget of 2097152"),
        (["profile", "--n", "32", "--a", "1e15"], 3,
         "capacity error: uniformization for n=32 a=1e+15 b=1 over t=1.6 needs 1.68e+15 "),
        # 1 - tol/4 rounds to 1
        (["mixing-curve", "--n", "32,64", "--tol", "1e-16"], 1,
         "diagnostic error: tol=1e-16 is below what uniformization resolves"),
        # at n = 2 the decay rates times the time overflow to exp(-inf) = 0,
        # without a warning; n = 3 starts in the tail and is over the budget
        (["mixing-curve", "--n", "2,3", "--a", "1e306", "--m0", "0.99", "--grid", "0.5,300"], 3,
         "capacity error: uniformization for n=3 a=1e+306 b=1 over t=1.5 needs 1.58e+306 "),
        # b is below the rounding of b + n: the death rate at k = n is 0
        (["profile", "--n", "10", "--b", "1e-300"], 1,
         "diagnostic error: death rate at k = n rounds to 0 (b below the rounding of b + n) "
         "at n=10 a=1 b=1e-300"),
        # the products up(k) down(k+1) of the symmetrized generator overflow
        (["mixing-curve", "--n", "60,25", "--a", "2.8e199", "--b", "2.8e199", "--grid", "0"], 1,
         "diagnostic error: rate products up(k) down(k+1) overflow float64 at n=60"),
        # stein-rate reads neither a nor tol
        (["stein-rate", "--n", "64", "--a", "1e308"], 0, ""),
        (["stein-rate", "--n", "64", "--tol", "1e-16"], 0, ""),
    ])
    def test_extreme_exact_law_configs(self, args, code, err, tmp_path, capsys):
        assert cli.main(args + ["--out", str(tmp_path)]) == code
        assert capsys.readouterr().err.startswith(err)

    @pytest.mark.parametrize("args,failed", [
        # log pi reaches about 1e5 at n = 1000, so its rounding exceeds 1e-12,
        # and the expm reference of the block means is NaN
        (["--a", "1e300"], ["detailed-balance", "block-mean-identity"]),
        # b + n - n rounds to 0, and so does the death rate at k = n, so the
        # balance gap is inf; the Gronwall bound's factor 1 - exp(-2(a+b)t/n)
        # is taken by expm1, so it does not round to 0
        (["--a", "1e-300", "--b", "1e-300"], ["detailed-balance"]),
    ])
    def test_validate_at_extreme_a_and_b(self, args, failed, tmp_path, capsys):
        # every check measures; the ones that cannot resolve these rates fail
        assert cli.main(["validate", *args, "--out", str(tmp_path)]) == 4
        checks = json.loads((tmp_path / "validate_report.json").read_text())["checks"]
        assert [name for name, info in checks.items() if not info["passed"]] == failed
        assert math.isfinite(checks["density-apriori"]["measured"])

    @pytest.mark.parametrize("ab,want", [(1.0, -4.993331686627394e-07),
                                         (1e-20, -4.996668332667153e-07),
                                         (1e-300, -4.996668332667153e-07)])
    def test_density_apriori_at_small_a_and_b(self, ab, want):
        # 1 - exp(-2(a+b)t/n) rounds to 0 at a + b = 2e-20 and below, which
        # read 0.216 against a bound of 0; -expm1 keeps the bound, so the
        # row reads the variance's margin below it, as at a = b = 1
        cfg = ExperimentConfig(scenario="validate", a=ab, b=ab)
        assert experiments._density_apriori(cfg)[0] == pytest.approx(want, rel=1e-12, abs=0)

    def test_thermalize_event_budget_before_simulating(self, tmp_path, monkeypatch, capsys):
        def spy(*args, **kwargs):
            raise AssertionError("simulated before the event budget was checked")

        monkeypatch.setattr(model, "simulate_blocks_batch", spy)
        code = cli.main(["thermalize", "--n", "64", "--a", "1e300", "--b", "1e300",
                         "--grid", "0,1", "--samples", "100", "--repetitions", "2",
                         "--out", str(tmp_path)])
        assert code == 3
        assert capsys.readouterr().err.startswith(
            "capacity error: 200 replicas at n=64 a=1e+300 b=1e+300 to t=1.69315 expect up to "
            "1.69e+300 events each")

    @pytest.mark.parametrize("n,a,samples,reps,taus", [
        (10_000, 1.0, 2000, 10, (-1.0, 0.0, 1.0)),  # criterion 5
        (64, 1e5, 100, 2, (0.0, 1.0)),
        (500, 1.0, 600, 3, (-1.0, 0.0, 1.0)),  # the thermalize-cloud benchmark
        (400, 1.0, 2000, 10, (-1.0, 0.0, 1.0)),  # the defaults at n = 400
    ])
    def test_thermalize_event_budget_admits(self, n, a, samples, reps, taus):
        params = model.ModelParams(n, a, a)
        horizon = experiments.thermalization_times(n, n // 2, taus)[-1]
        model.check_event_budget(params, horizon, samples * reps)

    @given(_any_config_args())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_no_traceback_from_any_config(self, args):
        # every run ends with a documented exit code: no exception escapes
        # cli.main, and no numeric warning is raised in the package
        with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(io.StringIO()), \
                contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(args + ["--out", out]) in (0, 1, 2, 3, 4)

    def test_crossings_before_the_first_grid_time(self, tmp_path):
        # every eps is crossed before t = 0.01, the first grid time: each
        # crossing is bracketed from t = 0, the start's point mass, and at
        # b >> a the curve is the mean's decay |m0 - a/(a+b)| e^{-(a+b) t}
        a, b = 1e-3, 1e3
        args = ["mixing-curve", "--n", "8,16", "--a", repr(a), "--b", repr(b)]
        assert cli.main(args + ["--out", str(tmp_path)]) == 0
        rows = [r for r in csv.DictReader((tmp_path / "results.csv").read_text().splitlines())
                if r["scenario"] == "mixing-curve"]
        assert len(rows) == 6
        for r in rows:
            want = math.log(abs(0.5 - a / (a + b)) / float(r["t_or_tau"])) / (a + b)
            assert float(r["estimate"]) == pytest.approx(want, rel=1e-9)

    def test_diagnostic_error_is_1(self, tmp_path, capsys):
        # grid too short to reach the smallest eps
        code = cli.main(["mixing-curve", "--n", "32,64", "--grid", "0.01,0.02",
                         "--out", str(tmp_path)])
        assert code == 1

    def test_validate_failure_is_4(self, tmp_path, monkeypatch):
        def corrupted(params, k):
            # flipped sign on a: breaks reversibility against the exact pmf
            return ((params.n - k) * (-params.a + k) / params.n,
                    k * (params.b + params.n - k) / params.n)

        monkeypatch.setattr(model, "count_rates", corrupted)
        cfg = ExperimentConfig(scenario="validate", samples=100, out=str(tmp_path))
        code = run(cfg)
        assert code == 4
        report = json.loads((tmp_path / "validate_report.json").read_text())
        assert not report["checks"]["detailed-balance"]["passed"]

    def test_wrong_stein_solution_is_4(self, tmp_path, monkeypatch, capsys):
        # every Stein solution 0.1% off: the bounds keep their margins, and
        # only the ODE residual of stein-identity sees it
        cells = stein._stein_cells

        def scaled(prob, lattice):
            values, e_h = cells(prob, lattice)
            return 1.001 * values, e_h

        monkeypatch.setattr(stein, "_stein_cells", scaled)
        assert cli.main(["validate", "--out", str(tmp_path)]) == 4
        assert "FAIL stein-identity" in capsys.readouterr().out
        report = json.loads((tmp_path / "validate_report.json").read_text())
        assert [name for name, info in report["checks"].items()
                if not info["passed"]] == ["stein-identity"]

    def test_contraction_failure_is_4(self, tmp_path, monkeypatch, capsys):
        # a matching that reads half its value breaks d1 <= d2: the
        # pushforward-contraction row must fail, not the check's helper
        matching = experiments.transport.w1_matching
        monkeypatch.setattr(experiments.transport, "w1_matching",
                            lambda *args, **kwargs: 0.5 * matching(*args, **kwargs))
        args = ["validate", "--samples", "100", "--out", str(tmp_path)]
        assert cli.main(args) == 4
        assert "FAIL pushforward-contraction" in capsys.readouterr().out
        report = json.loads((tmp_path / "validate_report.json").read_text())
        assert not report["checks"]["pushforward-contraction"]["passed"]

    def test_eigensolver_failure_is_1(self, tmp_path, monkeypatch, capsys):
        # 5 slow modes take the dstein route at n = 32 and 64 (the recurrence
        # at 128); an eigensolver failure names n, modes and LAPACK's info,
        # no traceback
        def failed(d, e, w, iblock, isplit):
            return np.zeros((d.size, w.size), order="F"), 1

        monkeypatch.setattr(model, "dstein", failed)
        args = ["qclt-rate", "--n", "32,64,128", "--grid", "1", "--out", str(tmp_path)]
        assert cli.main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("diagnostic error: ")
        assert "n=32, 5 modes" in err and "info=1" in err

    def test_block_mean_rate_failure_is_4(self, tmp_path, monkeypatch):
        # block offsets relaxing at rate 1, without the (a+b)/n of the noise,
        # keep the weighted mean exact: only the per-block comparison sees it
        def slow(params, part, t):
            _, a1 = part.weights
            m, decay = model.mean_ode(params, a1, t), np.exp(-t)
            return m - a1 * decay, m + (1.0 - a1) * decay

        monkeypatch.setattr(model, "block_mean_ode", slow)
        cfg = ExperimentConfig(scenario="validate", samples=100, out=str(tmp_path))
        assert run(cfg) == 4
        checks = json.loads((tmp_path / "validate_report.json").read_text())["checks"]
        assert [k for k, info in checks.items() if not info["passed"]] == ["block-mean-identity"]

    @pytest.mark.parametrize("row,module,attr,defect,also", PLANTED_DEFECTS,
                             ids=[case[0] for case in PLANTED_DEFECTS])
    def test_planted_defect_fails_its_row(self, tmp_path, monkeypatch, row, module, attr,
                                          defect, also):
        monkeypatch.setattr(module, attr, defect)
        cfg = ExperimentConfig(scenario="validate", samples=100, out=str(tmp_path))
        assert run(cfg) == 4
        checks = json.loads((tmp_path / "validate_report.json").read_text())["checks"]
        failed = [k for k, info in checks.items() if not info["passed"]]
        assert sorted(failed) == sorted([row, *also])

    @pytest.mark.parametrize("row", range(len(experiments._VALIDATE_CHECKS)),
                             ids=[name for name, _, _ in experiments._VALIDATE_CHECKS])
    def test_validate_passes_iff_measured_within_tolerance(self, tmp_path, monkeypatch, row):
        # every measure stubbed: at its tolerance every check passes; one ulp
        # above it that check alone fails, and its row reports that tolerance
        at_tol = [(name, tol, lambda cfg, tol=tol: tol)
                  for name, tol, _ in experiments._VALIDATE_CHECKS]
        monkeypatch.setattr(experiments, "_VALIDATE_CHECKS", tuple(at_tol))
        assert run(ExperimentConfig(scenario="validate", out=str(tmp_path / "at"))) == 0
        name, tol, _ = at_tol[row]
        over = np.nextafter(tol, np.inf)
        at_tol[row] = (name, tol, lambda cfg: (over, "one ulp over"))
        monkeypatch.setattr(experiments, "_VALIDATE_CHECKS", tuple(at_tol))
        assert run(ExperimentConfig(scenario="validate", out=str(tmp_path / "over"))) == 4
        checks = json.loads((tmp_path / "over" / "validate_report.json").read_text())["checks"]
        assert [k for k, info in checks.items() if not info["passed"]] == [name]
        assert checks[name]["measured"] == over and checks[name]["tolerance"] == tol
        with open(tmp_path / "over" / "results.csv", newline="") as fh:
            rows = {r["scenario"]: r for r in csv.DictReader(fh)}
        assert float(rows[f"validate:{name}"]["theory"]) == tol


class TestExactLawWork:
    """The per-size work of the exact-law engine at the ``mixing-exact``
    benchmark shape, ``mixing-curve --n 32,64,128`` at the defaults."""

    ARGS = ["mixing-curve", "--n", "32,64,128"]

    def test_eigen_routes(self, tmp_path):
        assert cli.main(self.ARGS + ["--out", str(tmp_path)]) == 0
        block = json.loads((tmp_path / "manifest.json").read_text())["exact_laws"]
        assert {n: (info["modes"], info["eigen_route"]) for n, info in block.items()} == {
            "32": (33, "dstein"), "64": (50, "full"), "128": (50, "hahn")}
        assert not any("hahn_certificate" in info for info in block.values())

    def test_rejected_recurrence_in_the_manifest(self, tmp_path):
        # at a = 0.2, b = 5 the recurrence's 50 vectors at n = 128 fail the
        # certificate: the manifest gives the route that ran and both readings
        args = ["mixing-curve", "--n", "64,128", "--a", "0.2", "--b", "5", "--out", str(tmp_path)]
        assert cli.main(args) == 0
        info = json.loads((tmp_path / "manifest.json").read_text())["exact_laws"]["128"]
        assert (info["modes"], info["eigen_route"]) == (50, "dstein")
        readings = info["hahn_certificate"]
        assert set(readings) == {"residual", "orthonormality"}
        assert min(readings.values()) > model._CERTIFIED

    def test_per_size_quantities_computed_once(self, tmp_path, monkeypatch):
        # the rates, log pi and the eigenpairs once per size, the stationary
        # law of the distances included, and the eigenvector route once per
        # eigensolve
        calls = Counter()
        names = ("stationary_log_pmf", "count_rates", "_spectrum", "_eigen_route")
        for name in names:
            def counted(first, *args, _name=name, _real=getattr(model, name)):
                calls[_name, getattr(first, "params", first).n] += 1
                return _real(first, *args)

            monkeypatch.setattr(model, name, counted)
        assert cli.main(self.ARGS + ["--out", str(tmp_path)]) == 0
        assert calls == {(name, n): 1 for name in names for n in (32, 64, 128)}


class TestDeterminism:
    @pytest.mark.parametrize("args", [
        ["thermalize", "--n", "400", "--samples", "120", "--repetitions", "3",
         "--grid", "0,1", "--seed", "5"],
        ["mixing-curve", "--n", "32,64",
         "--grid", "0.02,0.05,0.1,0.2,0.35,0.6,0.9,1.3", "--seed", "5"],
        ["stein-rate", "--n", "64,128", "--seed", "5"],
        ["profile", "--n", "48", "--grid", "0.2,0.8", "--samples", "4000", "--seed", "5"],
        ["qclt-rate", "--n", "32,64,128", "--grid", "1.0", "--samples", "5000",
         "--seed", "5"],
    ])
    def test_byte_identical_reruns(self, tmp_path, args):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert cli.main(args + ["--out", str(out1)]) == 0
        assert cli.main(args + ["--out", str(out2)]) == 0
        assert read_bytes(out1 / "results.csv") == read_bytes(out2 / "results.csv")

    @pytest.mark.parametrize("kwargs", [
        # a start deep in the stationary tail, so some columns are refilled
        {"scenario": "mixing-curve", "n": (64, 128), "a": 50.0, "b": 1.0, "m0": 0.01},
        {"scenario": "profile", "n": (48, 64), "grid": (0.0, 0.2, 0.8)},
        {"scenario": "qclt-rate", "n": (32, 64, 128), "grid": (1.0,)},
    ])
    def test_exact_law_manifest_block(self, tmp_path, kwargs):
        outs = []
        for tag in ("r1", "r2"):
            cfg = ExperimentConfig(**kwargs, out=str(tmp_path / tag))
            assert experiments.run(cfg) == 0
            outs.append(read_bytes(tmp_path / tag / "results.csv"))
        assert outs[0] == outs[1]
        block = json.loads((tmp_path / "r1" / "manifest.json").read_text())["exact_laws"]
        assert set(block) == {str(n) for n in cfg.n}
        for n in cfg.n:
            info = block[str(n)]
            assert info["columns"] == len(cfg.grid)
            assert info["start"] + info["spectral"] + info["uniformized"] == len(cfg.grid)
            assert info["start"] == cfg.grid.count(0.0)
            assert (0 < info["modes"] <= n + 1) if info["spectral"] else info["modes"] == 0
            assert (info["apriori_bound"] > 0) == (info["spectral"] > 0)
            assert info["apriori_bound"] <= cfg.tol
            refills = cfg.scenario == "mixing-curve"
            assert (info["uniformized"] > 0) == refills

    def test_validate_exact_checks_seed_invariant(self, tmp_path):
        reports = []
        for seed in (1, 2):
            cfg = ExperimentConfig(scenario="validate", samples=100, seed=seed,
                                   out=str(tmp_path / f"v{seed}"))
            _, extra = run_validate(cfg)
            reports.append(extra["validate"]["checks"])
            # 60 stein-bounds solves on 3 lattices, 12 stein-identity solves on 2
            assert extra["validate"]["stein_solves"] == 72
            assert extra["validate"]["stein_lattices"] == 5
            # h evaluations: 4 nodes in each of the 276,000 grid cells, 8 in each tail cell
            assert extra["validate"]["stein_nodes"] == 1_214_912
        assert [(k, v["measured"]) for k, v in reports[0].items()] == \
            [(k, v["measured"]) for k, v in reports[1].items()]
        assert reports[0]["density-apriori"]["passed"]
        assert reports[0]["density-apriori"]["tolerance"] == 0.0
        assert reports[0]["derivative-decay"]["passed"]
        assert reports[0]["derivative-decay"]["tolerance"] <= 1e-10

    def test_validate_ignores_samples(self, tmp_path):
        # only thermalize reads samples; validate's draw counts are fixed
        outs = []
        for samples in (100, 5000):
            out = tmp_path / f"s{samples}"
            assert cli.main(["validate", "--samples", str(samples), "--out", str(out)]) == 0
            outs.append(read_bytes(out / "results.csv"))
        assert outs[0] == outs[1]

    def test_validate_ignores_seed(self, tmp_path):
        # no validate row draws random numbers, so results.csv at two seeds
        # differs in the seed column alone
        outs = []
        for seed in (0, 7):
            out = tmp_path / f"s{seed}"
            assert cli.main(["validate", "--seed", str(seed), "--out", str(out)]) == 0
            lines = read_bytes(out / "results.csv").splitlines()
            assert lines[0].endswith(b",seed")
            outs.append([line.rsplit(b",", 1)[0] for line in lines])
        assert outs[0] == outs[1]

    def test_validate_same_under_two_blas_threads(self, tmp_path):
        # the Stein cell sums are BLAS matrix-vector products; a second BLAS
        # thread must not move a byte of results.csv.  Starts these two
        # processes only.
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"k{threads}"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
            done = subprocess.run([sys.executable, "-m", "noisyvoter.cli", "validate",
                                   "--samples", "100", "--out", str(out)],
                                  env=env, capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            outs.append(read_bytes(out / "results.csv"))
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("a,b", [(20, 20), (200, 1), (1e3, 1e-3), (1e3, 1e3)])
    def test_validate_passes_at_large_drift(self, tmp_path, a, b):
        # the Euler probe the derivative-decay check once used failed at these
        assert cli.main(["validate", "--samples", "100", "--a", str(a), "--b", str(b),
                         "--out", str(tmp_path)]) == 0


class TestScenarioOutputs:
    # t = 0 at a non-dyadic n: the lattice point at the start must be the
    # references' start exactly, not an ulp off (qclt-rate rejects t = 0)
    @example(["qclt-rate", "--n", "10,20,40", "--m0", "0.3", "--grid", "0"])
    @example(["profile", "--n", "10", "--m0", "0.3", "--grid", "0,0.5"])
    @given(_extreme_start_args())
    @settings(max_examples=60, deadline=None)
    def test_extreme_starts_exit_cleanly(self, args):
        # exit 0 with finite nonnegative distances and mixing times, or a
        # diagnostic error (exit 1); never a traceback
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err):
            code = cli.main(args + ["--out", out])
            rows = (list(csv.DictReader((Path(out) / "results.csv").read_text().splitlines()))
                    if code == 0 else [])
        if args[0] == "qclt-rate" and float(args[-1]) == 0:
            # at t = 0 both qclt-rate laws are the point mass at the start
            assert code == 2 and err.getvalue().startswith("config error: ")
            return
        if code == 1:
            assert err.getvalue().startswith("diagnostic error: ")
            return
        assert code == 0
        for r in rows:
            estimate = float(r["estimate"])
            assert math.isfinite(estimate)
            assert estimate >= 0 or r["scenario"] == "qclt-rate:slope"
            if r["scenario"] == "profile:wf" and float(r["t_or_tau"]) == 0:
                assert estimate == 0.0

    def test_profile_zero_time_rows(self, tmp_path):
        # at t ~ 0 the to-diffusion distance is 0 and the to-stationarity
        # distance equals W1(point mass, rescaled stationary law)
        n = 64
        cfg = ExperimentConfig(scenario="profile", n=(n,), grid=(0.0, 0.5),
                               samples=2000, seed=3, out=str(tmp_path))
        records, _ = run_profile(cfg)
        wf0 = [r for r in records if r.scenario == "profile:wf"][0]
        st0 = [r for r in records if r.scenario == "profile:stationary"][0]
        assert wf0.estimate == 0.0
        params = model.ModelParams(n, 1.0, 1.0)
        expect = w1_discrete(point_mass(0.5), model.stationary_pmf(params).scaled(1 / n))
        assert st0.estimate == pytest.approx(expect, abs=1e-6)

    def test_profile_exact_reference_rows(self, tmp_path):
        # profile:wf against the exact marginal, with stderr 0;
        # profile:stationary carries the limit profile
        cfg = ExperimentConfig(scenario="profile", n=(32, 64), grid=(0.0, 0.3, 1.0),
                               seed=3, out=str(tmp_path))
        records, extra = run_profile(cfg)
        wf = WFParams(1.0, 1.0)
        beta = wf_marginal(wf, 0.5, np.inf)
        for r in records:
            assert r.stderr == 0.0
            if r.scenario == "profile:stationary":
                want = (w1_discrete_vs_wf(point_mass(0.5), beta) if r.t_or_tau == 0
                        else wf_marginal(wf, 0.5, r.t_or_tau).stationary_distance())
                assert r.theory == want
            else:
                chain = model._count_chain(model.ModelParams(r.n, 1.0, 1.0))
                p0 = (np.arange(r.n + 1) == r.n // 2).astype(float)
                probs = (p0 if r.t_or_tau == 0
                         else model._uniformized_law(chain, p0, r.n * r.t_or_tau, 1e-12))
                law = Pmf(np.arange(r.n + 1) / r.n, probs)
                ref = (point_mass(0.5) if r.t_or_tau == 0
                       else wf_marginal(wf, 0.5, r.t_or_tau))
                got = (w1_discrete(law, ref) if r.t_or_tau == 0
                       else w1_discrete_vs_wf(law, ref))
                # W1 on [0, 1] moves by at most the TV gap of the two laws
                assert r.estimate == pytest.approx(got, abs=1e-9)
        assert extra["profile"]["series_terms"][0] == 0
        assert all(k > 0 for k in extra["profile"]["series_terms"][1:])
        assert 0.0 < extra["profile"]["rounding_bound"] <= cfg.tol
        # one search per positive time, each over both sizes, of 1 to 5
        # passes; at t = 0 the point mass is measured without a search
        assert 2 <= extra["profile"]["crossing_passes"] <= 2 * 5
        assert 0.0 <= extra["profile"]["crossing_bound"] <= 1e-15

    @pytest.mark.parametrize("sizes,m0,grid", [((128, 256, 512), 0.5, None),
                                               ((30, 60, 120), 0.31, (0.0, 0.05, 1.0))])
    def test_profile_rows_equal_per_distance_searches(self, tmp_path, sizes, m0, grid):
        # one search per marginal, over every size that shares it, gives each
        # row bit for bit as the distance's own search; crossing_passes sums
        # over the marginals the longest of their distances' searches, and the
        # t = 0 limits of the three starts of 0.31 share Beta(1, 1)
        kwargs = {} if grid is None else {"grid": grid}
        cfg = ExperimentConfig(scenario="profile", n=sizes, m0=m0, out=str(tmp_path), **kwargs)
        records, extra = run_profile(cfg)
        wf = WFParams(1.0, 1.0)
        beta = wf_marginal(wf, 0.5, np.inf)
        passes = Counter()
        rows = iter(records)
        for n in cfg.n:
            laws = experiments._density_laws(cfg, n, {})
            for t, col in zip(cfg.grid, laws.probs.T):
                p = Pmf(laws.lattice, col)
                if t == 0:
                    want_wf = w1_discrete(p, point_mass(laws.start))
                    (want_limit,), _, one = _w1_vs_wf_search([point_mass(laws.start)], beta)
                    passes["limits"] = max(passes["limits"], one)
                else:
                    ref = wf_marginal(wf, laws.start, t, cfg.tol)
                    (want_wf,), _, one = _w1_vs_wf_search([p], ref)
                    passes[laws.start, t] = max(passes[laws.start, t], one)
                    want_limit = ref.stationary_distance()
                wf_row, stat_row = next(rows), next(rows)
                assert (wf_row.n, wf_row.t_or_tau) == (stat_row.n, stat_row.t_or_tau) == (n, t)
                assert wf_row.estimate == want_wf and stat_row.theory == want_limit
        assert len(extra["profile"]["starts"]) == (1 if m0 == 0.5 else 3)
        assert extra["profile"]["crossing_passes"] == sum(passes.values())

    def test_profile_equals_its_limit_when_ordered(self, tmp_path):
        # from m0 = 1/16 at (a, b) = (5, 0.2) the law at every time lies
        # below pi in stochastic order, so the monotone coupling attains
        # D_n(t) = |m0 - a/(a+b)| e^{-(a+b)t} at every n (m0 n is a count at
        # each size).  W1 on [0, 1] is at most half the l1 gap, and a spectral
        # column's l1 error is at most the reported a-priori bound, doubled
        # at most by clipping and renormalizing.  At n = 512 and 1024 the
        # first column fails that bound and is refilled by uniformization,
        # total-variation accurate to tol, an error the later columns carry
        # too.  (n+1) eps covers the W1 sum.
        args = ["profile", "--n", "128,256,512,1024", "--a", "5", "--b", "0.2",
                "--m0", "0.0625", "--grid", "0.05,0.2,0.5,1,2", "--out", str(tmp_path)]
        assert cli.main(args) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        rounding = manifest["profile"]["rounding_bound"]
        tol = manifest["config"]["tol"]
        rows = [r for r in csv.DictReader((tmp_path / "results.csv").read_text().splitlines())
                if r["scenario"] == "profile:stationary"]
        assert len(rows) == 4 * 5
        for r in rows:
            n, t = int(r["n"]), float(r["t_or_tau"])
            limit = abs(0.0625 - 5.0 / 5.2) * math.exp(-5.2 * t)
            info = manifest["exact_laws"][str(n)]
            within = (info["apriori_bound"] + (tol if info["uniformized"] else 0.0)
                      + (n + 1) * np.finfo(float).eps)
            assert abs(float(r["estimate"]) - limit) <= within
            assert abs(float(r["theory"]) - limit) <= rounding

    def test_references_start_where_the_chain_starts(self, tmp_path):
        # at m0 = 0.3 the chain at n = 128 starts from 38/128, and so must the
        # diffusion marginal and the limit profile it is compared with
        wf = WFParams(1.0, 1.0)
        cfg = ExperimentConfig(scenario="profile", n=(128,), m0=0.3, grid=(0.05,),
                               out=str(tmp_path))
        (wf_row, stat_row), extra = run_profile(cfg)
        assert wf_row.m0 == stat_row.m0 == 38 / 128
        assert 128 * wf_row.estimate == pytest.approx(0.27458, abs=5e-6)
        assert stat_row.theory == wf_marginal(wf, 38 / 128, 0.05).stationary_distance()
        assert extra["profile"]["starts"] == [38 / 128]
        # one reference per distinct start: a dyadic sweep at m0 = 1/2 has one
        cfg = ExperimentConfig(scenario="qclt-rate", n=(32, 64, 128), m0=0.3, grid=(0.05,),
                               out=str(tmp_path))
        records, extra = run_qclt_rate(cfg)
        starts = [cfg.particle_count(n) / n for n in cfg.n]
        assert extra["qclt"]["starts"] == [0.3125, 0.296875]  # 19/64 = 38/128
        for n, m0e, r in zip(cfg.n, starts, records):
            law = model.transient_law(model.ModelParams(n, 1.0, 1.0), round(m0e * n), 0.05 * n)
            assert r.estimate == pytest.approx(
                w1_discrete_vs_wf(law.scaled(1 / n), wf_marginal(wf, m0e, 0.05)), abs=1e-12)
        _, extra = run_qclt_rate(ExperimentConfig(scenario="qclt-rate", n=(32, 64, 128),
                                                  out=str(tmp_path)))
        assert extra["qclt"]["starts"] == [0.5]

    def test_qclt_rate_exact_reference(self, tmp_path):
        cfg = ExperimentConfig(scenario="qclt-rate", n=(32, 64, 128), grid=(1.0,),
                               out=str(tmp_path))
        records, extra = run_qclt_rate(cfg)
        rows = {r.n: r for r in records if r.scenario == "qclt-rate"}
        for n, want in ((32, 0.0102526), (64, 0.0051651), (128, 0.0025925)):
            assert rows[n].estimate == pytest.approx(want, abs=1e-7)
            assert rows[n].stderr == 0.0
        qclt = extra["qclt"]
        assert qclt["reference"] == "jacobi-series" and qclt["series_terms"] > 0
        assert 0.0 < qclt["rounding_bound"] <= cfg.tol
        assert qclt["halving_gap"] == 0.0 and qclt["reference_noise_floor"] == 0.0
        # one search over the three sizes' laws, every crossing proven
        assert qclt["crossing_passes"] == 3
        assert 0.0 <= qclt["crossing_bound"] <= 1e-15
        # at t = 0 the reference is the point mass at the chain's start, even
        # where m0 n is not an integer, so every distance is 0
        cfg0 = ExperimentConfig(scenario="profile", n=(30, 60, 120), m0=0.31, grid=(0.0,),
                                out=str(tmp_path))
        records, _ = run_profile(cfg0)
        assert [r.estimate for r in records if r.scenario == "profile:wf"] == [0.0] * 3

    @pytest.mark.parametrize("a,b,m0", [(0.5, 2.0, 0.75), (3.0, 1.5, 0.25)])
    def test_mixing_curve_closed_form(self, tmp_path, a, b, m0):
        # for m0 != a/(a+b) the CDF gap to stationarity has one sign late on,
        # so the distance is |m0 - fix| e^{-(a+b)t} exactly and log-linear
        # interpolation inverts it exactly, at every n
        eps = (0.001, 0.003, 0.01)
        cfg = ExperimentConfig(scenario="mixing-curve", n=(32, 64, 128), a=a, b=b, m0=m0,
                               eps=eps, out=str(tmp_path))
        _, extra = run_mixing_curve(cfg)
        want = [np.log(abs(m0 - a / (a + b)) / e) / (a + b) for e in eps]
        for tmix in extra["mixing"]["tmix_over_n"].values():
            np.testing.assert_allclose(tmix, want, rtol=0, atol=1e-8)

    def test_mixing_curve_at_large_n(self, tmp_path):
        # at the default settings every column is spectral, and t_mix/n at
        # n = 4096 lies within 1e-3 of where the limit profile
        # D(t) = W1(WF_t(1/2), Beta(1, 1)) crosses each eps
        assert cli.main(["mixing-curve", "--n", "2048,4096", "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert [info["uniformized"] for info in manifest["exact_laws"].values()] == [0, 0]
        wf = WFParams(1.0, 1.0)
        mixing = manifest["mixing"]
        for eps, tmix in zip(mixing["eps"], mixing["tmix_over_n"]["4096"]):
            crossing = brentq(lambda t: wf_marginal(wf, 0.5, t).stationary_distance() - eps,
                              0.01, 2.0, xtol=1e-9)
            assert tmix == pytest.approx(crossing, abs=1e-3)

    def test_mixing_curve_zero_mixing_time_writes_strict_json(self, tmp_path):
        # the start lies within eps = 0.1 of stationarity at n = 58, so that
        # t_mix is 0 and the relative drift is undefined
        def reject(name):
            raise ValueError(f"manifest holds {name}")

        args = ["mixing-curve", "--n", "41,58", "--m0", "0.98873", "--a", "13.199",
                "--b", "1.5977", "--grid", "0,0.658,1.624,1.948", "--out", str(tmp_path)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(args) == 0
        text = (tmp_path / "manifest.json").read_text()
        mixing = json.loads(text, parse_constant=reject)["mixing"]
        assert 0.0 in mixing["tmix_over_n"]["58"]
        assert mixing["drift_rel"] is None

    def test_profile_stationary_curve_decreases(self, tmp_path):
        cfg = ExperimentConfig(scenario="profile", n=(64,),
                               grid=tuple(np.geomspace(0.05, 3.0, 10)),
                               samples=500, seed=3, out=str(tmp_path))
        records, _ = run_profile(cfg)
        ds = [r.estimate for r in records if r.scenario == "profile:stationary"]
        assert all(d1 >= d2 - 1e-9 for d1, d2 in zip(ds, ds[1:]))

    def test_profile_curves_cauchy_in_n(self, tmp_path):
        # successive dyadic diffusion-distance curves approach each other
        cfg = ExperimentConfig(scenario="profile", n=(64, 128, 256),
                               grid=tuple(np.geomspace(0.05, 2.0, 8)),
                               samples=50_000, seed=6, out=str(tmp_path))
        records, _ = run_profile(cfg)
        curves = {n: np.array([r.estimate for r in records
                               if r.scenario == "profile:wf" and r.n == n])
                  for n in cfg.n}
        gap_small = np.max(np.abs(curves[64] - curves[128]))
        gap_large = np.max(np.abs(curves[128] - curves[256]))
        assert gap_large <= gap_small

    def test_thermalize_self_distance_control(self):
        # identical ensembles (same stream, same start) are at distance zero;
        # independent same-law ensembles give a small matching noise floor
        n, pairs = 1600, 300
        params = model.ModelParams(n, 1.0, 1.0)
        part = model.BlockPartition(n // 2, n // 2)
        horizon = experiments.thermalization_times(n, n // 2, [1.0])
        starts = np.tile([[0, n // 2]], (pairs, 1))
        s1 = model.simulate_blocks_batch(params, part, starts, horizon,
                                         replica_stream(1, "thermalize", 0))
        s2 = model.simulate_blocks_batch(params, part, starts, horizon,
                                         replica_stream(1, "thermalize", 0))
        assert w1_matching(s1[0].astype(float), s2[0].astype(float),
                           metric="cityblock") == 0.0
        s3 = model.simulate_blocks_batch(params, part, starts, horizon,
                                         replica_stream(1, "thermalize", 1))
        floor = w1_matching(s1[0].astype(float), s3[0].astype(float),
                            metric="cityblock") / np.sqrt(n)
        assert floor < 0.25 * 2 * np.exp(-1.0)

    def test_thermalize_records_structure(self, tmp_path):
        cfg = ExperimentConfig(scenario="thermalize", n=(400,), grid=(0.0,),
                               samples=120, repetitions=3, seed=4, out=str(tmp_path))
        records, _ = run_thermalize(cfg)
        est = [r for r in records if r.scenario == "thermalize"]
        sur = [r for r in records if r.scenario == "thermalize:surrogate"]
        assert len(est) == 1 and len(sur) == 1
        assert est[0].theory == pytest.approx(2.0)
        assert est[0].stderr > 0
        assert sur[0].estimate == pytest.approx(
            2 * np.sqrt(400) * 0.25 * np.exp(-(1 + 2 / 400) * est[0].t_or_tau
                                             - (1 + 2 / 400) * (0.5 * np.log(400) + np.log(0.25))))

    def test_thermalize_manifest_block(self, tmp_path):
        cfg = ExperimentConfig(scenario="thermalize", n=(400,), grid=(-1.0, 0.0, 1.0),
                               samples=120, repetitions=3, seed=4, out=str(tmp_path))
        assert run(cfg) == 0
        block = json.loads((tmp_path / "manifest.json").read_text())["thermalize"]
        with open(tmp_path / "results.csv", newline="", encoding="utf-8") as fh:
            rows = {(r["scenario"], float(r["t_or_tau"])): (float(r["estimate"]), float(r["stderr"]))
                    for r in csv.DictReader(fh)}
        assert [entry["tau"] for entry in block] == [-1.0, 0.0, 1.0]
        for entry in block:
            est, err = rows["thermalize", entry["tau"]]
            assert entry["exact"] == rows["thermalize:surrogate", entry["tau"]][0]
            assert entry["mc_bias"] == est - entry["exact"]
            assert entry["mc_stderr"] == err > 0

    def test_thermalize_work_block(self, tmp_path):
        # the stage timers and work counts go to the manifest only: reruns
        # still write the same results.csv bytes
        outs = []
        for tag in ("r1", "r2"):
            cfg = ExperimentConfig(scenario="thermalize", n=(400,), grid=(-1.0, 0.0, 1.0),
                                   samples=120, repetitions=2, seed=4, out=str(tmp_path / tag))
            assert run(cfg) == 0
            outs.append(read_bytes(tmp_path / tag / "results.csv"))
        assert outs[0] == outs[1]
        manifest = json.loads((tmp_path / "r1" / "manifest.json").read_text())
        assert len(manifest["thermalize"]) == 3
        work = manifest["thermalize_work"]
        assert set(work) == {"simulate_s", "import_s", "matching_s", "replicas", "matchings",
                             "certified", "solved_rows", "pairs"}
        # the event loop runs only the fixed-start replicas
        assert work["replicas"] == 2 * 120
        assert work["matchings"] == 2 * 3 and work["pairs"] == 2 * 3 * 120
        assert 0 < work["certified"] <= work["matchings"]
        # certified matchings solve no rows, the others at most their pairs
        # and at least one row each
        assert (work["matchings"] - work["certified"] <= work["solved_rows"]
                <= (work["matchings"] - work["certified"]) * 120)
        assert 0 < work["simulate_s"] and 0 <= work["import_s"] and 0 < work["matching_s"]
        assert (work["simulate_s"] + work["import_s"] + work["matching_s"]
                <= manifest["wall_time_s"])

    def test_thermalize_repetitions_keep_their_own_streams(self, monkeypatch, tmp_path):
        # one event loop over every repetition's fixed-start replicas, then the
        # uniform clouds drawn from their totals, give each repetition the
        # states and distances of its own loop and draws on its own stream
        cfg = ExperimentConfig(scenario="thermalize", n=(400,), grid=(-1.0, 0.0, 1.0),
                               samples=120, repetitions=3, seed=4, out=str(tmp_path))
        n, pairs, ell = 400, cfg.samples, cfg.particle_count(400)
        params, part = model.ModelParams(n, cfg.a, cfg.b), model.BlockPartition(n - ell, ell)
        horizons = experiments.thermalization_times(n, ell, cfg.grid)
        original, calls = model.simulate_blocks_batch, []
        monkeypatch.setattr(model, "simulate_blocks_batch",
                            lambda *args: calls.append(args) or original(*args))
        fixed, uniform = experiments.thermalize_clouds(params, part, horizons, pairs,
                                                       cfg.repetitions, cfg.seed)
        monkeypatch.undo()
        assert len(calls) == 1 and len(calls[0][4]) == cfg.repetitions
        assert fixed.shape == uniform.shape == (len(cfg.grid), cfg.repetitions * pairs, 2)
        values = []
        for rep in range(cfg.repetitions):
            cols = slice(pairs * rep, pairs * (rep + 1))
            rng = replica_stream(cfg.seed, "thermalize", rep)
            alone = model.simulate_blocks_batch(params, part, np.tile([[0, ell]], (pairs, 1)),
                                                horizons, rng)
            np.testing.assert_array_equal(fixed[:, cols], alone)
            u0, u1 = model.sample_uniform_given_count(params, part, alone.sum(axis=2), rng)
            np.testing.assert_array_equal(uniform[:, cols], np.stack([u0, u1], axis=2))
            values.append([w1_matching(alone[i].astype(float), uniform[i, cols].astype(float),
                                       metric="cityblock") / np.sqrt(n)
                           for i in range(len(cfg.grid))])
        est = [r.estimate for r in run_thermalize(cfg)[0] if r.scenario == "thermalize"]
        assert est == [float(col.mean()) for col in np.asarray(values).T]

    def test_thermalize_uniform_clouds_keep_partner_totals(self):
        # each uniform-start replica holds its fixed partner's total X, split
        # within the block sizes (250, 150) with block-1 mean X n1/n; a swap
        # of the blocks would move that mean by X (n0 - n1)/n, about 37 here,
        # against a standard error near 0.4
        params, part = model.ModelParams(400, 1.0, 1.0), model.BlockPartition(250, 150)
        horizons = experiments.thermalization_times(400, 150, (-1.0, 0.0, 1.0))
        fixed, uniform = experiments.thermalize_clouds(params, part, horizons, 120, 2, 4)
        np.testing.assert_array_equal(fixed.sum(axis=2), uniform.sum(axis=2))
        assert np.all(uniform >= 0) and np.all(uniform <= [250, 150])
        # per cloud: 3 horizons x 2 repetitions of 120 pairs
        gap = (uniform[..., 1] - uniform.sum(axis=2) * 150 / 400).reshape(3, 2, 120)
        assert np.all(np.abs(gap.mean(axis=2)) < 2.0)
        assert np.all((fixed != uniform).reshape(3, 2, -1).any(axis=2))

    @pytest.mark.parametrize("n,n1,ell,a,b,t", [(12, 5, 6, 1.0, 1.0, 0.7),
                                                (15, 7, 3, 0.3, 4.0, 2.0),
                                                (20, 10, 10, 20.0, 20.0, 1.3)])
    def test_uniform_start_law_is_hypergeometric_given_total(self, n, n1, ell, a, b, t):
        # the uniform-start two-block law at time t, by expm of the generator,
        # is the count law from ell times Hypergeometric(n, n1, X): the law
        # run_thermalize draws its uniform clouds from
        params, part = model.ModelParams(n, a, b), model.BlockPartition(n - n1, n1)
        gen, shape = _two_block_generator(params, part)
        law = (_uniform_start(part, ell, shape) @ expm(gen * t)).reshape(shape)
        counts = model.transient_laws(params, ell, [t]).probs[:, 0]
        x0, x1 = np.indices(shape)
        want = counts[x0 + x1] * hypergeom(n, n1, x0 + x1).pmf(x1)
        assert np.max(np.abs(law - want)) <= 1e-10

    @pytest.mark.parametrize("n,ell,a,b", [(20, 8, 1.0, 1.0), (24, 12, 0.3, 4.0),
                                           (30, 10, 20.0, 20.0)])
    def test_thermalize_distance_is_exact(self, n, ell, a, b):
        times = (0.0, 0.4, 1.5, 3.0)
        for t, lp in zip(times, _thermalize_lp_distances(n, ell, a, b, times)):
            assert thermalize_distance(model.ModelParams(n, a, b), ell, t) == pytest.approx(
                lp, rel=1e-7)

    @given(st.integers(2, 40).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 1))),
           _LOG_AB, _LOG_AB, st.floats(0.0, 3.0))
    @settings(max_examples=25, deadline=None)
    def test_thermalize_distance_is_exact_property(self, n_ell, a, b, t):
        # once the distance falls to the LP's own tolerance a relative
        # error alone cannot hold, hence the absolute term
        n, ell = n_ell
        (lp,) = _thermalize_lp_distances(n, ell, a, b, (t,))
        assert thermalize_distance(model.ModelParams(n, a, b), ell, t) == pytest.approx(
            lp, rel=1e-7, abs=2e-9)

    def test_manifest_text(self, tmp_path):
        # the config block is the dataclass's fields, written as asdict and
        # json.dump wrote it before
        cfg = ExperimentConfig(scenario="mixing-curve", n=(32, 64), out=str(tmp_path))
        extra = {"exact_laws": {"32": {"modes": 33, "apriori_bound": np.float64(1e-10)}}}
        path = experiments.write_manifest(cfg, [], extra)
        text = path.read_text()
        payload = {"config": asdict(cfg), "artifact_version": experiments.__version__,
                   "timestamp": json.loads(text)["timestamp"], "theory_check": [], **extra}
        assert text == json.dumps(payload, indent=2, default=float) + "\n"

    def test_manifest_and_csv_schema(self, tmp_path):
        cfg = ExperimentConfig(scenario="stein-rate", n=(64, 128), seed=2,
                               out=str(tmp_path))
        assert run(cfg) == 0
        header = (tmp_path / "results.csv").read_text().splitlines()[0]
        assert header == "scenario,n,a,b,m0,t_or_tau,estimate,stderr,theory,runtime_s,seed"
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["scenario"] == "stein-rate"
        assert "timestamp" in manifest and "wall_time_s" in manifest

    @pytest.mark.parametrize("kwargs", [
        {"scenario": "validate"},
        {"scenario": "thermalize", "n": (400,), "grid": (0.0, 1.0), "samples": 120,
         "repetitions": 3},
        {"scenario": "qclt-rate", "n": (32, 64, 128), "grid": (1.0,)},
    ])
    def test_theory_check_entries(self, tmp_path, kwargs):
        # one entry per row with a nonzero theory value, except validate rows,
        # whose theory column is their check's tolerance
        cfg = ExperimentConfig(**kwargs, seed=0, out=str(tmp_path))
        assert run(cfg) == 0
        with open(tmp_path / "results.csv", newline="") as fh:
            rows = [r for r in csv.DictReader(fh)
                    if r["theory"] not in ("", "0.0") and not r["scenario"].startswith("validate:")]
        declared = {"thermalize": 0.15, "thermalize:surrogate": 0.15, "qclt-rate:slope": 0.30}
        want = []
        for r in rows:
            est, theory = float(r["estimate"]), float(r["theory"])
            rel = abs(est - theory) / abs(theory)
            want.append({"scenario": r["scenario"], "n": int(r["n"]),
                         "t_or_tau": float(r["t_or_tau"]), "rel_error": rel,
                         "flagged": rel > declared[r["scenario"]]})
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["theory_check"] == want
        assert bool(want) == (cfg.scenario != "validate")

    def test_validate_check_runtimes(self, tmp_path):
        # per-check wall seconds in the manifest and the report, not in results.csv
        cfg = ExperimentConfig(scenario="validate", samples=100, out=str(tmp_path))
        assert run(cfg) == 0
        report = json.loads((tmp_path / "validate_report.json").read_text())
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["validate"] == report
        assert len(report["checks"]) == len(experiments._VALIDATE_CHECKS)
        assert all(info["runtime_s"] >= 0.0 for info in report["checks"].values())
        assert sum(info["runtime_s"] for info in report["checks"].values()) <= manifest["wall_time_s"]
        rows = (tmp_path / "results.csv").read_text().splitlines()
        assert len(rows) == 1 + len(experiments._VALIDATE_CHECKS)
        assert all(r.split(",")[9] == "" for r in rows[1:])


def perfbench_spans():
    """The benchmark's span tracer module, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_benchmark_span_targets_resolve():
    # perfbench/spans.py wraps package functions by attribute name, so a renamed
    # or deleted target fails here rather than under `perfbench/run.py --trace 1`
    spans = perfbench_spans()
    assert spans.TARGETS
    unresolved = [f"{module.__name__}.{attr}" for module, attr, *_ in spans.TARGETS
                  if not (module.__name__.startswith("noisyvoter.")
                          and callable(getattr(module, attr, None)))]
    assert unresolved == []


def test_benchmark_work_counters_take_the_wrapped_arguments():
    # a traced call binds the wrapped function's arguments by name and passes
    # them all to the work counter, so a parameter the counter lacks would
    # crash `perfbench/run.py --trace 1`
    mismatched = []
    for module, attr, _span, work in perfbench_spans().TARGETS:
        if work is not None:
            wrapped = set(inspect.signature(getattr(module, attr)).parameters)
            missing = wrapped - set(inspect.signature(work).parameters)
            if missing:
                mismatched.append(f"{module.__name__}.{attr}: {sorted(missing)}")
    assert mismatched == []


def test_benchmark_traced_run_restores_every_target(tmp_path):
    # `perfbench/run.py --trace 1` runs scenarios under this tracer, but the
    # pipeline runs only --trace 0: one traced run here, as run.py makes it
    spans = perfbench_spans()
    originals = [(module, attr, getattr(module, attr)) for module, attr, *_ in spans.TARGETS]
    tracer = spans.Tracer()
    with tracer:
        tracer.new_sample()
        assert experiments.run(ExperimentConfig(scenario="mixing-curve", n=(8, 16),
                                                out=str(tmp_path))) == 0
    assert tracer.counts[0]["experiments.runner.calls"] == 1
    assert tracer.self_times()[0]["experiments.runner"] > 0.0
    assert [f"{module.__name__}.{attr}" for module, attr, fn in originals
            if getattr(module, attr) is not fn] == []


def test_demo_imports_resolve():
    # the demos run only by hand, so a removed or renamed public name would
    # otherwise surface as an ImportError on their next run
    demos = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
    assert demos
    imported, unresolved = 0, []
    for path in demos:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.ImportFrom) and node.level == 0
                    and node.module.split(".")[0] == "noisyvoter"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    imported += 1
                    if not hasattr(module, alias.name):
                        unresolved.append(f"{path.name}: {node.module}.{alias.name}")
    assert imported and unresolved == []


DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs(demo, tmp_path):
    # a changed call signature passes the import check, so each demo runs,
    # one process at a time, with its demos/output/ under tmp_path
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_no_module_level_caches():
    # a functools cache on a package function is state every caller in the
    # process shares; reuse such as the Stein lattice is an object the caller
    # builds and keeps
    cached = []
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "noisyvoter").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                for deco in node.decorator_list:
                    if isinstance(deco, ast.Call):
                        deco = deco.func
                    name = deco.attr if isinstance(deco, ast.Attribute) else getattr(deco, "id", "")
                    if name in ("lru_cache", "cache"):
                        cached.append(f"{path.name}:{node.lineno} {node.name}")
    assert cached == []


def loaded_by_import(*prefixes: str) -> list[str]:
    """Modules under ``prefixes`` that a fresh ``import noisyvoter, noisyvoter.cli`` loads."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import noisyvoter, noisyvoter.cli; "
            "print(*sorted(m for m in sys.modules if m.startswith(tuple(sys.argv[2:]))))")
    done = subprocess.run([sys.executable, "-c", code, str(src), *prefixes],
                          capture_output=True, text=True, check=True, timeout=120)
    return done.stdout.split()


def test_import_leaves_out_scipy_stats():
    # scipy.stats costs about 0.7 s to import and serves only as a test oracle
    assert loaded_by_import("scipy.stats") == []


def test_import_leaves_out_matching_modules():
    # scipy.optimize and scipy.spatial serve only the matchings, which import
    # them on first use
    assert loaded_by_import("scipy.optimize", "scipy.spatial") == []
