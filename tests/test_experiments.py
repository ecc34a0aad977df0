"""Runner tests: config handling, determinism, exit codes, mutation."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import expm
from scipy.optimize import linprog
from scipy.stats import hypergeom

from noisyvoter import cli, experiments, model
from noisyvoter.errors import ConfigError
from noisyvoter.experiments import (
    ExperimentConfig,
    config_from_json,
    replica_stream,
    run,
    run_profile,
    run_thermalize,
    run_validate,
    thermalize_distance,
)
from noisyvoter.pmf import point_mass
from noisyvoter.transport import w1_discrete, w1_matching


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

    @pytest.mark.parametrize("kwargs", [
        dict(scenario="nope"),
        dict(scenario="profile", n=(0,)),
        dict(scenario="profile", a=-1.0),
        dict(scenario="profile", m0=0.0),
        dict(scenario="profile", samples=50),
        dict(scenario="profile", grid=(1.0, 0.5)),
        dict(scenario="thermalize", n=(100, 200)),
        dict(scenario="thermalize", n=(10000,), grid=(-20.0,)),
        dict(scenario="qclt-rate", n=(128, 256)),
        dict(scenario="qclt-rate", n=(128, 200, 400), grid=(1.0,)),
        dict(scenario="mixing-curve", n=(64,)),
        dict(scenario="profile", seed=-1),
        dict(scenario="qclt-rate", n=(32, 64, 128), wf_dt=-1.0),
        dict(scenario="qclt-rate", n=(32, 64, 128), wf_dt=0.0),
        dict(scenario="stein-rate", n=(16,), ell=40),
        dict(scenario="stein-rate", n=(1,)),
        dict(scenario="mixing-curve", n=(32, 64), dense_cap=-5),
        dict(scenario="mixing-curve", n=(32, 64), eps=(0.0, 0.1)),
        dict(scenario="mixing-curve", n=(32, 64), eps=(0.05, 0.05)),
        dict(scenario="mixing-curve", n=(32, 64), grid=(-0.5, 1.0)),
        dict(scenario="profile", n=(48,), grid=(0.2, float("nan"))),
        dict(scenario="thermalize", n=(400,), grid=(float("nan"),)),
        dict(scenario="thermalize", n=(400,), grid=(0.0, float("inf"))),
    ])
    def test_invalid_configs(self, kwargs):
        kwargs.setdefault("samples", 200)
        with pytest.raises(ConfigError):
            ExperimentConfig(**kwargs)

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


class TestExitCodes:
    def test_config_error_is_2(self, capsys):
        assert cli.main(["profile", "--samples", "10"]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["profile", "--seed", "-1"],
        ["qclt-rate", "--n", "32,64,128", "--wf-dt", "-1"],
        ["stein-rate", "--n", "16", "--ell", "40"],
        ["mixing-curve", "--n", "32,64", "--dense-cap", "-5"],
        ["thermalize", "--n", "400", "--tau", "nan"],
        ["thermalize", "--n", "400", "--tau", "inf"],
        ["profile", "--n", "48", "--grid", "0.2,nan"],
    ])
    def test_bad_field_values_exit_2(self, args, tmp_path, capsys):
        # rejected by the config, not by a traceback from the run
        assert cli.main(args + ["--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err

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
        code = cli.main(["mixing-curve", "--n", "8192,16384",
                         "--out", str(tmp_path)])
        assert code == 3

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

    def test_validate_exact_checks_seed_invariant(self, tmp_path):
        exact = ("rates-boundary", "detailed-balance", "uniform-start-variance",
                 "translation-exact", "pushforward-contraction", "stein-bounds",
                 "stein-identity", "exclusion-stationarity", "exclusion-residual-bounds",
                 "coupling-disagreements", "gaussian-coupling-bound", "block-mean-identity",
                 "derivative-decay", "density-apriori")
        reports = []
        for seed in (1, 2):
            cfg = ExperimentConfig(scenario="validate", samples=100, seed=seed,
                                   out=str(tmp_path / f"v{seed}"))
            _, extra = run_validate(cfg)
            reports.append(extra["validate"]["checks"])
        for name in exact:
            assert reports[0][name]["measured"] == reports[1][name]["measured"]
        assert reports[0]["density-apriori"]["passed"]
        assert reports[0]["density-apriori"]["tolerance"] == 0.0
        assert reports[0]["derivative-decay"]["passed"]
        assert reports[0]["derivative-decay"]["tolerance"] <= 1e-10

    @pytest.mark.parametrize("a,b", [(20, 20), (200, 1), (1e3, 1e-3), (1e3, 1e3)])
    def test_validate_passes_at_large_drift(self, tmp_path, a, b):
        # the Euler probe the derivative-decay check once used failed at these
        assert cli.main(["validate", "--samples", "100", "--a", str(a), "--b", str(b),
                         "--out", str(tmp_path)]) == 0


class TestScenarioOutputs:
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
        horizon = np.array([0.5 * np.log(n) + np.log(0.25) + 1.0])
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

    @pytest.mark.parametrize("n,ell,a,b", [(20, 8, 1.0, 1.0), (24, 12, 0.3, 4.0),
                                           (30, 10, 20.0, 20.0)])
    def test_thermalize_distance_is_exact(self, n, ell, a, b):
        # exact two-block laws from the fixed start (0, ell) and the uniform
        # start, by expm of the dense generator; their l1 Kantorovich distance
        # as a min-cost flow on the grid graph
        params, part = model.ModelParams(n, a, b), model.BlockPartition(n - ell, ell)
        shape = (part.n0 + 1, part.n1 + 1)
        states = list(np.ndindex(shape))
        gen = np.zeros((len(states), len(states)))
        moves = ((1, 0), (0, 1), (-1, 0), (0, -1))  # the order of block_rates
        for i, x in enumerate(states):
            for rate, (d0, d1) in zip(model.block_rates(params, part, x), moves):
                if rate > 0:
                    gen[i, np.ravel_multi_index((x[0] + d0, x[1] + d1), shape)] = rate
        gen -= np.diag(gen.sum(axis=1))
        fixed = np.zeros(len(states))
        fixed[np.ravel_multi_index((0, ell), shape)] = 1.0
        uniform = np.zeros(len(states))
        for x1 in range(ell + 1):
            if ell - x1 <= part.n0:
                uniform[np.ravel_multi_index((ell - x1, x1), shape)] = hypergeom(n, ell, ell).pmf(x1)
        edges = [(np.ravel_multi_index(x, shape), np.ravel_multi_index((x[0] + d0, x[1] + d1), shape))
                 for x in states for d0, d1 in moves
                 if 0 <= x[0] + d0 < shape[0] and 0 <= x[1] + d1 < shape[1]]
        src, dst = np.array(edges).T
        cols = np.arange(len(edges))
        flow = sparse.csr_matrix((np.r_[np.ones(len(edges)), -np.ones(len(edges))],
                                  (np.r_[src, dst], np.r_[cols, cols])),
                                 shape=(len(states), len(edges)))
        for t in (0.0, 0.4, 1.5, 3.0):
            step = expm(gen * t)
            lp = linprog(np.ones(len(edges)), A_eq=flow, b_eq=fixed @ step - uniform @ step,
                         bounds=(0, None), method="highs",
                         options={"primal_feasibility_tolerance": 1e-10,
                                  "dual_feasibility_tolerance": 1e-10})
            assert lp.status == 0
            assert thermalize_distance(params, ell, t) == pytest.approx(lp.fun / np.sqrt(n),
                                                                        rel=1e-7)

    def test_manifest_and_csv_schema(self, tmp_path):
        cfg = ExperimentConfig(scenario="stein-rate", n=(64, 128), seed=2,
                               out=str(tmp_path))
        assert run(cfg) == 0
        header = (tmp_path / "results.csv").read_text().splitlines()[0]
        assert header == "scenario,n,a,b,m0,t_or_tau,estimate,stderr,theory,runtime_s,seed"
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["scenario"] == "stein-rate"
        assert "timestamp" in manifest and "wall_time_s" in manifest
        sweep = (tmp_path / "stein_sweep.csv").read_text().splitlines()
        assert sweep[0] == "n,ell,m0,nu,distance,normalized"
        assert len(sweep) == 3

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

    def test_samples_csv_contract(self, tmp_path):
        from noisyvoter.transport import samples_to_csv
        p1 = tmp_path / "s1.csv"
        samples_to_csv(np.array([1.0, -0.5]), p1)
        assert p1.read_text().splitlines() == ["x", "1", "-0.5"]
        p2 = tmp_path / "s2.csv"
        samples_to_csv(np.array([[0.25, 2.0]]), p2)
        assert p2.read_text().splitlines() == ["x,y", "0.25,2"]
        with pytest.raises(ValueError):
            samples_to_csv(np.zeros((2, 3)), tmp_path / "bad.csv")

    def test_pmf_csv_contract(self, tmp_path):
        pmf = model.stationary_pmf(model.ModelParams(3, 1.0, 2.0))
        path = tmp_path / "pmf.csv"
        pmf.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,prob"
        support = [float(line.split(",")[0]) for line in lines[1:]]
        probs = [float(line.split(",")[1]) for line in lines[1:]]
        np.testing.assert_allclose(support, pmf.support)
        np.testing.assert_allclose(probs, pmf.probs, rtol=0, atol=0)  # full precision


def test_benchmark_span_targets_resolve():
    # perfbench/spans.py wraps package functions by attribute name, so a renamed
    # or deleted target fails here rather than under `perfbench/run.py --trace 1`
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    unresolved = [f"{module.__name__}.{attr}" for module, attr, *_ in spans.TARGETS
                  if not (module.__name__.startswith("noisyvoter.")
                          and callable(getattr(module, attr, None)))]
    assert unresolved == []
