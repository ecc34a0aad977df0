"""Benchmark workloads and the checks that decide whether a run's outputs are right.

Each workload is one scenario configuration run through
``noisyvoter.experiments.run``.  The sizes are cut down from the paper-scale
runs so that one benchmark run holds dozens of scenario runs, while each
workload keeps the layer that dominates it at paper scale (see README.md).

The checks must catch wrong answers but survive a change of random stream:
deterministic outputs are compared with values recorded when the benchmark
was added, Monte Carlo outputs with their declared tolerance or with the
spread over seeds recorded then.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Workload:
    config: dict  # ExperimentConfig keyword arguments apart from seed and out
    check: Callable[[Path, int], list[str]]  # (output dir, exit code) -> problems


def _rows(outdir: Path, scenario: str | None = None) -> list[dict]:
    """results.csv rows, only those of ``scenario`` when it is given."""
    with open(outdir / "results.csv", newline="", encoding="utf-8") as fh:
        return [row for row in csv.DictReader(fh) if scenario in (None, row["scenario"])]


def _manifest(outdir: Path) -> dict:
    with open(outdir / "manifest.json", encoding="utf-8") as fh:
        return json.load(fh)


# t_mix/n at eps = 0.01, 0.05, 0.1 for n = 32, 64, 128 (a = b = 1, m0 = 0.5,
# default 60-point grid).  The exact laws use no random numbers, so these are
# the same for every seed.
MIXING_TMIX = {
    32: (0.4636408933412563, 0.19771830119517375, 0.09074485779449785),
    64: (0.46087040873386964, 0.19503198729125965, 0.08832495957478627),
    128: (0.4595256102180869, 0.19373036228651266, 0.08716061552348701),
}
MIXING_EPS = (0.01, 0.05, 0.1)
MIXING_ATOL = 1e-6


def check_mixing(outdir: Path, exit_code: int) -> list[str]:
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    got = {(int(r["n"]), float(r["t_or_tau"])): float(r["estimate"])
           for r in _rows(outdir, "mixing-curve")}
    want = {(n, eps): tm for n, tms in MIXING_TMIX.items() for eps, tm in zip(MIXING_EPS, tms)}
    if set(got) != set(want):
        problems.append(f"mixing rows {sorted(got)} differ from {sorted(want)}")
    for key, value in want.items():
        if key in got and not abs(got[key] - value) <= MIXING_ATOL:
            problems.append(f"t_mix/n at (n, eps)={key}: {got[key]!r}, recorded {value!r}")
    mixing = _manifest(outdir).get("mixing", {})
    if mixing.get("no_cutoff") is not True:
        problems.append("no_cutoff is not true")
    if not mixing.get("drift_rel", math.inf) < 0.10:
        problems.append(f"drift_rel {mixing.get('drift_rel')!r} is not below 0.10")
    return problems


THERMALIZE_TAUS = (-1.0, 0.0, 1.0)
THERMALIZE_REL_TOL = 0.15  # the tolerance the manifest declares for |tau| <= 1


def check_thermalize(outdir: Path, exit_code: int) -> list[str]:
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    rows = _rows(outdir, "thermalize")
    taus = tuple(float(r["t_or_tau"]) for r in rows)
    if taus != THERMALIZE_TAUS:
        problems.append(f"tau rows {taus} differ from {THERMALIZE_TAUS}")
    for r in rows:
        tau, est = float(r["t_or_tau"]), float(r["estimate"])
        profile = 2.0 * math.exp(-tau)
        if not abs(est - profile) <= THERMALIZE_REL_TOL * profile:
            problems.append(f"tau={tau}: estimate {est!r} is not within "
                            f"{THERMALIZE_REL_TOL:.0%} of 2 exp(-tau) = {profile!r}")
    return problems


# Per-n distance at the commit that added the benchmark: mean and standard
# deviation over seeds 0-59 (n = 32, 64, 128, t = 1, 6000 paths).  The run's
# own batched stderr is too noisy to scale the tolerance: over 70 seeds it
# ranged from 0.0004 to 0.0028.
QCLT_DISTANCE = {
    32: (0.01110247825180957, 0.0010377675557568511),
    64: (0.006608105767639028, 0.0011663660339670029),
    128: (0.004774211647940545, 0.0012597593077302372),
}
QCLT_Z = 6.0  # the distances are skewed upward; the largest seen was 2.8 sd


def check_qclt(outdir: Path, exit_code: int) -> list[str]:
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    rows = {int(r["n"]): float(r["estimate"]) for r in _rows(outdir, "qclt-rate")}
    if set(rows) != set(QCLT_DISTANCE):
        problems.append(f"qclt rows for n={sorted(rows)}, expected {sorted(QCLT_DISTANCE)}")
    for n, (mean, sd) in QCLT_DISTANCE.items():
        if n in rows and not abs(rows[n] - mean) <= QCLT_Z * sd:
            problems.append(f"n={n}: distance {rows[n]!r} is more than {QCLT_Z} sd "
                            f"from the recorded mean {mean!r}")
    qclt = _manifest(outdir).get("qclt", {})
    gap, floor = qclt.get("halving_gap", math.inf), qclt.get("reference_noise_floor", 0.0)
    if not gap <= max(3.0 * floor, 2e-3):
        problems.append(f"step-halving gap {gap!r} fails the gate (noise floor {floor!r})")
    return problems


def check_validate(outdir: Path, exit_code: int) -> list[str]:
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    with open(outdir / "validate_report.json", encoding="utf-8") as fh:
        checks = json.load(fh)["checks"]
    if not checks:
        problems.append("validate ran no checks")
    problems += [f"check {name} failed" for name, info in checks.items() if info["passed"] is not True]
    names = sorted(r["scenario"].removeprefix("validate:") for r in _rows(outdir))
    if names != sorted(checks):
        problems.append("results.csv rows do not match validate_report.json")
    return problems


# Why each workload: see README.md.  In short, mixing-exact is all exact-law
# uniformization, thermalize-cloud is wide-lockstep simulation plus matching,
# qclt-reference is the Euler-Maruyama reference, and validate-suite is the
# narrow-lockstep count batch plus the only use of the Stein solver.
WORKLOADS = {
    "mixing-exact": Workload(
        {"scenario": "mixing-curve", "n": (32, 64, 128), "a": 1.0, "b": 1.0, "m0": 0.5},
        check_mixing),
    "thermalize-cloud": Workload(
        {"scenario": "thermalize", "n": (500,), "ell": 250, "grid": THERMALIZE_TAUS,
         "samples": 600, "repetitions": 3},
        check_thermalize),
    "qclt-reference": Workload(
        {"scenario": "qclt-rate", "n": (32, 64, 128), "grid": (1.0,), "samples": 6000},
        check_qclt),
    "validate-suite": Workload(
        {"scenario": "validate", "samples": 100},
        check_validate),
}
