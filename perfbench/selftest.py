"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

For every workload, at one seed: a traced and an untraced scenario run must
write byte-identical ``results.csv`` files and pass the output check; the
output check must flag a deliberately perturbed copy of that output; the
tracer's self times must add up to the traced run's wall time and its
computed work counts must equal the values the workload's sizes imply; and
the tracer must leave the package's functions as it found them.  Prints one
line per check and exits nonzero if any fails.  Takes about a minute, most of
it the two validate runs.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
from workloads import QCLT_DISTANCE, WORKLOADS

SEED = 0


def _edit_results(outdir: Path, scenario: str, edit) -> None:
    path = outdir / "results.csv"
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    target = next(r for r in rows if r["scenario"] == scenario)
    edit(target)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def _scale_estimate(factor):
    def edit(row):
        row["estimate"] = repr(float(row["estimate"]) * factor)
    return edit


def _shift_estimate(amount):
    def edit(row):
        row["estimate"] = repr(float(row["estimate"]) + amount)
    return edit


def _fail_a_validate_check(outdir: Path) -> None:
    path = outdir / "validate_report.json"
    report = json.loads(path.read_text(encoding="utf-8"))
    next(iter(report["checks"].values()))["passed"] = False
    path.write_text(json.dumps(report), encoding="utf-8")


# A wrong answer per workload, each just beyond what its check allows.
PERTURB = {
    "mixing-exact": lambda out: _edit_results(out, "mixing-curve", _scale_estimate(1.0001)),
    "thermalize-cloud": lambda out: _edit_results(out, "thermalize", _scale_estimate(1.2)),
    "qclt-reference": lambda out: _edit_results(  # the first row is n = 32
        out, "qclt-rate", _shift_estimate(7 * QCLT_DISTANCE[32][1])),
    "validate-suite": _fail_a_validate_check,
}

# Work counts the workload sizes imply, per scenario run.
EXPECTED_COUNTS = {
    # 60 grid times for each of three sizes
    "mixing-exact": {"model.transient_law.calls": 180},
    # 3 repetitions x 3 taus matchings of 600 pairs; 1200 replicas x 3 horizons per repetition
    "thermalize-cloud": {"transport.w1_matching.pairs": 5400,
                         "transport.w1_matching.cost_cells": 9 * 600 ** 2,
                         "model.simulate_blocks_batch.replica_horizons": 3 * 1200 * 3},
    # 6000 paths at dt = 1e-3 and at dt = 5e-4 up to t = 1
    "qclt-reference": {"diffusion.simulate_wf.path_steps": 6000 * (1000 + 2000)},
    # density-apriori: 100 replicas x 4 horizons at two sizes
    "validate-suite": {"model.simulate_count_batch.replica_horizons": 800},
}


def check_workload(name: str, scratch: Path) -> list[str]:
    from spans import TARGETS, Tracer
    from speed import Speedometer

    failures = []
    bench = run.Bench(name, SEED, scratch / name)
    tracer = Tracer()
    originals = [getattr(module, attr) for module, attr, _, _ in TARGETS]
    with Speedometer() as meter:
        plain = bench.run_once(meter)
        traced = bench.run_once(meter, tracer)
    if [getattr(module, attr) for module, attr, _, _ in TARGETS] != originals:
        failures.append("tracer did not restore the package functions")
    # run_once compares every results.csv with the first one of the same seed
    for label, sample in (("untraced", plain), ("traced", traced)):
        if sample.problems:
            failures.append(f"{label} run: {'; '.join(sample.problems)}")

    wall = traced.wall
    total_self = sum(tracer.self_times()[0].values())
    if abs(total_self - wall) > 1e-3 * wall:
        failures.append(f"self times add up to {total_self:.6f} s, traced wall is {wall:.6f} s")
    for key, value in EXPECTED_COUNTS[name].items():
        if tracer.counts[0].get(key) != value:
            failures.append(f"{key} = {tracer.counts[0].get(key)}, expected {value}")

    PERTURB[name](bench.outdir)
    if not bench.workload.check(bench.outdir, 0):
        failures.append("output check accepted a perturbed result")
    return failures


def main() -> int:
    error = run.load_package()
    if error:
        print(f"selftest: {error}", file=sys.stderr)
        return 2
    run.WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
    failed = 0
    try:
        for name in WORKLOADS:
            failures = check_workload(name, scratch)
            failed += bool(failures)
            print(f"{'PASS' if not failures else 'FAIL'} {name}")
            for line in failures:
                print(f"    {line}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
