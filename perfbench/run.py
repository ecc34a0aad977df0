"""Scenario benchmark: end-to-end wall time per workload, per-layer self time
and computed work from a separate traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  One process runs one scenario at a time through
``noisyvoter.experiments.run`` (a closed loop with one client), all with the
same seed, until the next run would end past ``--seconds``; at least one
run is always made.  Every run's outputs are checked, and every run must write
the same ``results.csv`` bytes as the first.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` alternates untraced
and traced runs and prints the per-layer metrics.  Metric names and units come
from ``BENCHMARK.json``.

End-to-end times are in reference seconds: wall time scaled by the machine's
speed relative to the reference box, from a calibration kernel timed during
and around each scenario run (see ``speed.py``).  The raw medians are printed
and recorded too.  Per-layer times are raw.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from speed import PERIOD_S, Speedometer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# BLAS/OpenMP pools are pinned to one thread (nproc is 2 on the reference box)
# so library threads cannot compete with the closed loop or with each other.
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # the tail percentile has at least this many runs above it

# Set-up as a user pays it: a fresh interpreter imports numpy, scipy and the
# package and builds the config.  Timed inside the child, so interpreter
# start-up itself is excluded.
SETUP_CODE = """\
import time
start = time.perf_counter()
import json, sys
sys.path.insert(0, sys.argv[1])
import numpy, scipy, noisyvoter
from noisyvoter.experiments import ExperimentConfig
ExperimentConfig(**json.loads(sys.argv[2]))
print(repr(time.perf_counter() - start))
"""


@dataclass
class Sample:
    wall: float
    traced: bool
    problems: list[str] = field(default_factory=list)
    speed: float = 1.0  # machine speed relative to the reference box

    @property
    def ref_wall(self) -> float:
        return self.wall * self.speed


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "seed": seed,
    }


def measure_setup(config: dict) -> list[Sample]:
    times = []
    with Speedometer() as meter:
        for _ in range(SETUP_REPEATS):
            mark = meter.mark()
            done = subprocess.run(
                [sys.executable, "-c", SETUP_CODE, str(SRC), json.dumps(config)],
                cwd=ROOT, capture_output=True, text=True, check=True, timeout=120)
            _, speed = meter.since(mark, 0.0, 0.0)
            wall = float(done.stdout.strip().splitlines()[-1])
            times.append(Sample(wall, traced=False, speed=speed))
    return times


class Bench:
    """Runs one workload's scenario repeatedly and checks every output."""

    def __init__(self, name: str, seed: int, scratch: Path):
        from noisyvoter import experiments
        from noisyvoter.errors import CapacityError, DiagnosticError

        self.experiments = experiments
        self.expected_errors = (CapacityError, DiagnosticError)
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.outdir = scratch / "out"
        self.first_csv = None

    def run_once(self, meter: Speedometer, tracer=None) -> Sample:
        shutil.rmtree(self.outdir, ignore_errors=True)
        cfg = self.experiments.ExperimentConfig(seed=self.seed, out=str(self.outdir),
                                                **self.workload.config)
        traced = tracer is not None
        error = None
        with tracer if traced else contextlib.nullcontext():
            if traced:
                tracer.new_sample()
            mark = meter.mark()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = self.experiments.run(cfg)
            except self.expected_errors as exc:
                error = f"{type(exc).__name__}: {exc}"
            end = time.perf_counter()
        wall, speed = meter.since(mark, start, end)
        if error:
            return Sample(wall, traced, [error], speed)
        try:
            problems = self.workload.check(self.outdir, code)
            csv_bytes = (self.outdir / "results.csv").read_bytes()
        except (OSError, ValueError, KeyError) as exc:
            return Sample(wall, traced, [f"unreadable output: {exc!r}"], speed)
        if self.first_csv is None:
            self.first_csv = csv_bytes
        elif csv_bytes != self.first_csv:
            problems.append("results.csv differs from the first run with this seed")
        return Sample(wall, traced, problems, speed)

    def loop(self, seconds: float, tracer=None) -> list[Sample]:
        """Run until the next run would end past ``seconds``.  With a tracer,
        runs alternate untraced and traced, and there is one of each at least;
        the kernel then runs only between scenario runs, so that it adds
        nothing to any span."""
        samples = []
        start = time.perf_counter()
        with Speedometer(None if tracer else PERIOD_S) as meter:
            while True:
                use = tracer if tracer is not None and len(samples) % 2 == 1 else None
                samples.append(self.run_once(meter, use))
                elapsed = time.perf_counter() - start
                typical = statistics.median(s.wall for s in samples)
                if (tracer is None or len(samples) >= 2) and elapsed + typical > seconds:
                    return samples


def tail(walls: list[float]) -> tuple[float, str]:
    """Highest percentile with TAIL_BEYOND runs above it, or the maximum."""
    ordered = sorted(walls)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], f"maximum; fewer than {TAIL_BEYOND + 1} runs"
    index = len(ordered) - TAIL_BEYOND - 1
    return ordered[index], f"p{100.0 * (index + 1) / len(ordered):.1f}, {TAIL_BEYOND} runs above"


def end_to_end(samples: list[Sample], setup: list[Sample]) -> tuple[dict, dict]:
    walls = [s.ref_wall for s in samples]
    tail_value, tail_note = tail(walls)
    values = {
        "wall_s": statistics.median(walls),
        "wall_tail_s": tail_value,
        "setup_s": statistics.median(s.ref_wall for s in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw = statistics.median(s.wall for s in samples)
    notes = {
        "wall_s": f"median of {len(walls)} scenario runs; {raw:.4g} s measured",
        "wall_tail_s": tail_note,
        "setup_s": f"median of {len(setup)} fresh processes; "
                   f"{statistics.median(s.wall for s in setup):.4g} s measured",
        "peak_rss_mb": "peak resident memory of this process",
    }
    return values, notes


def per_layer(samples: list[Sample], tracer, names: list[str]) -> tuple[dict, dict]:
    selfs = tracer.self_times()
    traced = range(len(tracer.counts))
    values = {}
    for name in names:
        if name == "tracing_overhead_s":
            values[name] = (statistics.median(s.wall for s in samples if s.traced)
                            - statistics.median(s.wall for s in samples if not s.traced))
            continue
        span, kind = name.rsplit(".", 1)
        per_sample = [selfs[i].get(span, 0.0) if kind == "self_s"
                      else tracer.counts[i].get(name, 0) for i in traced]
        values[name] = statistics.median(per_sample)
    note = f"median of {len(traced)} traced scenario runs"
    return values, {name: note for name in names}


def load_package() -> str | None:
    """Pin the thread pools, then import the package from the checkout's
    ``src/``.  Returns why that failed, or None."""
    if not (SRC / "noisyvoter" / "__init__.py").is_file():
        return f"no package source under {SRC}"
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    sys.path.insert(0, str(SRC))
    import noisyvoter

    if Path(noisyvoter.__file__).resolve().parent != (SRC / "noisyvoter").resolve():
        return f"imported {noisyvoter.__file__}, not the checkout's package"
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    error = load_package()
    if error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    from spans import Tracer

    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        bench = Bench(args.workload, args.seed, scratch)
        if args.trace:
            tracer = Tracer()
            samples = bench.loop(args.seconds, tracer)
            listed = spec["per_layer"]
            values, notes = per_layer(samples, tracer, [m["name"] for m in listed])
            (WORK / f"{args.workload}-seed{args.seed}-spans.json").write_text(
                json.dumps(tracer.dump()), encoding="utf-8")
        else:
            config = dict(bench.workload.config, seed=args.seed, out=str(bench.outdir))
            setup = measure_setup(config)
            samples = bench.loop(args.seconds)
            listed = spec["end_to_end"]
            values, notes = end_to_end(samples, setup)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = [s for s in samples if s.problems]
    units = {m["name"]: m["unit"] for m in listed}
    if set(values) != set(units):
        raise RuntimeError(f"computed metrics {sorted(values)} differ from {sorted(units)}")
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed),
        "config": bench.workload.config,
        "walls_s": [s.wall for s in samples],
        "speeds": [s.speed for s in samples],
        "traced": [s.traced for s in samples],
        "problems": [s.problems for s in samples],
        "metrics": values,
        "notes": notes,
    }
    (WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str), encoding="utf-8")

    for problems, count in Counter("; ".join(s.problems) for s in failed).items():
        print(f"{count} failed run(s): {problems}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(samples)} scenario runs, {len(failed)} failed")
    for name, value in values.items():
        print(f"  {name:44s} {value:14.6g} {units[name]:6s} ({notes[name]})")
    print(f"  {'failed_frac':44s} {len(failed) / len(samples):14.6g} {'1':6s} "
          f"({len(failed)} of {len(samples)} runs failed)")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
