"""Machine-speed calibration for the end-to-end timings.

On a shared machine the CPU's speed drifts by 15-35% over seconds to tens of
seconds, and CPU time drifts with wall time, so medians of raw wall time move
between runs of the same code.  A fixed kernel, independent of the package,
is timed while the benchmark runs.  A scenario run's wall time, less the
kernel runs inside it, times ``CALIBRATION_REF_S`` over the kernel's median
time during and around the run, is its wall time at the reference box's
speed.  perfbench/README.md gives the spreads with and without it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Median kernel time on the reference box (2-core Xeon at 2.1 GHz).
CALIBRATION_REF_S = 0.0055
# Seconds between kernel runs during a scenario run; about 3% of the time.
PERIOD_S = 0.2


def calibration_kernel() -> None:
    """The kinds of work the scenarios are made of, about half of the time
    each: small-array numpy calls and interpreted Python (a banded update on
    100 states, a lockstep step over 500 replicas, a plain loop), and
    elementwise passes over 8000-element arrays (an Euler-Maruyama step)."""
    v = np.full(100, 0.01)
    up = np.linspace(0.1, 0.3, 100)
    down = up[::-1].copy()
    stay = 1.0 - up - down
    for _ in range(125):
        w = v * stay
        w[1:] += v[:-1] * up[:-1]
        w[:-1] += v[1:] * down[1:]
        v = w
    rng = np.random.default_rng(0)
    k = np.full(500, 50)
    for _ in range(20):
        total = (100 - k) * (1.0 + k) / 100 + k * (101.0 - k) / 100
        k = np.clip(np.where(rng.random(500) * total < total / 2, k + 1, k - 1), 0, 100)
    acc = 0
    for i in range(7500):
        acc += i * i
    x = rng.random(8000)
    for _ in range(14):
        noise = rng.standard_normal(8000)
        x += (1.0 - 2.0 * x) * 1e-3 + np.sqrt(2.0 * x * (1.0 - x) * 1e-3) * noise
        np.clip(x, 0.0, 1.0, out=x)


class Speedometer:
    """Kernel readings (start, end) taken on demand and, with a period, from a
    SIGALRM timer in the main thread while a scenario runs."""

    def __init__(self, period: float | None = None):
        self.period = period
        self.readings: list[tuple[float, float]] = []
        self._busy = False
        self._previous_handler = None

    def __enter__(self):
        if self.period:
            self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        self.read()
        return self

    def __exit__(self, *exc):
        if self.period:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous_handler)
        return False

    def _on_alarm(self, _signum, _frame):
        self.read()

    def read(self) -> None:
        if self._busy:  # an alarm during a reading: skip it
            return
        self._busy = True
        try:
            start = time.perf_counter()
            calibration_kernel()
            self.readings.append((start, time.perf_counter()))
        finally:
            self._busy = False

    def mark(self) -> int:
        """Index of the latest reading; pass it to ``since`` after the work."""
        return len(self.readings) - 1

    def since(self, mark: int, start: float, end: float) -> tuple[float, float]:
        """Take one more reading, then return the seconds in [start, end] not
        spent in kernel runs and the speed relative to the reference box from
        the readings from ``mark`` on."""
        self.read()
        window = self.readings[mark:]
        inside = sum(max(0.0, min(e, end) - max(s, start)) for s, e in window)
        typical = statistics.median(e - s for s, e in window)  # robust to a preempted reading
        return end - start - inside, CALIBRATION_REF_S / typical
