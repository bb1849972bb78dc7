"""Machine-speed probe, so that timings stay comparable on a noisy machine.

On the 2-core VM the benchmark was built on, the same work took up to 30%
longer at some times than at others, within one process as much as between
processes.  A fixed probe loop of 15-node numpy calls and Python float
arithmetic, the mix of the lab's hot path, slows down with it.  The probe is
timed right before and right after a measurement and, from a SIGALRM
handler, about every PROBE_PERIOD_S during it; the measurement is then
rescaled to the speed at which one probe takes PROBE_REF_S.  On repeated
6-7 s curve calls this cut the coefficient of variation from 10.8% to 3.4%.

The probe runs inside the measured process, so a change that slowed numpy
globally would also slow the probe and read as a gain: compare the raw
times, which every record keeps.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

import numpy as np

PROBE_PERIOD_S = 0.1
PROBE_REF_S = 1e-3
BRACKET = 5

_X = np.linspace(0.1, 1.0, 15)


def probe() -> float:
    acc = 0.0
    for i in range(150):
        y = np.exp(-_X * (i % 7)) * np.sqrt(_X) + _X**1.5
        acc += float(np.dot(y, _X))
    return acc


class SpeedSampler:
    """Times `probe` around a measurement and every PROBE_PERIOD_S inside it.

    `inside_s` is the probe time spent inside the measurement, which the
    caller subtracts from its raw time; `scale` converts the remaining time
    to reference-speed seconds.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.inside_s = 0.0
        self._previous = None

    def _time_probe(self) -> float:
        enabled = gc.isenabled()
        gc.disable()  # collecting the program's garbage is not the probe's work
        try:
            start = time.perf_counter()
            probe()
            elapsed = time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        self.samples.append(elapsed)
        return elapsed

    def _on_alarm(self, signum, frame) -> None:
        self.inside_s += self._time_probe()

    def __enter__(self) -> "SpeedSampler":
        for _ in range(BRACKET):
            self._time_probe()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(BRACKET):
            self._time_probe()

    @property
    def scale(self) -> float:
        return PROBE_REF_S / statistics.fmean(self.samples)
