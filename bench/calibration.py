"""Host-speed calibration: a fixed chunk of work timed while a case runs.

The benchmark's host is shared. Its speed drifts by up to 2x over seconds and
by 25 % between minutes, and CPU time drifts with it, so the slowdown is in
the hardware, not in scheduling. A `Sampler` runs a fixed calibration chunk
every INTERVAL_S of wall time from a SIGALRM handler, while the timed code
runs, and once before and once after it. The chunk is a fixed mix of the
three kinds of work a `normplane run` does: a pure-Python loop, numpy calls
on 8-element arrays and numpy calls on 1e5-element arrays. It touches no
normplane code, so a change to normplane never moves it.

`Sampler.reference_seconds` is the timed code's own time (elapsed time minus
the time spent in the handler), scaled by REFERENCE_S over the mean chunk
time: the time the code would take on a host that runs the chunk in
REFERENCE_S. A SIGALRM handler runs between bytecodes, so a chunk waits for a
numpy call in progress to return; normplane's calls take milliseconds.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

INTERVAL_S = 0.05
# about the median chunk time on the 2-core shared host the benchmark was written on
REFERENCE_S = 0.003

_SMALL = np.linspace(0.0, 1.0, 8)
_LARGE = np.linspace(0.0, 1.0, 100_000)


def _chunk():
    s = 0
    for i in range(10_000):
        s += (i * i) % 7
    x = _SMALL
    for _ in range(100):
        y = np.sqrt(np.abs(np.cos(x) * x + 1.0))
        x = x + y.sum() * 1e-9
    x = _LARGE + 1e-9 * np.sqrt(np.abs(np.cos(_LARGE) * _LARGE + 1.0))
    return s + x[0]


def _timed_chunk():
    t0 = perf_counter()
    _chunk()
    return perf_counter() - t0


_chunk()  # first calls into numpy are slower; keep them out of every timing


def chunk_seconds(repeats: int = 10) -> float:
    """Mean time of `repeats` calibration chunks run now."""
    return sum(_timed_chunk() for _ in range(repeats)) / repeats


class Sampler:
    """Context manager that times its block and, if `calibrate`, samples the
    host's speed while the block runs."""

    def __init__(self, calibrate: bool = True):
        self.calibrate = calibrate
        self.chunks = []
        self.in_handler = 0.0
        self.elapsed = None

    def _on_alarm(self, signum, frame):
        t0 = perf_counter()
        self.chunks.append(_timed_chunk())
        self.in_handler += perf_counter() - t0

    def __enter__(self):
        if self.calibrate:
            self.chunks.append(_timed_chunk())
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        if self.calibrate:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.elapsed = perf_counter() - self._t0
        if self.calibrate:
            signal.signal(signal.SIGALRM, self._previous)
            self.chunks.append(_timed_chunk())
        return False

    @property
    def reference_seconds(self) -> float:
        """The block's own time, in reference seconds."""
        own = self.elapsed - self.in_handler
        return own * REFERENCE_S * len(self.chunks) / sum(self.chunks)
