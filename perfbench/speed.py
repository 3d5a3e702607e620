"""A speedometer for timing on a host whose speed drifts.

On a shared host a fixed piece of Python code can turn about 1.5 times
slower within a second, as other tenants load the same physical cores, and
stay so for seconds to minutes.  A run cannot average that away, so
the benchmark measures the speed alongside the workload and reports times
at one fixed reference speed instead.

A probe is a fixed exact elimination on a small matrix of Fractions, the
kind of work the engine itself does (Gaussian-rational RREF); it uses
nothing from liecohom, so no change to the engine changes it.  While a
span runs, a timer interrupts it every ``PERIOD_S`` seconds to time one
probe.  Each stretch of the span between two probes is rescaled by
``REFERENCE_PROBE_S / p``, where ``p`` is the median duration of the
probes around it; the probes' own time is left out.

    with Speedometer() as meter:
        work()
    meter.raw_s, meter.scaled_s
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# Duration of one probe at the reference speed: the probe's fastest steady
# duration on a 2-core Intel Xeon VM at 2.1 GHz under CPython 3.11.7.
REFERENCE_PROBE_S = 0.0008
PERIOD_S = 0.05  # timer period while a span runs
WINDOW = 2  # probes on each side of a stretch whose median sets its speed

_N = 6
_MATRIX = [
    [Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i * j) % 4) for j in range(_N + 1)]
    for i in range(_N)
]


def _eliminate() -> list:
    m = [row[:] for row in _MATRIX]
    r = 0
    for c in range(_N + 1):
        pivot = next((i for i in range(r, _N) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(_N):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
        if r == _N:
            break
    return m


def probe() -> tuple[float, float]:
    """Time one probe; return its (start, end) on ``time.perf_counter``."""
    start = time.perf_counter()
    _eliminate()
    return start, time.perf_counter()


def probe_s() -> float:
    """Median duration of five probes in a row."""
    return statistics.median(b - a for a, b in (probe() for _ in range(5)))


def scale(stretches: list[float], probes: list[float]) -> float:
    """Rescale ``stretches[i]``, which ran between ``probes[i]`` and
    ``probes[i + 1]``, to the reference speed and add them up."""
    total = 0.0
    for i, dt in enumerate(stretches):
        around = probes[max(i + 1 - WINDOW, 0) : i + 1 + WINDOW]
        total += dt * REFERENCE_PROBE_S / statistics.median(around)
    return total


class Speedometer:
    """Times a span (``with`` block) in wall seconds, ``raw_s``, and at the
    reference speed, ``scaled_s``; both leave out the probes' own time."""

    def __enter__(self) -> "Speedometer":
        self._samples = [probe()]
        self._busy = False
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def _tick(self, signum, frame) -> None:
        if not self._busy:  # a tick that lands inside a probe is dropped
            self._busy = True
            self._samples.append(probe())
            self._busy = False

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._samples.append(probe())
        s = self._samples
        stretches = [b[0] - a[1] for a, b in zip(s, s[1:])]
        self.raw_s = sum(stretches)
        self.scaled_s = scale(stretches, [b - a for a, b in s])
        self.probes = len(s)
