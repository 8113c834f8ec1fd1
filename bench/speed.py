"""Machine-speed probe: rescale a timed region to a fixed reference speed.

The benchmark's host is shared.  Interpreter-bound code on it runs at one
of two speeds about 1.6x apart.  The speed switches every few seconds as
other tenants come and go on the physical core, and it can stay slow for
a whole run.  Memory-bound numpy streaming barely changes.  The same job
ran 6.8 s and 11.3 s minutes apart, so raw wall times spread by more than
any useful regression bound.

While a region is timed, SIGALRM fires every ``period`` seconds of wall
time.  The handler times a fixed piece of pure-Python work: a float loop
(``SPIN`` iterations) and the ``repr`` of ``FORMAT`` floats, the two kinds
of work the jobs do most (root solves and RK4 steps, CSV writing).  Each
stretch between two probes is scaled by ``REF_S`` over the mean of
its two probe times.  A stretch that ran while the core was slow then
counts for what it would have taken at the reference speed.  The probes'
own time is left out of both the wall and the scaled time.  The probe is
harness code and never calls vaxgame, so a change to the program cannot
move the yardstick.  On this host it cut the job-to-job coefficient of
variation from 8-13% to about 3%.  A probe takes about 0.33 ms, about 1%
of the time at the default period.
"""

from __future__ import annotations

import math
import signal
import time

SPIN = 1500
FORMAT = 150
# one probe's time inside a job on the machine the baseline was measured
# on (2-vCPU Intel Xeon VM, Python 3.11.7) while its core ran fast, so
# that a scaled time reads close to the wall time of an undisturbed run
REF_S = 2.8e-4
PERIOD_S = 0.04
_FLOATS = [math.sin(i + 0.5) / (i + 1.0) for i in range(FORMAT)]


def _work() -> int:
    x, acc, exp = 0.3, 0.0, math.exp
    for _ in range(SPIN):
        x = x * 3.7 * (1.0 - x)
        acc += exp(-x)
    return len(",".join(repr(v) for v in _FLOATS)) + int(acc)


class SpeedProbe:
    """Context manager that times its body in wall and in reference seconds."""

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.samples = []  # (start, duration) of every probe
        self._previous = None

    def _probe(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        _work()
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self):
        self.samples = []
        self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc_info) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()
        return False

    def _stretches(self):
        for (a, da), (b, db) in zip(self.samples, self.samples[1:]):
            yield b - (a + da), 0.5 * (da + db)

    def wall_s(self) -> float:
        """Wall time of the body, probes excluded."""
        return sum(s for s, _ in self._stretches())

    def scaled_s(self) -> float:
        """The body's time at the reference speed ``REF_S``."""
        return sum(s * REF_S / d for s, d in self._stretches())
