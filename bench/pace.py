"""The machine's pace, sampled while a ``thermo`` process runs.

The benchmark's host gives it cores whose speed changes from moment to
moment: while other work runs on the same physical core, a fixed computation
takes up to twice as long, and that share of time changes within seconds.
Wall times measured bare spread by about a quarter between runs of the same
code.  So each untraced ``thermo`` process samples the pace: every
``INTERVAL`` seconds a timer signal runs ``kernel``, a fixed mix of scipy
quadratures (one nested) over Python integrands built on numpy scalars, the
same kind of work as the program, and records when it started and ended.

``scaled_time`` turns an interval of the process's wall time into the time it
would have taken at the reference pace: the samples' own time is taken out,
and each stretch between two samples is multiplied by ``REFERENCE_S`` over
the mean of the two samples' kernel times.  The reference is fixed, not
taken from the run (its fastest sample, say), because a run on a machine
loaded throughout sees no sample at the unloaded pace.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np
from scipy.integrate import quad

INTERVAL = 0.2     # seconds between two samples
# The kernel's time at the reference pace: about its fastest on an unloaded
# core of the 2-core Xeon VM (2.0 GHz) the benchmark was tuned on, so that
# scaled times there read as wall times without other load.
REFERENCE_S = 0.0055
# Samples taken one after the other at the start; their mean pace holds for
# the time before them, mostly the imports of set-up.  Fast and slow
# stretches alternate every few tens of milliseconds, so one sample alone
# would often catch the one that is not typical.
HEAD_SAMPLES = 8


def _damped(x: float, k: float) -> float:
    y = np.sqrt(x * x + k)
    return float(np.exp(-y) * np.sin(k * x + 1.0) ** 2 / (1.0 + x * y))


def _lorentz(w: float, a: float) -> float:
    return quad(lambda p: math.exp(-p * a) / (1.0 + (p - w) ** 2),
                0.0, 20.0)[0]


def kernel() -> float:
    """A fixed computation of about 10 ms on an unloaded core."""
    s = 0.0
    for k in (0.5, 1.5, 2.5):
        s += quad(_damped, 0.0, 30.0, args=(k,), limit=200)[0]
    for a in (1.1, 1.3):
        s += quad(lambda w: _lorentz(w, a) * math.cos(w), 0.0, 4.0,
                  limit=50)[0]
    return s


class Sampler:
    """Runs ``kernel`` from a timer signal and keeps (start, end) pairs."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        # The first call warms caches; it is timed like the others, so its
        # time is taken out of the program's, but its pace is not used.
        self.warmup = self._sample()

    def _sample(self) -> tuple[float, float]:
        t0 = time.monotonic()
        kernel()
        return t0, time.monotonic()

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(self._sample())

    def start(self) -> None:
        self.samples += [self._sample() for _ in range(HEAD_SAMPLES)]
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> dict:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.samples.append(self._sample())
        return {"warmup": list(self.warmup), "samples": self.samples}


def removed_time(a: float, b: float, record: dict) -> float:
    """Time within [a, b] spent in the sampler's own kernel calls."""
    return sum(_overlap(s, e, a, b)
               for s, e in [record["warmup"], *record["samples"]])


def scaled_time(a: float, b: float, record: dict,
                ref: float = REFERENCE_S) -> float:
    """Program time within [a, b] at the pace whose kernel takes ``ref`` s.

    Before the first sample the mean pace of the first ``HEAD_SAMPLES``
    holds, after the last the last one's; between two samples the mean of
    theirs.
    """
    samples = record["samples"]
    durs = [e - s for s, e in samples]
    ws, we = record["warmup"]
    total = (_overlap(-math.inf, ws, a, b)
             + _overlap(we, samples[0][0], a, b)) * ref / statistics.fmean(
                 durs[:HEAD_SAMPLES])
    for (_, e0), (s1, _), d0, d1 in zip(samples, samples[1:], durs,
                                        durs[1:]):
        total += _overlap(e0, s1, a, b) * ref / (0.5 * (d0 + d1))
    total += _overlap(samples[-1][1], math.inf, a, b) * ref / durs[-1]
    return total


def _overlap(s: float, e: float, a: float, b: float) -> float:
    return max(0.0, min(e, b) - max(s, a))


def kernel_times(records: list[dict]) -> list[float]:
    """The kernel time of every sample of ``records``."""
    return [e - s for r in records for s, e in r["samples"]]
