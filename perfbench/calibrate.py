"""Speed probe: how fast this machine ran Python while the benchmark ran.

The benchmark runs on a shared host whose speed changes by up to 2x, in
phases of well under a second whose mix drifts over minutes, for every
process alike.  `SpeedProbe` times a tiny fixed job from a SIGALRM handler
every `INTERVAL` seconds while the inputs run, so its samples fall inside
the timed operations and follow the phases they ran in.  The job never calls
hilbcert and runs with the garbage collector off, so neither a change to the
library nor the size of its heap changes the job's time.  Its mix is the one
the library spends its time in: modular arithmetic over lists of small ints,
dicts keyed by exponent tuples, and `Fraction` arithmetic.

A run divides its wall-clock times, less the time spent in the probe, by the
run's speed factor: the mean probe time over `NOMINAL_SECONDS`.  Reported
times are then seconds on a machine that runs the probe job in
`NOMINAL_SECONDS`.
"""

from __future__ import annotations

import gc
import signal
import statistics
from fractions import Fraction
from time import perf_counter

INTERVAL = 0.02
MIN_PROBES = 5
# probe-job time that defines the reported seconds: about what the job takes
# on a 2.0 GHz Xeon vCPU of the machine the baseline was measured on
NOMINAL_SECONDS = 0.0003

_ROW = [(7 * i + 3) % 101 for i in range(256)]
_EXPS = [(i % 5, i % 3, i % 7, i % 2) for i in range(64)]
_FRACS = [Fraction(i % 7 - 3, i % 5 + 1) for i in range(32)]


def probe_job():
    """The fixed job; returns a checksum so that no step can be skipped."""
    row = [(x - 3 * y) % 101 for x, y in zip(_ROW, reversed(_ROW))]
    poly = {}
    for k, e in enumerate(_EXPS):
        key = tuple(a + b for a, b in zip(e, _EXPS[-1 - k]))
        poly[key] = (poly.get(key, 0) + row[k]) % 101
    acc = Fraction(0)
    for f in _FRACS:
        acc = acc * f + f
    return sum(row) + len(poly) + acc.numerator % 101


_EXPECTED = probe_job()


def job_seconds(repeats):
    """Durations of `repeats` runs of the probe job, timed here rather than
    from the timer (set-up, which runs outside the probed rounds)."""
    probe_job()  # warm up
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            t0 = perf_counter()
            probe_job()
            times.append(perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return times


def factor_of(samples):
    """Speed factor (mean probe time over NOMINAL_SECONDS) of `samples`."""
    return statistics.fmean(samples) / NOMINAL_SECONDS


class SpeedProbe:
    """Context manager that runs `probe_job` every INTERVAL seconds of wall
    time and keeps each run's duration in `samples`."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0  # seconds inside the handler
        self._old = None

    def _handler(self, signum, frame):
        t0 = perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        t1 = perf_counter()
        out = probe_job()
        t2 = perf_counter()
        if enabled:
            gc.enable()
        if out != _EXPECTED:
            raise RuntimeError("the probe job gave a different result")
        self.samples.append(t2 - t1)
        self.spent += perf_counter() - t0

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def factor(self, start=None, stop=None):
        """How much slower than nominal the machine ran: the mean probe time,
        which weighs the fast and slow phases as the timed work met them,
        over NOMINAL_SECONDS.

        With `start`/`stop`, over that slice of the samples, or None when it
        holds fewer than MIN_PROBES.  Without, over the whole run; a run too
        short for MIN_PROBES probes (the smoke size) is topped up with probes
        timed here."""
        if start is not None:
            part = self.samples[start:stop]
            return factor_of(part) if len(part) >= MIN_PROBES else None
        while len(self.samples) < MIN_PROBES:
            self._handler(None, None)
        return factor_of(self.samples)
