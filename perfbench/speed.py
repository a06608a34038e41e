"""Machine-speed sampling from inside each op.

On a shared host, contention from other tenants changes the speed of all
code in the run by 20% or more for seconds to minutes at a time, so raw op
times from separate runs differ more than any regression worth catching.
``SpeedSampler`` times a small fixed job (numpy kernels plus Python loops,
no tsindep code) from a SIGALRM handler every ``PERIOD_S`` seconds while an
op runs, so the samples come from the same moments as the op.  Multiplying
an op's wall time by the mean relative speed ``NOMINAL_JOB_S / sample``
gives its time at the nominal machine speed.  The job costs about 1.5% of
each op.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.25
# The job's time on an uncontended 2-core x86-64 host; the scale only
# fixes the units, so normalised times read close to wall seconds there.
NOMINAL_JOB_S = 3.5e-3


class SpeedSampler:
    """Context manager that samples the job's time while its body runs."""

    def __init__(self):
        self._small = np.linspace(-2.0, 2.0, 160).reshape(80, 2)
        self._large = np.linspace(-2.0, 2.0, 400).reshape(200, 2)
        self._rot = np.array([[0.6, -0.8], [0.8, 0.6]])
        self._previous = None
        self.samples = []

    def _job(self, signum=None, frame=None):
        # Gram-like kernels on two array sizes, a loop of tiny array ops
        # (per-call overhead) and a pure-Python loop: the mix of work the
        # workloads do.
        start = time.perf_counter()
        for x in (self._small,) * 4 + (self._large,):
            diff = x[:, None, :] - x[None, :, :]
            np.exp(-np.einsum("ijk,ijk->ij", diff, diff)).mean(axis=1)
        v = np.ones(2)
        for _ in range(300):
            v = self._rot @ v * 1.0
        acc = 0
        for i in range(13000):
            acc += i * i
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._job)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a body shorter than one period
            self._job()
        return False

    @property
    def speed(self):
        """Mean of nominal over sampled job time: below 1 on a slowed machine.

        Work done at speed ``s(t)`` over a wall interval is proportional to
        the integral of ``s(t)``, so the mean of ``s`` over evenly spaced
        samples, times the wall time, is the time at nominal speed.
        """
        return statistics.fmean(NOMINAL_JOB_S / t for t in self.samples)
