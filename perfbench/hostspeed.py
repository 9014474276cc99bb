"""Host-speed sampling, so that timings can be read at one reference speed.

Other tenants share this kind of host's cores: its speed drifts by tens
of percent within seconds, for interpreter and numpy work alike, and
process CPU time drifts with it.  A :class:`HostSpeed` times a fixed
probe (interpreter loop, sort, small matrix product) from an interval
timer while the benchmark runs; ``cli_peak.py`` does the same inside
each ``micpq`` command's process.  A span is then read as

    (wall time - probe time inside it) * PROBE_REFERENCE_S / probe time near it

that is, as the time the same work takes when the probe takes
``PROBE_REFERENCE_S`` (see :meth:`HostSpeed.scaled` for "near").  The probe runs in the measured thread, between
the program's bytecodes, so it sees the same core at the same moment.
"""
from __future__ import annotations

import contextlib
import signal
import time

import numpy as np

PROBE_REFERENCE_S = 2.0e-3
SAMPLE_PERIOD_S = 0.2
NEIGHBOURS = 3  # probes before and after a short span that also speak for it
MIN_INSIDE = 5


class HostSpeed:
    def __init__(self) -> None:
        gen = np.random.default_rng(0)
        self._keys = gen.random(50_000)
        self._mat = gen.random((96, 96))
        self._samples: list[tuple[float, float]] = []  # (start, seconds)
        self._arrays = (np.empty(0), np.empty(0))

    def probe(self) -> None:
        start = time.perf_counter()
        total = 0
        for i in range(8000):
            total += i * i
        np.argsort(self._keys)
        self._mat @ self._mat
        self._samples.append((start, time.perf_counter() - start))

    def burst(self, n: int = MIN_INSIDE) -> None:
        for _ in range(n):
            self.probe()

    @contextlib.contextmanager
    def sampling(self):
        """Probe every SAMPLE_PERIOD_S while the block runs."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.probe())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    @contextlib.contextmanager
    def paused(self):
        """Stop sampling, e.g. while a child process has the CPU."""
        interval = signal.getitimer(signal.ITIMER_REAL)
        signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            yield
        finally:
            if interval[1] > 0:
                signal.setitimer(signal.ITIMER_REAL, interval[1], interval[1])

    def median_probe_s(self) -> float:
        return float(np.median([seconds for _, seconds in self._samples]))

    def summary(self) -> tuple[float, float]:
        """(trimmed mean probe, total probe time) over all probes so far."""
        durations = np.array([seconds for _, seconds in self._samples])
        return _trimmed_mean(durations), float(durations.sum())

    def scaled(self, start: float, seconds: float) -> float:
        """A span's duration at the reference host speed, without the
        probes that ran inside it.

        A span holding at least MIN_INSIDE probes is read with the trimmed
        mean of those probes (they sample its time evenly); a shorter one
        with the median of the probes inside it and its NEIGHBOURS on
        either side.
        """
        if len(self._arrays[0]) != len(self._samples):
            samples = np.array(sorted(self._samples))
            self._arrays = (samples[:, 0], samples[:, 1])
        starts, durations = self._arrays
        first = int(np.searchsorted(starts, start))
        last = int(np.searchsorted(starts, start + seconds))
        inside = durations[first:last]
        if len(inside) >= MIN_INSIDE:
            probe = _trimmed_mean(inside)
        else:
            probe = float(np.median(durations[max(0, first - NEIGHBOURS):last + NEIGHBOURS]))
        return at_reference_speed(seconds, float(inside.sum()), probe)


def at_reference_speed(seconds: float, probe_total: float, probe: float) -> float:
    """Wall time less the probes in it, at the speed where a probe takes PROBE_REFERENCE_S."""
    return (seconds - probe_total) * PROBE_REFERENCE_S / probe


def _trimmed_mean(values: np.ndarray) -> float:
    """Mean without the highest and lowest tenth."""
    cut = len(values) // 10
    return float(np.sort(values)[cut:len(values) - cut].mean())
