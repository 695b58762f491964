"""Host speed, from a fixed pure-Python kernel timed around and inside the
measured segments.

On a shared machine the same code and input can run 30-50 % slower whenever
another tenant loads the physical core under a virtual CPU; each vCPU flips
between a fast and a slow state within a second, and for minutes the slow
state can dominate.  The slowdown hits the kernel below and the measured
gridplan calls alike (correlation 0.95 per pass on model-io), so the
benchmark samples the kernel, untimed, just before every measured segment
and every ``SAMPLE_INTERVAL_S`` inside it, and rescales the segment to the
reference speed:

    scaled = wall * REFERENCE_KERNEL_S / mean(kernel samples of the segment)

A scaled time estimates the time on the reference host when nothing else
loads it.  The kernel is the benchmark's own code, so a change to gridplan
moves the scaled times as it moves the wall times.
"""

import signal
import time

# the kernel's time on an unloaded reference host (a 2 GHz Xeon vCPU,
# Sapphire Rapids, CPython 3.11); only ratios to it matter
REFERENCE_KERNEL_S = 0.0011
KERNEL_STEPS = 15_000
KERNEL_REPEATS = 3
SAMPLE_INTERVAL_S = 0.04


def kernel_seconds(runs: int = KERNEL_REPEATS) -> float:
    """Median time of ``runs`` runs of the fixed kernel (about 1.5 ms each);
    the median of three drops a run that the scheduler happened to interrupt."""
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        total = 0
        for i in range(KERNEL_STEPS):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return sorted(times)[runs // 2]


def speed_factor(kernel: list[float]) -> float:
    """Factor from wall time to reference-speed time, given kernel samples
    taken at even points through that wall time."""
    return REFERENCE_KERNEL_S * len(kernel) / sum(kernel)


class Sampler:
    """Samples the host speed inside long measured segments.

    While started, a SIGALRM handler runs the kernel once every
    ``SAMPLE_INTERVAL_S`` of wall time and hands its time to ``record``;
    ``spent`` adds up the wall time the samples took, which the caller takes
    out of the segment.  The handler stays installed once ``install`` ran and
    ignores a signal that arrives after ``stop``."""

    def __init__(self):
        self.spent = 0.0
        self._record = None
        self._busy = False

    def install(self) -> None:
        signal.signal(signal.SIGALRM, self._handler)

    def start(self, record) -> None:
        self._record = record
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._record = None

    def _handler(self, signum, frame) -> None:
        if self._record is None or self._busy:
            return
        self._busy = True
        try:
            start = time.perf_counter()
            self._record(kernel_seconds(runs=1))
            self.spent += time.perf_counter() - start
        finally:
            self._busy = False


def timed_scaled(fn, *args):
    """(result, raw seconds, scaled seconds) of one call ``fn(*args)``."""
    before = kernel_seconds()
    start = time.perf_counter()
    result = fn(*args)
    elapsed = time.perf_counter() - start
    after = kernel_seconds()
    return result, elapsed, elapsed * speed_factor([before, after])
