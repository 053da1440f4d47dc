"""Host-speed reference that the benchmark scales its stage wall times by.

On a shared host the CPU a run gets can execute the same instructions a
quarter faster or slower from one minute to the next: the same fit, on
identical inputs, was measured at 19 s and at 30 s. A bare wall time then
follows the host about as much as the program.

A Speedometer runs a fixed calibration kernel on a thread of the benchmark
driver every PERIOD_S seconds and records the kernel's CPU time
(thread CPU time, so a kernel that the measured child preempts is not
charged for the wait). The driver pins itself, and thereby this thread and
every child it starts, to one CPU, so the kernel runs on the CPU the stage
runs on, at the same moments. speed_factor(start, end) is REF_KERNEL_S over
the mean kernel time in that window: a stage's wall time times that factor
is the time it would take on a host where the kernel takes REF_KERNEL_S. The
kernel does not touch heavecast, so no change to the program moves it.
Interleaved with heavecast's own log-posterior calls on one CPU, the
kernel's time tracked theirs with a correlation of about 0.9 over 1-15 s
windows; the program slowed by 1.1-1.3 times the kernel's share, so scaling
removes most, not all, of the host's drift.

Each sample runs the kernel twice and times the second run: the first
refills the CPU caches that the child's run filled with its own data, so the
timed run depends on the host's speed and not on the child's memory use.
Sampling costs about 2 ms every PERIOD_S (4 % of one CPU), which the stage
wall times include at every host speed alike.
"""

from __future__ import annotations

import math
import os
import statistics
import threading
import time

from scipy.stats import norm

PERIOD_S = 0.05
KERNEL_LOOPS = 2000
KERNEL_SCIPY_CALLS = 4
# CPU time of one timed kernel on the host the benchmark was tuned on (2-core
# Xeon guest, Python 3.11) in its faster minutes; in its slower ones it took
# 1.6 ms. Scaled times are seconds at the faster speed.
REF_KERNEL_S = 0.0012


def kernel() -> float:
    """Fixed work of the kinds the pipeline does.

    Interpreter arithmetic with dict and list traffic, and scalar calls into
    scipy.stats, whose argument handling runs deep stacks of Python and
    small numpy operations like the program's own calls into numpy and scipy.
    """
    total = 0.0
    table: dict[int, float] = {}
    items = []
    for i in range(KERNEL_LOOPS):
        total += math.sqrt(i) * 0.5
        table[i & 255] = total
        items.append(i ^ 0x5A)
    items.sort()
    for i in range(KERNEL_SCIPY_CALLS):
        total += norm.logpdf(0.25 * i, 0.0, 1.5) + norm.sf(0.0, 1.0, 0.5 + 0.1 * i)
    return total + items[-1]


def pin_to_one_cpu() -> int:
    """Pin the calling thread (and every thread and child it starts later) to one CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Speedometer:
    """Samples the kernel's CPU time until stopped; use as a context manager."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (perf_counter at end, kernel CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speedometer", daemon=True)

    def __enter__(self) -> Speedometer:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            kernel()  # refill the caches the child's run emptied, so only speed is timed
            start = time.thread_time()
            kernel()
            self.samples.append((time.perf_counter(), time.thread_time() - start))

    def kernel_s(self, start: float, end: float) -> float:
        """Mean kernel CPU time over [start, end]; over all samples if none fell inside."""
        samples = list(self.samples)
        inside = [d for t, d in samples if start <= t <= end] or [d for _, d in samples]
        return statistics.fmean(inside) if inside else REF_KERNEL_S

    def speed_factor(self, start: float, end: float) -> float:
        return REF_KERNEL_S / self.kernel_s(start, end)
