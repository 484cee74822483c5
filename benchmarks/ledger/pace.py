"""Host pace, sampled alongside the measurement, to take host drift out.

The reference host is a shared 2-vCPU virtual machine whose CPUs each
slow down by up to half, independently, for seconds to minutes at a
time: a fixed 6-clique optimization takes 14 ms in one second and 22 ms
in the next.  Every timing is therefore taken together with samples of a
reference kernel that uses none of the optimizer's code, and scaled::

    scaled = measured * (NOMINAL_KERNEL_S / kernel time around it) ** exponent

The kernel is a small subset dynamic program over bitsets: bit tricks,
dict probes, small-object allocation and method calls, the interpreter
work the optimizer does.  It runs with the garbage collector paused, so
the size of the program's heap does not leak into it.  A change to the
program cannot change the kernel, so scaled times still move with every
change to the program, and far less with the host.

Two ways of sampling, each with its exponent, chosen on long traces cut
into windows as long as one run, by the steadiest window-to-window
quartile spread:

* A single thread (the closed optimizer loop) samples the kernel itself,
  on whatever CPU it runs on.  The kernel slows down more than the
  optimizer does (1.9x against 1.7x on a 6-clique), hence ``EXPONENT``
  below 1.  On 200 s traces of the three optimizer workloads, with
  per-query medians, 0.85 gave a spread of p50, p90 and geometric mean of
  1.3-3.4 %, against 5-11 % for unscaled per-query minima and 2-7 % with
  exponent 1.
* Work spread over several CPUs (the plan server's event loop and
  dispatch threads, set-up probe processes) is scaled by the mean of the
  kernel sampled on every CPU in turn.  A kernel sampled on one CPU did
  not track the server at all: windows with the kernel at 0.44 and at
  0.82 ms had the same p50.  With the all-CPU mean and
  ``ALL_CPUS_EXPONENT`` 0.6 the spread of the server's p50, p90 and
  geometric mean over a 200 s trace fell from 5, 12 and 10 % to 3, 6
  and 4 %.  The spread of medians of seven set-up probes fell from 21 to
  6 % on sparse-bounded but rose from 7 to 13 % on serve-mixed; one rule
  for all set-up times keeps them comparable.  The server's latency
  includes waits the kernel does not model (timer wake-ups, queueing
  behind misses), hence the smaller exponent.
"""

from __future__ import annotations

import gc
import os
import time

__all__ = [
    "ALL_CPUS_EXPONENT",
    "EXPONENT",
    "NOMINAL_KERNEL_S",
    "Pace",
    "all_cpus_kernel_seconds",
    "kernel",
    "kernel_seconds",
]

#: About the kernel's time on the reference host (2.1 GHz Xeon VM,
#: CPython 3.11) at full speed, so scaled timings read as that host's.
NOMINAL_KERNEL_S = 4.4e-4
EXPONENT = 0.85
ALL_CPUS_EXPONENT = 0.6
#: Kernel runs per sample; the fastest is kept, so an interrupt does not
#: count as a slow host.
SAMPLE_RUNS = 3
KERNEL_BITS = 7


class _Cell:
    __slots__ = ("rows", "cost")

    def __init__(self, rows: float, cost: float) -> None:
        self.rows = rows
        self.cost = cost

    def join(self, other: "_Cell") -> "_Cell":
        rows = self.rows * other.rows * 0.1
        return _Cell(rows, self.cost + other.cost + rows)


def kernel(bits: int = KERNEL_BITS) -> float:
    """Cheapest bushy join of ``bits`` relations, by brute-force subsets."""
    full = (1 << bits) - 1
    best = {1 << i: _Cell(float(10 + i), 0.0) for i in range(bits)}
    for subset in range(3, full + 1):
        if subset & (subset - 1) == 0:
            continue
        cell = None
        left = (subset - 1) & subset
        while left:
            right = subset ^ left
            if left < right:
                candidate = best[left].join(best[right])
                if cell is None or candidate.cost < cell.cost:
                    cell = candidate
            left = (left - 1) & subset
        assert cell is not None
        best[subset] = cell
    return best[full].cost


def kernel_seconds(runs: int = SAMPLE_RUNS) -> float:
    """The fastest of ``runs`` kernel runs on the current CPU, in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(runs):
            started = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - started)
        return best
    finally:
        if enabled:
            gc.enable()


def all_cpus_kernel_seconds() -> float:
    """Mean of :func:`kernel_seconds` on every CPU this process may use.

    The calling thread is pinned to each CPU in turn (on Linux affinity
    is per thread, so other threads are unaffected) and then given back
    its full set.  Where affinity cannot be set, the current CPU's time.
    """
    if not hasattr(os, "sched_setaffinity"):
        return kernel_seconds()
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(kernel_seconds())
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(times) / len(times)


class Pace:
    """Kernel samples that cut a measurement into segments.

    A sample is taken at the start, then by :meth:`tick` between timed
    operations once ``interval_s`` has passed (or by :meth:`sample` at a
    boundary of the caller's choosing), and by :meth:`close` at the end.
    An operation timed in segment ``k`` (between samples ``k`` and
    ``k + 1``) is scaled by :meth:`factor`.  ``all_cpus`` selects the
    all-CPU sampling for work that is not one thread.
    """

    def __init__(self, interval_s: float = 0.1, *, all_cpus: bool = False) -> None:
        self.interval_s = interval_s
        self._sampler = all_cpus_kernel_seconds if all_cpus else kernel_seconds
        self._exponent = ALL_CPUS_EXPONENT if all_cpus else EXPONENT
        self.kernel_s = [self._sampler()]
        self._due = time.perf_counter() + interval_s

    @property
    def segment(self) -> int:
        """The segment an operation timed now belongs to."""
        return len(self.kernel_s) - 1

    def sample(self) -> None:
        """End the current segment with a kernel sample."""
        self.kernel_s.append(self._sampler())
        self._due = time.perf_counter() + self.interval_s

    def tick(self) -> None:
        """Sample if the interval has passed (call between operations)."""
        if time.perf_counter() >= self._due:
            self.sample()

    def close(self) -> None:
        """End the last segment; call once, after the last operation."""
        self.sample()

    def factor(self, segment: int) -> float:
        """The scale for times taken in ``segment``, from the mean of the
        kernel samples at its two ends."""
        around = (self.kernel_s[segment] + self.kernel_s[segment + 1]) / 2
        return float((NOMINAL_KERNEL_S / around) ** self._exponent)
