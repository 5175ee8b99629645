"""Host speed, measured between operations by a fixed reference kernel.

The benchmark runs on a few cores of a shared host whose speed drifts by
20-40% over seconds to minutes (clock and neighbour load), and the process
CPU time drifts with it, so neither wall nor CPU time alone can tell a
slower program from a slower host.  The harness therefore times a fixed
piece of exact rational arithmetic (``reference_kernel``, written here and
independent of semiconv) between the operations it times, at least every
``SAMPLE_EVERY_S`` of operation time, and reports each time scaled to the
speed the host had when ``REFERENCE_KERNEL_S`` was recorded:

    scaled = measured * REFERENCE_KERNEL_S / kernel seconds per call nearby

A change to semiconv moves the measured time and not the kernel's, so it
moves the scaled time by the same share; a change of host speed moves
both, and mostly cancels.  It cancels best for short operations: during a
long one the host's speed can change and change back between two samples,
which is why every workload is a batch of operations of a second or less.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

# Seconds per reference_kernel call on the host the baseline was recorded
# on (2 vCPUs of a shared x86-64 VM, CPython 3.11, the stdlib Fraction).
REFERENCE_KERNEL_S = 0.004
# Kernel calls per sample; the sample is their median, so one interrupted
# call does not move it.
CALLS_PER_SAMPLE = 7
# Operation time between two samples inside a pass.
SAMPLE_EVERY_S = 0.5
KERNEL_SIZE = 9


def reference_kernel(n=KERNEL_SIZE):
    """Gauss-Jordan elimination of the n x n Hilbert system with right-hand
    side column 1/(i+n+1), in Fractions: the same mix of big-integer
    arithmetic, list building and indexing as semiconv's exact solves."""
    rows = [[Fraction(1, i + j + 1) for j in range(n + 1)] for i in range(n)]
    for c in range(n):
        inv = 1 / rows[c][c]
        rows[c] = [x * inv for x in rows[c]]
        for r in range(n):
            if r != c:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return [row[n] for row in rows]


def sample():
    """Seconds per reference_kernel call now (median of a few calls)."""
    times = []
    for _ in range(CALLS_PER_SAMPLE):
        t0 = perf_counter()
        reference_kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


class Scaler:
    """Samples taken between timed intervals; scales each interval by the
    mean of the samples on either side of it."""

    def __init__(self):
        self.samples = [sample()]
        self.pending = []  # intervals since the last sample
        self.scaled = []
        self.since = 0.0

    def add(self, *seconds):
        """Record one timed interval (one or more times of it, such as wall
        and CPU); a sample follows once SAMPLE_EVERY_S have gone by."""
        self.pending.append(seconds)
        self.since += seconds[0]
        if self.since >= SAMPLE_EVERY_S:
            self.flush()

    def flush(self):
        """Take a sample now and scale the intervals since the last one."""
        if not self.pending:
            return
        self.samples.append(sample())
        factor = REFERENCE_KERNEL_S / statistics.mean(self.samples[-2:])
        self.scaled.extend(tuple(t * factor for t in times) for times in self.pending)
        self.pending.clear()
        self.since = 0.0

    def result(self):
        """The scaled intervals, in the order added."""
        self.flush()
        return self.scaled
