"""Machine-speed calibration of the ledger's timings.

The shared machines this benchmark runs on change speed by tens of
percent within minutes, even within a second: the same pure-Python loop
takes 147 ms in one run and 275 ms two minutes later, with CPU time
equal to wall time, so the slowdown is not descheduling but a slower
CPU.  On the 2-CPU machine of the baseline, one kernel call flips
between about 2.5 and 3.8 ms from one second to the next.  Every timing
the ledger reports is therefore normalised by a fixed calibration kernel
timed in the same process around the same moment::

    reported = measured * REFERENCE_MS / mean(kernel samples around and during it)

The kernel is plain Python that imports nothing from ``src/``: a change
to the analysis cannot change it, while a slower or faster machine
changes it much as it changes the analysis.  Raw times stay in the run
document next to the calibration, so nothing is hidden.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from contextlib import contextmanager
from typing import Iterator, List

#: Nominal kernel time: reported milliseconds are milliseconds on a
#: machine where one kernel call takes this long.
REFERENCE_MS = 2.0


class _Cell:
    """A small linked object, like the analysis' IR values and ranges."""

    __slots__ = ("value", "key", "link")

    def __init__(self, value: int, key: tuple, link):
        self.value = value
        self.key = key
        self.link = link


def kernel(size: int = 2000) -> int:
    """Fixed work: tuple keys, dict updates, small objects, a keyed sort."""
    table = {}
    cells = []
    link = None
    for index in range(size):
        key = (index % 97, index % 13)
        table[key] = table.get(key, 0) + index
        link = _Cell(index, key, link)
        cells.append(link)
    total = 0
    for cell in cells:
        if cell.key in table:
            total += cell.value & 7
    cells.sort(key=lambda cell: (cell.key, -cell.value))
    return total


class Calibration:
    """Kernel samples of one run and the factor they give."""

    def __init__(self):
        self.samples: List[float] = []
        #: Wall seconds spent sampling, so timings can leave them out.
        self.spent = 0.0

    def sample(self, count: int = 1) -> None:
        """Time ``count`` kernel calls with the cyclic collector paused.

        A collection would walk the whole heap of the process, so with it
        running the kernel would measure how much the workload has
        cached, not how fast the machine is.  The kernel's CPU time is
        what counts: time another process of this benchmark held the CPU
        is not the machine being slow.
        """
        collecting = gc.isenabled()
        gc.disable()
        started = time.perf_counter()
        try:
            for _ in range(count):
                cpu = time.thread_time()
                kernel()
                self.samples.append(time.thread_time() - cpu)
        finally:
            self.spent += time.perf_counter() - started
            if collecting:
                gc.enable()

    @contextmanager
    def periodic(self, period: float) -> Iterator[None]:
        """Also sample every ``period`` seconds (``SIGALRM``) inside the block.

        An operation of a second or more sees the machine change speed
        while it runs, which the samples before and after it cannot see.
        Samples taken during it can; the timings leave out the time they
        take (``spent``).  0 turns this off.
        """
        if not period:
            yield
            return
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, period, period)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    @property
    def kernel_ms(self) -> float:
        """Median kernel time; the reference time when nothing was sampled."""
        return 1000.0 * statistics.median(self.samples) if self.samples else REFERENCE_MS

    @property
    def factor(self) -> float:
        """Multiply a measured time by this to get a reported time."""
        return REFERENCE_MS / self.kernel_ms

    def factor_over(self, first: int, last: int) -> float:
        """The factor from samples ``first`` to ``last`` (inclusive).

        An operation passes the index of the sample taken just before it
        and of the first sample after it, so the samples bracket it and
        include any taken during it: the machine's speed changes even
        within an operation, so the samples closest in time are the ones
        to use.  Two samples 70 ms apart differ by 17% (standard
        deviation of their log ratio), back-to-back samples by 8%.
        """
        last = min(last, len(self.samples) - 1)
        return REFERENCE_MS / (1000.0 * statistics.fmean(self.samples[first:last + 1]))

    def as_dict(self) -> dict:
        return {
            "reference_ms": REFERENCE_MS,
            "kernel_ms_median": self.kernel_ms,
            "samples": len(self.samples),
            "factor": self.factor,
        }
