"""Host speed, sampled while a timed pass runs, to scale its time by.

A shared host's cores speed up and slow down by up to half, in phases of
seconds to many minutes, and every pass of the program slows with them. The
clock measures that speed while the pass runs: a timer interrupts the process
every ``PERIOD_S`` and times one slice of a fixed small-array numpy loop (the
same kind of work as the program's stepper, but none of the program's code).
The speed of one slice is ``REFERENCE_SLICE_S`` over its duration; a pass's
speed is the mean over its slices. A pass time multiplied by that speed is
the time the pass would take on a host where a slice takes
``REFERENCE_SLICE_S``, and the slices' own time is taken out of it first.

Workers that ``ProcessPoolExecutor`` forks while the clock runs with
``children=True`` sample themselves the same way and send their slices back
through a pipe; a pooled pass is scaled by its workers' speed, since they do
its work. Without any worker slices the process's own slices are used.

Measured on a shared 2-vCPU host over 2-minute stretches in which the raw
pass time moved by up to 55 %, the pass-to-pass coefficient of variation went
from 0.12 to 0.03 on ``sweep``, 0.15 to 0.03 on ``dense`` and 0.13 to 0.04 on
``sweep-pool``. A pure-Python integer loop tracked the program less well
(0.05-0.10), because the program slows more than such a loop does.
"""

from __future__ import annotations

import os
import signal
import statistics
import struct
import time
from contextlib import contextmanager

import numpy as np

PERIOD_S = 0.02
SLICE_STEPS = 120
# Scale of the reported times: about a slice's duration on that host when it
# runs fast, so scaled times read close to wall times there.
REFERENCE_SLICE_S = 0.0008
_RECORD = struct.Struct("<id")  # worker pid, slice seconds
_FORCE = np.array([1.0, 0.0, 0.5, 0.1, 0.2, 0.3, 0.4])


def slice_s() -> float:
    """Seconds for one slice: Euler steps of a 7-vector, like the stepper's."""
    start = time.perf_counter()
    y = np.linspace(0.1, 0.7, 7)
    for _ in range(SLICE_STEPS):
        k = y * y - 0.5 * y + _FORCE
        y = y + 1e-3 * k
        float(np.sqrt(np.dot(k, k)))
    return time.perf_counter() - start


class Reading:
    """The clock's slices within one timed region."""

    def __init__(self, own: list, workers: list):
        self.own = own
        self.workers = workers  # (pid, seconds)

    @property
    def slices(self) -> list:
        return [dt for _, dt in self.workers] or self.own

    @property
    def spent_s(self) -> float:
        """Slice time on the region's critical path: the process's own, or
        the mean per worker when workers sampled."""
        if self.workers:
            return sum(dt for _, dt in self.workers) / len({pid for pid, _ in self.workers})
        return sum(self.own)

    @property
    def speed(self) -> float:
        """Mean host speed over the region, 1.0 at ``REFERENCE_SLICE_S``;
        1.0 when the region had no slice."""
        slices = self.slices
        return statistics.fmean(REFERENCE_SLICE_S / dt for dt in slices) if slices else 1.0


class HostClock:
    """Samples host speed while ``running``; ``mark`` and ``since`` cut the
    samples into timed regions."""

    def __init__(self):
        self.own: list[float] = []
        self.workers: list[tuple[int, float]] = []
        self.children = False  # forked workers sample themselves
        self._hooked = False
        self._read = self._write = None
        self._pending = b""

    def _own_slice(self, signum, frame):
        self.own.append(slice_s())

    def _worker_slice(self, signum, frame):
        try:
            os.write(self._write, _RECORD.pack(os.getpid(), slice_s()))
        except BlockingIOError:  # the parent is behind; drop the sample
            pass

    def _in_child(self):
        """After a fork (which does not inherit the timer): a pool worker
        samples itself into the pipe."""
        if self.children:
            signal.signal(signal.SIGALRM, self._worker_slice)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def _drain(self):
        if self._read is None:
            return
        while True:
            try:
                chunk = os.read(self._read, 65536)
            except BlockingIOError:
                break
            if not chunk:
                break
            self._pending += chunk
        whole = len(self._pending) - len(self._pending) % _RECORD.size
        self.workers += [_RECORD.unpack_from(self._pending, i)
                         for i in range(0, whole, _RECORD.size)]
        self._pending = self._pending[whole:]

    @contextmanager
    def running(self, children: bool = False):
        if children and not self._hooked:
            # A fork hook cannot be removed; it acts only while self.children.
            os.register_at_fork(after_in_child=self._in_child)
            self._hooked = True
        self.children = children
        if children:
            self._read, self._write = os.pipe()
            os.set_blocking(self._read, False)
            os.set_blocking(self._write, False)
        previous = signal.signal(signal.SIGALRM, self._own_slice)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            self.children = False
            signal.signal(signal.SIGALRM, previous)
            self._drain()
            if children:
                os.close(self._read)
                os.close(self._write)
                self._read = self._write = None

    def mark(self) -> tuple[int, int]:
        self._drain()
        return len(self.own), len(self.workers)

    def since(self, mark: tuple[int, int]) -> Reading:
        self._drain()
        return Reading(self.own[mark[0]:], self.workers[mark[1]:])


class NoClock:
    """Stands in for a clock where nothing is sampled (traced runs)."""

    def mark(self):
        return None

    def since(self, mark) -> Reading:
        return Reading([], [])
