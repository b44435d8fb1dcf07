"""Calibrates timings for the speed of a shared machine.

On a shared VM other tenants slow each vCPU on its own, by up to 70%
and within a second.  The slowdown is in execution speed, not
descheduling, so process CPU time grows with it too.  A
:class:`SpeedMonitor` measures that speed while the workload runs: one
monitor process per core, pinned to it and scheduled real-time (when the
system allows), runs a 1 ms reference kernel every 40 ms and records
when it ended and how long it took.  The kernel is an interpreter loop
that uses none of the program's code.  The workloads spend most of their
time dispatching small NumPy calls from Python, and an interpreter loop
slows down with the machine as they do: a kernel of large-array NumPy
calls (scatter-add, FFT, sort, exp) slowed less, so that its calibrated
times still rose on a slow machine.  Where the system refuses real-time
scheduling the monitors run at normal priority, and a kernel's time
then includes waiting for a core the workload occupies;
:attr:`SpeedMonitor.mode` says which, and ``compare.py`` refuses to
compare runs of two modes.

A timed interval's calibrated duration is its wall time times
``REFERENCE_S / mean kernel time`` over the samples taken on its cores
during it: the time it would take on a quiet machine where the kernel
runs in ``REFERENCE_S``.  The monitors take about 3% of each core,
the same share on every commit.

Run as a script, this module is one monitor process::

    python bench/speed.py CORE BUFFER_FILE
"""

from __future__ import annotations

import mmap
import os
import struct
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

PERIOD_S = 0.04                    # one kernel per core per period
RING = 8192                        # samples kept per core (over 5 min)
HEADER = struct.Struct("qq")       # samples written, scheduling mode
RECORD = struct.Struct("dd")       # kernel end (perf_counter), seconds
MODES = ("normal", "real-time")


def _kernel() -> float:
    """About 1 ms of interpreter work; returns its seconds."""
    began = time.perf_counter()
    table: Dict[int, float] = {}
    for i in range(8_000):
        table[i & 255] = table.get(i & 255, 0.0) + i * 0.5
    return time.perf_counter() - began


def _raise_priority() -> int:
    """Schedule this process real-time if allowed (see MODES)."""
    try:
        os.sched_setscheduler(0, os.SCHED_FIFO, os.sched_param(10))
        return 1
    except (OSError, AttributeError):
        return 0


def monitor(core: int, path: str) -> None:
    """Sample the kernel on ``core`` into ``path`` until the parent exits."""
    parent = os.getppid()
    os.sched_setaffinity(0, {core})
    mode = _raise_priority()
    for _ in range(20):            # warm caches and the allocator
        _kernel()
    with open(path, "r+b") as fh:
        buf = mmap.mmap(fh.fileno(), 0)
    written = 0
    due = time.perf_counter()
    while os.getppid() == parent:
        due += PERIOD_S
        pause = due - time.perf_counter()
        if pause > 0:
            time.sleep(pause)
        else:
            due = time.perf_counter()
        seconds = _kernel()
        RECORD.pack_into(buf, HEADER.size + RECORD.size * (written % RING),
                         time.perf_counter(), seconds)
        written += 1
        HEADER.pack_into(buf, 0, written, mode)


class SpeedMonitor:
    """One monitor process per core this process may use.

    Use as a context manager: leaving it stops and reaps the monitors.
    """

    #: The kernel's time on a quiet 2-vCPU Xeon VM (where this was built):
    #: the lower quartile of its times over a day of benchmark runs.
    REFERENCE_S = 0.00096

    def __init__(self, scratch: str) -> None:
        self.cores = sorted(os.sched_getaffinity(0))
        self.factors: List[float] = []
        self._procs: List[subprocess.Popen] = []
        self._bufs: Dict[int, mmap.mmap] = {}
        os.makedirs(scratch, exist_ok=True)
        try:
            for core in self.cores:
                path = os.path.join(scratch, f"speed-{core}.bin")
                with open(path, "wb") as fh:
                    fh.write(bytes(HEADER.size + RECORD.size * RING))
                with open(path, "rb") as fh:
                    self._bufs[core] = mmap.mmap(fh.fileno(), 0,
                                                 prot=mmap.PROT_READ)
                self._procs.append(subprocess.Popen(
                    [sys.executable, os.path.abspath(__file__), str(core),
                     path]))
            deadline = time.perf_counter() + 30.0
            while min(self._written(core) for core in self.cores) < 5:
                if time.perf_counter() > deadline or any(
                        proc.poll() is not None for proc in self._procs):
                    raise RuntimeError("speed monitors did not start")
                time.sleep(PERIOD_S)
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> "SpeedMonitor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        for proc in self._procs:
            proc.kill()
        for proc in self._procs:
            proc.wait()
        self._procs = []
        for buf in self._bufs.values():
            buf.close()
        self._bufs = {}

    @property
    def mode(self) -> str:
        """How the monitors are scheduled: ``real-time`` or ``normal``."""
        return MODES[min(HEADER.unpack_from(self._bufs[core], 0)[1]
                         for core in self.cores)]

    def _written(self, core: int) -> int:
        return HEADER.unpack_from(self._bufs[core], 0)[0]

    def _samples(self, core: int) -> np.ndarray:
        """``(end, seconds)`` rows of the samples ``core`` still holds."""
        rows = np.frombuffer(self._bufs[core], dtype=np.float64,
                             offset=HEADER.size,
                             count=2 * RING).reshape(RING, 2)
        return rows[rows[:, 0] > 0].copy()

    def _mean(self, lo: float, hi: float, cores: Sequence[int]) -> float:
        """Mean time of the kernels on ``cores`` that ended in ``[lo, hi]``."""
        times = []
        for core in cores:
            rows = self._samples(core)
            times.extend(rows[(rows[:, 0] >= lo) & (rows[:, 0] <= hi), 1])
        if not times:
            raise RuntimeError("the speed monitors stopped sampling")
        return float(np.mean(times))

    def kernel_seconds(self, start: float, end: float,
                       cores: Optional[Sequence[int]] = None) -> float:
        """Mean kernel time on ``cores`` over ``[start, end]``.

        An interval shorter than four periods is widened around its
        middle to four periods, so it holds a few samples per core.
        """
        half = max((end - start) / 2, 2 * PERIOD_S)
        lo, hi = (start + end) / 2 - half, (start + end) / 2 + half
        wait = hi + PERIOD_S - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        return self._mean(lo, hi, cores or self.cores)

    def factor(self, start: float, end: float,
               cores: Optional[Sequence[int]] = None) -> float:
        """Calibration factor for an interval timed with ``perf_counter``."""
        factor = self.REFERENCE_S / self.kernel_seconds(start, end, cores)
        self.factors.append(factor)
        return factor

    def calibrate(self, start: float, end: float,
                  cores: Optional[Sequence[int]] = None) -> float:
        """Calibrated seconds of ``[start, end]``."""
        return (end - start) * self.factor(start, end, cores)

    def pin_quietest(self) -> Tuple[int]:
        """Restrict this process to the core fastest over the last 0.4 s.

        Returns the cores the process now runs on.
        """
        now = time.perf_counter()
        core = min(self.cores, key=lambda c: self._mean(now - 0.4, now, [c]))
        os.sched_setaffinity(0, {core})
        return (core,)

    def unpin(self) -> None:
        os.sched_setaffinity(0, set(self.cores))


if __name__ == "__main__":
    monitor(int(sys.argv[1]), sys.argv[2])
