"""Host-speed calibration: converts wall seconds into reference seconds.

On a shared virtual machine the speed of identical work drifts by up to
2x within a minute, in CPU time as much as in wall time (see README.md),
far more than any regression the benchmark must catch.  A fixed
pure-Python loop, timed right before and right after each measured
region, tracks that drift.  A time measured in the region is scaled by
``REFERENCE_S`` over the loop's mean time around it, so the benchmark's
times are in seconds of a host on which the loop takes ``REFERENCE_S``.
A change to the program moves them exactly as it moves wall time at a
fixed host speed; the loop itself never changes.

This holds only while the program does no work during the loop.  Work
still running after a call returns (a background thread, a busy pool
worker) would fall outside the timed region and slow the loop as well,
so it would count in the program's favour twice.  Each sample therefore
checks that the process has no thread besides the main one and that no
child process started or used CPU time during the loop; :meth:`HostSpeed.sample`
returns the reasons a sample is unusable, and the caller counts such a
sample as a failed operation.

This module imports nothing heavy, so a process can calibrate before it
imports numpy and the program.  It reads ``/proc`` and so needs Linux.
"""

from __future__ import annotations

import os
import time

LOOP_ITERATIONS = 3_000_000
# The loop's time on a 2-vCPU Xeon virtual machine in its fast phase.
REFERENCE_S = 0.240


def loop_seconds() -> float:
    """Wall time of the fixed calibration loop (about 0.3 s)."""
    start = time.perf_counter()
    acc = 0
    for i in range(LOOP_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - start


def child_pids() -> list[int]:
    """PIDs of this process's live children (pool workers and helpers)."""
    pids: list[int] = []
    try:
        for task in os.listdir("/proc/self/task"):
            with open(f"/proc/self/task/{task}/children") as handle:
                pids.extend(int(pid) for pid in handle.read().split())
    except OSError:
        pass
    return pids


def thread_count() -> int:
    """Threads of this process, Python and native alike."""
    return len(os.listdir("/proc/self/task"))


def child_cpu_ticks() -> dict[int, int]:
    """User plus system CPU time, in clock ticks, of each live child."""
    ticks = {}
    for pid in child_pids():
        try:
            with open(f"/proc/{pid}/stat") as handle:
                # Fields after the parenthesised command name; utime and
                # stime are fields 14 and 15 of the whole line.
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:  # a child that exited meanwhile
            continue
        ticks[pid] = int(fields[11]) + int(fields[12])
    return ticks


class HostSpeed:
    """Calibration samples over a run, each ``(start, end, loop seconds)``."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float, float]] = []

    def sample(self) -> list[str]:
        """Time the loop once; return why the sample is unusable (empty if usable)."""
        threads = thread_count()
        ticks = child_cpu_ticks()
        start = time.perf_counter()
        seconds = loop_seconds()
        self.samples.append((start, start + seconds, seconds))
        problems = []
        threads = max(threads, thread_count())
        if threads > 1:
            problems.append(f"{threads} threads alive during host calibration")
        busy = sorted(pid for pid, t in child_cpu_ticks().items() if t != ticks.get(pid))
        if busy:
            problems.append(f"child processes {busy} started or used CPU during host calibration")
        return problems

    @property
    def last_end(self) -> float:
        return self.samples[-1][1]

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per wall second over ``[start, end]``.

        Uses the last sample that ended before ``start`` and the first
        that began after ``end``; the caller samples on both sides.
        """
        before = [s for s in self.samples if s[1] <= start][-1]
        after = [s for s in self.samples if s[0] >= end][0]
        return REFERENCE_S / ((before[2] + after[2]) / 2)

    def median_loop_seconds(self) -> float:
        ordered = sorted(s[2] for s in self.samples)
        return ordered[len(ordered) // 2]
