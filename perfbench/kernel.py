"""The frozen calibration kernel that defines one kernel unit (ku).

Every benchmark time is divided by the time this kernel takes on the
same host at the same moment, so a host that runs everything 1.5x slower
for a second slows the kernel and the trial alike and the ratio holds
(to within a few percent: see ``README.md``).  The kernel is fixed
pure-Python work of the same kind the simulator does -- dict lookups and
stores, tuple building and hashing, str formatting, attribute reads and
writes, small function calls -- sized to take ~15-30 ms on one core of a
2-core x86-64 container (CPython 3.11).  It runs with the garbage
collector off and keeps its working set under 1 MB, so it never sets the
process's peak RSS.

Changing anything in :func:`kernel` (or its constants) changes what one
ku is and re-bases every ku metric.  Bump :data:`KERNEL_VERSION` when it
changes: that renames the unit :data:`KU` (``ku.v1``, ``ku.v2``, ...)
of every ku metric in ``BENCHMARK.json`` as well.
"""

from __future__ import annotations

import gc
import statistics
import time

KERNEL_VERSION = 1
KU = f"ku.v{KERNEL_VERSION}"
"""The unit of every ku metric; it names the kernel version it is based on."""
_ROUNDS = 64
_KEYS = 512


class _Entry:
    __slots__ = ("path", "weight", "label")

    def __init__(self, path, weight, label):
        self.path = path
        self.weight = weight
        self.label = label


def _better(a, b):
    if a.weight != b.weight:
        return a.weight < b.weight
    return a.path < b.path


def _work() -> int:
    table = {}
    best = {}
    checksum = 0
    for r in range(_ROUNDS):
        for i in range(_KEYS):
            key = (i & 63, i >> 6)
            path = (r & 7, i & 15, (i * 7) & 31)
            entry = table.get(key)
            if entry is None:
                entry = table[key] = _Entry(path, i, "p%d.%d" % key)
            else:
                entry.path = path
                entry.weight = (entry.weight * 31 + r) & 1023
            owner = key[0]
            current = best.get(owner)
            if current is None or _better(entry, current):
                best[owner] = entry
            checksum += len(entry.label) + entry.weight
    return checksum


KERNEL_CHECKSUM = 16903168
"""Result of :func:`_work`, checked on every call so an edit to the
kernel cannot go unnoticed."""


def kernel() -> float:
    """Run the kernel once with GC off; return its wall time in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        checksum = _work()
        elapsed = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if checksum != KERNEL_CHECKSUM:
        raise RuntimeError(f"kernel checksum {checksum} != {KERNEL_CHECKSUM}")
    return elapsed


class Bracket:
    """Times trials between kernel gaps: G T G T G ...

    A gap runs the kernel ``reps`` times.  Each trial's ku is its wall time
    divided by the median kernel time of the gaps just before and just
    after it, so a host that slows down or speeds up between trials
    changes the kernel and the trial alike.  With one run per gap that is
    the mean of the two kernel times around the trial; long trials use
    more runs per gap, because one 20 ms sample of a host whose speed
    changes every few hundred milliseconds is a poor estimate of its speed
    over a second-long trial.
    """

    def __init__(self, reps: int = 1) -> None:
        self.reps = reps
        self.kernels = []
        """Every kernel time of the loop, in seconds."""
        self._last = self._gap()

    def _gap(self):
        gap = [kernel() for _ in range(self.reps)]
        self.kernels.extend(gap)
        return gap

    def resync(self) -> None:
        """Start a fresh gap after work done outside the loop."""
        self._last = self._gap()

    def time(self, trial):
        """Run ``trial() -> (wall seconds, result)``; return ``(ku, wall, result)``.

        A full collection first makes every trial start from the same
        garbage-collector state; it is outside the trial's own clock.
        """
        gc.collect()
        before = self._last
        try:
            wall, result = trial()
        finally:
            self._last = after = self._gap()
        return wall / statistics.median(before + after), wall, result
