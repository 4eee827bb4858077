"""Pieces shared by the workload runners: query streams, repeated
set-up, percentiles, peak memory and the result record."""

from __future__ import annotations

import gc
import os
import resource
import statistics
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from gen import fresh_block


class Stream:
    """Hands out consecutive fresh query blocks from one pool."""

    def __init__(self, pool: list[str]) -> None:
        self.pool = pool
        self.next = 0

    def take(self, n: int) -> list[str]:
        block = fresh_block(self.pool, self.next, n)
        self.next += n
        return block


def pct(values, p: float) -> float:
    """``p``-th percentile (linear interpolation); 0 for no values."""
    return float(np.percentile(values, p)) if len(values) else 0.0


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def repeated_setup(n: int, build: Callable[[int], object], close: Callable[[object], None]):
    """Run ``build`` ``n`` times, each on a fresh engine, and keep the last.

    Returns ``(last, seconds)`` with the wall time of every set-up; the
    earlier results are closed and collected before the next set-up so
    their memory does not add up.
    """
    seconds = []
    last = None
    for i in range(n):
        if last is not None:
            close(last)
            last = None
            gc.collect()
        start = time.perf_counter()
        last = build(i)
        seconds.append(time.perf_counter() - start)
    return last, seconds


class CpuRotation:
    """Move every thread round-robin over the allowed CPUs each ``period_s``.

    On a host whose virtual CPUs each slow down and speed up with the
    load of their neighbours, a run that stays on one CPU inherits that
    CPU's drift; rotating makes every run see all CPUs alike.  On a
    2-vCPU VM, exs-batch ``qps`` over five seeds had a quartile spread
    of 19% of its median without rotation and 7% with it.  Threads
    start on different CPUs of the rotation, so threads that ran in
    parallel still do.
    """

    def __init__(self, period_s: float = 0.01) -> None:
        self.period_s = period_s
        self.cpus = sorted(os.sched_getaffinity(0))
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _run(self) -> None:
        turn = 0
        me = threading.get_native_id()
        while not self._stop.wait(self.period_s):
            turn += 1
            for offset, tid in enumerate(t for t in self._tids() if t != me):
                self._pin(tid, {self.cpus[(turn + offset) % len(self.cpus)]})

    @staticmethod
    def _tids() -> list[int]:
        """Native ids of the running threads (``None`` until a thread starts)."""
        return [t.native_id for t in threading.enumerate() if t.native_id is not None]

    @staticmethod
    def _pin(tid: int, cpus: set[int]) -> None:
        try:
            os.sched_setaffinity(tid, cpus)
        except ProcessLookupError:  # the thread ended meanwhile
            pass

    def __enter__(self) -> "CpuRotation":
        if len(self.cpus) > 1:
            self._thread = threading.Thread(target=self._run, daemon=True)
            self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        for tid in self._tids():
            self._pin(tid, set(self.cpus))


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


@dataclass
class Outcome:
    """What one workload run produced, before it is printed."""

    attempted: int = 0
    failed: int = 0
    e2e: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    #: Diagnostics printed as comments above the result (not metrics).
    info: dict[str, object] = field(default_factory=dict)


def median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0
