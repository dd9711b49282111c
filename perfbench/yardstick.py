"""A machine-speed yardstick, sampled while the benchmark's units run.

The benchmark runs on a few cores of a shared host whose speed drifts by
10-40% over tens of seconds, as other tenants come and go.  Raw unit times
drift with it.  So while a unit runs, a wall-clock timer interrupts it every
``PERIOD_S`` seconds and times one run of a fixed kernel that does not touch
the package.  The unit's own time excludes those samples.

Three kernels take turns, because no single one tracks the drift of every
workload: the package's code slows down more under contention than a tight
interpreter loop does, and less than scattered reads of a table that the
unit has pushed out of the caches do.

* ``interpreter``: dict and tuple traffic, integer and float arithmetic;
* ``cache``: scattered reads of a table of about 8 MB of small objects;
* ``numpy``: 10x10 products and additions, as the charts make them.

A kernel's factor over some samples is its ``REF_S`` divided by the median
of its samples; the speed factor is the geometric mean of the three.  A
unit's time at reference speed is its raw time times the factor of the
samples taken during that unit; ``run.py`` adds those of neighbouring units
to a unit too short for enough samples.  ``REF_S`` holds each kernel's median when
it interrupts these workloads on the machine where the benchmark was
defined (2 vCPUs, Intel Xeon, CPython 3.11, numpy 2.4), so normalized
figures read roughly as seconds there.

Python runs the handler in the main thread between bytecodes, so a long
call into C delays a sample but does not corrupt it.
"""

from __future__ import annotations

import contextlib
import gc
import math
import signal
import statistics
from time import perf_counter

import numpy as np

PERIOD_S = 0.025
WARMUP_ROUNDS = 10

_TABLE = [(i, float(i)) for i in range(1 << 16)]
_ORDER = [(i * 40503) % (1 << 16) for i in range(1500)]
_A = np.linspace(0.0, 1.0, 100).reshape(10, 10) + np.eye(10)


def _interpreter() -> float:
    acc = 0
    x = 1.0
    for k in range(1000):
        d = {"a": k, "b": k + 1}
        t = (d["a"], d["b"])
        acc += t[0] * t[1] % 7
        x = x * 0.999 + abs(-0.5)
    return acc + x


def _cache() -> float:
    acc = 0
    x = 0.0
    for i in _ORDER:
        a, b = _TABLE[i]
        acc += a
        x += b * 1e-9
    return acc + x


def _numpy() -> float:
    x = 0.0
    for _ in range(100):
        b = _A @ _A
        x += float((np.zeros(10) + b[0])[1])
    return x


KERNELS = (_interpreter, _cache, _numpy)
REF_S = (0.00055, 0.00107, 0.00048)


def sample(k: int) -> tuple[int, float]:
    """One timed run of kernel ``k``.  The collector is paused, so a
    collection of the interrupted unit's young objects is not charged to it."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        KERNELS[k]()
        return k, perf_counter() - t0
    finally:
        if collecting:
            gc.enable()


def sample_round() -> list[tuple[int, float]]:
    return [sample(k) for k in range(len(KERNELS))]


def seconds(samples: list[tuple[int, float]]) -> float:
    return sum(t for _, t in samples)


def factor(samples: list[tuple[int, float]]) -> float | None:
    """Multiplier from raw seconds to seconds at reference speed, or None
    unless every kernel has a sample."""
    by_kernel: dict[int, list[float]] = {}
    for k, t in samples:
        by_kernel.setdefault(k, []).append(t)
    if len(by_kernel) < len(KERNELS):
        return None
    logs = [math.log(REF_S[k] / statistics.median(ts)) for k, ts in by_kernel.items()]
    return math.exp(sum(logs) / len(logs))


def medians(samples: list[tuple[int, float]]) -> dict[str, float]:
    """Each kernel's median sample, for the record."""
    return {
        fn.__name__.lstrip("_"): statistics.median([t for j, t in samples if j == k])
        for k, fn in enumerate(KERNELS) if any(j == k for j, _ in samples)
    }


class Yardstick:
    """Collects kernel timings taken by ``SIGALRM`` while ``running()``."""

    def __init__(self):
        self.samples: list[tuple[int, float]] = []
        self._next = 0
        self._busy = False

    def _on_alarm(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        try:
            self.samples.append(sample(self._next))
            self._next = (self._next + 1) % len(KERNELS)
        finally:
            self._busy = False

    def warm_up(self) -> list[tuple[int, float]]:
        """Samples taken directly, so even a run of tiny units has a factor."""
        return [s for _ in range(WARMUP_ROUNDS) for s in sample_round()]

    def take(self) -> list[tuple[int, float]]:
        taken, self.samples = self.samples, []
        return taken

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
