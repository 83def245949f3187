"""A fixed reference workload that measures the machine's speed during a run.

The benchmark's host is shared: the same job, run again a minute later, can
take half as long or twice as long, and every kind of work slows together.
So the runner times this fixed piece of work every ``SAMPLE_EVERY_S`` of a
run, between jobs, and divides every time it reports by the machine's speed
at that moment: ``Gauge.scale(at)`` is ``REFERENCE_S`` over the median of the
``NEAREST`` reference times taken closest to ``at``. A reported time is then
in seconds on a machine on which this work takes ``REFERENCE_S``; the raw
wall times are printed next to the scaled ones.

The work mirrors what ``sparsedp`` jobs spend their time on and uses none of
its code, so a change to the program cannot move it: a pure-Python
enumeration of the compositions of ``m`` into ``n`` parts (as
``sparse_domain`` does), per-row numpy calls on small arrays (as
``quality_score``), one vectorised pass over the whole domain (as the oracle
does), and JSON encoding of a list of records (as every job's output).
"""

import bisect
import json
import statistics
import time

import numpy as np

# About the median time of one sample on a quiet 2-vCPU x86-64 VM (Python
# 3.11, numpy 2.4): the machine speed reported times are expressed at.
REFERENCE_S = 0.017
SAMPLE_EVERY_S = 0.3
NEAREST = 7

_N, _M = 5, 12
_RNG = np.random.default_rng(20240101)
_QUERIES = _RNG.random((16, _N))
_TARGET = _QUERIES @ np.arange(1.0, _N + 1.0)
# A 20k-row domain of a larger n, so the vectorised pass leaves the L2 cache.
_WIDE = _RNG.integers(0, 6, size=(20000, 8)).astype(float)
_WIDE_QUERIES = _RNG.random((32, 8))


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first, *rest)


def work() -> int:
    """One sample of reference work; returns a checksum that never changes."""
    rows = list(_compositions(_M, _N))
    domain = np.asarray(rows, dtype=float)
    best = min(float(np.abs(_TARGET - _QUERIES @ row).max()) for row in domain)
    errors = np.abs(_TARGET[None, :] - (15.0 / _M) * domain @ _QUERIES.T).max(axis=1)
    wide = np.abs(_WIDE @ _WIDE_QUERIES.T - 10.0).max(axis=1)
    text = json.dumps([{"counts": list(r), "error": float(e)} for r, e in zip(rows, errors)])
    return len(rows) + int(errors.argmin()) + int(wide.argmin()) + int(best * 1e6) + len(text)


class Gauge:
    """Reference samples of one run, and the time scale they give."""

    def __init__(self):
        self.checksum = work()
        self.at: list[float] = []
        self.seconds: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        result = work()
        end = time.perf_counter()
        if result != self.checksum:
            raise RuntimeError(f"reference work returned {result}, expected {self.checksum}")
        self.at.append((start + end) / 2)
        self.seconds.append(end - start)

    def due(self) -> bool:
        return not self.at or time.perf_counter() - self.at[-1] >= SAMPLE_EVERY_S

    def scale(self, at: float) -> float:
        """REFERENCE_S over the median of the samples nearest to ``at``."""
        i = bisect.bisect(self.at, at)
        lo = max(0, min(i - NEAREST // 2, len(self.at) - NEAREST))
        return REFERENCE_S / statistics.median(self.seconds[lo:lo + NEAREST])
