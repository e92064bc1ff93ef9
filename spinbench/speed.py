"""How fast the machine runs, from a fixed reference kernel run alongside.

On a shared virtual machine the same code runs up to 40% slower in
stretches of a few seconds to minutes, with nothing else running in it.
Pure-Python loops, event loops drawing from numpy's generator, sparse
solves and memory-bound products all slow, if not by the same share, so
one pass of the reference kernel does a fixed piece of each kind of work
(about 30 ms in all).

``Gauge.timed`` runs passes while a block runs, from a SIGALRM handler
every SLICE_EVERY_S, and a few more right after it. The handler runs in
the main thread between bytecodes, so the block is paused while a pass
runs; that time is reported apart, to be taken out of the block's time.
A block that took t seconds while the passes took r on average is put at
the speed the machine had when REFERENCE_S was measured by

    t * REFERENCE_S / r

A long call into compiled code (a sparse factorization, say) defers the
handler until it returns, so such a stretch is gauged by the passes
around it.
"""

from __future__ import annotations

import contextlib
import heapq
import resource
import signal
import statistics
import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

# Median time of one pass on the machine the bounds in BENCHMARK.json were
# set on (a shared 2-core Intel Xeon at 2.1 GHz, Python 3.11.7, numpy
# 2.4.6, scipy 1.17.1), over 2000 passes while it ran nothing else. A time
# scaled by REFERENCE_S / r reads as seconds on that machine at the speed
# it had then.
REFERENCE_S = 0.02866
SLICE_EVERY_S = 0.5
# Passes run after each block; the next block counts them too, so a block
# too short for the timer to fire is gauged before and after.
PASSES_AROUND = 4

GRID = 30  # the solve is on a GRID x GRID 5-point Laplacian
MATVEC_ROWS = 1 << 13
MATVEC_NNZ_PER_ROW = 8


def _laplacian() -> sp.csc_matrix:
    line = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(GRID, GRID))
    eye = sp.eye(GRID)
    return (sp.kron(line, eye) + sp.kron(eye, line) + 0.01 * sp.eye(GRID * GRID)).tocsc()


def _random_matrix() -> sp.csr_matrix:
    rng = np.random.default_rng(0)
    n, k = MATVEC_ROWS, MATVEC_NNZ_PER_ROW
    indptr = np.arange(0, n * k + 1, k, dtype=np.int32)
    indices = rng.integers(0, n, n * k, dtype=np.int32)
    return sp.csr_matrix((rng.random(n * k), indices, indptr), shape=(n, n))


# Built once: about 0.8 MB, resident for the whole run. The kernels'
# temporaries stay under 1 MB.
_LAPLACIAN = _laplacian()
_MATRIX = _random_matrix()


def _interpreter() -> int:
    total = 0
    for i in range(65_000):
        total += i * i % 7
    counts: dict[int, int] = {}
    for i in range(13_000):
        counts[i % 97] = counts.get(i % 97, 0) + 1
    return total + len(counts)


def _event_loop() -> float:
    gen = np.random.default_rng(0)
    heap = [(gen.exponential(1.0), i) for i in range(64)]
    heapq.heapify(heap)
    t = 0.0
    for _ in range(7_000):
        t, i = heapq.heappop(heap)
        heapq.heappush(heap, (t + gen.exponential(1.0), i))
    return t


def _sparse_solve() -> float:
    x = np.ones(GRID * GRID)
    for _ in range(3):
        x = spsolve(_LAPLACIAN, x)
        x /= x.max()
    return float(x[0])


def _sparse_matvec() -> float:
    v = np.ones(MATVEC_ROWS)
    for _ in range(80):
        v = _MATRIX @ v
        v /= v.max()
    return float(v[0])


KERNELS = (_interpreter, _event_loop, _sparse_solve, _sparse_matvec)


def one_pass() -> float:
    """Seconds for one pass over the reference kernels."""
    start = time.perf_counter()
    for kernel in KERNELS:
        kernel()
    return time.perf_counter() - start


def cpu_seconds() -> float:
    """User and system CPU of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Gauge:
    """Reference passes taken during and around timed blocks."""

    def __init__(self) -> None:
        self._before = [one_pass() for _ in range(PASSES_AROUND)]
        self._passes = self._before

    @contextlib.contextmanager
    def timed(self, interleave: bool = True):
        """Time the block; fill the yielded dict's ``seconds``, ``cpu``, ``paused``.

        ``seconds`` and ``cpu`` are the block's wall and CPU time (see
        ``cpu_seconds``), ``paused`` the part of them spent in passes.
        After the block, ``scale()`` is its factor. With
        ``interleave`` false no pass runs during the block (use it for a
        block that waits on another process, which a pass would not pause).
        """
        during: list[float] = []

        def on_alarm(signum, frame):
            during.append(one_pass())

        span = {"seconds": 0.0, "cpu": 0.0, "paused": 0.0}
        previous = signal.signal(signal.SIGALRM, on_alarm)
        if interleave:
            signal.setitimer(signal.ITIMER_REAL, SLICE_EVERY_S, SLICE_EVERY_S)
        cpu = cpu_seconds()
        start = time.perf_counter()
        try:
            yield span
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            span["seconds"] = time.perf_counter() - start
            span["cpu"] = cpu_seconds() - cpu
            signal.signal(signal.SIGALRM, previous)
            span["paused"] = sum(during)
            after = [one_pass() for _ in range(PASSES_AROUND)]
            self._passes = self._before + during + after
            self._before = after

    def scale(self) -> float:
        """Factor that puts the last timed block at reference speed."""
        return REFERENCE_S / statistics.mean(self._passes)
