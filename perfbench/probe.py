"""Host-speed probe run in the same process just before and after each timed
repetition.

The probe is a short float32 GEMM plus a dict/heap loop.  It never touches
``repro``, so a change to the program cannot move it; what moves it is the
host (frequency scaling, neighbours on a shared machine).  A repetition's
time is scaled by ``(PROBE_REFERENCE_S / probe) ** elasticity`` so that a
slow spell of the host is not read as a slow program (:func:`normalize`).
"""

from __future__ import annotations

import heapq
import time

import numpy as np

#: Median probe time on the machine the bounds were tuned on (2 vCPU x86_64,
#: numpy 2.4 with scipy-openblas, BLAS pinned to one thread).  It only sets
#: the scale of normalized values; changing it rescales every run alike.
PROBE_REFERENCE_S = 0.014

_N = 256
_rng = np.random.default_rng(12345)
_A = _rng.standard_normal((_N, _N), dtype=np.float32)
_B = _rng.standard_normal((_N, _N), dtype=np.float32)


def _probe_once() -> float:
    t0 = time.perf_counter()
    c = _A
    for _ in range(4):
        c = (c @ _B) * np.float32(0.05)
    table: dict[int, int] = {}
    heap: list[int] = []
    for i in range(16000):
        key = (i * 7919) % 4093
        table[key] = table.get(key, 0) + i
        heapq.heappush(heap, key)
    while heap:
        heapq.heappop(heap)
    if not np.isfinite(c).all() or not table:
        raise RuntimeError("probe computed a non-finite result")
    return time.perf_counter() - t0


def normalize(raw_s: float, probe_before: float, probe_after: float, elasticity: float = 1.0) -> float:
    """``raw_s`` scaled to the host speed at which the probe takes
    :data:`PROBE_REFERENCE_S`.

    ``elasticity`` is the share (in log terms) of the probe's speed change
    that the timed work shows: 1 for pure-Python work like the probe's,
    less for work that spends its time in memory-bound numpy kernels.
    """
    probe_s = (probe_before + probe_after) / 2
    return raw_s * (PROBE_REFERENCE_S / probe_s) ** elasticity


def probe(repeats: int = 10) -> float:
    """Mean of ``repeats`` probe runs, in seconds.

    The host's speed jitters on sub-second scales; averaging ~140 ms of
    probing tracks what a repetition of a few seconds experiences far better
    than one short sample does.
    """
    return sum(_probe_once() for _ in range(repeats)) / repeats
