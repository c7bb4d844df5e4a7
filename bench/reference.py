"""A fixed reference task that measures how fast the machine runs right now.

The shared host the benchmark runs on changes speed by a third over
minutes, and every timing of the library moves with it. A run therefore
times this task after every event, outside the timed region, and reports
its end-to-end timings scaled to a nominal machine speed:
``t * REF_NOMINAL_MS / median(reference task ms)``.

The task is pure Python set and dict work of the same kind as the
library's (adjacency sets of a fixed dense graph: greedy coloring,
common-neighbour counts, complements). It lives in the benchmark and calls
nothing in ``timcolor``, so no change to the library changes its cost.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

# The task's median on the 2-vCPU Xeon VM the benchmark was tuned on; a
# normalised time reads as the wall time on that machine at that speed.
REF_NOMINAL_MS = 2.0
_N, _DENSITY, _SEED = 60, 0.5, 12345


def _graph() -> dict[int, frozenset[int]]:
    rng = random.Random(_SEED)
    adj: dict[int, set[int]] = {v: set() for v in range(_N)}
    for u in range(_N):
        for v in range(u + 1, _N):
            if rng.random() < _DENSITY:
                adj[u].add(v)
                adj[v].add(u)
    return {v: frozenset(s) for v, s in adj.items()}


_ADJ = _graph()
_CHECK = None


def _task(adj: dict[int, frozenset[int]]) -> tuple[int, int, int]:
    order = sorted(adj, key=lambda v: (-len(adj[v]), v))
    color: dict[int, int] = {}
    for v in order:
        used = {color[u] for u in adj[v] if u in color}
        c = 0
        while c in used:
            c += 1
        color[v] = c
    common = sum(len(adj[u] & adj[v]) for u in adj for v in adj[u] if u < v)
    everyone = frozenset(adj)
    complement = {v: everyone - adj[v] - {v} for v in adj}
    return max(color.values()), common, sum(map(len, complement.values()))


def time_task() -> float:
    """Wall seconds of one reference task (the collector paused, so the
    program's heap does not change its cost)."""
    global _CHECK
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        out = _task(_ADJ)
        dt = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if _CHECK is None:
        _CHECK = out
    elif out != _CHECK:
        raise RuntimeError(f"reference task returned {out}, expected {_CHECK}")
    return dt


def speed_factor(samples: list[float]) -> float:
    """Nominal over measured reference time: multiply a wall time by it."""
    return REF_NOMINAL_MS / (1e3 * statistics.median(samples))
