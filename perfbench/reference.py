"""Host speed reference: set-up and design times at a fixed reference speed.

The benchmark runs on a few virtual CPUs of a shared host whose speed
drifts: the same design call takes up to 1.4x its usual time for minutes at
a time, and CPU time grows with wall time, so it is not time-sharing that a
CPU clock would leave out. Timed alone, a design call measures that drift as
much as the program.

So the worker times reference_work() on the same CPU right before and right
after each design call (and after set-up), and scales the call's wall time
by NOMINAL_S over the reference's mean time per call: the seconds the call
would take on the host at the reference's nominal speed. In one app_large
loop on a 2-vCPU Xeon VM, through a spell in which raw 30 s medians moved by
47% of their median, the scaled medians moved by 13.5%, and the spread
(quartile distance over median) fell from 35% to 4%.

The work mixes what meshstack's hot paths do, in pure Python and numpy,
without calling meshstack, so no change to the program can move it:
Dijkstra with heapq on a grid graph (netgraph routing), dense pivots on a
covering-LP-sized tableau with a Python scan for the entering column
(simplex), and dict-heavy bookkeeping (floorplan and vlink state).
"""

from __future__ import annotations

import heapq
import time

import numpy as np

NOMINAL_S = 0.006  # about one reference_work() on a 2.1 GHz Xeon vCPU; sets the unit only
CALLS = 20         # reference_work() calls per measurement, about 0.12 s

_GRID = 12
_EDGES = {}
for _x in range(_GRID):
    for _y in range(_GRID):
        _EDGES[(_x, _y)] = [((_x + dx, _y + dy), 1.0 + ((_x * 7 + _y * 3 + dx) % 5) / 4)
                            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))
                            if 0 <= _x + dx < _GRID and 0 <= _y + dy < _GRID]
# spread-out values in [0, 1); numpy.random would add 7 MB to peak_rss_mb
_TABLEAU = (np.arange(120 * 360) * 7919 % 1000 / 1000.0).reshape(120, 360)


def _dijkstra(source) -> float:
    dist = {source: 0.0}
    heap = [(0.0, source)]
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist[node]:
            continue
        for nxt, w in _EDGES[node]:
            nd = d + w
            if nd < dist.get(nxt, float("inf")):
                dist[nxt] = nd
                heapq.heappush(heap, (nd, nxt))
    return sum(dist.values())


def _pivots() -> int:
    tableau = _TABLEAU.copy()
    found = 0
    for i in range(30):
        row = tableau[i]
        for j in range(row.size):
            if row[j] < 0.01:
                found += j
                break
        factors = tableau[:, i].copy()
        tableau -= np.outer(factors, row) * 1e-6
    return found


def reference_work() -> float:
    total = 0.0
    for s in range(4):
        total += _dijkstra((s, s))
    total += _pivots()
    state = {}
    for n in range(6000):
        key = (n % 97, n % 13)
        state[key] = state.get(key, 0) + n
    return total + len(state)


def seconds_per_call() -> float:
    """Mean wall seconds of one reference_work() call, over CALLS calls."""
    t0 = time.perf_counter()
    for _ in range(CALLS):
        reference_work()
    return (time.perf_counter() - t0) / CALLS


def at_reference_speed(seconds: float, reference_s: float) -> float:
    return seconds * NOMINAL_S / reference_s
