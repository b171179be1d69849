"""TSV array count per adjacent-layer boundary (exhaustive search on C3).

For a candidate count i, arrays land on i distinct upper-layer grid-cell
centers, every placement equally likely; every component with traffic
crossing the boundary attaches to its nearest array (planar Manhattan
distance). The objective
    C3(i) = w_area * i * K  +  w_util * sum_j b_j * d_j
trades KOZ area against expected approach wiring, with b_j the bandwidth the
j-th array attracts and d_j its bandwidth-weighted mean approach distance.
The expectation is computed exactly, not sampled. Counts are small, so the
argmin over i is found exhaustively: one pass over the crossing components
yields the whole curve, i = 1..max_i, where the pipeline passes the
boundary's link capacity as max_i.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple, Optional, Sequence

from .errors import TooManyArraysError
from .model import CoreGraph, MeshFloorplan, ObjectiveWeights


class ArrayEstimate(NamedTuple):
    bandwidth: float  # b_j, Mb/s attracted by the array
    distance: float   # d_j, bandwidth-weighted mean Manhattan approach, mm


class TsvChoice(NamedTuple):
    count: int
    c3_by_count: dict[int, float]


def cross_boundary_traffic(core_graph: CoreGraph, layer_of: dict[str, int],
                           boundary: int) -> dict[str, float]:
    """Per-component bandwidth crossing the boundary (upward + downward)."""
    traffic: dict[str, float] = {}
    for flow in core_graph.flows:
        lo = min(layer_of[flow.src], layer_of[flow.dst])
        hi = max(layer_of[flow.src], layer_of[flow.dst])
        if lo <= boundary < hi:
            traffic[flow.src] = traffic.get(flow.src, 0.0) + flow.bandwidth
            traffic[flow.dst] = traffic.get(flow.dst, 0.0) + flow.bandwidth
    return traffic


def _component_positions(floorplans: Sequence[MeshFloorplan]) -> dict[str, tuple[float, float]]:
    return {comp: fp.cell_center(r, c)
            for fp in floorplans for (r, c), comp in fp.occupied_cells()}


def _layer_of(floorplans: Sequence[MeshFloorplan]) -> dict[str, int]:
    return {comp: fp.layer for fp in floorplans for _cell, comp in fp.occupied_cells()}


def estimate_arrays(floorplans: Sequence[MeshFloorplan], boundary: int,
                    core_graph: CoreGraph, i: int, samples: Optional[int] = None,
                    seed: Optional[int] = None) -> list[ArrayEstimate]:
    """Exact per-array (b_j, d_j), averaged over all C(N, i) placements of
    i arrays on the upper layer's N cell centers. `samples` and `seed` are
    ignored; they stay only because the acceptance suite passes them."""
    traffic = cross_boundary_traffic(core_graph, _layer_of(floorplans), boundary)
    return _estimates(floorplans, boundary, traffic, [i])[i]


def _estimates(floorplans: Sequence[MeshFloorplan], boundary: int, traffic: dict[str, float],
               counts: Sequence[int]) -> dict[int, list[ArrayEstimate]]:
    """estimate_arrays for each count in ascending `counts`, on the boundary's
    crossing traffic. Arrays rank j by position (x, y); a component attaches
    to its nearest array, distances within 1e-12 tying to the earlier
    position. Take the cells in that (distance, position) order: the k-th
    (0-based) is the nearest array when chosen with none before it, the other
    i - 1 drawn from the N - k - 1 after it, m of which lie earlier in
    position. So it is the array of rank j with probability
    C(m, j) * C(N - k - 1 - m, i - 1 - j) / C(N, i). The order and each m do
    not depend on i, so they are computed once per component, and each
    probability once per (i, k, m). Each count sums its terms component by
    component, in cell order."""
    for i in counts:
        if i < 1:
            raise TooManyArraysError(f"array count must be >= 1, got {i}")
    upper = next(fp for fp in floorplans if fp.layer == boundary + 1)
    spots = sorted(upper.cell_center(r, c) for r in range(upper.rows) for c in range(upper.cols))
    n = len(spots)
    for i in counts:
        if i > n:
            raise TooManyArraysError(
                f"{i} arrays requested but the upper grid has only {n} cells")

    positions = _component_positions(floorplans)
    crossing = []  # per component: its bandwidth and each cell's (m, distance) in order
    for comp in sorted(traffic):
        px, py = positions[comp]
        dist = [abs(px - ax) + abs(py - ay) for ax, ay in spots]
        # key each spot by the least distance it ties with, then by position
        ties, lead = [], -1.0
        for p in sorted(range(n), key=dist.__getitem__):
            lead = dist[p] if dist[p] > lead + 1e-12 else lead
            ties.append((lead, p))
        order = [p for _lead, p in sorted(ties)]
        crossing.append((traffic[comp], [(sum(1 for q in order[k + 1:] if q < p), dist[p])
                                         for k, p in enumerate(order)]))

    estimates = {}
    for i in counts:
        placements = comb(n, i)
        rank_probs = [[None] * (n - k) for k in range(n - i + 1)]  # by k, then m
        acc_b, acc_wd = [0.0] * i, [0.0] * i
        for bandwidth, cells in crossing:
            for k, (m, d) in enumerate(cells[:n - i + 1]):  # a later cell is never the nearest
                probs = rank_probs[k][m]
                if probs is None:
                    probs = rank_probs[k][m] = [
                        comb(m, j) * comb(n - k - 1 - m, i - 1 - j) / placements
                        for j in range(min(m, i - 1) + 1)]
                for j, prob in enumerate(probs):
                    w = prob * bandwidth
                    acc_b[j] += w
                    acc_wd[j] += w * d
        estimates[i] = [ArrayEstimate(b, wd / b if b > 0 else 0.0)
                        for b, wd in zip(acc_b, acc_wd)]
    return estimates


def c3_value(estimates: Sequence[ArrayEstimate], koz_area: float,
             weights: ObjectiveWeights) -> float:
    wiring = sum(e.bandwidth * e.distance for e in estimates)
    return weights.w_area * len(estimates) * koz_area + weights.w_util * wiring


def choose_count(floorplans: Sequence[MeshFloorplan], boundary: int,
                 core_graph: CoreGraph, koz_area: float, weights: ObjectiveWeights,
                 max_i: int, samples: Optional[int] = None,
                 seed: Optional[int] = None) -> TsvChoice:
    """Exhaustive argmin of the exact C3 over 1..max_i; ties go to the
    smaller count. A boundary without crossing traffic needs no arrays at all
    (count 0). `samples` and `seed` are ignored, as in estimate_arrays."""
    traffic = cross_boundary_traffic(core_graph, _layer_of(floorplans), boundary)
    if not traffic:
        return TsvChoice(0, {0: 0.0})
    if max_i < 1:
        raise TooManyArraysError("max_i must be >= 1 for a boundary with traffic")
    curve = {i: c3_value(estimates, koz_area, weights) for i, estimates
             in _estimates(floorplans, boundary, traffic, range(1, max_i + 1)).items()}
    return TsvChoice(min(curve, key=curve.__getitem__), curve)
