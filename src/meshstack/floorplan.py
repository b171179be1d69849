"""Per-layer floorplanning by simulated annealing, and post-placement
legalization once 3D routers and KOZs are known.

The annealer state is the cell->component map of a near-square grid
(ceil(sqrt(n)) columns x ceil(n / cols) rows); a move swaps two cells. Each
state is priced with the LP area kernel plus dimension-order (XY) routing of
the layer's internal flows on the LP geometry; the best state is re-sized
once with the exact kernel. Within one anneal, states whose demand grids
are row/column permutations of each other (as when two identical components
swap, or two rows trade places) share one LP solve. The XY term is priced
for every state from tables built once per anneal (flow ends as member
indices, paths memoized per cell pair), and link loads are walked only
where the layer's flows total more than the link capacity. Interlayer traffic is deliberately ignored here, it
is handled by the TSV and vertical-link steps.
"""

from __future__ import annotations

import dataclasses
import math
import random
from typing import Optional, Sequence

from .anneal import SaParams, anneal
# min_area_exact is unused here but kept: perfbench/layertrace.py patches floorplan.min_area_exact
from .area_kernel import (LpResult, min_area_exact, min_area_exact_cached,  # noqa: F401
                          min_area_lp, sorted_grid)
from .model import (
    ROUTER_2D,
    ROUTER_3D_BOTH,
    ROUTER_3D_DOWN,
    ROUTER_3D_UP,
    Instance,
    MeshFloorplan,
    ObjectiveWeights,
    VerticalLink,
    demand_grid,
    empty_floorplan,
    router_connects_down,
)

State = tuple[Optional[str], ...]  # row-major cell contents


def step2_cost(instance: Instance, fp: MeshFloorplan,
               weights: ObjectiveWeights) -> float:
    """The annealer's objective for an existing placement (reporting /
    post-hoc comparison): the same pricing floorplan_layer anneals on."""
    if fp.rows == 0:
        return 0.0
    state: State = tuple(comp for row in fp.cell_of for comp in row)
    members = [comp for comp in state if comp is not None]
    return _step2_objective(instance, fp.layer, members, fp.rows, fp.cols, weights)(state)


def grid_dims(n: int) -> tuple[int, int]:
    """Near-square grid with at least n cells: ceil(sqrt(n)) columns."""
    if n == 0:
        return (0, 0)
    cols = math.ceil(math.sqrt(n))
    rows = math.ceil(n / cols)
    return rows, cols


def _state_floorplan(layer: int, state: State, rows: int, cols: int) -> MeshFloorplan:
    """Unsized floorplan of a row-major state: 2D routers, no KOZs."""
    cells = tuple(tuple(state[r * cols:(r + 1) * cols]) for r in range(rows))
    return MeshFloorplan(
        layer=layer, rows=rows, cols=cols, cell_of=cells,
        col_widths=(0.0,) * cols, row_heights=(0.0,) * rows,
        router_kind=tuple(tuple(ROUTER_2D if comp is not None else None for comp in row)
                          for row in cells),
        koz_of=((0,) * cols,) * rows)


def placed_floorplan(instance: Instance, layer: int, state: State,
                     rows: int, cols: int) -> MeshFloorplan:
    """The one constructor of a placed layer: a row-major state with 2D
    routers and no KOZs, sized by the exact kernel on its demands. Shared by
    the annealer, the fixed-mesh protocol and the exact oracle."""
    fp = _state_floorplan(layer, state, rows, cols)
    return _sized(fp, min_area_exact_cached(demand_grid(instance, fp)))


def _xy_pricer(members: Sequence[str], rows: int, cols: int, intra_flows,
               capacity: float, w_peak: float, w_util: float):
    """The XY term of step 2 for states of `members` on a rows x cols grid,
    as price(state, widths, heights): w_peak times the link load beyond
    `capacity`, summed over directed links, plus w_util times each flow's
    bandwidth x centre-to-centre Manhattan distance on the kernel geometry.
    Dimension-order routing over the full grid: columns first, then rows.

    Flow ends become member indices once, and a (source cell, destination
    cell) pair's path, a tuple of directed link ids, is built the first time
    a flow takes it. Link loads are walked only where one can exceed
    capacity. Bandwidths are > 0 (validate_instance) and each load is a
    flow-ordered float sum over a subset of the layer's flows. Rounded
    addition is monotone and adding a positive bandwidth never lowers a float
    sum, so, flow by flow, such a sum never exceeds the flow-ordered sum over
    all of them, the layer's total. With that total <= capacity, every
    load - capacity is <= 0 and the peak term is exactly 0. Where loads are
    walked they keep first-touch order, and util adds in flow order, so the
    price is bit for bit that of a hop-by-hop walk."""
    if not intra_flows or (w_peak == 0.0 and w_util == 0.0):
        return lambda state, widths, heights: 0.0
    index = {comp: i for i, comp in enumerate(members)}
    flows = [(index[src], index[dst], bw) for src, dst, bw in intra_flows]
    total = 0.0
    for _src, _dst, bw in flows:
        total += bw
    walk = w_peak > 0.0 and total > capacity
    n = rows * cols
    paths: dict[int, tuple[int, ...]] = {}  # src * n + dst -> link ids (from * n + to)

    def path(src: int, dst: int) -> tuple[int, ...]:
        (r1, c1), (r2, c2) = divmod(src, cols), divmod(dst, cols)
        hops = ([1 if c2 > c1 else -1] * abs(c2 - c1)
                + [cols if r2 > r1 else -cols] * abs(r2 - r1))
        links, cell = [], src
        for hop in hops:
            links.append(cell * n + cell + hop)
            cell += hop
        return tuple(links)

    def price(state: State, widths: Sequence[float], heights: Sequence[float]) -> float:
        xs, ys = _centres(widths), _centres(heights)
        cell_of, x, y = [0] * len(members), [0.0] * len(members), [0.0] * len(members)
        for cell, comp in enumerate(state):
            if comp is not None:
                i = index[comp]
                cell_of[i], x[i], y[i] = cell, xs[cell % cols], ys[cell // cols]
        util = peak = 0.0
        for a, b, bw in flows:
            util += bw * (abs(x[b] - x[a]) + abs(y[b] - y[a]))
        if walk:
            loads: dict[int, float] = {}
            for a, b, bw in flows:
                src, dst = cell_of[a], cell_of[b]
                links = paths.get(src * n + dst)
                if links is None:
                    links = paths[src * n + dst] = path(src, dst)
                for link in links:
                    loads[link] = loads.get(link, 0.0) + bw
            peak = sum(max(0.0, load - capacity) for load in loads.values())
        return w_peak * peak + w_util * util
    return price


def _centres(sizes: Sequence[float]) -> list[float]:
    centres, acc = [], 0.0
    for size in sizes:
        centres.append(acc + size / 2.0)
        acc += size
    return centres


def _step2_objective(instance: Instance, layer: int, members: Sequence[str], rows: int,
                     cols: int, weights: ObjectiveWeights,
                     kernel_trace: Optional[list] = None):
    """Step 2's cost of a row-major state of members: the LP area plus the
    XY-routed communication of the flows between members on the LP geometry.
    Cell demands come from a table built once by demand_grid over a floorplan
    holding every member and an empty cell. Permuting a demand grid's rows or
    columns permutes its LP sizes the same way, so for as long as this
    objective lives (one anneal) each distinct grid is reduced to its
    sorted_grid normal form once, each normal form is solved once, and a
    state gets that solve un-permuted, with area (sum W)(sum H). The XY term
    depends on where components sit: one _xy_pricer, built with the
    objective, prices it for every state on that state's geometry.
    kernel_trace, if given, gets one record per evaluation."""
    ids = set(members)
    intra_flows = [(f.src, f.dst, f.bandwidth) for f in instance.core_graph.flows
                   if f.src in ids and f.dst in ids]
    xy = _xy_pricer(members, rows, cols, intra_flows, instance.tech.link_capacity,
                    weights.w_peak, weights.w_util)
    holder = (*members, None)
    demand_of = dict(zip(holder, demand_grid(
        instance, _state_floorplan(layer, holder, 1, len(holder)))[0]))
    solved: dict[tuple, LpResult] = {}    # exact grid -> its sizes
    by_class: dict[tuple, LpResult] = {}  # normal form -> its sizes

    def lp_of(grid: tuple) -> LpResult:
        normal, row_order, col_order = sorted_grid(grid)
        lp = by_class.get(normal)
        if lp is None:
            lp = by_class[normal] = min_area_lp(normal)
        widths, heights = [0.0] * cols, [0.0] * rows
        for c, w in zip(col_order, lp.col_widths):
            widths[c] = w
        for r, h in zip(row_order, lp.row_heights):
            heights[r] = h
        return LpResult(tuple(widths), tuple(heights), sum(widths) * sum(heights))

    def cost(state: State) -> float:
        cells = tuple(demand_of[comp] for comp in state)
        grid = tuple(cells[r * cols:(r + 1) * cols] for r in range(rows))
        lp = solved.get(grid)
        if lp is None:
            lp = solved[grid] = lp_of(grid)
        if kernel_trace is not None:
            kernel_trace.append({"layer": layer, "demands": [list(row) for row in grid],
                                 "area": lp.area})
        return weights.w_area * lp.area + xy(state, lp.col_widths, lp.row_heights)
    return cost


def floorplan_layer(instance: Instance, layer: int, members: Sequence[str],
                    weights: ObjectiveWeights, sa_params: SaParams,
                    dims: Optional[tuple[int, int]] = None,
                    kernel_trace: Optional[list] = None) -> MeshFloorplan:
    """Anneal one layer's placement and return it with exact-kernel sizing.

    members must all be assigned to this layer. An empty layer yields the
    trivial 0x0 plan.
    """
    members = sorted(members)
    if not members:
        return empty_floorplan(layer)
    rows, cols = dims if dims is not None else grid_dims(len(members))
    if rows * cols < len(members):
        raise ValueError(f"grid {rows}x{cols} cannot hold {len(members)} components")

    initial: State = tuple(members[i] if i < len(members) else None
                           for i in range(rows * cols))
    cost = _step2_objective(instance, layer, members, rows, cols, weights, kernel_trace)

    def neighbor(state: State, rng: random.Random) -> State:
        n = len(state)
        for _ in range(16):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j and not (state[i] is None and state[j] is None):
                cells = list(state)
                cells[i], cells[j] = cells[j], cells[i]
                return tuple(cells)
        return state

    if len(members) == rows * cols == 1:
        best = initial
    else:
        best, _, _ = anneal(initial, neighbor, cost, sa_params)
    return placed_floorplan(instance, layer, best, rows, cols)


# ---------------------------------------------------------------------------
# legalization (router kinds, KOZ charging, re-sizing)
# ---------------------------------------------------------------------------

def router_kinds(vlinks: Sequence[VerticalLink]):
    kinds: dict[tuple[int, int, int], str] = {}
    for v in vlinks:
        for key, direction in ((v.lower, ROUTER_3D_UP), (v.upper, ROUTER_3D_DOWN)):
            kinds[key] = direction if kinds.get(key, direction) == direction else ROUTER_3D_BOTH
    return kinds


def _apply_router_kinds(fp: MeshFloorplan, kinds) -> MeshFloorplan:
    router = tuple(tuple(None if comp is None else kinds.get((fp.layer, r, c), ROUTER_2D)
                         for c, comp in enumerate(row))
                   for r, row in enumerate(fp.cell_of))
    return dataclasses.replace(fp, router_kind=router)


def _with_koz(fp: MeshFloorplan, koz) -> MeshFloorplan:
    return dataclasses.replace(fp, koz_of=tuple(tuple(row) for row in koz))


def _place_kozs(instance: Instance, fp: MeshFloorplan,
                redistribute: bool) -> MeshFloorplan:
    """Charge one KOZ per downward-connecting router: in its own cell, or where
    legalize's rule lets it move, in the cell within reach whose extra demand
    hurts the layer area least (ties: nearest cell, then row/col order)."""
    koz = [[0] * fp.cols for _ in range(fp.rows)]
    down_routers = [(r, c) for (r, c), _comp in fp.occupied_cells()
                    if router_connects_down(fp.router_kind[r][c])]
    reach = instance.tech.rd_max_length
    for r, c in down_routers:
        if not redistribute or reach <= 0.0:
            koz[r][c] += 1
            continue
        center = fp.cell_center(r, c)
        candidates = []
        for rr in range(fp.rows):
            for cc in range(fp.cols):
                other = fp.cell_center(rr, cc)
                dist = abs(other[0] - center[0]) + abs(other[1] - center[1])
                if dist <= reach + 1e-9:
                    candidates.append((dist, rr, cc))
        candidates.sort()
        best = None
        for dist, rr, cc in candidates:
            koz[rr][cc] += 1
            trial = _with_koz(fp, koz)
            area = min_area_exact_cached(demand_grid(instance, trial)).area
            koz[rr][cc] -= 1
            key = (area, dist, rr, cc)
            if best is None or key < best[0]:
                best = (key, rr, cc)
        koz[best[1]][best[2]] += 1
    return _with_koz(fp, koz)


def legalize_layer(instance: Instance, fp: MeshFloorplan, kinds,
                   colocated: bool = False) -> MeshFloorplan:
    """One layer's legalization: router kinds from `kinds` ((layer, row, col)
    -> ROUTER_3D_*, others 2D), one KOZ per downward-connecting router under
    legalize's redistribution rule, and, unless colocated (legalize then sizes
    all layers together), exact sizing on the layer's own demands."""
    if fp.rows == 0:
        return fp
    fp = _place_kozs(instance, _apply_router_kinds(fp, kinds), redistribute=not colocated)
    if colocated:
        return fp
    return _sized(fp, min_area_exact_cached(demand_grid(instance, fp)))


def _sized(fp: MeshFloorplan, solution) -> MeshFloorplan:
    return dataclasses.replace(fp, col_widths=solution.col_widths,
                               row_heights=solution.row_heights)


def legalize(instance: Instance, floorplans: Sequence[MeshFloorplan],
             vlinks: Sequence[VerticalLink], colocated: bool = False) -> list[MeshFloorplan]:
    """Re-size every layer with the full demands: component + router kind
    (2D or 3D) + KOZs of downward connections. Placements stay fixed.

    The redistribution rule: a KOZ may move within the instance's reach
    (tech.rd_max_length) unless the reach is 0 or the layers are colocated.
    With colocated=True all layers share one sizing solved on the per-cell
    maximum demand, keeping routers of different layers exactly stacked
    (the conventional no-redistribution protocol).
    """
    kinds = router_kinds(vlinks)
    staged = [legalize_layer(instance, fp, kinds, colocated) for fp in floorplans]
    sized = [fp for fp in staged if fp.rows > 0]
    if not colocated or not sized:
        return staged
    if any((fp.rows, fp.cols) != (sized[0].rows, sized[0].cols) for fp in sized):
        raise ValueError("colocated legalization requires identical grid dims")
    shared = min_area_exact_cached(
        [[max(cell_d) for cell_d in zip(*rows_d)]
         for rows_d in zip(*(demand_grid(instance, fp) for fp in sized))])
    return [fp if fp.rows == 0 else _sized(fp, shared) for fp in staged]
