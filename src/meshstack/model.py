"""Domain model: core graph, PPA tables, floorplans, network graphs.

Instances are described by three JSON documents (see schemas/instance.schema.json):
  coregraph.json  components + bandwidth-weighted directed flows
  ppa.json        layer stack + per-kind per-node area/perf/power tables
  tech.json       keep-out-zone area, redistribution reach, link capacity

All types are immutable after validation and safe to share across workers.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Mapping, Optional, Sequence, Union

from .errors import InputError, ValidationError

INFEASIBLE_MARKERS = ("infeasible", "n.a.", "na", "n/a")

ROUTER_2D = "2d"
ROUTER_3D_UP = "3d-up"
ROUTER_3D_DOWN = "3d-down"
ROUTER_3D_BOTH = "3d-both"


# ---------------------------------------------------------------------------
# core types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Component:
    id: str
    kind: str


@dataclass(frozen=True)
class Flow:
    src: str
    dst: str
    bandwidth: float  # Mb/s


@dataclass(frozen=True)
class CoreGraph:
    components: tuple[Component, ...]
    flows: tuple[Flow, ...]

    def kinds(self) -> dict[str, str]:
        return {c.id: c.kind for c in self.components}


@dataclass(frozen=True)
class Layer:
    index: int
    node_name: str  # technology node, e.g. "28nm"


@dataclass(frozen=True)
class PpaEntry:
    area: float   # mm^2
    perf: float   # relative (larger = slower)
    power: float  # relative


@dataclass(frozen=True)
class PpaTable:
    """Per-kind, per-node PPA values. A missing entry marks an infeasible node.

    Routers always have entries for every node; only component kinds may be
    infeasible in a node.
    """

    components: Mapping[str, Mapping[str, Optional[PpaEntry]]]
    router_2d: Mapping[str, PpaEntry]
    router_3d: Mapping[str, PpaEntry]

    def component_entry(self, kind: str, node: str) -> Optional[PpaEntry]:
        table = self.components.get(kind)
        if table is None:
            return None
        return table.get(node)


@dataclass(frozen=True)
class TechParams:
    koz_area: float        # mm^2 reserved per downward vertical connection
    rd_max_length: float   # mm, max redistribution wire length
    link_capacity: float   # Mb/s per directed link


@dataclass(frozen=True)
class ObjectiveWeights:
    w_area: float = 1.0
    w_power: float = 1.0
    w_perf: float = 1.0
    w_peak: float = 1.0
    w_util: float = 1.0

    def __post_init__(self):
        vals = (self.w_area, self.w_power, self.w_perf, self.w_peak, self.w_util)
        if any(w < 0 for w in vals):
            raise ValueError("objective weights must be nonnegative")
        if all(w == 0 for w in vals):
            raise ValueError("at least one objective weight must be positive")

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.w_area, self.w_power, self.w_perf, self.w_peak, self.w_util)


@dataclass(frozen=True)
class Instance:
    """A validated problem instance; the only way to build one is validate_instance."""

    core_graph: CoreGraph
    ppa: PpaTable
    tech: TechParams
    layers: tuple[Layer, ...]
    kinds: Mapping[str, str] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.kinds is None:
            object.__setattr__(self, "kinds", self.core_graph.kinds())

    def node_of(self, layer_index: int) -> str:
        return self.layers[layer_index].node_name

    def component_entry(self, comp_id: str, layer_index: int) -> Optional[PpaEntry]:
        return self.ppa.component_entry(self.kinds[comp_id], self.node_of(layer_index))

    def feasible_layers(self, comp_id: str) -> tuple[int, ...]:
        return tuple(l.index for l in self.layers
                     if self.component_entry(comp_id, l.index) is not None)

    def router_entry(self, layer_index: int, three_d: bool) -> PpaEntry:
        node = self.node_of(layer_index)
        return self.ppa.router_3d[node] if three_d else self.ppa.router_2d[node]

    def boundaries(self) -> tuple[int, ...]:
        """Adjacent-layer boundaries; boundary b joins layers b and b+1."""
        return tuple(range(len(self.layers) - 1))


# ---------------------------------------------------------------------------
# floorplan / network / traffic types
# ---------------------------------------------------------------------------

Cell = tuple[int, int]          # (row, col)
NodeKey = tuple[int, int, int]  # (layer, row, col)


@dataclass(frozen=True)
class MeshFloorplan:
    """One layer's mesh floorplan: a grid of cells with shared column widths
    and row heights. Cells are addressed [row][col]."""

    layer: int
    rows: int
    cols: int
    cell_of: tuple[tuple[Optional[str], ...], ...]       # component id or None
    col_widths: tuple[float, ...]
    row_heights: tuple[float, ...]
    router_kind: tuple[tuple[Optional[str], ...], ...]   # ROUTER_* or None for empty cells
    koz_of: tuple[tuple[int, ...], ...]                  # KOZ count charged per cell

    @property
    def width(self) -> float:
        return sum(self.col_widths)

    @property
    def height(self) -> float:
        return sum(self.row_heights)

    @property
    def area(self) -> float:
        return self.width * self.height

    def occupied_cells(self) -> Iterator[tuple[Cell, str]]:
        for r in range(self.rows):
            for c in range(self.cols):
                comp = self.cell_of[r][c]
                if comp is not None:
                    yield (r, c), comp

    def cell_center(self, row: int, col: int) -> tuple[float, float]:
        x = sum(self.col_widths[:col]) + self.col_widths[col] / 2.0
        y = sum(self.row_heights[:row]) + self.row_heights[row] / 2.0
        return x, y


def empty_floorplan(layer: int) -> MeshFloorplan:
    return MeshFloorplan(layer=layer, rows=0, cols=0, cell_of=(), col_widths=(),
                         row_heights=(), router_kind=(), koz_of=())


@dataclass(frozen=True)
class VerticalLink:
    lower: NodeKey
    upper: NodeKey
    rd_length: float  # mm, planar Manhattan distance between the two router centers

    def __post_init__(self):
        if self.upper[0] != self.lower[0] + 1:
            raise ValueError("vertical links join adjacent layers only")


@dataclass(frozen=True)
class TrafficEval:
    """Measured network outcome for one routing of all flows."""

    loads: Mapping[tuple[NodeKey, NodeKey], float]  # per directed link, Mb/s
    bw_times_distance: float                        # mm * Mb/s
    bw_times_hops: float                            # hops * Mb/s (secondary metric)
    max_link_load: float                            # Mb/s
    peak_penalty: float                             # Mb/s over-capacity excess, summed
    whitespace_per_layer: tuple[float, ...] = ()
    whitespace_total: float = 0.0


# ---------------------------------------------------------------------------
# cell demand rules (router + KOZ geometry)
# ---------------------------------------------------------------------------

def router_is_3d(kind: Optional[str]) -> bool:
    return kind in (ROUTER_3D_UP, ROUTER_3D_DOWN, ROUTER_3D_BOTH)


def router_connects_down(kind: Optional[str]) -> bool:
    return kind in (ROUTER_3D_DOWN, ROUTER_3D_BOTH)


def cell_demand(instance: Instance, fp: MeshFloorplan, row: int, col: int) -> float:
    """Area a cell must provide: component + router + any KOZ charged there.

    Bonding is face-to-back, so a downward-connecting router carries a KOZ on
    its own layer; with redistribution the KOZ may have been charged to a
    nearby cell instead (tracked by koz_of).
    """
    comp = fp.cell_of[row][col]
    demand = fp.koz_of[row][col] * instance.tech.koz_area
    if comp is not None:
        entry = instance.component_entry(comp, fp.layer)
        if entry is None:
            raise ValueError(f"component {comp!r} infeasible in layer {fp.layer}")
        demand += entry.area
        demand += instance.router_entry(fp.layer, router_is_3d(fp.router_kind[row][col])).area
    return demand


def demand_grid(instance: Instance, fp: MeshFloorplan) -> list[list[float]]:
    return [[cell_demand(instance, fp, r, c) for c in range(fp.cols)]
            for r in range(fp.rows)]


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    code: str
    message: str


def finite_number(x, lo: float) -> bool:
    """x is an int or float, not a bool, with lo <= x <= the largest float.
    Comparisons only: an int beyond every float is refused, not overflowed."""
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and lo <= x <= sys.float_info.max)


def _positive(x) -> bool:
    return finite_number(x, 0) and x > 0


def nonnegative_number(x, what: str) -> float:
    """x as a float, if finite_number(x, 0), else ValueError naming what: an
    artifact's costs and lengths are never NaN, infinite or negative."""
    if not finite_number(x, 0):
        raise ValueError(f"{what} must be a finite number >= 0, got {x!r}")
    return float(x)


# characters that XML 1.0 or UTF-8 cannot hold: controls, surrogates, U+FFFE/U+FFFF;
# component ids are written into the layer SVGs (the schema's id pattern too)
_UNWRITABLE = re.compile(r"[\x00-\x1f\ud800-\udfff\ufffe\uffff]")


# every PPA area, and a KOZ area unless it is 0, in mm^2 (the schema's bounds
# too): far wider than any die, and narrow enough that every cell demand, a
# sum of such areas, lies well inside the range both area kernels size
AREA_RANGE = (1e-12, 1e12)
_AREA_TEXT = f"[{AREA_RANGE[0]:g}, {AREA_RANGE[1]:g}] mm^2"


def _area_in_range(x) -> bool:
    return AREA_RANGE[0] <= x <= AREA_RANGE[1]


def instance_violations(core_graph: CoreGraph, ppa: PpaTable, tech: TechParams,
                        layers: Sequence[Layer]) -> list[Violation]:
    """Collect every invariant violation; empty list means the instance is valid."""
    out: list[Violation] = []

    # layer stack
    if not layers:
        out.append(Violation("MalformedTable", "the layer stack must hold at least one layer"))
    indices = [l.index for l in layers]
    if sorted(indices) != list(range(len(layers))):
        out.append(Violation("MalformedTable", f"layer indices must be contiguous from 0, got {indices}"))
    for l in layers:
        if not l.node_name:
            out.append(Violation("MalformedTable", f"layer {l.index} node must be non-empty"))
    nodes = {l.node_name for l in layers}

    # PPA tables: every entry of every node, used by the stack or not, as the schema has it
    routers = {"router 2d": ppa.router_2d, "router 3d": ppa.router_3d}
    for node in sorted(nodes):
        for name, table in routers.items():
            if table.get(node) is None:
                out.append(Violation("MalformedTable", f"{name} table has no entry for node {node!r}"))
    for name, table in [*routers.items(), *((repr(k), t) for k, t in sorted(ppa.components.items()))]:
        for node, entry in sorted(table.items()):
            if entry is None:
                continue
            if not all(_positive(v) for v in (entry.area, entry.perf, entry.power)):
                out.append(Violation("MalformedTable", f"PPA entry for {name} in {node!r} must be positive"))
            elif not _area_in_range(entry.area):
                out.append(Violation("MalformedTable", f"PPA area for {name} in {node!r} must lie in "
                                                       f"{_AREA_TEXT}, got {entry.area}"))

    # tech params
    if not finite_number(tech.koz_area, 0):
        out.append(Violation("MalformedTable", f"koz_area must be >= 0, got {tech.koz_area}"))
    elif tech.koz_area and not _area_in_range(tech.koz_area):
        out.append(Violation("MalformedTable", f"koz_area must be 0 or lie in {_AREA_TEXT}, "
                                               f"got {tech.koz_area}"))
    if not finite_number(tech.rd_max_length, 0):
        out.append(Violation("MalformedTable", f"rd_max_length must be >= 0, got {tech.rd_max_length}"))
    if not _positive(tech.link_capacity):
        out.append(Violation("MalformedTable", f"link_capacity must be > 0, got {tech.link_capacity}"))

    # components
    seen: set[str] = set()
    for comp in core_graph.components:
        if not comp.id:
            out.append(Violation("MalformedTable", f"component ids must be non-empty; a {comp.kind!r} has ''"))
        if _UNWRITABLE.search(comp.id):
            out.append(Violation("MalformedTable", f"component id {comp.id!r} holds a character "
                                                   "below U+0020, a surrogate, U+FFFE or U+FFFF"))
        if not comp.kind:
            out.append(Violation("MalformedTable", f"component {comp.id!r} kind must be non-empty"))
        if comp.id in seen:
            out.append(Violation("DuplicateComponent", f"component id {comp.id!r} appears more than once"))
        seen.add(comp.id)
        feasible = [l for l in layers
                    if ppa.component_entry(comp.kind, l.node_name) is not None]
        if layers and not feasible:
            out.append(Violation("NoFeasibleLayer", f"component {comp.id!r} ({comp.kind!r}) is feasible in no layer"))

    # flows
    ids = {c.id for c in core_graph.components}
    for flow in core_graph.flows:
        if flow.src not in ids:
            out.append(Violation("UnknownComponent", f"flow source {flow.src!r} is not a component"))
        if flow.dst not in ids:
            out.append(Violation("UnknownComponent", f"flow destination {flow.dst!r} is not a component"))
        if flow.src == flow.dst:
            out.append(Violation("SelfFlow", f"flow {flow.src!r} -> {flow.dst!r} loops onto itself"))
        if not _positive(flow.bandwidth):
            out.append(Violation("NegativeBandwidth",
                                 f"flow {flow.src!r} -> {flow.dst!r} bandwidth must be > 0, got {flow.bandwidth}"))
    return out


def validate_instance(core_graph: CoreGraph, ppa: PpaTable, tech: TechParams,
                      layers: Sequence[Layer]) -> Instance:
    """Validate everything and return an immutable Instance, or raise ValidationError."""
    violations = instance_violations(core_graph, ppa, tech, layers)
    if violations:
        raise ValidationError(violations)
    ordered = tuple(sorted(layers, key=lambda l: l.index))
    return Instance(core_graph=core_graph, ppa=ppa, tech=tech, layers=ordered)


# ---------------------------------------------------------------------------
# JSON parsing / serialization
# ---------------------------------------------------------------------------

_JSON_TYPES = {"object": dict, "array": list, "string": str, "number": (int, float),
               "integer": int}


def json_typed(value, kind: str, what: str):
    """value, if it has the JSON type kind (as the schema names it; a bool is
    none of them), else ValueError: instance files are checked for shape
    before any of their values is used."""
    if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[kind]):
        raise ValueError(f"{what} must be a JSON {kind}, got {value!r}")
    return value


def _fields(doc, what: str, kinds: dict[str, str]) -> tuple:
    """The values of doc's keys, each of the JSON type kinds names; doc must be
    a JSON object with exactly those keys (the schema requires each and allows
    no other), else ValueError."""
    json_typed(doc, "object", what)
    if doc.keys() != kinds.keys():
        raise ValueError(f"{what} must have exactly the keys {sorted(kinds)}, got {sorted(doc)}")
    return tuple(json_typed(doc[key], kind, repr(key)) for key, kind in kinds.items())


def parse_core_graph(doc: dict) -> CoreGraph:
    comps, flows = _fields(doc, "a core graph", {"components": "array", "flows": "array"})
    comps = tuple(Component(*_fields(c, "a component", {"id": "string", "kind": "string"}))
                  for c in comps)
    flows = tuple(Flow(src, dst, float(bandwidth)) for src, dst, bandwidth in (
        _fields(f, "a flow", {"src": "string", "dst": "string", "bandwidth": "number"})
        for f in flows))
    return CoreGraph(components=comps, flows=flows)


def core_graph_to_json(cg: CoreGraph) -> dict:
    return {
        "components": [{"id": c.id, "kind": c.kind} for c in cg.components],
        "flows": [{"src": f.src, "dst": f.dst, "bandwidth": f.bandwidth} for f in cg.flows],
    }


def _parse_entry(raw) -> Optional[PpaEntry]:
    if isinstance(raw, str):
        if raw in INFEASIBLE_MARKERS:
            return None
        raise ValueError(f"unrecognized PPA entry {raw!r}")
    return PpaEntry(*map(float, _fields(raw, "a PPA entry",
                                        {"area": "number", "perf": "number", "power": "number"})))


def _entry_to_json(entry: Optional[PpaEntry]):
    if entry is None:
        return "infeasible"
    return {"area": entry.area, "perf": entry.perf, "power": entry.power}


def parse_ppa(doc: dict) -> tuple[PpaTable, tuple[Layer, ...]]:
    layers, tables, routers = _fields(doc, "a PPA table", {"layers": "array",
                                                          "components": "object",
                                                          "routers": "object"})
    layers = tuple(Layer(*_fields(l, "a layer", {"index": "integer", "node": "string"}))
                   for l in layers)
    comps = {kind: {node: _parse_entry(raw)
                    for node, raw in json_typed(table, "object", f"components {kind!r}").items()}
             for kind, table in tables.items()}
    raw_2d, raw_3d = _fields(routers, "routers", {"2d": "object", "3d": "object"})

    def router_table(key: str, raws: dict) -> dict[str, PpaEntry]:
        table = {}
        for node, raw in raws.items():
            entry = _parse_entry(raw)
            if entry is None:
                raise ValueError(f"router {key!r} may not be infeasible (node {node!r})")
            table[str(node)] = entry
        return table

    ppa = PpaTable(components=comps, router_2d=router_table("2d", raw_2d),
                   router_3d=router_table("3d", raw_3d))
    return ppa, layers


def ppa_to_json(ppa: PpaTable, layers: Sequence[Layer]) -> dict:
    return {
        "layers": [{"index": l.index, "node": l.node_name}
                   for l in sorted(layers, key=lambda l: l.index)],
        "components": {kind: {node: _entry_to_json(e) for node, e in sorted(table.items())}
                       for kind, table in sorted(ppa.components.items())},
        "routers": {
            "2d": {node: _entry_to_json(e) for node, e in sorted(ppa.router_2d.items())},
            "3d": {node: _entry_to_json(e) for node, e in sorted(ppa.router_3d.items())},
        },
    }


def parse_tech(doc: dict) -> TechParams:
    return TechParams(*map(float, _fields(doc, "tech", {"koz_area": "number",
                                                        "rd_max_length": "number",
                                                        "link_capacity": "number"})))


def tech_to_json(tech: TechParams) -> dict:
    return {"koz_area": tech.koz_area, "rd_max_length": tech.rd_max_length,
            "link_capacity": tech.link_capacity}


def read_json(path: Union[str, Path], parse: Callable = lambda doc: doc):
    """parse(JSON of path); a missing or malformed file raises InputError naming it."""
    try:
        with open(path) as f:
            return parse(json.load(f))
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror}") from exc
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{path}: {type(exc).__name__}: {exc}") from exc


def write_text(text: str, path: Union[str, Path]) -> None:
    """Write text to path, its directories made first; a path that cannot be
    written raises InputError naming it."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise InputError(f"{exc.filename or path}: {exc.strerror or exc}") from exc


def write_json(doc, path: Union[str, Path]) -> None:
    """The one JSON writer: sorted keys, indent 2, trailing newline. A
    non-finite number, which JSON cannot hold, raises InputError naming path."""
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc
    write_text(text + "\n", path)


def load_instance(path: Union[str, Path]) -> Instance:
    """Load and validate an instance directory holding coregraph/ppa/tech JSON files."""
    base = Path(path)
    cg = read_json(base / "coregraph.json", parse_core_graph)
    ppa, layers = read_json(base / "ppa.json", parse_ppa)
    tech = read_json(base / "tech.json", parse_tech)
    return validate_instance(cg, ppa, tech, layers)


def save_instance(instance: Instance, path: Union[str, Path]) -> None:
    base = Path(path)
    write_json(core_graph_to_json(instance.core_graph), base / "coregraph.json")
    write_json(ppa_to_json(instance.ppa, instance.layers), base / "ppa.json")
    write_json(tech_to_json(instance.tech), base / "tech.json")


# ---------------------------------------------------------------------------
# solution artifact serialization
# ---------------------------------------------------------------------------

def floorplan_to_json(fp: MeshFloorplan) -> dict:
    return {
        "layer": fp.layer,
        "rows": fp.rows,
        "cols": fp.cols,
        "cells": [list(row) for row in fp.cell_of],
        "col_widths": list(fp.col_widths),
        "row_heights": list(fp.row_heights),
        "router_kind": [list(row) for row in fp.router_kind],
        "koz": [list(row) for row in fp.koz_of],
        "area": fp.area,
    }


def _json_array(values, kind: str, what: str) -> tuple:
    """values as a tuple, if it is a JSON array of kind (json_typed), else
    ValueError."""
    return tuple(json_typed(v, kind, what) for v in json_typed(values, "array", what))


def _json_grid(rows, kind: str, what: str) -> tuple:
    """rows as a tuple of tuples, if a JSON array of arrays whose entries are
    null or of kind, else ValueError."""
    return tuple(tuple(v if v is None else json_typed(v, kind, what)
                       for v in json_typed(row, "array", what))
                 for row in json_typed(rows, "array", what))


def parse_floorplan(doc: dict) -> MeshFloorplan:
    fp = MeshFloorplan(
        layer=json_typed(doc["layer"], "integer", "'layer'"),
        rows=json_typed(doc["rows"], "integer", "'rows'"),
        cols=json_typed(doc["cols"], "integer", "'cols'"),
        cell_of=_json_grid(doc["cells"], "string", "'cells'"),
        col_widths=tuple(map(float, _json_array(doc["col_widths"], "number", "'col_widths'"))),
        row_heights=tuple(map(float, _json_array(doc["row_heights"], "number", "'row_heights'"))),
        router_kind=_json_grid(doc["router_kind"], "string", "'router_kind'"),
        koz_of=tuple(_json_array(row, "integer", "'koz'")
                     for row in json_typed(doc["koz"], "array", "'koz'")),
    )
    if ((len(fp.row_heights), len(fp.col_widths)) != (fp.rows, fp.cols)
            or any(len(g) != fp.rows or any(len(row) != fp.cols for row in g)
                   for g in (fp.cell_of, fp.router_kind, fp.koz_of))):
        raise ValueError(f"layer {fp.layer}: a grid or size list does not fit {fp.rows}x{fp.cols}")
    # an empty column or row has size 0
    if not all(0 <= size < math.inf for size in fp.col_widths + fp.row_heights):
        raise ValueError(f"layer {fp.layer}: column widths and row heights must be "
                         f"finite and >= 0")
    if any(k < 0 for row in fp.koz_of for k in row):
        raise ValueError(f"layer {fp.layer}: KOZ counts must be >= 0")
    return fp


def parse_layers(instance: Instance, docs: Sequence[dict]) -> list[MeshFloorplan]:
    """The floorplans of a whole solution, one per instance layer."""
    fps = [parse_floorplan(d) for d in docs]
    placed = [(comp, fp.layer) for fp in fps for _cell, comp in fp.occupied_cells()]
    if ([fp.layer for fp in fps] != [l.index for l in instance.layers]
            or sorted(comp for comp, _ in placed) != sorted(instance.kinds)
            or any(instance.component_entry(comp, l) is None for comp, l in placed)):
        raise ValueError("floorplans must cover the instance's layers in order and place "
                         "every component once, on a layer where it is feasible")
    return fps


def vlink_to_json(v: VerticalLink) -> dict:
    return {"lower": list(v.lower), "upper": list(v.upper), "rd_length": v.rd_length}


def parse_vlink(doc: dict) -> VerticalLink:
    return VerticalLink(lower=_json_array(doc["lower"], "integer", "'lower'"),
                        upper=_json_array(doc["upper"], "integer", "'upper'"),
                        rd_length=nonnegative_number(doc["rd_length"], "'rd_length'"))


def check_vlink_ends(vlinks: Sequence[VerticalLink],
                     floorplans: Sequence[MeshFloorplan]) -> None:
    """Raise ValueError unless both ends of every link are routers
    (occupied cells) of floorplans, and no two links share a lower end or an
    upper end (a router has one link per direction, and one KOZ for it)."""
    routers = {(fp.layer, r, c) for fp in floorplans for (r, c), _ in fp.occupied_cells()}
    ends: set[tuple[str, NodeKey]] = set()
    for v in vlinks:
        if v.lower not in routers or v.upper not in routers:
            raise ValueError(f"vertical link {list(v.lower)} -> {list(v.upper)} "
                             f"does not join two routers")
        for end in (("lower", v.lower), ("upper", v.upper)):
            if end in ends:
                raise ValueError(f"vertical link {list(v.lower)} -> {list(v.upper)} "
                                 f"shares its {end[0]} end with another link")
            ends.add(end)


def traffic_to_json(te: TrafficEval) -> dict:
    return {
        "loads": [{"from": list(a), "to": list(b), "load": load}
                  for (a, b), load in sorted(te.loads.items())],
        "bw_times_distance": te.bw_times_distance,
        "bw_times_hops": te.bw_times_hops,
        "max_link_load": te.max_link_load,
        "peak_penalty": te.peak_penalty,
        "whitespace_per_layer": list(te.whitespace_per_layer),
        "whitespace_total": te.whitespace_total,
    }
