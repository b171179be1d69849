"""Shared instance builders for the test suite.

The PPA numbers mirror the shipped case-study table: CPU 35.8/62.2 mm2,
ADC infeasible/53, SIMD 71/125, 2D router 1.3/2.25, 3D router 1.8/3.15,
perf/power 1 in 28nm and 1.34 in 45nm (ADC 1/1).
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from meshstack.corpus import case_study_ppa
from meshstack.model import (
    Component,
    CoreGraph,
    Flow,
    Layer,
    TechParams,
    validate_instance,
)

# property tests draw the same examples on every run and take no wall-clock
# deadline, so the suite's verdict does not depend on the host's load
settings.register_profile("meshstack", derandomize=True, deadline=None, database=None,
                          max_examples=150)
settings.load_profile("meshstack")


def default_tech(link_capacity: float = 100.0, rd: float = 5.0, koz: float = 2.0) -> TechParams:
    return TechParams(koz_area=koz, rd_max_length=rd, link_capacity=link_capacity)


def chain_flows(ids, bandwidth=1.0):
    flows = []
    for a, b in zip(ids, ids[1:]):
        flows.append(Flow(a, b, bandwidth))
        flows.append(Flow(b, a, bandwidth))
    return tuple(flows)


def make_instance(components, flows, layer_nodes, tech=None):
    cg = CoreGraph(components=tuple(components), flows=tuple(flows))
    layers = tuple(Layer(index=i, node_name=n) for i, n in enumerate(layer_nodes))
    return validate_instance(cg, case_study_ppa(), tech or default_tech(), layers)


@pytest.fixture
def tiny_instance():
    """5 CPUs, two 28nm layers, 1 Mb/s bidirectional chain."""
    ids = [f"cpu{i}" for i in range(5)]
    comps = [Component(i, "CPU") for i in ids]
    return make_instance(comps, chain_flows(ids, 1.0), ["28nm", "28nm"])


@pytest.fixture
def adc_cpu_instance():
    comps = [Component("adc0", "ADC"), Component("cpu0", "CPU")]
    flows = [Flow("adc0", "cpu0", 30.0)]
    return make_instance(comps, flows, ["28nm", "45nm"])


def make_fp(layer, cells, col_widths, row_heights, router_kind=None, koz=None):
    """Hand-built floorplan; cells is a list of rows of component ids / None."""
    from meshstack.model import MeshFloorplan, ROUTER_2D

    rows = len(cells)
    cols = len(cells[0]) if rows else 0
    if router_kind is None:
        router_kind = [[ROUTER_2D if c is not None else None for c in row] for row in cells]
    if koz is None:
        koz = [[0] * cols for _ in range(rows)]
    return MeshFloorplan(
        layer=layer, rows=rows, cols=cols,
        cell_of=tuple(tuple(row) for row in cells),
        col_widths=tuple(col_widths), row_heights=tuple(row_heights),
        router_kind=tuple(tuple(row) for row in router_kind),
        koz_of=tuple(tuple(row) for row in koz),
    )
