"""Shipped benchmark instances and traffic generators.

PPA values follow the case-study table (CPU/ADC/SIMD over 28nm and 45nm
nodes); the communication bandwidths of the vision-SoC instances are
synthesized (the real flow tables are not public) and marked as such in the
corpus README. Run `meshstack corpus --out <dir>` to (re)write the corpus
directories.
"""

from __future__ import annotations

from pathlib import Path

from .model import (
    Component,
    CoreGraph,
    Flow,
    Instance,
    Layer,
    PpaEntry,
    PpaTable,
    TechParams,
    save_instance,
    validate_instance,
    write_text,
)


def case_study_ppa() -> PpaTable:
    e = PpaEntry
    return PpaTable(
        components={
            "CPU": {"28nm": e(35.8, 1.0, 1.0), "45nm": e(62.2, 1.34, 1.34)},
            "ADC": {"28nm": None, "45nm": e(53.0, 1.0, 1.0)},
            "SIMD": {"28nm": e(71.0, 1.0, 1.0), "45nm": e(125.0, 1.34, 1.34)},
        },
        router_2d={"28nm": e(1.3, 1.0, 1.0), "45nm": e(2.25, 1.34, 1.34)},
        router_3d={"28nm": e(1.8, 1.0, 1.0), "45nm": e(3.15, 1.34, 1.34)},
    )


def default_tech() -> TechParams:
    return TechParams(koz_area=2.0, rd_max_length=5.0, link_capacity=100.0)


# ---------------------------------------------------------------------------
# traffic generators
# ---------------------------------------------------------------------------

def chain_flows(ids, bandwidth: float) -> tuple[Flow, ...]:
    """Bidirectional chain between subsequent components."""
    flows = []
    for a, b in zip(ids, ids[1:]):
        flows.append(Flow(a, b, bandwidth))
        flows.append(Flow(b, a, bandwidth))
    return tuple(flows)


def uniform_traffic(core_graph: CoreGraph) -> CoreGraph:
    """Spatially uniform traffic with the same total bandwidth: every ordered
    component pair exchanges the same load. Deterministic (the expectation of
    uniform-random traffic), so comparisons against it need no extra seeds."""
    ids = [c.id for c in core_graph.components]
    pairs = [(a, b) for a in ids for b in ids if a != b]
    if not pairs:
        return CoreGraph(components=core_graph.components, flows=())
    total = sum(f.bandwidth for f in core_graph.flows)
    per_pair = total / len(pairs) if total > 0 else 1.0
    return CoreGraph(components=core_graph.components,
                     flows=tuple(Flow(a, b, per_pair) for a, b in pairs))


# ---------------------------------------------------------------------------
# shipped instances
# ---------------------------------------------------------------------------

def tiny_soc() -> Instance:
    """5 CPUs on two 28nm digital layers; 1 Mb/s bidirectional chain."""
    ids = [f"cpu{i}" for i in range(5)]
    cg = CoreGraph(components=tuple(Component(i, "CPU") for i in ids),
                   flows=chain_flows(ids, 1.0))
    layers = (Layer(0, "28nm"), Layer(1, "28nm"))
    return validate_instance(cg, case_study_ppa(), default_tech(), layers)


def small_vsoc() -> Instance:
    """9 ADCs + 9 CPUs over a 28nm digital layer and a 45nm mixed-signal
    layer on top: a 720p capture/convolution pipeline. Each ADC streams to
    its CPU; neighbouring CPUs exchange halo data (bandwidths synthesized,
    close to uniform)."""
    adcs = [f"adc{i}" for i in range(9)]
    cpus = [f"cpu{i}" for i in range(9)]
    comps = [Component(a, "ADC") for a in adcs] + [Component(c, "CPU") for c in cpus]
    flows = [Flow(adcs[i], cpus[i], 30.0) for i in range(9)]
    for i in range(8):
        flows.append(Flow(cpus[i], cpus[i + 1], 10.0))
        flows.append(Flow(cpus[i + 1], cpus[i], 10.0))
    layers = (Layer(0, "28nm"), Layer(1, "45nm"))
    return validate_instance(CoreGraph(tuple(comps), tuple(flows)),
                             case_study_ppa(), default_tech(), layers)


def large_vsoc() -> Instance:
    """9 ADCs + 18 CPUs + 3 SIMD cores over two 28nm digital layers and one
    45nm mixed-signal layer on top: detection/tracking pipelines with SIMD
    hotspots (bandwidths synthesized, deliberately non-uniform)."""
    adcs = [f"adc{i}" for i in range(9)]
    cpus = [f"cpu{i:02d}" for i in range(18)]
    simds = [f"simd{i}" for i in range(3)]
    comps = ([Component(a, "ADC") for a in adcs]
             + [Component(c, "CPU") for c in cpus]
             + [Component(s, "SIMD") for s in simds])
    flows = [Flow(adcs[i], cpus[i], 30.0) for i in range(9)]
    flows += [Flow(cpus[i], simds[i % 3], 20.0) for i in range(18)]
    for i, j in ((0, 1), (1, 2), (2, 0)):
        flows.append(Flow(simds[i], simds[j], 15.0))
    for i in range(17):
        flows.append(Flow(cpus[i], cpus[i + 1], 5.0))
        flows.append(Flow(cpus[i + 1], cpus[i], 5.0))
    layers = (Layer(0, "28nm"), Layer(1, "28nm"), Layer(2, "45nm"))
    return validate_instance(CoreGraph(tuple(comps), tuple(flows)),
                             case_study_ppa(), default_tech(), layers)


# A 16-module video-object-plane-decoder-style graph; edge structure follows
# the classic benchmark shape, bandwidths synthesized in Mb/s.
_VOPD_EDGES = [
    ("vld", "run_le_dec", 7.0), ("run_le_dec", "inv_scan", 36.2),
    ("inv_scan", "ac_dc_pred", 36.2), ("ac_dc_pred", "iquant", 35.7),
    ("ac_dc_pred", "stripe_mem", 30.0), ("stripe_mem", "ac_dc_pred", 30.0),
    ("iquant", "idct", 35.7), ("idct", "up_samp", 35.3),
    ("up_samp", "vop_rec", 50.0), ("vop_rec", "pad", 31.3),
    ("pad", "vop_mem", 31.3), ("vop_mem", "mem_ctrl", 9.4),
    ("mem_ctrl", "vld", 7.0), ("arm", "idct", 0.5),
    ("arm", "mem_ctrl", 0.5), ("up_down_samp", "pad", 4.0),
]


def vopd() -> Instance:
    names = sorted({a for a, _b, _w in _VOPD_EDGES}
                   | {b for _a, b, _w in _VOPD_EDGES})
    comps = tuple(Component(n, "CPU") for n in names)
    flows = tuple(Flow(a, b, w) for a, b, w in _VOPD_EDGES)
    layers = (Layer(0, "28nm"), Layer(1, "28nm"))
    return validate_instance(CoreGraph(comps, flows), case_study_ppa(),
                             default_tech(), layers)


INSTANCES = {
    "tiny_soc": tiny_soc,
    "small_vsoc": small_vsoc,
    "large_vsoc": large_vsoc,
    "vopd": vopd,
}


def write_corpus(base: Path) -> None:
    base = Path(base)
    for name, builder in INSTANCES.items():
        save_instance(builder(), base / name)
    write_text(
        "# Benchmark corpus\n\n"
        "Instance directories, each holding `coregraph.json`, `ppa.json` and\n"
        "`tech.json` (see `schemas/instance.schema.json`).\n\n"
        "- `tiny_soc`: 5 CPUs, two 28nm layers, 1 Mb/s chain traffic.\n"
        "- `small_vsoc`: 9 ADCs + 9 CPUs, 28nm digital under 45nm mixed-signal.\n"
        "- `large_vsoc`: 9 ADCs + 18 CPUs + 3 SIMDs, two digital layers under\n"
        "  one mixed-signal layer.\n"
        "- `vopd`: 16-module video-decoder-style graph, two 28nm layers.\n\n"
        "PPA tables mirror the published case-study numbers; all flow\n"
        "bandwidths are synthesized stand-ins chosen to resemble the described\n"
        "applications, since the original flow tables are not public.\n",
        base / "README.md")
