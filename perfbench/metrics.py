"""Metric definitions and their computation from a worker's raw output.

BENCHMARK.json lists the same names, units and directions; the benchmark's
tests check that the two agree.
"""

from __future__ import annotations

import statistics

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("design_s", "s", "lower", 0.25),
    ("design_cost", "cost", "lower", 0.15),
    ("peak_rss_mb", "MB", "lower", 0.05),
)

STEPS = ("step1_assign", "step2_floorplan", "step3_tsv_count", "step4_vlinks",
         "step5_legalize_eval")
CALLS_AND_BUSY = ("simplex.solve_cover_lp", "area_kernel.min_area_lp",
                  "area_kernel.min_area_exact", "floorplan.legalize",
                  "objective.evaluate_solution", "netgraph.route_all",
                  "netgraph.shortest_path", "netgraph.build_network")
BUSY_ONLY = ("layer_assign.assign_layers", "tsv_count.choose_count",
             "vlink.place_vlinks")
QUALITY = (("objective.area_mm2", "area", "mm2"),
           ("objective.whitespace_mm2", "whitespace", "mm2"),
           ("objective.bw_x_dist", "bw_x_dist", "Mb/s.mm"),
           ("objective.peak_penalty", "peak_penalty", "Mb/s"))

# name, unit, better
PER_LAYER = tuple(
    [(f"pipeline.{step}_s", "s", "lower") for step in STEPS]
    + [(f"{key}.{field}", unit, "lower") for key in CALLS_AND_BUSY
       for field, unit in (("calls", "count"), ("busy_s", "s"))]
    + [("simplex.solve_cover_lp.rows_mean", "rows", "lower"),
       ("simplex.solve_cover_lp.share", "ratio", "lower"),
       ("netgraph.route_all.share", "ratio", "lower")]
    + [(f"{key}.busy_s", "s", "lower") for key in BUSY_ONLY]
    + [(f"{anneal}.{field}", unit, better)
       for anneal in ("floorplan.anneal", "vlink.anneal")
       for field, unit, better in (("iterations", "count", "lower"),
                                   ("accept_ratio", "ratio", "higher"),
                                   ("repeat_ratio", "ratio", "lower"),
                                   ("noop_ratio", "ratio", "lower"))]
    + [("area_kernel.exact_cache.hits", "count", "higher"),
       ("area_kernel.exact_cache.misses", "count", "lower"),
       ("area_kernel.exact_cache.hit_ratio", "ratio", "higher"),
       ("exact.placements_visited", "count", "lower"),
       ("exact.configurations_visited", "count", "lower")]
    + [(name, unit, "lower") for name, _field, unit in QUALITY]
    + [("model.load_instance.busy_s", "s", "lower"),
       ("trace.design_s", "s", "lower"),
       ("trace.untraced_design_s", "s", "lower"),
       ("trace.overhead_s", "s", "lower")]
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _tagged(values: dict) -> dict:
    return {name: {"value": value, "unit": UNITS[name]} for name, value in values.items()}


def end_to_end(raw: dict, setup_samples: list[float]) -> dict:
    """setup_s: median over set-up samples. design_s: median design call.
    Both are seconds at the reference speed (reference.py).
    design_cost: mean cost over the panel's design inputs, each counted
    once, so it does not depend on how many designs fit in the run."""
    designs = raw["designs"]
    panel = {d["index"]: d["cost"] for d in designs}
    return _tagged({
        "setup_s": _median(setup_samples),
        "design_s": _median(d["design_ref_s"] for d in designs),
        "design_cost": _mean(panel.values()),
        "peak_rss_mb": raw["peak_rss_mb"],
    })


def per_layer(raw: dict) -> dict:
    """Counts and busy times are means per traced design; shares are busy
    time over traced design time; model.load_instance.busy_s is set-up time."""
    designs, traced = raw["designs"], raw["traced"]
    n = max(len(traced), 1)
    traced_s = sum(d["design_s"] for d in traced)
    spans, anneals = raw["spans"], raw["anneals"]
    steps = [d["steps"] for d in designs if d["steps"]] or raw["oracle_steps"]
    out = {f"pipeline.{step}_s": _median(s[step] for s in steps) for step in STEPS}
    for key in CALLS_AND_BUSY:
        out[f"{key}.calls"] = spans[key]["calls"] / n
        out[f"{key}.busy_s"] = spans[key]["busy_s"] / n
    lp = spans["simplex.solve_cover_lp"]
    out["simplex.solve_cover_lp.rows_mean"] = _ratio(lp["rows"], lp["calls"])
    out["simplex.solve_cover_lp.share"] = _ratio(lp["busy_s"], traced_s)
    out["netgraph.route_all.share"] = _ratio(spans["netgraph.route_all"]["busy_s"],
                                             traced_s)
    for key in BUSY_ONLY:
        out[f"{key}.busy_s"] = spans[key]["busy_s"] / n
    for key, a in anneals.items():
        out[f"{key}.iterations"] = a["iterations"] / n
        out[f"{key}.accept_ratio"] = _ratio(a["accepted"], a["iterations"])
        out[f"{key}.repeat_ratio"] = _ratio(a["repeats"], a["evaluations"])
        out[f"{key}.noop_ratio"] = _ratio(a["noops"], a["iterations"])
    cache = raw["cache"]
    out["area_kernel.exact_cache.hits"] = cache["hits"] / n
    out["area_kernel.exact_cache.misses"] = cache["misses"] / n
    out["area_kernel.exact_cache.hit_ratio"] = _ratio(cache["hits"],
                                                      cache["hits"] + cache["misses"])
    out["exact.placements_visited"] = _mean(d["placements"] for d in traced)
    out["exact.configurations_visited"] = _mean(d["configurations"] for d in traced)
    first = {d["index"]: d for d in designs}.values()  # repeats counted once
    for name, field, _unit in QUALITY:
        out[name] = _mean(d[field] for d in first)
    out["model.load_instance.busy_s"] = spans["model.load_instance"]["busy_s"]
    out["trace.design_s"] = _median(d["design_s"] for d in traced)
    out["trace.untraced_design_s"] = _median(d["design_s"] for d in designs)
    out["trace.overhead_s"] = out["trace.design_s"] - out["trace.untraced_design_s"]
    return _tagged(out)
