"""Per-layer tracing from outside the package.

The public function of each layer is wrapped at every module attribute its
callers look up (floorplan.min_area_lp, netgraph.shortest_path,
vlink.route_all, ...). A wrapper counts calls and inclusive busy time. The
anneal wrappers in floorplan and vlink wrap the neighbor and cost callables
they are handed, to count proposals, acceptances, no-op proposals and
repeated pricings. Leaving the `with` block restores every original.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from meshstack import (area_kernel, exact, floorplan, model, netgraph, objective,
                       pipeline, vlink)

# metric prefix -> the (module, attribute) pairs its callers look it up by
TIMED = {
    "model.load_instance": ((model, "load_instance"),),
    "layer_assign.assign_layers": ((pipeline, "assign_layers"),),
    "simplex.solve_cover_lp": ((area_kernel, "solve_cover_lp"),),
    "area_kernel.min_area_lp": ((floorplan, "min_area_lp"), (area_kernel, "min_area_lp")),
    "area_kernel.min_area_exact": ((floorplan, "min_area_exact"),
                                   (area_kernel, "min_area_exact")),
    "floorplan.legalize": ((pipeline, "legalize"), (exact, "legalize"),
                           (floorplan, "legalize")),
    "tsv_count.choose_count": ((pipeline, "choose_count"),),
    "vlink.place_vlinks": ((pipeline, "place_vlinks"),),
    "netgraph.build_network": ((pipeline, "build_network"), (vlink, "build_network"),
                               (objective, "build_network")),
    "netgraph.route_all": ((pipeline, "route_all"), (vlink, "route_all"),
                           (objective, "route_all")),
    "netgraph.shortest_path": ((netgraph, "shortest_path"),),
    "objective.evaluate_solution": ((pipeline, "evaluate_solution"),
                                    (exact, "evaluate_solution")),
}
ANNEALS = {"floorplan.anneal": floorplan, "vlink.anneal": vlink}


@dataclass
class Span:
    calls: int = 0
    busy_s: float = 0.0
    rows: int = 0          # constraint rows, for the LP


@dataclass
class AnnealStats:
    iterations: int = 0
    accepted: int = 0
    noops: int = 0
    evaluations: int = 0
    repeats: int = 0


def sites():
    """Every patched (module, attribute) pair."""
    pairs = [pair for group in TIMED.values() for pair in group]
    return pairs + [(module, "anneal") for module in ANNEALS.values()]


class Tracer:
    """Accumulates spans over every `with tracer:` block it is used in."""

    def __init__(self):
        self.spans = {key: Span() for key in TIMED}
        self.anneals = {key: AnnealStats() for key in ANNEALS}
        self._saved = None

    def __enter__(self):
        if self._saved is not None:
            raise RuntimeError("tracer is already installed")
        self._saved = [(module, attr, getattr(module, attr)) for module, attr in sites()]
        try:
            for key, group in TIMED.items():
                for module, attr in group:
                    setattr(module, attr, self._timed(key, getattr(module, attr)))
            for key, module in ANNEALS.items():
                module.anneal = self._anneal(self.anneals[key], module.anneal)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = None

    def _timed(self, key, fn):
        span = self.spans[key]
        count_rows = key == "simplex.solve_cover_lp"

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.busy_s += time.perf_counter() - t0
                span.calls += 1
                if count_rows:
                    span.rows += len(args[2])
        return wrapper

    @staticmethod
    def _anneal(stats: AnnealStats, fn):
        def wrapper(initial_state, neighbor, cost, params):
            priced = set()
            costs = []

            def traced_cost(state):
                stats.evaluations += 1
                if state in priced:
                    stats.repeats += 1
                priced.add(state)
                value = cost(state)
                costs.append(value)
                return value

            def traced_neighbor(state, rng):
                proposal = neighbor(state, rng)
                stats.iterations += 1
                stats.noops += proposal == state
                return proposal

            best, best_cost, trace = fn(initial_state, traced_neighbor, traced_cost, params)
            # costs[0] prices the initial state, costs[k + 1] proposal k. A
            # proposal is accepted exactly when the trace then holds its cost:
            # a rejected one costs strictly more than the current state
            # (delta <= 0 is always accepted), and an infinite cost is never
            # taken over an infinite current cost.
            stats.accepted += sum(1 for proposed, kept in zip(costs[1:], trace)
                                  if math.isfinite(proposed) and proposed == kept)
            return best, best_cost, trace
        return wrapper
