"""One benchmark process: set up a workload, run its designs in a closed
loop, check every design, and print the raw measurements as one JSON line.

    python3 perfbench/worker.py setup   WORKLOAD SEED SECONDS
    python3 perfbench/worker.py measure WORKLOAD SEED SECONDS
    python3 perfbench/worker.py trace   WORKLOAD SEED SECONDS

`setup` only times set-up. `measure` times untraced design calls. Both
also give their times at the reference speed (reference.py). `trace`
runs each design twice, untraced and then traced, and reports the per-layer
counters of the traced calls. run.py starts these and turns their output
into metrics (see metrics.py).
"""

import time

_T0 = time.perf_counter()  # set-up time counts from before meshstack is imported

import json
import os
import platform
import resource
import sys
import traceback
from pathlib import Path

import reference

ROOT = Path(__file__).resolve().parent.parent
MAX_LOOP_S = 120.0   # stop starting designs here even if the panel is short


def import_meshstack():
    """Import meshstack from the checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "meshstack" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no meshstack sources under {src}")
    sys.path.insert(0, str(src))
    import meshstack
    if Path(meshstack.__file__).resolve().parent != (src / "meshstack").resolve():
        raise SystemExit(f"perfbench: imported meshstack from {meshstack.__file__}")


def _quality(design) -> dict:
    m = design.metrics
    return {"cost": design.cost, "area": m["area_total"],
            "whitespace": m["whitespace_total"], "bw_x_dist": m["bw_times_distance"],
            "peak_penalty": m["peak_penalty"], "steps": design.steps,
            "placements": design.placements, "configurations": design.configurations}


class Runner:
    """The closed loop: one design call at a time, each starting when the
    previous one has returned and been checked. Call n designs input
    n % panel, so the fixed panel of inputs repeats until time is up; every
    repeat must reproduce the first report of its input.

    Call n runs pinned to the n-th of the CPUs the process may use, in
    turn, between two timings of the speed reference on that CPU
    (reference.py). On a shared host each virtual CPU has slow spells of
    its own (a design call takes up to 1.5x its usual time for 5 to 15 s on
    one CPU but not the other), and the whole host drifts for minutes. The
    reference follows both where the call ran; taking the CPUs in turn keeps
    one CPU's spell under a minority of the calls, which the median passes
    over."""

    def __init__(self, workload):
        import workloads
        self.wl = workload
        self.lib = workloads
        self.failures: list[tuple[int, str]] = []   # (design input, what failed)
        self.attempted = 0
        self.failed = 0
        self.cache_resets = 0
        self.first = {}   # design input -> its first Design
        self.cpus = sorted(os.sched_getaffinity(0))
        self.calls = 0

    def timed_design(self, k: int):
        """Cold kernel cache, then the design call alone under the clock,
        between two timings of the speed reference on the same CPU.
        Returns (seconds, design, cache_info, reference seconds per call),
        or None if the call raised."""
        os.sched_setaffinity(0, {self.cpus[self.calls % len(self.cpus)]})
        self.calls += 1
        before = reference.seconds_per_call()
        self.lib.reset_kernel_cache()
        self.cache_resets += 1
        t0 = time.perf_counter()
        try:
            raw = self.wl.call(k)
        except Exception:  # a failed design is counted, the loop goes on
            self.failures.append(
                (k, "raised " + traceback.format_exc().strip().splitlines()[-1]))
            return None
        seconds = time.perf_counter() - t0
        speed = (before + reference.seconds_per_call()) / 2
        return seconds, self.wl.finish(k, raw), self.lib.kernel_cache_info(), speed

    def checked(self, k: int, outcome):
        """Count one attempted design; return its outcome if every check
        passed, the match with the input's first design included."""
        self.attempted += 1
        messages = []
        if outcome is not None:
            first = self.first.setdefault(k, outcome[1])
            messages = self.wl.check(k, outcome[1]) + self.lib.repeat_failures(first, outcome[1])
        return self._record(k, outcome, messages)

    def matches(self, k: int, outcome, again) -> bool:
        """A second run of a checked design must give the same report."""
        messages = [] if again is None else self.lib.repeat_failures(outcome[1], again[1])
        return self._record(k, again, messages) is not None

    def _record(self, k: int, outcome, messages: list[str]):
        self.failures += [(k, m) for m in messages]
        if outcome is None or messages:
            self.failed += 1
            return None
        return outcome

    def loop(self, seconds: float, min_calls: int, body) -> None:
        start = time.perf_counter()
        n = 0
        while True:
            elapsed = time.perf_counter() - start
            if (n >= min_calls and elapsed >= seconds) or elapsed >= MAX_LOOP_S:
                break
            body(n % self.wl.panel)
            n += 1

    def result(self) -> dict:
        return {"failures": self.failures, "attempted": self.attempted,
                "failed": self.failed, "cache_resets": self.cache_resets,
                "cpus": self.cpus}


def measure(wl, seconds: float) -> dict:
    """At least one pass over the panel plus one repeat of its first input."""
    run = Runner(wl)
    designs = []

    def body(k):
        outcome = run.checked(k, run.timed_design(k))
        if outcome is not None:
            designs.append(dict(_quality(outcome[1]), index=k, design_s=outcome[0],
                                design_ref_s=reference.at_reference_speed(
                                    outcome[0], outcome[3])))

    run.loop(seconds, wl.panel + 1, body)
    return dict(run.result(), designs=designs)


def trace(wl, seconds: float, tracer) -> dict:
    """Each call runs untraced, then traced; the traced twin must give the
    same report. Counters cover the traced calls only."""
    run = Runner(wl)
    untraced, traced = [], []
    cache = {"hits": 0, "misses": 0}

    def body(k):
        plain = run.checked(k, run.timed_design(k))
        if plain is None:
            return
        with tracer:
            twin = run.timed_design(k)
        if not run.matches(k, plain, twin):
            return
        untraced.append(dict(_quality(plain[1]), index=k, design_s=plain[0]))
        traced.append(dict(_quality(twin[1]), index=k, design_s=twin[0]))
        cache["hits"] += twin[2].hits
        cache["misses"] += twin[2].misses

    run.loop(seconds, 2, body)
    return dict(run.result(), designs=untraced, traced=traced, cache=cache,
                spans={k: vars(v) for k, v in tracer.spans.items()},
                anneals={k: vars(v) for k, v in tracer.anneals.items()},
                oracle_steps=getattr(wl, "pipeline_steps", []))


def main(argv) -> int:
    mode, name, seed, seconds = argv[0], argv[1], int(argv[2]), float(argv[3])
    import_meshstack()
    import workloads
    tracer = None
    if mode == "trace":
        import layertrace
        tracer = layertrace.Tracer()
        with tracer:  # only model.load_instance runs during set-up
            wl = workloads.build(name, ROOT, seed)
    else:
        wl = workloads.build(name, ROOT, seed)
    setup_s = time.perf_counter() - _T0
    out = {"setup_s": setup_s,
           "setup_ref_s": reference.at_reference_speed(setup_s, reference.seconds_per_call())}
    if mode == "measure":
        out.update(measure(wl, seconds))
    elif mode == "trace":
        out.update(trace(wl, seconds, tracer))
    elif mode != "setup":
        raise SystemExit(f"perfbench: unknown mode {mode!r}")
    import numpy
    out.update(panel=wl.panel, python=platform.python_version(),
               numpy=numpy.__version__,
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
