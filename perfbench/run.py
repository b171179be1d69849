"""meshstack benchmark: time to a design, next to that design's quality.

Run from the repository root:

    python3 perfbench/run.py --workload app_large --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Workloads (see workloads.py):
  app_large      run_pipeline on corpus/large_vsoc with its own traffic; the
                 LP-bound path.
  uniform_large  the same instance with uniform traffic (870 flows); routing
                 inside the vlink annealer grows.
  oracle_tiny    solve_exact on tiny_soc and on seeded 5-CPU instances; the
                 exact-kernel cache path, with almost no LP.

Each workload runs in worker processes of its own (worker.py) with
single-threaded BLAS: several set-up probes, then one closed loop of design
calls that lasts --seconds (and covers at least the workload's fixed design
panel). Set-up probes and design calls take the CPUs the benchmark may use
in turn, and setup_s and design_s are seconds at the speed of a fixed
reference computation timed on the same CPU (worker.py and reference.py say
why); the wall-clock medians are printed in the provenance line. --trace 0
prints the end-to-end metrics; --trace 1 runs a separate traced loop and
prints the per-layer metrics (metrics.py). Every design is checked outside
the timed region; failures are printed and counted. The last stdout line is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("app_large", "uniform_large", "oracle_tiny")
SETUP_PROBES = 5       # fresh processes timing set-up, each pinned to the next CPU
DEADLINE_S = 170.0     # every worker of one workload ends within this
# single-threaded BLAS; no bytecode cache, so every set-up compiles the same
# sources whatever earlier runs left behind; one string hash seed, so dict and
# set layouts, and the time spent on them, do not change from run to run
WORKER_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1",
              "PYTHONHASHSEED": "0"}


class BenchError(RuntimeError):
    pass


def git_revision() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_worker(mode: str, workload: str, seed: int, seconds: float, deadline: float,
               cpu: int | None = None) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"{workload}: out of time before the {mode} worker")
    cmd = [sys.executable, str(HERE / "worker.py"), mode, workload, str(seed), str(seconds)]
    try:  # on timeout, run() kills the worker and waits for it
        pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
        proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **WORKER_ENV},
                              stdout=subprocess.PIPE, text=True, timeout=remaining,
                              preexec_fn=pin)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: {mode} worker timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: {mode} worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; print its failures, provenance and summary; return
    its result object."""
    deadline = time.monotonic() + DEADLINE_S
    if trace:
        raw = run_worker("trace", name, seed, seconds, deadline)
        values = metrics.per_layer(raw)
        samples = {"designs": len(raw["designs"]), "traced": len(raw["traced"])}
    else:
        cpus = sorted(os.sched_getaffinity(0))
        setup = [run_worker("setup", name, seed, 0, deadline, cpus[i % len(cpus)])
                 for i in range(SETUP_PROBES)]
        raw = run_worker("measure", name, seed, seconds, deadline)
        setup.append(raw)
        values = metrics.end_to_end(raw, [s["setup_ref_s"] for s in setup])
        wall = {"setup_s": statistics.median(s["setup_s"] for s in setup),
                "design_s": statistics.median(d["design_s"] for d in raw["designs"])}
        samples = {"setup_s": len(setup), "design_s": len(raw["designs"]),
                   "design_cost": len({d["index"] for d in raw["designs"]})}

    for i, message in raw["failures"]:
        print(f"FAIL {name} design {i}: {message}")
    failed = raw["failed"]
    attempted = raw["attempted"]
    provenance = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "git_revision": git_revision(), "src_sha256": source_digest(),
        "python": raw["python"], "numpy": raw["numpy"],
        "nproc": len(os.sched_getaffinity(0)), "cpus_in_turn": raw["cpus"],
        "designs_per_run": attempted,
        "design_panel": raw["panel"], "kernel_cache_resets": raw["cache_resets"],
        "samples": samples,
    }
    if not trace:
        provenance["wall_clock_medians_s"] = wall
    print(json.dumps({"provenance": provenance}))
    print(f"{name}: {attempted} designs, {failed} failed "
          f"(design_fail_ratio {failed / max(attempted, 1):g} ratio)")
    for metric, v in values.items():
        note = f"  (median of {samples[metric]})" if metric in ("setup_s", "design_s") else ""
        print(f"  {metric:40s} {v['value']:14.6g} {v['unit']}{note}")
    return {"correct": failed == 0 and attempted > 0, "attempted": attempted,
            "failed": failed, "metrics": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "meshstack" / "__init__.py").is_file():
        print(f"perfbench: {ROOT} holds no meshstack sources (src/meshstack)",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace))
                   for n in names}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{m}": v for n, r in results.items()
                             for m, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
