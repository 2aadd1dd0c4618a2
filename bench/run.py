"""Closed-loop benchmark of fairshare: one process, one client thread.

    python3 bench/run.py --workload small --seed 1 --seconds 10 --trace 0

Run from the repository root; the package is imported from ``src/``. The run
sets up (imports fairshare and builds the workload's inputs) several times,
makes one untimed warm-up pass over the workload's fixed operation list, and
then makes whole timed passes until ``--seconds`` have gone by. Every output
is checked by ``checks.py``, without the program's own verifier.

Next to every operation a reference kernel runs, and the operation's time is
scaled by KERNEL_NOMINAL_S over the kernel's measured time (the mean of the
kernels before and after it). Times are thus reported in seconds at a fixed
reference speed, which a VM whose speed drifts under the program cannot
give from raw wall-clock time.

The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, the end-to-end metrics with ``--trace 0`` and the
per-layer metrics with ``--trace 1``. The line before it, starting
``info``, holds the raw (unscaled) figures and the run's make-up. A traced
run also writes its spans to ``bench/results/``.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread-count settings)

from checks import check  # noqa: E402
from tracing import PER_LAYER_UNITS, Tracer  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
RESULTS = BENCH / "results"

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
SETUP_REPEATS = 9

# The reference kernel: tiny dense solves inside a pure-Python loop (numpy
# call overhead and interpreter work, as in the integrator and the simplex),
# then a few 40x40 solves and products (as in the larger instances' tableaux
# and trajectory systems). Its time tracks the program's speed better than
# either part alone.
KERNEL_NOMINAL_S = 1.0e-3
_KERNEL_SMALL = np.array([
    [4.0, 1.0, 0.0, 0.0, 1.0],
    [1.0, 5.0, 1.0, 0.0, 0.0],
    [0.0, 1.0, 6.0, 1.0, 0.0],
    [0.0, 0.0, 1.0, 7.0, 1.0],
    [1.0, 0.0, 0.0, 1.0, 8.0],
])
_KERNEL_LARGE = np.add.outer(np.arange(40.0), np.arange(40.0)) % 7 / 7 + 40 * np.eye(40)


def kernel() -> float:
    """Seconds the reference kernel takes now."""
    start = perf_counter()
    acc = 0.0
    ones = np.ones(5)
    for k in range(60):
        v = np.linalg.solve(_KERNEL_SMALL + k * 1e-3, ones)
        acc += float(v @ ones)
        for i in range(40):
            acc += i * 1e-12
    ones = np.ones(40)
    for k in range(12):
        v = np.linalg.solve(_KERNEL_LARGE + k * 1e-3, ones)
        acc += float((_KERNEL_LARGE @ _KERNEL_LARGE.T)[0, 0] + v[0])
    return perf_counter() - start


def tail_percentile(n_ops: int) -> int:
    """Highest whole percentile with at least ten of ``n_ops`` samples beyond it."""
    return int(100 * (n_ops - 10) // n_ops)


def import_fairshare():
    """Import fairshare afresh from ``src/``."""
    if not (SRC / "fairshare" / "__init__.py").is_file():
        sys.exit(f"error: no fairshare package under {SRC}; run from a repository checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "fairshare" or m.startswith("fairshare.")]:
        del sys.modules[name]
    return importlib.import_module("fairshare")


def set_up(workload: str, seed: int):
    """Import and build SETUP_REPEATS times; return the last set-up and the
    median normalised and raw set-up times."""
    kernel()
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        before = kernel()
        start = perf_counter()
        fs = import_fairshare()
        ops = build(workload, seed)
        instances = [
            fs.ProblemInstance(entitlements=op.entitlements, requirements=op.requirements)
            for op in ops
        ]
        elapsed = perf_counter() - start
        after = kernel()
        raw.append(elapsed)
        scaled.append(elapsed * 2.0 * KERNEL_NOMINAL_S / (before + after))
    return fs, ops, instances, statistics.median(scaled), statistics.median(raw)


def run_operation(fs, kind: str, inst):
    """The call being timed. Functions are looked up at call time, so the
    traced run's wrappers are found."""
    if kind == "solve":
        return fs.solver.solve(inst).solution.allocation
    return [w.x for w in fs.oracle.enumerate_solutions(inst).witnesses]


def measure(fs, ops, instances, seconds: float, tracer: Tracer | None):
    """Warm up once, then make whole timed passes for ``seconds``."""
    for op, inst in zip(ops, instances):
        try:
            run_operation(fs, op.kind, inst)
        except Exception:  # counted as failed when a timed pass meets it
            pass
    if tracer is not None:
        tracer.install()
    scaled, raw, kernels = [], [], []
    attempted = failed = passes = 0
    previous = kernel()
    start = perf_counter()
    while passes == 0 or perf_counter() - start < seconds:
        scaled.append([])
        raw.append([])
        for op, inst in zip(ops, instances):
            attempted += 1
            error = None
            t0 = perf_counter()
            try:
                out = run_operation(fs, op.kind, inst)
            except Exception as exc:  # a failing operation is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            elapsed = perf_counter() - t0
            current = kernel()
            factor = 2.0 * KERNEL_NOMINAL_S / (previous + current)
            kernels.append(current)
            previous = current
            if tracer is not None:
                tracer.end_operation(op.name, factor)
            problems = [error] if error else check(op, out)
            if problems:
                failed += 1
                print(f"FAILED {op.name}: {'; '.join(problems[:3])}", file=sys.stderr)
            scaled[-1].append(elapsed * factor)
            raw[-1].append(elapsed)
        passes += 1
    return scaled, raw, kernels, attempted, failed, passes


def summarise(times: list[list[float]], completed: int, tail: int) -> dict[str, float]:
    """End-to-end figures from times[p][k], operation k's time in pass p.

    Each operation is represented by its median time across passes, so a
    slow spell in one pass does not count and the latency percentiles are
    read at the same rank whatever the number of passes.
    """
    per_operation = np.median(np.array(times), axis=0)
    return {
        "ops_per_s": completed / len(times) / float(np.sum(per_operation)),
        "latency_p50_ms": 1e3 * float(np.percentile(per_operation, 50)),
        "latency_tail_ms": 1e3 * float(np.percentile(per_operation, tail)),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    fs, ops, instances, setup_s, setup_raw_s = set_up(args.workload, args.seed)
    tracer = Tracer() if args.trace else None
    scaled, raw, kernels, attempted, failed, passes = measure(
        fs, ops, instances, args.seconds, tracer
    )
    completed = attempted - failed
    tail = tail_percentile(len(ops))
    end_to_end = {
        "setup_s": setup_s,
        **summarise(scaled, completed, tail),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "ops_per_pass": len(ops),
        "passes": passes,
        "tail_percentile": tail,
        "kernel_ms_median": 1e3 * statistics.median(kernels),
        "end_to_end": end_to_end,
        "raw": {"setup_s": setup_raw_s, **summarise(raw, completed, tail)},
    }
    if tracer is not None:
        values = tracer.per_layer(passes)
        units = PER_LAYER_UNITS
        RESULTS.mkdir(exist_ok=True)
        path = RESULTS / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({**info, "per_layer": values, "operations": tracer.log}))
    else:
        values, units = end_to_end, END_TO_END_UNITS
    print("info " + json.dumps(info))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
