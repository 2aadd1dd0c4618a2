"""Steadiness check: every workload in two separate sets of runs.

    python3 bench/steady.py

Set A runs seeds 1..10 of every workload, then set B runs seeds 1001..1010,
so the two sets are taken apart in time and on other inputs. Each run lasts
``run_seconds`` from BENCHMARK.json. For every end-to-end metric and workload
it prints each set's median, quartiles and spread (quartile distance over
median), the gap between the medians (positive = set B worse) and the raw,
unscaled medians beside them.

Then, for seeds 1..5 of every workload, it makes an untraced run and at once
a traced run. The tracing overhead of a pair is the traced run's scaled time
per operation over the untraced run's, minus 1; the median and quartiles of
the five pairs are printed, with the per-layer metrics of the seed-1 traced
run. The summary goes to ``bench/results/steady-<time>.json``.
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import END_TO_END_UNITS, RESULTS
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
SECONDS = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"]
SETS = {"A": range(1, 11), "B": range(1001, 1011)}
TRACE_SEEDS = range(1, 6)
LOWER_IS_BETTER = {"setup_s", "latency_p50_ms", "latency_tail_ms", "peak_rss_mb"}


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run in its own process: (info line, result line)."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    info = json.loads(lines[-2].removeprefix("info "))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} failed:\n{proc.stderr}")
    return info, result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    """Distance between the quartiles, as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median


def main() -> int:
    infos: dict[str, dict[str, list[dict]]] = {s: {w: [] for w in WORKLOADS} for s in SETS}
    for name, seeds in SETS.items():
        for workload in WORKLOADS:
            for seed in seeds:
                info, result = run_once(workload, seed, 0)
                infos[name][workload].append(info)
                print(f"set {name} {workload} seed {seed}: passes {info['passes']}, "
                      f"attempted {result['attempted']}, failed {result['failed']}", flush=True)

    summary: dict = {"seconds": SECONDS, "metrics": {}, "sets": infos}
    print(f"\n{'workload':<10} {'metric':<16} {'A median [q1, q3]':>30} {'sprd':>5} "
          f"{'B median [q1, q3]':>30} {'sprd':>5} {'gap':>6}   raw A / raw B")
    for workload in WORKLOADS:
        for metric in END_TO_END_UNITS:
            row = {}
            for name in SETS:
                values = [i["end_to_end"][metric] for i in infos[name][workload]]
                q1, median, q3 = quartiles(values)
                raw = [i["raw"][metric] for i in infos[name][workload] if metric in i["raw"]]
                row[name] = {
                    "median": median, "q1": q1, "q3": q3, "spread": spread(values),
                    "raw_median": statistics.median(raw) if raw else None,
                    "raw_spread": spread(raw) if raw else None,
                }
            a, b = row["A"], row["B"]
            sign = 1.0 if metric in LOWER_IS_BETTER else -1.0
            row["gap"] = sign * (b["median"] - a["median"]) / a["median"]
            summary["metrics"][f"{workload}/{metric}"] = row
            raw = (f"{a['raw_median']:.4g} ({a['raw_spread']:.3f}) / "
                   f"{b['raw_median']:.4g} ({b['raw_spread']:.3f})" if a["raw_median"] else "-")
            print(f"{workload:<10} {metric:<16} "
                  f"{a['median']:>10.4g} [{a['q1']:.4g}, {a['q3']:.4g}]".ljust(59)
                  + f" {a['spread']:>5.3f} "
                  + f"{b['median']:>10.4g} [{b['q1']:.4g}, {b['q3']:.4g}]".rjust(30)
                  + f" {b['spread']:>5.3f} {row['gap']:>+6.3f}   {raw}")

    overheads: dict[str, list[float]] = {w: [] for w in WORKLOADS}
    summary["traced"] = {}
    for seed in TRACE_SEEDS:
        for workload in WORKLOADS:
            untraced, _ = run_once(workload, seed, 0)
            traced, result = run_once(workload, seed, 1)
            overheads[workload].append(
                untraced["end_to_end"]["ops_per_s"] / traced["end_to_end"]["ops_per_s"] - 1.0
            )
            if seed == TRACE_SEEDS[0]:
                summary["traced"][workload] = {"info": traced, "metrics": result["metrics"]}
            print(f"trace pair {workload} seed {seed}: overhead {overheads[workload][-1]:+.2%}",
                  flush=True)

    print(f"\ntracing overhead over seeds {TRACE_SEEDS[0]}..{TRACE_SEEDS[-1]} "
          "(scaled time per operation, traced over untraced, minus 1):")
    for workload in WORKLOADS:
        q1, median, q3 = quartiles(overheads[workload])
        summary["traced"][workload]["overheads"] = overheads[workload]
        print(f"  {workload:<10} median {median:+.2%} [q1 {q1:+.2%}, q3 {q3:+.2%}]")
    for workload in WORKLOADS:
        print(f"\nper-layer metrics, {workload}, seed {TRACE_SEEDS[0]}:")
        for metric, value in summary["traced"][workload]["metrics"].items():
            print(f"  {metric:<44} {value['value']:>12.4f} {value['unit']}")

    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / time.strftime("steady-%Y%m%dT%H%M%S.json", time.gmtime())
    path.write_text(json.dumps(summary, indent=1))
    print(f"\nsummary written to {path.relative_to(BENCH.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
