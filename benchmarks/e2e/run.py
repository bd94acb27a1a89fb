"""End-to-end benchmark: three workloads through the concurrent serving front.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload adhoc --seed 7 --seconds 15 --trace 0
    python3 benchmarks/e2e/run.py --seed 7                 # all three workloads
    python3 benchmarks/e2e/run.py --seed 7 --trace         # per-layer breakdown
    python3 benchmarks/e2e/run.py --repeat 5 --seed 7      # calibration

A single-workload run prints every metric by name with its unit, checks the
answers, and ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics, or with ``--trace`` the per-layer
ones.  It exits 1 when an output check fails.  Without ``--workload`` (and
with ``--repeat``) every run is a fresh process, so peak RSS is per
workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

#: Seconds measured per window unless ``--seconds`` says otherwise.
DEFAULT_SECONDS = 15.0

#: End-to-end metrics: name -> (unit, better).  Timings are at the
#: reference host speed (e2e_hostspeed.py); the run prints them as measured
#: too.
E2E_METRICS = {
    "setup_s": ("s", "lower"),
    "p50_ms": ("ms", "lower"),
    "p90_ms": ("ms", "lower"),
    "stmt_per_s": ("stmt/s", "higher"),
    "q1_rmse": ("u", "lower"),
    "q2_fvu": ("fraction", "lower"),
    "rss_mb": ("MiB", "lower"),
}

#: Timings every run also prints, with no bound: name -> unit.
UNBOUNDED_TIMINGS = {"p95_ms": "ms", "p99_ms": "ms"}

#: Per-layer metrics of a traced run: name -> (unit, better).
LAYER_METRICS = {
    "sqlfront.parse_us": ("us", "lower"),
    "concurrent.submit_us": ("us", "lower"),
    "concurrent.cache_hit_rate": ("fraction", "higher"),
    "concurrent.cache_evictions": ("count", "lower"),
    "concurrent.rejected": ("count", "lower"),
    "concurrent.wait_ms_p50": ("ms", "lower"),
    "concurrent.wait_ms_p99": ("ms", "lower"),
    "concurrent.flush_ms_p50": ("ms", "lower"),
    "concurrent.flush_ms_p99": ("ms", "lower"),
    "concurrent.stmts_per_flush": ("count", "higher"),
    "concurrent.scripts_per_flush": ("count", "higher"),
    "serving.self_us_per_stmt": ("us", "lower"),
    "serving.fallback_ratio": ("fraction", "lower"),
    "model.share_pct": ("%", "lower"),
    "model.batch_mean": ("count", "higher"),
    "model.covered_ratio": ("fraction", "higher"),
    "executor.share_pct": ("%", "lower"),
    "executor.batch_mean": ("count", "higher"),
    "executor.rows_scanned_per_query": ("count", "lower"),
    "executor.selected_per_scanned": ("fraction", "higher"),
    "training.queries_per_s": ("1/s", "higher"),
    "training.engine_share": ("fraction", "lower"),
    "proc.cpu_util": ("cores", "lower"),
    "proc.cpu_us_per_stmt": ("us", "lower"),
    "trace.overhead_pct": ("%", "lower"),
    "trace.unaccounted_pct": ("%", "lower"),
}


def contract_line(result: dict, trace: bool) -> dict:
    """The last output line: every metric of the run's kind, with its unit."""
    table = LAYER_METRICS if trace else E2E_METRICS
    values = result["layers"] if trace else result["e2e"]
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, (unit, _) in table.items()
        },
    }


def print_result(result: dict) -> None:
    status = "all output checks passed" if result["correct"] else "OUTPUT CHECKS FAILED"
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"{result['seconds']:g} s measured  ({status})")
    for problem in result["problems"]:
        print(f"  check: {problem}")
    print(f"  attempted {result['attempted']} statements, failed {result['failed']}")
    measured = result["details"]["measured"]
    timings = result["details"]["timings"]
    print(f"  {'metric':<34} {'value':>14}        {'as measured':>14}")
    for name, (unit, _) in E2E_METRICS.items():
        raw = f"{measured[name]:>14.6g}" if name in measured else ""
        print(f"  {name:<34} {result['e2e'][name]:>14.6g} {unit:<7}{raw}")
    for name, unit in UNBOUNDED_TIMINGS.items():
        print(f"  {name:<34} {timings[name]:>14.6g} {unit:<7}{measured[name]:>14.6g}  (no bound)")
    if result["layers"] is not None:
        print("  per layer (traced window):")
        for name, (unit, _) in LAYER_METRICS.items():
            print(f"  {name:<34} {result['layers'][name]:>14.6g} {unit}")
    details = result["details"]
    print("  details: " + json.dumps(details, default=float))


def run_child(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload in a fresh interpreter; returns its full result."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
               "--full-json"]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = completed.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} run produced no output:\n{completed.stderr}")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _metric(run: dict, name: str) -> float:
    if name.startswith("measured."):
        return run["details"]["measured"][name.split(".", 1)[1]]
    return run["e2e"].get(name, run["details"]["timings"].get(name))


def calibrate(results: dict[str, list[dict]]) -> dict:
    """Per workload and metric: median, quartiles, IQR and range over median."""
    table = {}
    for workload, runs in results.items():
        rows = {}
        names = [*E2E_METRICS, *UNBOUNDED_TIMINGS]
        names += [f"measured.{name}" for name in E2E_METRICS if name in runs[0]["details"]["measured"]]
        for name in names:
            values = [_metric(run, name) for run in runs]
            q1, median, q3 = quartiles(values)
            rows[name] = {
                "median": median, "q1": q1, "q3": q3,
                "iqr_over_median": (q3 - q1) / median if median else 0.0,
                "range_over_median": (max(values) - min(values)) / median if median else 0.0,
                "values": values,
            }
        table[workload] = rows
    return table


def print_calibration(table: dict) -> None:
    print(f"{'workload':<10} {'metric':<20} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'iqr/med':>8} {'range/med':>9}")
    for workload, rows in table.items():
        for name, row in rows.items():
            print(f"{workload:<10} {name:<20} {row['median']:>11.5g} {row['q1']:>11.5g} "
                  f"{row['q3']:>11.5g} {row['iqr_over_median']:>8.3f} "
                  f"{row['range_over_median']:>9.3f}")


def main(argv: list[str] | None = None) -> int:
    from e2e_workloads import WORKLOADS, run_workload

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", type=Path, help="write the full JSON result here")
    parser.add_argument("--repeat", type=int, default=0,
                        help="run every workload this many times (fresh process each, "
                             "alternating workloads, seeds seed..seed+N-1)")
    parser.add_argument("--full-json", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    trace = bool(args.trace)

    if args.workload is not None and not args.repeat:
        trace_path = Path.cwd() / f"BENCH_e2e_trace_{args.workload}.json" if trace else None
        result = run_workload(args.workload, seed=args.seed, seconds=args.seconds,
                              trace=trace, trace_path=trace_path)
        print_result(result)
        if args.out is not None:
            args.out.write_text(json.dumps(result, indent=2, default=float), encoding="utf-8")
        line = result if args.full_json else contract_line(result, trace)
        print(json.dumps(line, default=float))
        return 0 if result["correct"] else 1

    workloads = [args.workload] if args.workload else list(WORKLOADS)
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for repetition in range(max(1, args.repeat)):
        for workload in workloads:
            result = run_child(workload, args.seed + repetition, args.seconds, trace)
            runs[workload].append(result)
    correct = all(r["correct"] for rs in runs.values() for r in rs)
    summary: dict = {"runs": runs}
    if args.repeat:
        summary["calibration"] = calibrate(runs)
        print_calibration(summary["calibration"])
    if args.out is not None:
        args.out.write_text(json.dumps(summary, indent=2, default=float), encoding="utf-8")
    metrics = {
        f"{workload}.{name}": {"value": run["e2e"][name], "unit": unit}
        for workload, rs in runs.items() for run in rs[-1:]
        for name, (unit, _) in E2E_METRICS.items()
    }
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for rs in runs.values() for r in rs),
        "failed": sum(r["failed"] for rs in runs.values() for r in rs),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
