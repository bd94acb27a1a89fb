"""Sharded vs one-shard batch execution of the exact engine.

An :class:`~repro.dbms.executor.ExactQueryEngine` with a pool backend
answers exact Q1/Q2 batches by fanning the per-shard sufficient-statistics
kernel (each shard's grid-indexed segmented pipeline) out over a worker
pool and merging exactly (blocked OLS for Q2).  A pool gets one row shard
per worker.  This benchmark measures, on an N >= 200k workload:

* the classic backend/worker axis (thread and process pools, 1 and 2+
  workers) on the wide-radius workload of the Figure-12 scalability
  story, against the single default engine (one serial shard over the
  whole table);
* a **selectivity axis**: a thread-pooled engine against the single
  engine across radius regimes from highly selective (radius much smaller
  than the data extent) to wide (most rows candidates), recording rows
  touched per query in each regime.

Every configuration is verified against the single-engine answers to 1e-9
and everything is emitted through the ``repro.bench`` harness (JSONL
results store + one ``BENCH_shard.json`` artifact), so the default backend
stays an empirical fact.  The backend axis is host-dependent: on a 1-CPU
container the thread pool won, while on a 2-vCPU host (2 workers, 8
shards, 400-query batches over 200k rows) the process pool beat it by
4-20% on batches of the since-deleted full-scan kernel and on wide or
moderate indexed ones, and tied on selective or 16-query batches.  The
gated ``best_sharded_q*_qps`` metrics take the best of both.

Run standalone with::

    PYTHONPATH=src python benchmarks/bench_shard_scaling.py [--smoke]
"""

from __future__ import annotations

import math
import os

import numpy as np

from repro.bench import BenchmarkSpec
from repro.bench.cli import pytest_entry, script_main

from repro.data.synthetic import make_rosenbrock_dataset, normalize_dataset
from repro.dbms.executor import ExactQueryEngine
from repro.eval.timing import measure_amortized_latency
from repro.queries.workload import (
    QueryWorkloadGenerator,
    RadiusDistribution,
    WorkloadSpec,
)

#: Batch-vs-single agreement gate (CI fails beyond this).
MAX_DEVIATION = 1e-9

#: Radius regimes of the selectivity axis (mean, std of the query radius on
#: the normalised [0, 1] domain).  "selective" touches a few cells per
#: query; "moderate" a few percent of the rows; "scan" makes most rows
#: candidates, and is the classic axis's workload.  Its name is kept from
#: the full-scan kernel it once timed, so configuration ids stay stable;
#: inside such a wide ball the grid certifies whole runs of cells, so only
#: a thin shell of boundary rows is tested.
SELECTIVITY_REGIMES: dict[str, tuple[float, float]] = {
    "selective": (0.02, 0.002),
    "moderate": (0.10, 0.01),
    "scan": (0.40, 0.04),
}


def _deviation(single: list, other: list) -> float:
    worst = 0.0
    for left, right in zip(single, other):
        if left is None or right is None:
            if left is not right:
                return math.inf
            continue
        worst = max(worst, abs(left.mean - right.mean))
        if left.coefficients is not None and right.coefficients is not None:
            worst = max(
                worst, float(np.max(np.abs(left.coefficients - right.coefficients)))
            )
    return worst


def _workload(dimension: int, radius: RadiusDistribution, count: int, seed: int):
    generator = QueryWorkloadGenerator(
        WorkloadSpec(
            dimension=dimension, center_low=0.0, center_high=1.0, radius=radius
        ),
        seed=seed,
    )
    return generator.generate(count)


def _measure_engine(engine, queries, batch_size: int, repetitions: int) -> dict:
    q1 = measure_amortized_latency(
        lambda: engine.execute_q1_batch(queries, on_empty="null"),
        batch_size,
        repetitions=repetitions,
    )
    q2 = measure_amortized_latency(
        lambda: engine.execute_q2_batch(queries, on_empty="null"),
        batch_size,
        repetitions=repetitions,
    )
    return {
        "q1_qps": q1["items_per_second"],
        "q2_qps": q2["items_per_second"],
        "q1_mean_latency_ms": q1["mean_ms"],
        "q2_mean_latency_ms": q2["mean_ms"],
    }


def run_shard_scaling(
    dataset_size: int = 200_000,
    batch_size: int = 400,
    *,
    dimension: int = 2,
    worker_counts: tuple[int, ...] = (1, 2),
    backends: tuple[str, ...] = ("threads", "processes"),
    regimes: tuple[str, ...] = ("selective", "moderate", "scan"),
    repetitions: int = 2,
    seed: int = 7,
) -> dict:
    """Measure sharded vs single-engine batch throughput and agreement."""
    dataset = normalize_dataset(
        make_rosenbrock_dataset(dataset_size, dimension=dimension, seed=seed)
    )

    # ------------------------------------------------------------------ #
    # classic axis: backends x workers on the wide-radius workload
    # ------------------------------------------------------------------ #
    wide_radius = RadiusDistribution(*SELECTIVITY_REGIMES["scan"])
    wide_queries = _workload(dimension, wide_radius, batch_size, seed)
    single = ExactQueryEngine(dataset)
    single_stats = _measure_engine(single, wide_queries, batch_size, repetitions)
    reference_q1 = single.execute_q1_batch(wide_queries, on_empty="null")
    reference_q2 = single.execute_q2_batch(wide_queries, on_empty="null")

    runs: list[dict] = []
    for backend in backends:
        for workers in worker_counts:
            with ExactQueryEngine(
                dataset, backend=backend, max_workers=workers
            ) as engine:
                stats = _measure_engine(
                    engine, wide_queries, batch_size, repetitions
                )
                q1_dev = _deviation(
                    reference_q1,
                    engine.execute_q1_batch(wide_queries, on_empty="null"),
                )
                q2_dev = _deviation(
                    reference_q2,
                    engine.execute_q2_batch(wide_queries, on_empty="null"),
                )
                runs.append(
                    {
                        "backend": backend,
                        "workers": workers,
                        "num_shards": engine.num_shards,
                        **stats,
                        "q1_max_abs_deviation": q1_dev,
                        "q2_max_abs_deviation": q2_dev,
                        "q1_speedup_vs_single": stats["q1_qps"]
                        / single_stats["q1_qps"],
                        "q2_speedup_vs_single": stats["q2_qps"]
                        / single_stats["q2_qps"],
                    }
                )

    # ------------------------------------------------------------------ #
    # selectivity axis: a thread pool vs the single engine per regime
    # ------------------------------------------------------------------ #
    selectivity_axis: list[dict] = []
    for regime in regimes:
        mean, std = SELECTIVITY_REGIMES[regime]
        queries = _workload(
            dimension, RadiusDistribution(mean, std), batch_size, seed + 1
        )
        regime_reference_q1 = single.execute_q1_batch(queries, on_empty="null")
        regime_reference_q2 = single.execute_q2_batch(queries, on_empty="null")
        entry: dict = {
            "regime": regime,
            "radius_mean": mean,
            "single": _measure_engine(single, queries, batch_size, repetitions),
        }
        with ExactQueryEngine(dataset, backend="threads") as engine:
            stats = _measure_engine(engine, queries, batch_size, repetitions)
            q1_dev = _deviation(
                regime_reference_q1,
                engine.execute_q1_batch(queries, on_empty="null"),
            )
            q2_dev = _deviation(
                regime_reference_q2,
                engine.execute_q2_batch(queries, on_empty="null"),
            )
            rows_per_query = engine.statistics.rows_scanned / max(
                engine.statistics.queries_executed, 1
            )
            entry["threads"] = {
                **stats,
                "num_shards": engine.num_shards,
                "q1_max_abs_deviation": q1_dev,
                "q2_max_abs_deviation": q2_dev,
                "rows_touched_per_query": rows_per_query,
            }
        selectivity_axis.append(entry)

    best = max(runs, key=lambda run: run["q1_qps"] + run["q2_qps"])
    return {
        "setup": {
            "dataset_size": dataset_size,
            "dimension": dimension,
            "batch_size": batch_size,
            "worker_counts": list(worker_counts),
            "backends": list(backends),
            "regimes": {name: SELECTIVITY_REGIMES[name] for name in regimes},
            "cpu_count": os.cpu_count() or 1,
        },
        "single_engine": single_stats,
        "sharded": runs,
        "selectivity_axis": selectivity_axis,
        "winner": {"backend": best["backend"], "workers": best["workers"]},
    }


def _format(result: dict) -> str:
    single = result["single_engine"]
    lines = [
        "Sharded batch execution (N = "
        f"{result['setup']['dataset_size']:,}, batch "
        f"{result['setup']['batch_size']})",
        f"  single engine: Q1 {single['q1_qps']:,.0f} q/s | "
        f"Q2 {single['q2_qps']:,.0f} q/s",
    ]
    for run in result["sharded"]:
        lines.append(
            f"  {run['backend']:9s} w={run['workers']} "
            f"(shards={run['num_shards']}): "
            f"Q1 {run['q1_qps']:,.0f} q/s ({run['q1_speedup_vs_single']:.2f}x) | "
            f"Q2 {run['q2_qps']:,.0f} q/s ({run['q2_speedup_vs_single']:.2f}x) | "
            f"dev {max(run['q1_max_abs_deviation'], run['q2_max_abs_deviation']):.1e}"
        )
    winner = result["winner"]
    lines.append(f"  winner: {winner['backend']} @ {winner['workers']} workers")
    lines.append("  selectivity axis (single engine vs threads backend):")
    for entry in result["selectivity_axis"]:
        lines.append(
            f"    {entry['regime']:9s} (radius ~{entry['radius_mean']:.2f}):"
        )
        for label, stats in (("single", entry["single"]), ("threads", entry["threads"])):
            line = (
                f"      {label:7s}: Q1 {stats['q1_qps']:,.0f} q/s | "
                f"Q2 {stats['q2_qps']:,.0f} q/s"
            )
            if label == "threads":
                line += (
                    f" | {stats['rows_touched_per_query']:,.0f} rows/q | dev "
                    f"{max(stats['q1_max_abs_deviation'], stats['q2_max_abs_deviation']):.1e}"
                )
            lines.append(line)
    return "\n".join(lines)


def _check(result: dict, *, require_speedup: bool) -> list[str]:
    """NaN / deviation gates (CI), plus the 2-worker win."""
    failures: list[str] = []

    def walk(node, path=""):
        if isinstance(node, dict):
            for key, value in node.items():
                walk(value, f"{path}.{key}")
        elif isinstance(node, (list, tuple)):
            for index, value in enumerate(node):
                walk(value, f"{path}[{index}]")
        elif isinstance(node, float) and not math.isfinite(node):
            failures.append(f"non-finite value at {path}")

    walk(result)
    for run in result["sharded"]:
        worst = max(run["q1_max_abs_deviation"], run["q2_max_abs_deviation"])
        if worst > MAX_DEVIATION:
            failures.append(
                f"{run['backend']} w={run['workers']} deviates from the "
                f"single-engine batch by {worst:.2e} (> {MAX_DEVIATION:.0e})"
            )
    for entry in result["selectivity_axis"]:
        stats = entry["threads"]
        worst = max(stats["q1_max_abs_deviation"], stats["q2_max_abs_deviation"])
        if worst > MAX_DEVIATION:
            failures.append(
                f"{entry['regime']}/threads deviates from the single-engine "
                f"batch by {worst:.2e} (> {MAX_DEVIATION:.0e})"
            )
    if require_speedup:
        multi = [run for run in result["sharded"] if run["workers"] >= 2]
        best = max(
            (
                max(run["q1_speedup_vs_single"], run["q2_speedup_vs_single"])
                for run in multi
            ),
            default=0.0,
        )
        if result["setup"].get("cpu_count", 1) < 2:
            # A worker pool cannot outrun the single-shard kernel without a
            # second core; record the numbers, skip the gate.
            print(
                "NOTE: single-CPU host - parallel-speedup gate skipped "
                f"(best 2+-worker speedup observed: {best:.2f}x)"
            )
        elif multi and best <= 1.0:
            failures.append(
                "no 2+-worker sharded configuration beat the single-engine "
                "batch path"
            )
    return failures


def _run_harness(require_speedup: bool = True, **params) -> dict:
    """Harness entry: the gate flag rides in the config, not the run."""
    return run_shard_scaling(**params)


def _extract(result: dict) -> dict:
    runs = result["sharded"]
    return {
        "single_q1_qps": result["single_engine"]["q1_qps"],
        "single_q2_qps": result["single_engine"]["q2_qps"],
        "best_sharded_q1_qps": max(run["q1_qps"] for run in runs),
        "best_sharded_q2_qps": max(run["q2_qps"] for run in runs),
        "best_q1_speedup": max(run["q1_speedup_vs_single"] for run in runs),
        "best_q2_speedup": max(run["q2_speedup_vs_single"] for run in runs),
        "max_deviation": max(
            max(run["q1_max_abs_deviation"], run["q2_max_abs_deviation"])
            for run in runs
        ),
    }


SPEC = BenchmarkSpec(
    name="shard_scaling",
    title="Sharded batch execution (N >= 200k)",
    artifact="shard",
    run=_run_harness,
    metrics={
        "single_q1_qps": "info",
        "single_q2_qps": "info",
        "best_sharded_q1_qps": "higher",
        "best_sharded_q2_qps": "higher",
        "best_q1_speedup": "info",
        "best_q2_speedup": "info",
        "max_deviation": "info",
    },
    extract=_extract,
    check=lambda result, params: _check(
        result, require_speedup=bool(params.get("require_speedup", True))
    ),
    format=_format,
    default_params={
        "dataset_size": 200_000,
        "batch_size": 400,
        "dimension": 2,
        "worker_counts": (1, 2),
        "backends": ("threads", "processes"),
        "regimes": ("selective", "moderate", "scan"),
        "repetitions": 2,
        "seed": 7,
        "require_speedup": True,
    },
    smoke_params={
        "batch_size": 100,
        "backends": ("threads",),
        "regimes": ("selective", "scan"),
        "repetitions": 1,
        "require_speedup": False,
    },
)


def test_shard_scaling(results_dir, record_table):
    """Benchmark-suite entry point (reduced size, same N >= 200k regime)."""
    pytest_entry(
        SPEC,
        results_dir,
        record_table,
        label="smoke",
        batch_size=150,
    )


if __name__ == "__main__":
    raise SystemExit(script_main(SPEC))
