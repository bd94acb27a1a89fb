"""Pipelined training throughput vs the seed per-query training loop.

The paper reports ~99.6% of training wall-clock going to executing the
training queries against the DBMS, which makes the training loop the
dominant system cost.  This benchmark measures, on the Figure-12
scalability setup (R2, d = 2, N = 40,000):

* the **seed per-query loop** — one ``execute_q1`` per training query, a
  per-pair object-path SGD update and a full O(K) convergence recompute
  per step, faithfully replicating the seed ``StreamingTrainer.train``;
* the **per-query loop on today's fused kernel** — same one-query-per-step
  engine traffic, but ``partial_fit`` running through
  :class:`~repro.core.sgd.FusedTrainingKernel` (incremental ``Gamma``);
* the **pipelined trainer** — ``StreamingTrainer.train`` pulling chunks
  through ``execute_q1_batch``.

The headline requirement asserted here: the bitwise-equivalent pipelined
trainer reaches **>= 5x** the seed per-query loop's training
queries/s, and produces a model *identical* to the sequential loop over
the same labelled stream (prototype matrix compared bit-for-bit).

Results are emitted through the ``repro.bench`` harness: a
:class:`~repro.bench.RunRecord` appended to the JSONL results store plus
one ``BENCH_training.json`` artifact.  Run standalone with::

    PYTHONPATH=src python benchmarks/bench_training_throughput.py [--smoke]
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.bench import BenchmarkSpec
from repro.bench.cli import pytest_entry, script_main
from repro.config import ModelConfig, TrainingConfig
from repro.core.model import LLMModel
from repro.core.sgd import apply_winner_update
from repro.core.training import StreamingTrainer
from repro.data.synthetic import make_rosenbrock_dataset, normalize_dataset
from repro.dbms.executor import ExactQueryEngine
from repro.exceptions import EmptySubspaceError
from repro.queries.workload import (
    QueryWorkloadGenerator,
    RadiusDistribution,
    WorkloadSpec,
)

#: Required speedup of the default (bitwise-equivalent) pipelined trainer
#: over the seed per-query training loop on the Figure-12 setup.  The
#: measured value on the reference container is well above this; the gate
#: leaves noise margin for shared runners.
REQUIRED_SPEEDUP = 5.0

#: Quantization coefficient of the benchmark models (the harness default:
#: prototype counts in the paper's regime at laptop-scale workloads).
COEFFICIENT = 0.05

#: Convergence threshold: small enough that no run converges before the
#: stream ends, so every configuration processes the same pair count.
GAMMA = 1e-12


def _make_setup(dataset_size: int, query_count: int, dimension: int, seed: int):
    """Figure-12 setup: an engine over normalized Rosenbrock (R2) and a
    training workload."""
    dataset = normalize_dataset(
        make_rosenbrock_dataset(dataset_size, dimension=dimension, seed=seed)
    )
    engine = ExactQueryEngine(dataset)
    spec = WorkloadSpec(
        dimension=dimension,
        center_low=0.0,
        center_high=1.0,
        radius=RadiusDistribution(mean=0.1, std=0.025),
    )
    queries = QueryWorkloadGenerator(spec, seed=seed).generate(query_count)
    return engine, queries


def _fresh_model(dimension: int) -> LLMModel:
    return LLMModel(
        dimension=dimension,
        config=ModelConfig(quantization_coefficient=COEFFICIENT),
        training=TrainingConfig(convergence_threshold=GAMMA),
    )


def _seed_per_query_loop(model: LLMModel, engine, queries) -> dict:
    """Faithful replica of the seed training loop (the benchmark baseline).

    One ``execute_q1`` per query, the object-path winner update
    (``GrowingQuantizer.observe`` + :func:`apply_winner_update`) and a full
    O(K) ``ConvergenceTracker.observe`` recompute per step — exactly the
    work the seed ``StreamingTrainer.train`` performed per pair.
    """
    query_seconds = 0.0
    update_seconds = 0.0
    processed = 0
    skipped = 0
    for query in queries:
        started = time.perf_counter()
        try:
            answer = engine.execute_q1(query).mean
        except EmptySubspaceError:
            query_seconds += time.perf_counter() - started
            skipped += 1
            continue
        executed = time.perf_counter()
        vector = query.to_vector()
        winner_index, grew, _ = model._quantizer.observe(vector, answer=answer)
        if not grew:
            winner = model._quantizer.parameters[winner_index]
            learning_rate = model._schedule(winner.updates)
            apply_winner_update(winner, vector, answer, learning_rate)
        model._steps += 1
        model._fitted = True
        model._tracker.observe(model._quantizer.parameters)
        updated = time.perf_counter()
        query_seconds += executed - started
        update_seconds += updated - executed
        processed += 1
    total = query_seconds + update_seconds
    return {
        "pairs_processed": processed,
        "pairs_skipped": skipped,
        "query_execution_seconds": query_seconds,
        "model_update_seconds": update_seconds,
        "queries_per_second": (processed + skipped) / total if total else 0.0,
        "query_execution_share": query_seconds / total if total else 0.0,
        "prototype_count": model.prototype_count,
    }


def _per_query_incremental_loop(model: LLMModel, engine, queries) -> dict:
    """Per-query engine traffic, but today's fused-kernel ``partial_fit``."""
    breakdown = StreamingTrainer(model, engine).train(queries, batch_size=1)
    return _breakdown_stats(breakdown)


def _pipelined(model: LLMModel, engine, queries, *, batch_size: int) -> dict:
    breakdown = StreamingTrainer(model, engine).train(queries, batch_size=batch_size)
    return _breakdown_stats(breakdown)


def _breakdown_stats(breakdown) -> dict:
    consumed = breakdown.pairs_processed + breakdown.pairs_skipped
    total = breakdown.total_seconds
    return {
        "pairs_processed": breakdown.pairs_processed,
        "pairs_skipped": breakdown.pairs_skipped,
        "chunks_executed": breakdown.chunks_executed,
        "query_execution_seconds": breakdown.query_execution_seconds,
        "model_update_seconds": breakdown.model_update_seconds,
        "queries_per_second": consumed / total if total else 0.0,
        "query_execution_share": breakdown.query_execution_share,
        "final_prototype_count": breakdown.final_prototype_count,
    }


def run_training_throughput(
    dataset_size: int = 40_000,
    query_count: int = 4_000,
    seed_loop_queries: int = 600,
    batch_size: int = 1_000,
    *,
    dimension: int = 2,
    seed: int = 7,
) -> dict:
    """Measure seed-loop vs pipelined training throughput and equivalence."""
    engine, queries = _make_setup(dataset_size, query_count, dimension, seed)

    # --- seed per-query loop (the baseline) ----------------------------- #
    seed_model = _fresh_model(dimension)
    seed_stats = _seed_per_query_loop(
        seed_model, engine, queries[:seed_loop_queries]
    )

    # --- per-query loop through the fused kernel ------------------------ #
    incremental_model = _fresh_model(dimension)
    incremental_stats = _per_query_incremental_loop(
        incremental_model, engine, queries[:seed_loop_queries]
    )

    # --- equivalence: pipelined default == sequential loop, bit-for-bit - #
    # The sequential reference is the batch_size=1 loop (one
    # execute_q1_batch([q]) call per query): batched Q1 statistics are
    # batch-composition independent, so chunking must change *nothing*.
    # The seed loop labels through the single-query path instead, whose
    # summation order differs at the ulp level — that deviation is the
    # engine-numerics envelope (pinned to 1e-12 by the differential
    # harness), not a property of the training loop, and is reported
    # separately.
    chunked_model = _fresh_model(dimension)
    _pipelined(chunked_model, engine, queries[:seed_loop_queries], batch_size=batch_size)
    prototypes_equal = bool(
        np.array_equal(
            incremental_model.prototype_matrix(), chunked_model.prototype_matrix()
        )
    )
    winners_equal = [
        (record.winner_index, record.grew, record.criterion)
        for record in incremental_model.convergence_tracker.history
    ] == [
        (record.winner_index, record.grew, record.criterion)
        for record in chunked_model.convergence_tracker.history
    ]
    seed_shared = min(seed_model.prototype_count, chunked_model.prototype_count)
    seed_deviation = (
        float(
            np.max(
                np.abs(
                    seed_model.prototype_matrix()[:seed_shared]
                    - chunked_model.prototype_matrix()[:seed_shared]
                )
            )
        )
        if seed_shared
        else 0.0
    )

    # --- pipelined trainer --------------------------------------------- #
    pipelined_stats = _pipelined(
        _fresh_model(dimension), engine, queries, batch_size=batch_size
    )

    speedup = (
        pipelined_stats["queries_per_second"] / seed_stats["queries_per_second"]
        if seed_stats["queries_per_second"]
        else 0.0
    )
    return {
        "setup": {
            "dataset": "R2",
            "dimension": dimension,
            "dataset_size": dataset_size,
            "query_count": query_count,
            "seed_loop_queries": seed_loop_queries,
            "batch_size": batch_size,
            "coefficient": COEFFICIENT,
            "cpu_count": os.cpu_count(),
        },
        "seed_loop": seed_stats,
        "per_query_incremental": incremental_stats,
        "pipelined": pipelined_stats,
        "equivalence": {
            "prototypes_bitwise_equal": prototypes_equal,
            "criterion_trajectory_equal": winners_equal,
            "seed_loop_prototype_count": seed_model.prototype_count,
            "chunked_prototype_count": chunked_model.prototype_count,
            "seed_loop_max_prototype_deviation": seed_deviation,
        },
        "speedup_vs_seed_loop": speedup,
        "speedup_incremental_loop": (
            pipelined_stats["queries_per_second"]
            / incremental_stats["queries_per_second"]
            if incremental_stats["queries_per_second"]
            else 0.0
        ),
        "required_speedup": REQUIRED_SPEEDUP,
    }


def _format(result: dict) -> str:
    seed_loop = result["seed_loop"]
    incremental = result["per_query_incremental"]
    pipelined = result["pipelined"]
    lines = [
        "Training throughput (Fig-12 setup: R2, d=2, N="
        f"{result['setup']['dataset_size']:,})",
        f"  batch size:             {result['setup']['batch_size']}",
        f"  cpu count:              {result['setup']['cpu_count']}",
        f"  seed per-query loop:    {seed_loop['queries_per_second']:,.0f} q/s"
        f" (engine share {seed_loop['query_execution_share']:.1%})",
        f"  per-query fused kernel: {incremental['queries_per_second']:,.0f} q/s"
        f" (engine share {incremental['query_execution_share']:.1%})",
        f"  pipelined:              {pipelined['queries_per_second']:,.0f} q/s"
        f" (engine share {pipelined['query_execution_share']:.1%})",
        f"  speedup vs seed loop:   {result['speedup_vs_seed_loop']:.1f}x"
        f" (required >= {result['required_speedup']:.0f}x)",
        f"  speedup vs fused loop:  {result['speedup_incremental_loop']:.1f}x",
        f"  bitwise equivalence:    prototypes="
        f"{result['equivalence']['prototypes_bitwise_equal']}, trajectory="
        f"{result['equivalence']['criterion_trajectory_equal']}",
        f"  seed-loop numerics dev: "
        f"{result['equivalence']['seed_loop_max_prototype_deviation']:.2e}"
        " (single-query vs batched engine path)",
    ]
    return "\n".join(lines)


def _check(result: dict) -> list[str]:
    """Return the list of failed headline requirements (empty when green)."""
    failures: list[str] = []
    if result["speedup_vs_seed_loop"] < REQUIRED_SPEEDUP:
        failures.append(
            f"pipelined training speedup {result['speedup_vs_seed_loop']:.1f}x "
            f"is below the required {REQUIRED_SPEEDUP:.0f}x"
        )
    if not result["equivalence"]["prototypes_bitwise_equal"]:
        failures.append(
            "default-mode pipelined training deviates from the sequential loop"
        )
    if not result["equivalence"]["criterion_trajectory_equal"]:
        failures.append(
            "default-mode criterion trajectory deviates from the sequential loop"
        )
    return failures


def _extract(result: dict) -> dict:
    return {
        "seed_loop_qps": result["seed_loop"]["queries_per_second"],
        "incremental_qps": result["per_query_incremental"]["queries_per_second"],
        "pipelined_qps": result["pipelined"]["queries_per_second"],
        "speedup_vs_seed_loop": result["speedup_vs_seed_loop"],
        "speedup_incremental_loop": result["speedup_incremental_loop"],
        "prototypes_bitwise_equal": float(
            result["equivalence"]["prototypes_bitwise_equal"]
        ),
    }


SPEC = BenchmarkSpec(
    name="training_throughput",
    title="Training throughput (Fig-12 setup)",
    artifact="training",
    run=run_training_throughput,
    metrics={
        "seed_loop_qps": "info",
        "incremental_qps": "info",
        "pipelined_qps": "higher",
        "speedup_vs_seed_loop": "higher",
        "speedup_incremental_loop": "info",
        "prototypes_bitwise_equal": "info",
    },
    extract=_extract,
    check=lambda result, params: _check(result),
    format=_format,
    default_params={
        "dataset_size": 40_000,
        "query_count": 4_000,
        "seed_loop_queries": 600,
        "batch_size": 1_000,
        "dimension": 2,
        "seed": 7,
    },
    # The dataset stays at the Fig-12 N=40k (the per-query engine cost is
    # what the speedup gate measures); only the workload shrinks.
    smoke_params={"query_count": 1_500, "seed_loop_queries": 300},
)


def test_training_throughput(results_dir, record_table):
    """Benchmark-suite entry point: asserts the headline requirements."""
    pytest_entry(SPEC, results_dir, record_table)


if __name__ == "__main__":
    raise SystemExit(script_main(SPEC))
