"""Batch query-processing throughput vs the per-query loops.

The paper's headline efficiency claim is per-query; a heavy-traffic
deployment additionally wants *batch* throughput.  This benchmark measures,
on the Figure-12 scalability setup:

* Q1 prediction throughput of the vectorised batch engine
  (``LLMModel.predict_mean_batch``) against the per-query Python loop,
* Q2 prediction (``predict_q2_batch``) and data-value prediction
  (``predict_value_batch``) against their loops,
* the batched exact executor (``execute_q1_batch`` / ``execute_q2_batch``,
  the segmented cell-aggregate pipeline) against its per-query loops,

and asserts the headline requirement of **>= 4x** exact Q2 throughput at
batch size 1,000 (the measured exact-Q2 speedup on the reference container
is ~5x; the gate leaves noise margin), plus the batch answers' agreement
with the loops.  The Q1 speedup over the loop of batches of one is tracked
as ``info``, not gated: the loop is the single-query path that small-batch
kernel work makes cheaper, so the ratio fell with no batch any slower
(smoke minimum 14.0x -> 11.0x over 10 runs when the fused neighbourhood
pass landed).  The Q1 batch's own throughput, ``q1_batch_qps``, is gated
against its trajectory instead.

Results are emitted through the ``repro.bench`` harness: a
:class:`~repro.bench.RunRecord` appended to the JSONL results store plus
one ``BENCH_batch.json`` artifact.  Run standalone with::

    PYTHONPATH=src python benchmarks/bench_batch_throughput.py [--smoke]
"""

from __future__ import annotations

import numpy as np

from repro.bench import BenchmarkSpec
from repro.bench.cli import pytest_entry, script_main
from repro.eval.experiments import build_context
from repro.eval.timing import measure_throughput

#: Required speedup of the batched exact Q2 executor over its loop.  The
#: measured value on the reference container is ~5x at batch 1,000; the
#: gate sits below it to absorb scheduler noise on shared runners.
REQUIRED_EXACT_Q2_SPEEDUP = 4.0


def run_batch_throughput(
    batch_size: int = 1_000,
    dataset_size: int = 40_000,
    training_queries: int = 1_200,
    *,
    dataset_name: str = "R2",
    dimension: int = 2,
    repetitions: int = 3,
    exact_queries: int | None = None,
    seed: int = 7,
) -> dict:
    """Measure batch vs per-query throughput and verify numerical agreement."""
    context = build_context(
        dataset_name,
        dimension=dimension,
        dataset_size=dataset_size,
        training_queries=training_queries,
        testing_queries=50,
        seed=seed,
    )
    model, _ = context.train_model()
    generator_queries = context.training.queries
    # Cycle the labelled workload up to the requested batch size.
    queries = [
        generator_queries[index % len(generator_queries)]
        for index in range(batch_size)
    ]
    matrix = np.vstack([query.to_vector() for query in queries])
    points = matrix[:, :-1]
    probe_radius = model.average_prototype_radius()

    # --- model Q1 prediction: loop vs batch -------------------------------- #
    def _loop() -> list[float]:
        return [model.predict_mean(query) for query in queries]

    loop_stats = measure_throughput(_loop, batch_size, repetitions=repetitions)
    batch_stats = measure_throughput(
        lambda: model.predict_mean_batch(matrix), batch_size, repetitions=repetitions
    )
    speedup = batch_stats["items_per_second"] / loop_stats["items_per_second"]

    loop_answers = np.asarray(_loop())
    batch_answers = model.predict_mean_batch(matrix)
    max_deviation = float(np.max(np.abs(loop_answers - batch_answers)))

    # --- model Q2 prediction: loop vs batch -------------------------------- #
    q2_queries = queries[: min(300, batch_size)]

    def _q2_loop() -> None:
        for query in q2_queries:
            model.regression_models(query)

    q2_loop = measure_throughput(_q2_loop, len(q2_queries), repetitions=repetitions)
    q2_batch = measure_throughput(
        lambda: model.predict_q2_batch(q2_queries),
        len(q2_queries),
        repetitions=repetitions,
    )

    # --- model value prediction: loop vs batch ----------------------------- #
    value_points = points[: min(300, batch_size)]

    def _value_loop() -> None:
        for point in value_points:
            model.predict_value(point, probe_radius)

    value_loop = measure_throughput(
        _value_loop, len(value_points), repetitions=repetitions
    )
    value_batch = measure_throughput(
        lambda: model.predict_value_batch(value_points, probe_radius),
        len(value_points),
        repetitions=repetitions,
    )
    value_dev = float(
        np.max(
            np.abs(
                model.predict_value_batch(value_points, probe_radius)
                - np.array(
                    [model.predict_value(point, probe_radius) for point in value_points]
                )
            )
        )
    )

    # --- exact executor: loops vs batches ---------------------------------- #
    exact_batch_queries = queries[: (exact_queries or batch_size)]
    exact_loop_queries = exact_batch_queries[: min(250, len(exact_batch_queries))]

    def _exact_loop() -> None:
        for query in exact_loop_queries:
            context.engine.execute_q1(query)

    exact_loop = measure_throughput(
        _exact_loop, len(exact_loop_queries), repetitions=repetitions
    )
    exact_batch = measure_throughput(
        lambda: context.engine.execute_q1_batch(exact_batch_queries, on_empty="null"),
        len(exact_batch_queries),
        repetitions=repetitions,
    )

    def _exact_q2_loop() -> None:
        for query in exact_loop_queries:
            context.engine.execute_q2(query)

    exact_q2_loop = measure_throughput(
        _exact_q2_loop, len(exact_loop_queries), repetitions=repetitions
    )
    exact_q2_batch = measure_throughput(
        lambda: context.engine.execute_q2_batch(exact_batch_queries, on_empty="null"),
        len(exact_batch_queries),
        repetitions=repetitions,
    )
    q2_answers = context.engine.execute_q2_batch(exact_loop_queries, on_empty="null")
    q2_dev = 0.0
    for query, answer in zip(exact_loop_queries, q2_answers):
        reference = context.engine.execute_q2(query)
        q2_dev = max(
            q2_dev,
            abs(answer.mean - reference.mean),
            float(np.max(np.abs(answer.coefficients - reference.coefficients))),
        )

    return {
        "setup": {
            "dataset": dataset_name,
            "dimension": dimension,
            "dataset_size": dataset_size,
            "training_queries": training_queries,
            "batch_size": batch_size,
            "prototype_count": model.prototype_count,
        },
        "q1_prediction": {
            "loop_qps": loop_stats["items_per_second"],
            "batch_qps": batch_stats["items_per_second"],
            "loop_mean_latency_ms": loop_stats["mean_latency_ms"],
            "batch_mean_latency_ms": batch_stats["mean_latency_ms"],
            "speedup": speedup,
            "max_abs_deviation": max_deviation,
        },
        "q2_prediction": {
            "loop_qps": q2_loop["items_per_second"],
            "batch_qps": q2_batch["items_per_second"],
            "speedup": q2_batch["items_per_second"] / q2_loop["items_per_second"],
        },
        "value_prediction": {
            "loop_qps": value_loop["items_per_second"],
            "batch_qps": value_batch["items_per_second"],
            "speedup": value_batch["items_per_second"]
            / value_loop["items_per_second"],
            "max_abs_deviation": value_dev,
        },
        "exact_q1_execution": {
            "loop_qps": exact_loop["items_per_second"],
            "batch_qps": exact_batch["items_per_second"],
            "speedup": exact_batch["items_per_second"]
            / exact_loop["items_per_second"],
        },
        "exact_q2_execution": {
            "loop_qps": exact_q2_loop["items_per_second"],
            "batch_qps": exact_q2_batch["items_per_second"],
            "speedup": exact_q2_batch["items_per_second"]
            / exact_q2_loop["items_per_second"],
            "max_abs_deviation": q2_dev,
        },
        "required_exact_q2_speedup": REQUIRED_EXACT_Q2_SPEEDUP,
    }


def _format(result: dict) -> str:
    q1 = result["q1_prediction"]
    q2 = result["q2_prediction"]
    value = result["value_prediction"]
    exact = result["exact_q1_execution"]
    exact_q2 = result["exact_q2_execution"]
    lines = [
        "Batch query-processing throughput (Fig-12 setup)",
        f"  prototypes:           {result['setup']['prototype_count']}",
        f"  batch size:           {result['setup']['batch_size']}",
        f"  Q1 loop:              {q1['loop_qps']:,.0f} q/s"
        f" ({q1['loop_mean_latency_ms']:.4f} ms/q)",
        f"  Q1 batch:             {q1['batch_qps']:,.0f} q/s"
        f" ({q1['batch_mean_latency_ms']:.4f} ms/q)",
        f"  Q1 speedup:           {q1['speedup']:.1f}x (info)",
        f"  Q1 max deviation:     {q1['max_abs_deviation']:.2e}",
        f"  Q2 prediction:        {q2['loop_qps']:,.0f} -> {q2['batch_qps']:,.0f} q/s"
        f" ({q2['speedup']:.1f}x)",
        f"  value prediction:     {value['loop_qps']:,.0f} -> "
        f"{value['batch_qps']:,.0f} q/s ({value['speedup']:.1f}x)",
        f"  exact Q1:             {exact['loop_qps']:,.0f} -> "
        f"{exact['batch_qps']:,.0f} q/s ({exact['speedup']:.1f}x)",
        f"  exact Q2:             {exact_q2['loop_qps']:,.0f} -> "
        f"{exact_q2['batch_qps']:,.0f} q/s ({exact_q2['speedup']:.1f}x, "
        f"required >= {result['required_exact_q2_speedup']:.0f}x)",
        f"  exact Q2 deviation:   {exact_q2['max_abs_deviation']:.2e}",
    ]
    return "\n".join(lines)


def _check(result: dict) -> list[str]:
    """Return the list of failed headline requirements (empty when green)."""
    failures: list[str] = []
    q1 = result["q1_prediction"]
    if q1["max_abs_deviation"] > 1e-9:
        failures.append("Q1 batch answers deviate from the per-query loop")
    exact_q2 = result["exact_q2_execution"]
    if exact_q2["speedup"] < REQUIRED_EXACT_Q2_SPEEDUP:
        failures.append(
            f"exact Q2 batch speedup {exact_q2['speedup']:.1f}x is below the "
            f"required {REQUIRED_EXACT_Q2_SPEEDUP:.0f}x"
        )
    if exact_q2["max_abs_deviation"] > 1e-9:
        failures.append("exact Q2 batch answers deviate from the per-query loop")
    if result["value_prediction"]["max_abs_deviation"] > 1e-9:
        failures.append("value-prediction batch answers deviate from the loop")
    return failures


def _extract(result: dict) -> dict:
    return {
        "q1_loop_qps": result["q1_prediction"]["loop_qps"],
        "q1_batch_qps": result["q1_prediction"]["batch_qps"],
        "q1_speedup": result["q1_prediction"]["speedup"],
        "q2_batch_qps": result["q2_prediction"]["batch_qps"],
        "value_batch_qps": result["value_prediction"]["batch_qps"],
        "exact_q1_batch_qps": result["exact_q1_execution"]["batch_qps"],
        "exact_q2_batch_qps": result["exact_q2_execution"]["batch_qps"],
        "exact_q2_speedup": result["exact_q2_execution"]["speedup"],
        "q1_max_deviation": result["q1_prediction"]["max_abs_deviation"],
        "exact_q2_max_deviation": result["exact_q2_execution"]["max_abs_deviation"],
        "value_max_deviation": result["value_prediction"]["max_abs_deviation"],
    }


SPEC = BenchmarkSpec(
    name="batch_throughput",
    title="Batch query-processing throughput (Fig-12 setup)",
    artifact="batch",
    run=run_batch_throughput,
    metrics={
        "q1_loop_qps": "info",
        "q1_batch_qps": "higher",
        "q1_speedup": "info",
        "q2_batch_qps": "higher",
        "value_batch_qps": "higher",
        "exact_q1_batch_qps": "higher",
        "exact_q2_batch_qps": "higher",
        "exact_q2_speedup": "higher",
        "q1_max_deviation": "info",
        "exact_q2_max_deviation": "info",
        "value_max_deviation": "info",
    },
    extract=_extract,
    check=lambda result, params: _check(result),
    format=_format,
    default_params={
        "batch_size": 1_000,
        "dataset_size": 40_000,
        "training_queries": 1_200,
        "dataset_name": "R2",
        "dimension": 2,
        "repetitions": 3,
        "exact_queries": None,
        "seed": 7,
    },
    smoke_params={
        "dataset_size": 10_000,
        "training_queries": 600,
        "exact_queries": 400,
    },
)


def test_batch_throughput(results_dir, record_table):
    """Benchmark-suite entry point: asserts the headline requirements."""
    pytest_entry(SPEC, results_dir, record_table)


if __name__ == "__main__":
    raise SystemExit(script_main(SPEC))
