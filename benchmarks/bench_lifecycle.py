"""Drift recovery benchmark: managed vs unmanaged serving under drift.

The serving premise — answer analytics from the trained model — erodes
when the data and the traffic move: coverage decays, the hybrid fallback
rate climbs, and (because the stale engine no longer matches the stored
rows) even the fallback answers go wrong.  This benchmark replays that
scenario against two identical deployments of the same initial model:

* **managed** — supervised by a :class:`~repro.dbms.lifecycle.ModelManager`
  (tick per traffic round): sliding-window drift detection, retraining on
  the recorded recent queries against the refreshed store-backed engine,
  versioned persistence, atomic hot-swap, probe-gated rollback;
* **unmanaged** — the frozen seed deployment: same model, same engine,
  nobody watching.

Both serve the same statement stream round by round.  Mid-run the world
drifts: the data surface translates (:class:`~repro.data.functions
.DriftingFunction`), fresh rows land in the SQLite store, and the traffic
moves to a region the model never saw.  The benchmark records per-round
fallback rate and RMSE (vs. the *current* exact answers) for both
deployments and asserts the recovery gates:

* the managed deployment retrains at least once and its post-drift
  fallback rate recovers to <= 1.5x the pre-drift rate (+0.02 slack),
* the unmanaged deployment stays degraded (its final-round fallback rate
  remains above the drift threshold),
* every statement of every round answers (no errors, no crashes), and
  no session is ever restarted.

Results are emitted through the ``repro.bench`` harness: a
:class:`~repro.bench.RunRecord` appended to the JSONL results store plus
one ``BENCH_lifecycle.json`` artifact.  Run standalone with::

    PYTHONPATH=src python benchmarks/bench_lifecycle.py [--smoke]
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.bench import BenchmarkSpec
from repro.bench.cli import pytest_entry, script_main
from repro.config import ModelConfig, TrainingConfig
from repro.core.model import LLMModel
from repro.data.functions import DriftingFunction, SineRidge
from repro.data.synthetic import SyntheticDataset
from repro.dbms.executor import ExactQueryEngine
from repro.dbms.lifecycle import DriftPolicy, ModelManager, ModelVersionStore
from repro.dbms.serving import AnalyticsService
from repro.dbms.storage import SQLiteDataStore
from repro.queries.stream import LabelledWorkload
from repro.queries.workload import (
    QueryWorkloadGenerator,
    RadiusDistribution,
    WorkloadSpec,
)

TABLE = "drifting"

#: Post-drift recovery gate: the managed deployment's recovered fallback
#: rate must come back to within this factor of the pre-drift rate.
RECOVERY_FACTOR = 1.5

#: Additive slack of the recovery gate (a pre-drift rate of ~0 would make
#: the multiplicative gate alone unsatisfiable).
RECOVERY_SLACK = 0.02

#: The unmanaged deployment must remain at least this degraded after the
#: drift (it has nobody to retrain it).
DEGRADED_FLOOR = 0.5


class _TickClock:
    """A deterministic clock advanced once per traffic round."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _workload(low: float, high: float, count: int, seed: int):
    spec = WorkloadSpec(
        dimension=2,
        center_low=low,
        center_high=high,
        radius=RadiusDistribution(mean=0.1, std=0.02),
    )
    return QueryWorkloadGenerator(spec, seed=seed).generate(count)


def _statement(query) -> str:
    center = ", ".join(repr(float(value)) for value in query.center)
    return f"SELECT AVG(u) FROM {TABLE} WITHIN {float(query.radius)!r} OF ({center})"


def _train_model(engine, queries) -> LLMModel:
    workload = LabelledWorkload.from_engine(queries, engine)
    model = LLMModel(
        dimension=2,
        config=ModelConfig(quantization_coefficient=0.05),
        training=TrainingConfig(convergence_threshold=1e-4),
    )
    model.fit(workload)
    return model


def _round_metrics(service, queries, statements, truth_engine) -> dict:
    """Serve one round and report its fallback rate / RMSE vs current truth."""
    before = service.statistics_for(TABLE).snapshot()
    results = service.execute_script(statements, mode="hybrid")
    after = service.statistics_for(TABLE)
    served = after.statements_executed - before.statements_executed
    fallbacks = after.fallback_count - before.fallback_count
    errors = after.error_count - before.error_count
    truth = truth_engine.execute_q1_batch(queries, on_empty="null")
    served_values, truth_values = [], []
    for result, answer in zip(results, truth):
        if answer is None or result.value is None:
            continue
        served_values.append(float(result.value))
        truth_values.append(float(answer.mean))
    if truth_values:
        rmse = float(
            np.sqrt(
                np.mean(
                    (np.asarray(served_values) - np.asarray(truth_values)) ** 2
                )
            )
        )
    else:
        rmse = 0.0
    return {
        "statements": served,
        "fallback_rate": fallbacks / served if served else 0.0,
        "errors": errors,
        "rmse": rmse,
    }


def run_lifecycle_benchmark(
    dataset_size: int = 4_000,
    append_size: int = 2_000,
    training_queries: int = 220,
    traffic_per_round: int = 80,
    rounds_pre: int = 2,
    rounds_post: int = 5,
    *,
    seed: int = 42,
) -> dict:
    """Replay the drift scenario against managed and unmanaged deployments."""
    rng = np.random.default_rng(seed)
    surface = DriftingFunction(SineRidge(dimension=2), velocity=0.15)
    inputs = rng.uniform(0, 1, size=(dataset_size, 2))
    dataset = SyntheticDataset(
        inputs=inputs, outputs=surface(inputs), name=TABLE, domain=(0.0, 1.0)
    )
    with tempfile.TemporaryDirectory(prefix="bench-lifecycle-") as tmp, SQLiteDataStore(
        ":memory:"
    ) as store:
        store.load_dataset(dataset)

        managed = AnalyticsService(query_log_size=512)
        managed_engine = managed.register_table_from_store(store, TABLE)
        model = _train_model(
            managed_engine, _workload(0.05, 0.45, training_queries, seed=1)
        )
        managed.swap_model(TABLE, model, version="v0")
        clock = _TickClock()
        manager = ModelManager(
            managed,
            policy=DriftPolicy(
                fallback_rate_threshold=0.3,
                min_window_statements=min(30, traffic_per_round),
                window_buckets=4,
                cooldown_seconds=5.0,
                min_retrain_queries=min(30, traffic_per_round),
                probe_size=64,
            ),
            version_store=ModelVersionStore(Path(tmp) / "versions"),
            clock=clock,
        )
        manager.manage(TABLE, store=store)

        # The unmanaged deployment: same model, its own (soon stale) engine.
        unmanaged = AnalyticsService(
            engines={TABLE: ExactQueryEngine.from_store(store, TABLE)},
            models={TABLE: model},
        )
        truth_engine = managed_engine

        series = {"managed": [], "unmanaged": []}
        statuses: list[str] = []
        drift_round = rounds_pre
        total_rounds = rounds_pre + rounds_post
        for round_index in range(total_rounds):
            if round_index == drift_round:
                # The world moves: the surface drifts, new rows land in the
                # store, and the analysts shift to the upper region.
                surface.advance(1.0)
                fresh = rng.uniform(0, 1, size=(append_size, 2))
                store.append_rows(TABLE, fresh, surface(fresh))
                truth_engine = ExactQueryEngine.from_store(store, TABLE)
            if round_index < drift_round:
                low, high = 0.05, 0.45
            else:
                low, high = 0.55, 0.95
            queries = _workload(low, high, traffic_per_round, seed=100 + round_index)
            statements = [_statement(query) for query in queries]
            for label, service in (("managed", managed), ("unmanaged", unmanaged)):
                metrics = _round_metrics(service, queries, statements, truth_engine)
                metrics["round"] = round_index
                metrics["drifted"] = round_index >= drift_round
                series[label].append(metrics)
            clock.now += 60.0
            status = manager.tick(clock.now)[TABLE]
            statuses.append(status)
            if status == "retrained":
                # The managed deployment now serves a refreshed engine; the
                # truth reference follows the store either way.
                truth_engine = managed.engine_for(TABLE)

        pre_rate = float(
            np.mean([m["fallback_rate"] for m in series["managed"][:rounds_pre]])
        )
        managed_final = series["managed"][-1]
        unmanaged_final = series["unmanaged"][-1]
        lifecycle = manager.status_for(TABLE)
        return {
            "setup": {
                "dataset_size": dataset_size,
                "append_size": append_size,
                "training_queries": training_queries,
                "traffic_per_round": traffic_per_round,
                "rounds_pre": rounds_pre,
                "rounds_post": rounds_post,
                "prototype_count_initial": model.prototype_count,
            },
            "series": series,
            "tick_statuses": statuses,
            "pre_drift_fallback_rate": pre_rate,
            "managed_final": managed_final,
            "unmanaged_final": unmanaged_final,
            "retrain_count": lifecycle["retrain_count"],
            "rollback_count": lifecycle["rollback_count"],
            "model_version_final": str(lifecycle["model_version"]),
            "recovery_factor": RECOVERY_FACTOR,
            "recovery_slack": RECOVERY_SLACK,
            "degraded_floor": DEGRADED_FLOOR,
        }


def _format(result: dict) -> str:
    lines = [
        "Model lifecycle under drift (managed vs unmanaged)",
        f"  rounds:                {result['setup']['rounds_pre']} pre-drift"
        f" + {result['setup']['rounds_post']} post-drift"
        f" x {result['setup']['traffic_per_round']} statements",
        f"  pre-drift fallback:    {result['pre_drift_fallback_rate']:.3f}",
        f"  tick statuses:         {', '.join(result['tick_statuses'])}",
        f"  retrains / rollbacks:  {result['retrain_count']} /"
        f" {result['rollback_count']}",
        "  round  managed(fall/rmse)   unmanaged(fall/rmse)",
    ]
    for managed, unmanaged in zip(
        result["series"]["managed"], result["series"]["unmanaged"]
    ):
        marker = "*" if managed["drifted"] else " "
        lines.append(
            f"  {managed['round']:>4}{marker}  "
            f"{managed['fallback_rate']:.3f} / {managed['rmse']:.4f}       "
            f"{unmanaged['fallback_rate']:.3f} / {unmanaged['rmse']:.4f}"
        )
    lines.append(
        f"  final fallback:        managed "
        f"{result['managed_final']['fallback_rate']:.3f} vs unmanaged "
        f"{result['unmanaged_final']['fallback_rate']:.3f}"
    )
    return "\n".join(lines)


def _check(result: dict) -> list[str]:
    """Return the list of failed recovery gates (empty when green)."""
    failures: list[str] = []
    if result["retrain_count"] < 1:
        failures.append("the manager never retrained under drift")
    gate = (
        RECOVERY_FACTOR * result["pre_drift_fallback_rate"] + RECOVERY_SLACK
    )
    managed_final = result["managed_final"]
    if managed_final["fallback_rate"] > max(gate, 0.1):
        failures.append(
            f"managed fallback rate {managed_final['fallback_rate']:.3f} did "
            f"not recover to <= {max(gate, 0.1):.3f}"
        )
    unmanaged_final = result["unmanaged_final"]
    if unmanaged_final["fallback_rate"] < DEGRADED_FLOOR:
        failures.append(
            f"unmanaged fallback rate {unmanaged_final['fallback_rate']:.3f} "
            f"fell below the expected degraded floor {DEGRADED_FLOOR:.2f} — "
            f"the drift scenario is not stressing the model"
        )
    for label in ("managed", "unmanaged"):
        errors = sum(m["errors"] for m in result["series"][label])
        if errors:
            failures.append(f"{label} deployment produced {errors} error answers")
    return failures


def _extract(result: dict) -> dict:
    managed_errors = sum(m["errors"] for m in result["series"]["managed"])
    unmanaged_errors = sum(m["errors"] for m in result["series"]["unmanaged"])
    return {
        "pre_drift_fallback_rate": result["pre_drift_fallback_rate"],
        "managed_final_fallback_rate": result["managed_final"]["fallback_rate"],
        "managed_final_rmse": result["managed_final"]["rmse"],
        "unmanaged_final_fallback_rate": result["unmanaged_final"][
            "fallback_rate"
        ],
        "unmanaged_final_rmse": result["unmanaged_final"]["rmse"],
        "retrain_count": float(result["retrain_count"]),
        "rollback_count": float(result["rollback_count"]),
        "error_answers": float(managed_errors + unmanaged_errors),
    }


SPEC = BenchmarkSpec(
    name="lifecycle",
    title="Model lifecycle under drift (managed vs unmanaged)",
    artifact="lifecycle",
    run=run_lifecycle_benchmark,
    # The scenario is fully seeded and served on a deterministic tick
    # clock, so the recovery rates are stable enough to gate both ways.
    metrics={
        "pre_drift_fallback_rate": "info",
        "managed_final_fallback_rate": "lower",
        "managed_final_rmse": "lower",
        "unmanaged_final_fallback_rate": "info",
        "unmanaged_final_rmse": "info",
        "retrain_count": "info",
        "rollback_count": "info",
        "error_answers": "info",
    },
    extract=_extract,
    check=lambda result, params: _check(result),
    format=_format,
    default_params={
        "dataset_size": 4_000,
        "append_size": 2_000,
        "training_queries": 220,
        "traffic_per_round": 80,
        "rounds_pre": 2,
        "rounds_post": 5,
        "seed": 42,
    },
    smoke_params={
        "dataset_size": 2_500,
        "append_size": 1_200,
        "training_queries": 150,
        "traffic_per_round": 60,
        "rounds_post": 3,
    },
)


def test_lifecycle_benchmark(results_dir, record_table):
    """Benchmark-suite entry point: asserts the recovery gates."""
    pytest_entry(SPEC, results_dir, record_table)


if __name__ == "__main__":
    raise SystemExit(script_main(SPEC))
