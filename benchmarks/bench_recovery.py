"""Crash-recovery benchmark: checkpoint, kill, restart, resume drift.

The durability layer (`repro.dbms.durability`) promises that a serving
deployment can be killed at any moment and rebuilt from its newest valid
checkpoint plus journal replay — with the registry, the recorded query
stream, the serving statistics and the drift-detection window all intact.
This benchmark measures that promise and gates on it:

* **checkpoint cost** — wall-clock and on-disk size of a full-state
  checkpoint of a loaded deployment,
* **recovery time** — wall-clock from ``RecoveryManager.recover()`` to a
  serving-ready restored stack (engine rebuilt from the store binding,
  model loaded, journal replayed), gated against a hard ceiling,
* **fidelity** — the restored service must report the journaled model
  version, a non-empty restored query log and the pre-crash statement
  counters,
* **drift resumption** — the crash happens mid-drift: before it, the
  shifted traffic fills the window to just *below* the retrain threshold;
  after restart, less than a threshold's worth of fresh traffic must
  trigger the retrain.  That retrain only fires if the restored window
  carried the pre-crash evidence across the process boundary.

Results are emitted through the ``repro.bench`` harness: a
:class:`~repro.bench.RunRecord` appended to the JSONL results store plus
one ``BENCH_recovery.json`` artifact.  Run standalone with::

    PYTHONPATH=src python benchmarks/bench_recovery.py [--smoke]
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import numpy as np

from repro.bench import BenchmarkSpec
from repro.bench.cli import pytest_entry, script_main
from repro.config import ModelConfig, TrainingConfig
from repro.core.model import LLMModel
from repro.data.synthetic import SyntheticDataset
from repro.dbms.durability import RecoveryManager, ServiceCheckpointer
from repro.dbms.lifecycle import DriftPolicy, ModelManager, ModelVersionStore
from repro.dbms.serving import AnalyticsService
from repro.dbms.storage import SQLiteDataStore
from repro.queries.stream import LabelledWorkload
from repro.queries.workload import (
    QueryWorkloadGenerator,
    RadiusDistribution,
    WorkloadSpec,
)

TABLE = "sensors"

#: Hard ceiling on the recovery wall-clock (seconds).  Recovery is a cold
#: path, but a restart that takes longer than this on a benchmark-sized
#: deployment would be an availability bug, not a tuning matter.
RECOVERY_SECONDS_GATE = 10.0


def _workload(low: float, high: float, count: int, seed: int):
    spec = WorkloadSpec(
        dimension=2,
        center_low=low,
        center_high=high,
        radius=RadiusDistribution(mean=0.12, std=0.02),
    )
    return QueryWorkloadGenerator(spec, seed=seed).generate(count)


def _statement(query) -> str:
    center = ", ".join(repr(float(value)) for value in query.center)
    return (
        f"SELECT AVG(u) FROM {TABLE} WITHIN {float(query.radius)!r}"
        f" OF ({center})"
    )


def _train_model(engine, queries) -> LLMModel:
    workload = LabelledWorkload.from_engine(queries, engine)
    model = LLMModel(
        dimension=2,
        config=ModelConfig(quantization_coefficient=0.1),
        training=TrainingConfig(convergence_threshold=1e-4),
    )
    model.fit(workload)
    return model


def _serve(service, queries) -> None:
    service.execute_script([_statement(query) for query in queries])


def run_recovery_benchmark(
    dataset_size: int = 4_000,
    training_queries: int = 200,
    pre_crash_statements: int = 80,
    post_restart_statements: int = 50,
    *,
    seed: int = 42,
) -> dict:
    """Checkpoint a drifting deployment, 'crash' it, time the restart."""
    rng = np.random.default_rng(seed)
    inputs = rng.uniform(0, 1, size=(dataset_size, 2))
    outputs = 1.0 + inputs[:, 0] + 2.0 * inputs[:, 1]
    dataset = SyntheticDataset(
        inputs=inputs, outputs=outputs, name=TABLE, domain=(0.0, 1.0)
    )
    # drift detection must straddle the crash: the pre-crash window alone
    # and the post-restart traffic alone are each below the threshold,
    # only their union crosses it
    policy = DriftPolicy(
        fallback_rate_threshold=0.3,
        min_window_statements=pre_crash_statements + post_restart_statements // 2,
        window_buckets=8,
        cooldown_seconds=0.0,
        min_retrain_queries=16,
    )
    with tempfile.TemporaryDirectory(prefix="bench-recovery-") as tmp:
        base = Path(tmp)
        with SQLiteDataStore(base / "data.db") as store:
            store.load_dataset(dataset, TABLE)
            service = AnalyticsService(query_log_size=512)
            engine = service.register_table_from_store(store, TABLE)
            # train only on the left half of the domain
            model = _train_model(
                engine, _workload(0.0, 0.45, training_queries, seed=1)
            )
            version_store = ModelVersionStore(base / "versions")
            v1 = version_store.save(TABLE, model)
            service.swap_model(TABLE, model, version=v1)
            manager = ModelManager(
                service, policy=policy, version_store=version_store
            )
            manager.manage(TABLE, store=store, store_table=TABLE)

            checkpointer = ServiceCheckpointer(
                service,
                base / "ckpt",
                manager=manager,
                version_store=version_store,
            )
            # shifted traffic the model never saw: heavy fallbacks, but
            # the window stays below the retrain threshold pre-crash
            _serve(service, _workload(0.55, 1.0, pre_crash_statements, seed=2))
            pre_tick_status = manager.tick()[TABLE]
            pre_window = manager.window_statements(TABLE)
            pre_stats = service.statistics_for(TABLE)
            pre_statements = pre_stats.statements_executed
            pre_log = len(service.recent_queries(TABLE))

            start = time.perf_counter()
            checkpoint_path = checkpointer.checkpoint()
            checkpoint_seconds = time.perf_counter() - start
            checkpoint_bytes = checkpoint_path.stat().st_size

            # one more swap after the checkpoint: recovery must replay it
            # from the journal, not the manifest
            v2 = version_store.save(TABLE, model)
            service.swap_model(TABLE, model, version=v2)

        # ---- the crash: the store handle and every live object are gone ----
        start = time.perf_counter()
        recovered = RecoveryManager(base / "ckpt").recover()
        restored = recovered.service
        new_manager = ModelManager(
            restored, policy=policy, version_store=version_store
        )
        recovered.attach_manager(new_manager)
        recovery_seconds = time.perf_counter() - start

        try:
            restored_stats = restored.statistics_for(TABLE)
            fidelity = {
                "model_version_journaled": restored.model_version_for(TABLE)
                == v2,
                "query_log_restored": len(restored.recent_queries(TABLE))
                == pre_log
                > 0,
                "statements_restored": restored_stats.statements_executed
                == pre_statements,
                "window_restored": new_manager.window_statements(TABLE)
                == pre_window
                > 0,
            }
            # serve the restored stack: below-threshold fresh traffic must
            # combine with the restored window to trigger the retrain
            _serve(
                restored,
                _workload(0.55, 1.0, post_restart_statements, seed=3),
            )
            post_tick_status = new_manager.tick()[TABLE]
            retrained = post_tick_status == "retrained"
            final_version = restored.model_version_for(TABLE)
            serves = bool(
                np.isfinite(
                    restored.execute(
                        f"SELECT AVG(u) FROM {TABLE} WITHIN 0.2 OF (0.5, 0.5)"
                    )
                )
            )
        finally:
            for opened in recovered.stores.values():
                opened.close()

        return {
            "setup": {
                "dataset_size": dataset_size,
                "training_queries": training_queries,
                "pre_crash_statements": pre_crash_statements,
                "post_restart_statements": post_restart_statements,
                "min_window_statements": policy.min_window_statements,
            },
            "checkpoint": {
                "seconds": checkpoint_seconds,
                "bytes": checkpoint_bytes,
                "path": checkpoint_path.name,
            },
            "recovery": {
                "seconds": recovery_seconds,
                "checkpoint_version": recovered.checkpoint_version,
                "journal_entries_applied": recovered.journal_entries_applied,
                "journal_entries_dropped": recovered.journal_entries_dropped,
                "skipped_checkpoints": len(recovered.skipped_checkpoints),
            },
            "fidelity": fidelity,
            "pre_crash": {
                "tick_status": pre_tick_status,
                "window_statements": pre_window,
                "statements_executed": pre_statements,
                "query_log": pre_log,
            },
            "post_restart": {
                "tick_status": post_tick_status,
                "retrained": retrained,
                "window_statements": new_manager.window_statements(TABLE),
                "final_model_version": str(final_version),
                "serves": serves,
            },
            "recovery_seconds_gate": RECOVERY_SECONDS_GATE,
        }


def _check(result: dict) -> list[str]:
    """Return the list of failed recovery gates (empty when green)."""
    failures: list[str] = []
    recovery = result["recovery"]
    if recovery["seconds"] > RECOVERY_SECONDS_GATE:
        failures.append(
            f"recovery took {recovery['seconds']:.2f}s, above the"
            f" {RECOVERY_SECONDS_GATE:.1f}s ceiling"
        )
    if recovery["skipped_checkpoints"]:
        failures.append(
            f"{recovery['skipped_checkpoints']} checkpoint(s) were skipped"
            " as corrupt on an uncorrupted run"
        )
    for name, ok in result["fidelity"].items():
        if not ok:
            failures.append(f"fidelity check failed: {name}")
    if result["pre_crash"]["tick_status"] == "retrained":
        failures.append(
            "the pre-crash tick already retrained — the scenario no longer"
            " proves the window survived the restart"
        )
    post = result["post_restart"]
    if not post["retrained"]:
        failures.append(
            "post-restart drift detection did not resume from the restored"
            f" window (tick status: {post['tick_status']})"
        )
    if not post["serves"]:
        failures.append("the restored service failed to answer a statement")
    return failures


def _extract(result: dict) -> dict:
    return {
        "recovery_seconds": result["recovery"]["seconds"],
        "checkpoint_seconds": result["checkpoint"]["seconds"],
        "checkpoint_bytes": float(result["checkpoint"]["bytes"]),
        "journal_entries_applied": float(
            result["recovery"]["journal_entries_applied"]
        ),
        "restored_window_statements": float(
            result["pre_crash"]["window_statements"]
        ),
        "retrained_after_restart": float(result["post_restart"]["retrained"]),
        "fidelity_failures": float(
            sum(not ok for ok in result["fidelity"].values())
        ),
    }


def _format(result: dict) -> str:
    fidelity = ", ".join(
        f"{name}={'ok' if ok else 'FAIL'}"
        for name, ok in result["fidelity"].items()
    )
    return "\n".join(
        [
            "Crash recovery (checkpoint -> kill -> restart -> resume drift)",
            f"  deployment:           {result['setup']['dataset_size']} rows,"
            f" {result['setup']['pre_crash_statements']} pre-crash statements",
            f"  checkpoint:           {result['checkpoint']['seconds'] * 1e3:.1f} ms,"
            f" {result['checkpoint']['bytes'] / 1024:.1f} KiB"
            f" ({result['checkpoint']['path']})",
            f"  recovery:             {result['recovery']['seconds'] * 1e3:.1f} ms"
            f" (gate {result['recovery_seconds_gate']:.1f} s), journal"
            f" entries applied {result['recovery']['journal_entries_applied']}",
            f"  fidelity:             {fidelity}",
            f"  drift window:         {result['pre_crash']['window_statements']}"
            f" restored + fresh traffic ->"
            f" {result['post_restart']['window_statements']}",
            f"  post-restart tick:    {result['post_restart']['tick_status']}"
            f" (model {result['post_restart']['final_model_version']})",
        ]
    )


SPEC = BenchmarkSpec(
    name="recovery",
    title="Crash recovery (checkpoint / restart / drift resumption)",
    artifact="recovery",
    run=run_recovery_benchmark,
    # Wall-clock metrics gate only against the hard ceiling in _check —
    # the trajectory directions below additionally catch creep between
    # PRs on the same environment.
    metrics={
        "recovery_seconds": "lower",
        "checkpoint_seconds": "lower",
        "checkpoint_bytes": "info",
        "journal_entries_applied": "info",
        "restored_window_statements": "info",
        "retrained_after_restart": "info",
        "fidelity_failures": "info",
    },
    extract=_extract,
    check=lambda result, params: _check(result),
    format=_format,
    default_params={
        "dataset_size": 4_000,
        "training_queries": 200,
        "pre_crash_statements": 80,
        "post_restart_statements": 50,
        "seed": 42,
    },
    smoke_params={
        "dataset_size": 2_000,
        "training_queries": 120,
        "pre_crash_statements": 50,
        "post_restart_statements": 30,
    },
)


def test_recovery_benchmark(results_dir, record_table):
    """Benchmark-suite entry point: asserts the recovery gates."""
    pytest_entry(SPEC, results_dir, record_table)


if __name__ == "__main__":
    raise SystemExit(script_main(SPEC))
