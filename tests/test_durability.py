"""Tests for the durability subsystem (`repro.dbms.durability`).

Covers the state journal's atomic-append / torn-tail contract, checkpoint
manifests (atomicity, checksums, rotation, pruning, version pinning), the
recovery manager's checkpoint-by-checkpoint fallback on every corruption
mode, journal replay of swaps and registrations, restored drift windows
and cooldowns, the kill-and-restart drill over the full stack, graceful
shutdown ordering, and — the paper's closed loop across a process
boundary — drift detected before a crash leading to a retrain *after*
restart.  Under ``REPRO_FAULT_SOAK=1`` the crash matrix is soaked across
every durability fault point and corruption mode.
"""

from __future__ import annotations

import json
import os
import threading

import numpy as np
import pytest

from repro.config import ModelConfig, TrainingConfig
from repro.core.model import LLMModel
from repro.data.synthetic import SyntheticDataset
from repro.dbms.concurrent import ConcurrentAnalyticsService
from repro.dbms.durability import (
    CHECKPOINT_FORMAT_VERSION,
    RecoveryManager,
    ServiceCheckpointer,
    StateJournal,
    checkpoint_versions,
)
from repro.dbms.lifecycle import (
    DriftPolicy,
    LifecycleScheduler,
    ModelManager,
    ModelVersionStore,
)
from repro.dbms.serving import AnalyticsService
from repro.dbms.storage import SQLiteDataStore
from repro.exceptions import (
    CheckpointCorruptError,
    ConfigurationError,
    InjectedFaultError,
)
from repro.queries.stream import LabelledWorkload
from repro.queries.workload import (
    QueryWorkloadGenerator,
    RadiusDistribution,
    WorkloadSpec,
)
from repro.testing import (
    FaultInjector,
    corrupt_checkpoint_file,
    corrupt_model_file,
    truncate_journal,
)
from repro.testing.faults import CHECKPOINT_CORRUPTION_MODES

TABLE = "sensors"

_SOAK = os.environ.get("REPRO_FAULT_SOAK", "") not in ("", "0")


def _dataset(size: int = 2_000, seed: int = 0) -> SyntheticDataset:
    rng = np.random.default_rng(seed)
    inputs = rng.uniform(0, 1, size=(size, 2))
    outputs = 1.0 + inputs[:, 0] + 2.0 * inputs[:, 1]
    return SyntheticDataset(
        inputs=inputs, outputs=outputs, name=TABLE, domain=(0.0, 1.0)
    )


def _workload(low: float, high: float, count: int, seed: int):
    spec = WorkloadSpec(
        dimension=2,
        center_low=low,
        center_high=high,
        radius=RadiusDistribution(mean=0.12, std=0.02),
    )
    return QueryWorkloadGenerator(spec, seed=seed).generate(count)


def _train_model(engine, queries) -> LLMModel:
    workload = LabelledWorkload.from_engine(queries, engine)
    model = LLMModel(
        dimension=2,
        config=ModelConfig(quantization_coefficient=0.1),
        training=TrainingConfig(convergence_threshold=1e-4),
    )
    model.fit(workload)
    return model


def _q1(query, table: str = TABLE) -> str:
    x, y = (round(float(v), 4) for v in query.center)
    radius = round(float(query.radius), 4)
    return f"SELECT AVG(u) FROM {table} WITHIN {radius!r} OF ({x!r}, {y!r})"


@pytest.fixture()
def stack(tmp_path):
    """A served stack over a disk-backed store, with lifecycle management."""
    store = SQLiteDataStore(tmp_path / "data.db")
    store.load_dataset(_dataset(), TABLE)
    service = AnalyticsService()
    service.register_table_from_store(store, TABLE)
    engine = service.engine_for(TABLE)
    queries = _workload(0.0, 1.0, 80, seed=1)
    model = _train_model(engine, queries)
    version_store = ModelVersionStore(tmp_path / "versions")
    version = version_store.save(TABLE, model)
    service.swap_model(TABLE, model, version=version)
    manager = ModelManager(
        service,
        policy=DriftPolicy(min_window_statements=10, min_retrain_queries=8),
        version_store=version_store,
    )
    manager.manage(TABLE, store=store, store_table=TABLE)
    yield {
        "store": store,
        "service": service,
        "engine": engine,
        "model": model,
        "queries": queries,
        "version_store": version_store,
        "manager": manager,
        "dir": tmp_path / "ckpt",
    }
    store.close()


def _serve(service, queries, count: int) -> None:
    for query in queries[:count]:
        service.execute(_q1(query))


# --------------------------------------------------------------------- #
# StateJournal
# --------------------------------------------------------------------- #
class TestStateJournal:
    def test_append_and_load_round_trip(self, tmp_path):
        journal = StateJournal(tmp_path / "j.jsonl")
        for i in range(5):
            journal.append({"event": "model.swapped", "version": i})
        entries, dropped = StateJournal.entries(journal.path)
        assert dropped == 0
        assert [e["version"] for e in entries] == list(range(5))
        assert journal.appended == 5

    def test_missing_journal_is_empty(self, tmp_path):
        entries, dropped = StateJournal.entries(tmp_path / "absent.jsonl")
        assert entries == [] and dropped == 0

    def test_torn_tail_is_dropped_not_fatal(self, tmp_path):
        journal = StateJournal(tmp_path / "j.jsonl")
        for i in range(4):
            journal.append({"event": "model.swapped", "version": i})
        truncate_journal(journal.path, keep_lines=2, tear_bytes=7)
        entries, dropped = StateJournal.entries(journal.path)
        assert [e["version"] for e in entries] == [0, 1]
        assert dropped == 1

    def test_concurrent_appenders_never_tear_lines(self, tmp_path):
        journal = StateJournal(tmp_path / "j.jsonl")
        errors: list[BaseException] = []

        def writer(worker: int) -> None:
            try:
                for i in range(50):
                    journal.append({"worker": worker, "i": i, "pad": "x" * 200})
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(w,)) for w in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        entries, dropped = StateJournal.entries(journal.path)
        assert dropped == 0
        assert len(entries) == 300
        seen = {(e["worker"], e["i"]) for e in entries}
        assert len(seen) == 300


# --------------------------------------------------------------------- #
# ServiceCheckpointer
# --------------------------------------------------------------------- #
class TestServiceCheckpointer:
    def test_checkpoint_writes_versioned_checksummed_manifest(self, stack):
        _serve(stack["service"], stack["queries"], 10)
        ckpt = ServiceCheckpointer(
            stack["service"],
            stack["dir"],
            manager=stack["manager"],
            version_store=stack["version_store"],
        )
        path = ckpt.checkpoint()
        assert path.name == "checkpoint.v0001.json"
        manifest = json.loads(path.read_text())
        assert manifest["format_version"] == CHECKPOINT_FORMAT_VERSION
        assert "checksum" in manifest
        entry = manifest["payload"]["tables"][TABLE]
        assert entry["model_version"] == 1
        assert entry["registry_epoch"] >= 2
        assert entry["engine_binding"][1] == TABLE
        assert entry["query_log"]["queries"]
        assert entry["statistics"]["statements_executed"] == 10
        assert entry["lifecycle"] is not None

    def test_checkpoint_versions_advance_and_old_ones_prune(self, stack):
        ckpt = ServiceCheckpointer(
            stack["service"], stack["dir"], keep_checkpoints=2
        )
        for _ in range(5):
            ckpt.checkpoint()
        assert checkpoint_versions(stack["dir"]) == [4, 5]
        # journals of pruned manifests go with them (journal files are
        # created lazily on first append, so only assert none is stale)
        for path in stack["dir"].glob("journal.*"):
            assert path.name in ("journal.v0004.jsonl", "journal.v0005.jsonl")

    def test_unversioned_model_is_saved_into_checkpoint_dir(self, tmp_path):
        store = SQLiteDataStore(tmp_path / "data.db")
        store.load_dataset(_dataset(500), TABLE)
        service = AnalyticsService()
        service.register_table_from_store(store, TABLE)
        model = _train_model(
            service.engine_for(TABLE), _workload(0.0, 1.0, 40, seed=2)
        )
        service.register_model(TABLE, model)  # no version store, no marker
        ckpt = ServiceCheckpointer(service, tmp_path / "ckpt")
        path = ckpt.checkpoint()
        entry = json.loads(path.read_text())["payload"]["tables"][TABLE]
        assert entry["model_file"] is not None
        assert (tmp_path / "ckpt" / "models") in list(
            (tmp_path / "ckpt" / "models").parents
        ) or entry["model_file"].startswith(str(tmp_path / "ckpt"))
        store.close()

    def test_mid_checkpoint_crash_leaves_no_manifest(self, stack):
        injector = FaultInjector()
        ckpt = ServiceCheckpointer(
            stack["service"], stack["dir"], injector=injector
        )
        ckpt.checkpoint()
        injector.arm("durability.mid_checkpoint", error=InjectedFaultError)
        with pytest.raises(InjectedFaultError):
            ckpt.checkpoint()
        # the torn attempt left neither a manifest nor a staging file
        assert checkpoint_versions(stack["dir"]) == [1]
        assert not list(stack["dir"].glob("*.tmp"))
        # and the next attempt proceeds normally; the torn attempt did
        # not burn a version number
        ckpt.checkpoint()
        assert checkpoint_versions(stack["dir"]) == [1, 2]

    def test_pre_checkpoint_crash_changes_nothing(self, stack):
        injector = FaultInjector()
        ckpt = ServiceCheckpointer(
            stack["service"], stack["dir"], injector=injector
        )
        injector.arm("durability.pre_checkpoint", error=InjectedFaultError)
        with pytest.raises(InjectedFaultError):
            ckpt.checkpoint()
        assert checkpoint_versions(stack["dir"]) == []

    def test_swap_between_checkpoints_lands_in_journal(self, stack):
        ckpt = ServiceCheckpointer(
            stack["service"],
            stack["dir"],
            version_store=stack["version_store"],
        )
        ckpt.checkpoint()
        v2 = stack["version_store"].save(TABLE, stack["model"])
        stack["service"].swap_model(TABLE, stack["model"], version=v2)
        entries, dropped = StateJournal.entries(
            stack["dir"] / "journal.v0001.jsonl"
        )
        assert dropped == 0
        swaps = [e for e in entries if e["event"] == "model.swapped"]
        assert swaps and swaps[-1]["version"] == v2
        assert swaps[-1]["model_file"].endswith(f"{TABLE}.v{v2:04d}.json")

    def test_journal_append_fault_does_not_break_serving(self, stack):
        injector = FaultInjector()
        ckpt = ServiceCheckpointer(
            stack["service"], stack["dir"], injector=injector
        )
        ckpt.checkpoint()
        injector.arm("durability.journal_append", error=InjectedFaultError)
        # the swap that triggers the journal append must still succeed
        stack["service"].swap_model(TABLE, stack["model"], version="mem-x")
        assert stack["service"].model_version_for(TABLE) == "mem-x"
        assert isinstance(ckpt.last_error, InjectedFaultError)
        _serve(stack["service"], stack["queries"], 3)

    def test_checkpoint_pins_referenced_versions_against_pruning(self, stack):
        version_store = stack["version_store"]
        service = stack["service"]
        ckpt = ServiceCheckpointer(
            service,
            stack["dir"],
            version_store=version_store,
            keep_checkpoints=1,
        )
        ckpt.checkpoint()  # manifest references version 1
        assert version_store.pinned(TABLE) == frozenset({1})
        # lifecycle-style churn: many new versions + keep_versions pruning
        for _ in range(4):
            version_store.save(TABLE, stack["model"])
        version_store.prune(TABLE, 2)
        # keep=2 would normally delete v1..v3; the manifest-referenced v1
        # must survive so recovery can still load it
        assert 1 in version_store.versions(TABLE)
        assert version_store.path_for(TABLE, 1).exists()
        assert 2 not in version_store.versions(TABLE)

    def test_periodic_thread_checkpoints_and_stops(self, stack):
        ckpt = ServiceCheckpointer(
            stack["service"], stack["dir"], interval_seconds=0.02
        )
        ckpt.start()
        deadline = 100
        while ckpt.checkpoint_count == 0 and deadline:
            deadline -= 1
            threading.Event().wait(0.02)
        ckpt.stop()
        assert ckpt.checkpoint_count >= 1
        assert not ckpt.running
        assert checkpoint_versions(stack["dir"])

    def test_interval_validation(self, stack):
        with pytest.raises(ConfigurationError):
            ServiceCheckpointer(
                stack["service"], stack["dir"], interval_seconds=0.0
            )
        with pytest.raises(ConfigurationError):
            ServiceCheckpointer(
                stack["service"], stack["dir"], keep_checkpoints=0
            )
        ckpt = ServiceCheckpointer(stack["service"], stack["dir"])
        with pytest.raises(ConfigurationError):
            ckpt.start()

    def test_resuming_over_existing_directory_continues_versions(self, stack):
        ckpt1 = ServiceCheckpointer(stack["service"], stack["dir"])
        ckpt1.checkpoint()
        ckpt1.checkpoint()
        stack["service"].observers.unsubscribe(ckpt1._observer)
        ckpt2 = ServiceCheckpointer(stack["service"], stack["dir"])
        assert ckpt2.last_checkpoint_version == 2
        path = ckpt2.checkpoint()
        assert path.name == "checkpoint.v0003.json"


# --------------------------------------------------------------------- #
# RecoveryManager
# --------------------------------------------------------------------- #
class TestRecovery:
    def _checkpoint(self, stack, **kwargs) -> ServiceCheckpointer:
        ckpt = ServiceCheckpointer(
            stack["service"],
            stack["dir"],
            manager=stack["manager"],
            version_store=stack["version_store"],
            **kwargs,
        )
        ckpt.checkpoint()
        return ckpt

    def test_kill_and_restart_drill(self, stack):
        """The acceptance drill: kill -9 after a checkpoint, restart, verify."""
        service = stack["service"]
        _serve(service, stack["queries"], 20)
        stack["manager"].tick()
        self._checkpoint(stack)
        pre_version = service.model_version_for(TABLE)
        pre_epoch = service.registry_epoch_for(TABLE)
        pre_log = len(service.recent_queries(TABLE))
        # "kill -9": nothing is flushed or closed; a new process recovers
        recovered = RecoveryManager(stack["dir"]).recover()
        restored = recovered.service
        assert restored is not service
        assert restored.model_version_for(TABLE) == pre_version
        assert restored.registry_epoch_for(TABLE) >= pre_epoch
        restored_log = restored.recent_queries(TABLE)
        assert len(restored_log) == pre_log > 0
        assert restored.statistics_for(TABLE).statements_executed == 20
        # the restored registry serves — engine rebuilt from store binding
        value = restored.execute(_q1(stack["queries"][0]))
        assert np.isfinite(value)
        for opened in recovered.stores.values():
            opened.close()

    def test_recovered_model_retrains_under_its_original_settings(self, tmp_path):
        # Every field away from its default: the retrain clones the serving
        # model's settings, so a field the model file forgot would change
        # how the first retrain after a restart trains.
        training = TrainingConfig(
            convergence_threshold=1e-4,
            max_steps=60,
            min_steps=20,
            convergence_window=8,
            learning_rate_scale=0.5,
            record_history=False,
        )
        store = SQLiteDataStore(tmp_path / "data.db")
        store.load_dataset(_dataset(), TABLE)
        service = AnalyticsService()
        service.register_table_from_store(store, TABLE)
        model = LLMModel(
            dimension=2,
            config=ModelConfig(quantization_coefficient=0.1),
            training=training,
        )
        model.fit(
            LabelledWorkload.from_engine(
                _workload(0.0, 1.0, 80, seed=1), service.engine_for(TABLE)
            )
        )
        version_store = ModelVersionStore(tmp_path / "versions")
        service.swap_model(TABLE, model, version=version_store.save(TABLE, model))
        policy = DriftPolicy(min_retrain_queries=8, cooldown_seconds=0.0)
        manager = ModelManager(service, policy=policy, version_store=version_store)
        manager.manage(TABLE, store=store, store_table=TABLE)
        _serve(service, _workload(0.0, 1.0, 80, seed=2), 80)
        ServiceCheckpointer(
            service, tmp_path / "ckpt", manager=manager, version_store=version_store
        ).checkpoint()
        # ---- crash; new process ----
        recovered = RecoveryManager(tmp_path / "ckpt").recover()
        assert recovered.service.model_for(TABLE).training == training
        retrained: list[LLMModel] = []

        def train_fn(*args) -> LLMModel:
            retrained.append(ModelManager._default_train(*args))
            return retrained[-1]

        new_manager = ModelManager(
            recovered.service,
            policy=policy,
            version_store=version_store,
            train_fn=train_fn,
        )
        recovered.attach_manager(new_manager)
        assert new_manager.retrain(TABLE) in ("retrained", "rolled_back")
        assert retrained[0].training == training
        assert retrained[0].steps <= training.max_steps
        store.close()
        for opened in recovered.stores.values():
            opened.close()

    def test_journal_replay_restores_post_checkpoint_swap(self, stack):
        self._checkpoint(stack)
        v2 = stack["version_store"].save(TABLE, stack["model"])
        stack["service"].swap_model(TABLE, stack["model"], version=v2)
        recovered = RecoveryManager(stack["dir"]).recover()
        assert recovered.service.model_version_for(TABLE) == v2
        assert recovered.journal_entries_applied >= 1
        for opened in recovered.stores.values():
            opened.close()

    def test_rollback_between_checkpoints_replays_to_old_version(self, stack):
        self._checkpoint(stack)
        v2 = stack["version_store"].save(TABLE, stack["model"])
        stack["service"].swap_model(TABLE, stack["model"], version=v2)
        # a rollback is just a swap restoring the previous version marker
        stack["service"].swap_model(TABLE, stack["model"], version=1)
        recovered = RecoveryManager(stack["dir"]).recover()
        assert recovered.service.model_version_for(TABLE) == 1
        for opened in recovered.stores.values():
            opened.close()

    @pytest.mark.parametrize("mode", CHECKPOINT_CORRUPTION_MODES)
    def test_corrupt_newest_falls_back_to_previous(self, stack, mode):
        ckpt = self._checkpoint(stack)
        _serve(stack["service"], stack["queries"], 5)
        ckpt.checkpoint()
        corrupt_checkpoint_file(stack["dir"] / "checkpoint.v0002.json", mode)
        recovered = RecoveryManager(stack["dir"]).recover()
        assert recovered.checkpoint_version == 1
        assert recovered.skipped_checkpoints
        assert recovered.skipped_checkpoints[0][0] == 2
        for opened in recovered.stores.values():
            opened.close()

    def test_all_corrupt_raises_typed_error(self, stack):
        ckpt = self._checkpoint(stack)
        ckpt.checkpoint()
        for path in stack["dir"].glob("checkpoint.*.json"):
            corrupt_checkpoint_file(path, "garbage")
        with pytest.raises(CheckpointCorruptError):
            RecoveryManager(stack["dir"]).recover()

    def test_empty_directory_raises_typed_error(self, tmp_path):
        with pytest.raises(CheckpointCorruptError):
            RecoveryManager(tmp_path / "nothing").recover()

    def test_missing_model_file_invalidates_whole_checkpoint(self, stack):
        ckpt = self._checkpoint(stack)
        v2 = stack["version_store"].save(TABLE, stack["model"])
        stack["service"].swap_model(TABLE, stack["model"], version=v2)
        ckpt.checkpoint()  # manifest v2 references model version 2
        corrupt_model_file(
            stack["version_store"].path_for(TABLE, v2), "garbage"
        )
        recovered = RecoveryManager(stack["dir"]).recover()
        # never a half-recovered registry: the whole newest manifest is
        # discarded and the previous one (referencing v1) applies
        assert recovered.checkpoint_version == 1
        assert recovered.service.model_version_for(TABLE) == 1
        for opened in recovered.stores.values():
            opened.close()

    def test_truncated_journal_keeps_durable_prefix(self, stack):
        self._checkpoint(stack)
        for marker in (2, 3):
            stack["version_store"].save(TABLE, stack["model"])
            stack["service"].swap_model(TABLE, stack["model"], version=marker)
        truncate_journal(
            stack["dir"] / "journal.v0001.jsonl", keep_lines=1, tear_bytes=9
        )
        recovered = RecoveryManager(stack["dir"]).recover()
        # the first swap survived, the torn second one is dropped
        assert recovered.service.model_version_for(TABLE) == 2
        assert recovered.journal_entries_dropped >= 1
        for opened in recovered.stores.values():
            opened.close()

    def test_restored_drift_state_resumes_window_and_cooldown(self, stack):
        service, manager = stack["service"], stack["manager"]
        _serve(service, stack["queries"], 20)
        manager.tick()
        assert manager.window_statements(TABLE) == 20
        self._checkpoint(stack)
        recovered = RecoveryManager(stack["dir"]).recover()
        new_manager = ModelManager(
            recovered.service,
            policy=DriftPolicy(min_window_statements=10, min_retrain_queries=8),
            version_store=stack["version_store"],
        )
        recovered.attach_manager(new_manager)
        assert new_manager.window_statements(TABLE) == 20
        status = new_manager.status_for(TABLE)
        assert status["retrain_count"] == 0
        # the restored window is live: new traffic keeps accumulating
        _serve(recovered.service, stack["queries"], 5)
        new_manager.tick()
        assert new_manager.window_statements(TABLE) == 25
        for opened in recovered.stores.values():
            opened.close()

    def test_cooldown_survives_as_remaining_seconds(self, stack):
        manager = stack["manager"]
        state = manager._tables[TABLE]
        state.next_eligible = manager._clock() + 120.0
        state.consecutive_failures = 2
        exported = manager.export_state(TABLE)
        assert 115.0 < exported["cooldown_remaining"] <= 120.0
        self._checkpoint(stack)
        recovered = RecoveryManager(stack["dir"]).recover()
        new_manager = ModelManager(recovered.service, version_store=stack["version_store"])
        recovered.attach_manager(new_manager)
        restored = new_manager._tables[TABLE]
        remaining = restored.next_eligible - new_manager._clock()
        assert 100.0 < remaining <= 120.0
        assert restored.consecutive_failures == 2
        for opened in recovered.stores.values():
            opened.close()

    def test_recover_concurrent_front_with_stats(self, stack):
        front = ConcurrentAnalyticsService(stack["service"])
        front.execute_script([_q1(q) for q in stack["queries"][:8]])
        ckpt = ServiceCheckpointer(
            stack["service"],
            stack["dir"],
            front=front,
            version_store=stack["version_store"],
        )
        ckpt.checkpoint()
        front.close()
        recovered = RecoveryManager(stack["dir"]).recover(concurrent=True)
        assert recovered.front is not None
        assert recovered.serving is recovered.front
        stats = recovered.front.statistics_for(TABLE)
        assert stats.statements_executed == 8
        results = recovered.front.execute_script(
            [_q1(stack["queries"][0])]
        )
        assert results[0].ok
        recovered.front.close()
        for opened in recovered.stores.values():
            opened.close()

    def test_in_memory_store_recovers_through_stores_mapping(self, tmp_path):
        store = SQLiteDataStore(":memory:")
        store.load_dataset(_dataset(500), TABLE)
        service = AnalyticsService()
        service.register_table_from_store(store, TABLE)
        ServiceCheckpointer(service, tmp_path / "ckpt").checkpoint()
        # without the mapping the engine is unrecoverable (no file to open)
        bare = RecoveryManager(tmp_path / "ckpt").recover()
        assert TABLE not in bare.service.tables or not bare.stores
        # with it, the engine rebuilds over the handed-in live store
        recovered = RecoveryManager(
            tmp_path / "ckpt", stores={":memory:": store}
        ).recover()
        assert np.isfinite(
            recovered.service.execute(
                f"SELECT AVG(u) FROM {TABLE} WITHIN 0.2 OF (0.5, 0.5)"
            )
        )
        store.close()


# --------------------------------------------------------------------- #
# graceful shutdown
# --------------------------------------------------------------------- #
class TestGracefulShutdown:
    def test_shutdown_drains_and_takes_final_checkpoint(self, stack):
        front = ConcurrentAnalyticsService(stack["service"])
        scheduler = LifecycleScheduler(
            stack["manager"], interval_seconds=0.05
        ).start()
        ckpt = ServiceCheckpointer(
            stack["service"],
            stack["dir"],
            manager=stack["manager"],
            front=front,
            version_store=stack["version_store"],
            scheduler=scheduler,
            interval_seconds=60.0,
        )
        ckpt.start()
        future = front.submit_script([_q1(q) for q in stack["queries"][:4]])
        path = ckpt.shutdown(drain_seconds=5.0)
        # the drain let the submitted script finish cleanly
        assert all(r.ok for r in future.result(timeout=1.0))
        assert not scheduler.running
        assert not ckpt.running
        assert front.closed
        assert path.exists()
        manifest = json.loads(path.read_text())
        stats = manifest["payload"]["tables"][TABLE]["statistics"]
        assert stats["statements_executed"] >= 4
        # the final checkpoint recovers
        recovered = RecoveryManager(stack["dir"]).recover()
        assert recovered.checkpoint_version >= 1
        for opened in recovered.stores.values():
            opened.close()


# --------------------------------------------------------------------- #
# end-to-end: drift -> crash -> restart -> retrain
# --------------------------------------------------------------------- #
class TestDriftAcrossRestart:
    def test_drift_detected_before_crash_retrains_after_restart(self, tmp_path):
        """The paper's closed loop survives a process boundary.

        Traffic shifts to an uncovered region before the crash, pushing
        the restored drift window over threshold; after restart the
        rebuilt manager retrains on the *restored* query log — no fresh
        traffic needed — and the fallback rate recovers.
        """
        store = SQLiteDataStore(tmp_path / "data.db")
        store.load_dataset(_dataset(3_000, seed=7), TABLE)
        service = AnalyticsService()
        service.register_table_from_store(store, TABLE)
        engine = service.engine_for(TABLE)
        # train ONLY on the left half of the domain
        trained_queries = _workload(0.0, 0.45, 80, seed=3)
        model = _train_model(engine, trained_queries)
        version_store = ModelVersionStore(tmp_path / "versions")
        service.swap_model(
            TABLE, model, version=version_store.save(TABLE, model)
        )
        policy = DriftPolicy(
            fallback_rate_threshold=0.3,
            min_window_statements=20,
            min_retrain_queries=16,
            cooldown_seconds=0.0,
        )
        manager = ModelManager(service, policy=policy, version_store=version_store)
        manager.manage(TABLE, store=store, store_table=TABLE)
        # shifted traffic: the right half the model never saw
        shifted = _workload(0.55, 1.0, 60, seed=4)
        for query in shifted:
            service.execute(_q1(query))
        # the manager OBSERVES the drift... and the process dies before
        # it can retrain (cooldown gate simulated via manual window check)
        state = manager._tables[TABLE]
        stats = service.statistics_for(TABLE)
        previous = state.snapshot
        state.window.append(
            (
                stats.statements_executed - previous.statements_executed,
                stats.fallback_count - previous.fallback_count,
            )
        )
        state.snapshot = stats.snapshot()
        assert manager.window_fallback_rate(TABLE) > policy.fallback_rate_threshold
        ServiceCheckpointer(
            service,
            tmp_path / "ckpt",
            manager=manager,
            version_store=version_store,
        ).checkpoint()
        # ---- crash; new process ----
        recovered = RecoveryManager(tmp_path / "ckpt").recover()
        restored = recovered.service
        new_manager = ModelManager(
            restored, policy=policy, version_store=version_store
        )
        recovered.attach_manager(new_manager)
        # drift evidence survived the restart
        assert (
            new_manager.window_fallback_rate(TABLE)
            > policy.fallback_rate_threshold
        )
        assert len(restored.recent_queries(TABLE)) >= policy.min_retrain_queries
        before_version = restored.model_version_for(TABLE)
        statuses = new_manager.tick()
        assert statuses[TABLE] in ("retrained", "rolled_back")
        if statuses[TABLE] == "retrained":
            assert restored.model_version_for(TABLE) != before_version
            # the retrained model now covers the shifted region
            post = restored.statistics_for(TABLE).snapshot()
            for query in _workload(0.55, 1.0, 30, seed=5):
                restored.execute(_q1(query))
            delta = restored.statistics_for(TABLE)
            shifted_fallbacks = delta.fallback_count - post.fallback_count
            shifted_statements = (
                delta.statements_executed - post.statements_executed
            )
            assert shifted_fallbacks / shifted_statements < 0.3
        store.close()
        for opened in recovered.stores.values():
            opened.close()


# --------------------------------------------------------------------- #
# fault soak (scaled up under REPRO_FAULT_SOAK=1 in CI)
# --------------------------------------------------------------------- #
class TestDurabilitySoak:
    @pytest.mark.skipif(not _SOAK, reason="set REPRO_FAULT_SOAK=1 to run")
    def test_crash_recovery_soak(self, tmp_path):
        """Crash the checkpointer at every fault point, corrupt every mode,
        and assert recovery always lands on a consistent registry."""
        rounds = 3
        for seed in range(rounds):
            base = tmp_path / f"round{seed}"
            base.mkdir(parents=True, exist_ok=True)
            store = SQLiteDataStore(base / "data.db")
            store.load_dataset(_dataset(800, seed=seed), TABLE)
            service = AnalyticsService()
            service.register_table_from_store(store, TABLE)
            model = _train_model(
                service.engine_for(TABLE), _workload(0.0, 1.0, 40, seed=seed)
            )
            version_store = ModelVersionStore(base / "versions")
            service.swap_model(
                TABLE, model, version=version_store.save(TABLE, model)
            )
            injector = FaultInjector()
            # corruption accumulates across modes, so retain enough
            # checkpoints that a clean fallback always survives
            ckpt = ServiceCheckpointer(
                service,
                base / "ckpt",
                version_store=version_store,
                injector=injector,
                keep_checkpoints=16,
            )
            ckpt.checkpoint()
            for point in (
                "durability.pre_checkpoint",
                "durability.mid_checkpoint",
            ):
                injector.arm(point, error=InjectedFaultError)
                with pytest.raises(InjectedFaultError):
                    ckpt.checkpoint()
                injector.disarm(point)
                ckpt.checkpoint()
            for mode in CHECKPOINT_CORRUPTION_MODES:
                newest = checkpoint_versions(base / "ckpt")[-1]
                corrupt_checkpoint_file(
                    base / "ckpt" / f"checkpoint.v{newest:04d}.json", mode
                )
                recovered = RecoveryManager(base / "ckpt").recover()
                assert recovered.checkpoint_version < newest
                assert recovered.service.model_version_for(TABLE) == 1
                for opened in recovered.stores.values():
                    opened.close()
                ckpt.checkpoint()  # re-establish a clean newest
            store.close()
