"""Tests for the model lifecycle subsystem (`repro.dbms.lifecycle`).

Covers the versioned model store, the observer hub, the recent-query log,
the drift window and cooldown/backoff state machine, probe-gated rollback,
atomic hot-swap under concurrent serving, and the end-to-end drift loop:
a drifting data surface plus shifted traffic drives the fallback rate up,
the manager retrains on the recorded recent queries against the refreshed
store-backed engine, and the fallback rate recovers — without restarting
any session.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.config import ModelConfig, TrainingConfig
from repro.core.model import LLMModel
from repro.data.functions import DriftingFunction, SineRidge
from repro.data.synthetic import SyntheticDataset
from repro.dbms.lifecycle import DriftPolicy, ModelManager, ModelVersionStore
from repro.dbms.observer import LifecycleEvent, ObserverHub
from repro.dbms.serving import AnalyticsService
from repro.exceptions import (
    ConfigurationError,
    LifecycleError,
    ModelPersistenceError,
    WorkloadError,
)
from repro.queries.query import Query
from repro.queries.stream import LabelledWorkload, QueryLog
from repro.queries.workload import (
    QueryWorkloadGenerator,
    RadiusDistribution,
    WorkloadSpec,
)
from repro.testing import RecordingObserver

TABLE = "sensors"


class ManualClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _linear_dataset(size: int = 3_000, seed: int = 0) -> SyntheticDataset:
    rng = np.random.default_rng(seed)
    inputs = rng.uniform(0, 1, size=(size, 2))
    outputs = 1.0 + inputs[:, 0] + 2.0 * inputs[:, 1]
    return SyntheticDataset(inputs=inputs, outputs=outputs, name=TABLE, domain=(0.0, 1.0))


def _workload(center_low: float, center_high: float, count: int, seed: int) -> list[Query]:
    spec = WorkloadSpec(
        dimension=2,
        center_low=center_low,
        center_high=center_high,
        radius=RadiusDistribution(mean=0.1, std=0.02),
    )
    return QueryWorkloadGenerator(spec, seed=seed).generate(count)


def _train_model(engine, queries) -> LLMModel:
    workload = LabelledWorkload.from_engine(queries, engine)
    model = LLMModel(
        dimension=2,
        # A fine quantization grows enough prototypes to genuinely cover
        # the trained region, so fallback-rate shifts measure *drift*.
        config=ModelConfig(quantization_coefficient=0.05),
        training=TrainingConfig(convergence_threshold=1e-4),
    )
    model.fit(workload)
    return model


def _q1_text(query: Query, table: str = TABLE) -> str:
    x, y = (round(float(v), 4) for v in query.center)
    return f"SELECT AVG(u) FROM {table} WITHIN {round(float(query.radius), 4)!r} OF ({x!r}, {y!r})"


# --------------------------------------------------------------------- #
# ModelVersionStore
# --------------------------------------------------------------------- #
class TestModelVersionStore:
    def _model(self, engine=None) -> LLMModel:
        from repro.dbms.executor import ExactQueryEngine

        engine = engine or ExactQueryEngine(_linear_dataset(500))
        return _train_model(engine, _workload(0.0, 1.0, 60, seed=3))

    def test_versions_are_sequential_and_loadable(self, tmp_path):
        store = ModelVersionStore(tmp_path)
        model = self._model()
        assert store.latest(TABLE) is None and store.previous(TABLE) is None
        assert store.save(TABLE, model) == 1
        assert store.save(TABLE, model) == 2
        assert store.versions(TABLE) == [1, 2]
        assert store.latest(TABLE) == 2
        assert store.previous(TABLE) == 1
        loaded = store.load(TABLE)
        assert loaded.prototype_count == model.prototype_count
        loaded_v1 = store.load(TABLE, 1)
        assert loaded_v1.dimension == model.dimension

    def test_prune_keeps_newest(self, tmp_path):
        store = ModelVersionStore(tmp_path)
        model = self._model()
        for _ in range(5):
            store.save(TABLE, model)
        removed = store.prune(TABLE, keep=2)
        assert store.versions(TABLE) == [4, 5]
        assert len(removed) == 3
        assert all(not path.exists() for path in removed)

    def test_load_without_versions_raises_typed_error(self, tmp_path):
        with pytest.raises(ModelPersistenceError):
            ModelVersionStore(tmp_path).load(TABLE)

    def test_tables_are_isolated(self, tmp_path):
        store = ModelVersionStore(tmp_path)
        model = self._model()
        store.save("a", model)
        store.save("a", model)
        store.save("b", model)
        assert store.latest("a") == 2
        assert store.latest("b") == 1


# --------------------------------------------------------------------- #
# ObserverHub / QueryLog
# --------------------------------------------------------------------- #
class TestObserverHub:
    def test_publish_reaches_subscribers_in_order(self):
        hub = ObserverHub()
        recorder = RecordingObserver()
        hub.subscribe(recorder)
        hub.publish("a.one", "t1", detail=1)
        hub.publish("a.two", "t2")
        assert recorder.kinds() == ["a.one", "a.two"]
        first = recorder.events[0]
        assert isinstance(first, LifecycleEvent)
        assert first.table == "t1" and first.payload == {"detail": 1}
        assert recorder.events[1].sequence > first.sequence

    def test_broken_observer_is_swallowed_and_counted(self):
        hub = ObserverHub()

        class Broken:
            def notify(self, event):
                raise RuntimeError("sink died")

        recorder = RecordingObserver()
        hub.subscribe(Broken())
        hub.subscribe(recorder)
        hub.publish("x", "t")
        assert hub.dropped_notifications == 1
        assert recorder.kinds() == ["x"]  # later observers still notified

    def test_unsubscribe(self):
        hub = ObserverHub()
        recorder = RecordingObserver()
        hub.subscribe(recorder)
        hub.subscribe(recorder)  # idempotent
        hub.unsubscribe(recorder)
        hub.publish("x")
        assert recorder.events == []

    def test_events_carry_monotonic_and_wall_timestamps(self):
        mono = iter([10.0, 11.0, 12.0])
        wall = iter([1_700_000_000.0, 1_700_000_005.0])
        hub = ObserverHub(
            clock=lambda: next(mono), wall_clock=lambda: next(wall)
        )
        event = hub.publish("retrain.completed", "t")
        assert event.monotonic == 10.0
        assert event.timestamp == 1_700_000_000.0

    def test_monotonic_ordering_survives_wall_clock_step_back(self):
        # An NTP step moves wall time backwards mid-run; the monotonic
        # stamp (and sequence) must still order the events correctly.
        mono = iter([100.0, 100.5])
        wall = iter([2_000.0, 1_500.0])  # steps back 500 s
        hub = ObserverHub(
            clock=lambda: next(mono), wall_clock=lambda: next(wall)
        )
        first = hub.publish("drift.detected", "t")
        second = hub.publish("retrain.started", "t")
        assert second.timestamp < first.timestamp  # wall clock lies
        assert second.monotonic > first.monotonic  # ordering holds
        assert second.sequence > first.sequence


class TestQueryLog:
    def test_capacity_and_eviction(self):
        log = QueryLog(capacity=3)
        queries = _workload(0.0, 1.0, 5, seed=1)
        log.record_many(queries)
        assert len(log) == 3
        assert log.total_recorded == 5
        assert log.snapshot() == list(queries[-3:])
        log.clear()
        assert len(log) == 0 and log.total_recorded == 5

    def test_invalid_capacity(self):
        with pytest.raises(WorkloadError):
            QueryLog(capacity=0)

    def test_service_records_recent_queries_per_table(self):
        from repro.dbms.executor import ExactQueryEngine

        service = AnalyticsService(
            engines={TABLE: ExactQueryEngine(_linear_dataset(500))},
            query_log_size=4,
        )
        service.execute_script(
            [
                "SELECT AVG(u) FROM sensors WITHIN 0.1 OF (0.5, 0.5)",
                "SELECT AVG(u) FROM sensors WITHIN 0.1 OF (0.6, 0.6)",
            ],
            mode="exact",
        )
        recent = service.recent_queries(TABLE)
        assert len(recent) == 2
        assert recent[0].radius == pytest.approx(0.1)
        assert service.recent_queries("elsewhere") == []


# --------------------------------------------------------------------- #
# drift window, cooldown and backoff
# --------------------------------------------------------------------- #
class TestDriftStateMachine:
    def _make(self, tmp_path, *, train_fn=None, policy=None):
        from repro.dbms.executor import ExactQueryEngine

        engine = ExactQueryEngine(_linear_dataset())
        model = _train_model(engine, _workload(0.0, 0.45, 200, seed=2))
        service = AnalyticsService(engines={TABLE: engine})
        service.swap_model(TABLE, model, version="seed")
        clock = ManualClock()
        manager = ModelManager(
            service,
            policy=policy
            or DriftPolicy(
                fallback_rate_threshold=0.3,
                min_window_statements=20,
                window_buckets=4,
                cooldown_seconds=10.0,
                backoff_multiplier=2.0,
                max_backoff_seconds=100.0,
                min_retrain_queries=20,
                probe_size=32,
            ),
            version_store=ModelVersionStore(tmp_path / "versions"),
            train_fn=train_fn,
            clock=clock,
        )
        manager.manage(TABLE)
        return service, manager, clock, model

    def _serve(self, service, center_low, center_high, count, seed):
        statements = [
            _q1_text(q) for q in _workload(center_low, center_high, count, seed)
        ]
        return service.execute_script(statements, mode="hybrid")

    def test_no_traffic_and_insufficient_traffic(self, tmp_path):
        service, manager, clock, _ = self._make(tmp_path)
        assert manager.tick() == {TABLE: "no-traffic"}
        self._serve(service, 0.1, 0.4, 5, seed=3)
        assert manager.tick() == {TABLE: "insufficient-traffic"}

    def test_healthy_traffic_never_retrains(self, tmp_path):
        service, manager, clock, model = self._make(tmp_path)
        self._serve(service, 0.05, 0.4, 40, seed=4)
        assert manager.tick() == {TABLE: "healthy"}
        assert service.model_for(TABLE) is model

    def test_drift_triggers_retrain_and_cooldown_gates_the_next(self, tmp_path):
        service, manager, clock, model = self._make(tmp_path)
        observer = RecordingObserver()
        service.observers.subscribe(observer)
        self._serve(service, 0.55, 0.95, 60, seed=5)
        assert manager.tick() == {TABLE: "retrained"}
        assert service.model_for(TABLE) is not model
        assert observer.of_kind("drift.detected")
        assert observer.of_kind("swap.committed")
        assert manager.status_for(TABLE)["retrain_count"] == 1
        # Same drifted traffic immediately after: inside the cooldown.
        self._serve(service, 0.55, 0.95, 60, seed=6)
        status = manager.tick()[TABLE]
        assert status in ("cooldown", "healthy")

    def test_failed_retrains_back_off_exponentially(self, tmp_path):
        def broken_train(table, old_model, engine, queries):
            raise RuntimeError("training infra down")

        service, manager, clock, model = self._make(tmp_path, train_fn=broken_train)
        eligibles = []
        for round_index in range(3):
            self._serve(service, 0.55, 0.95, 60, seed=10 + round_index)
            # Jump past any armed backoff so the attempt actually runs.
            clock.now = manager.status_for(TABLE)["next_eligible"] + 1.0
            assert manager.tick()[TABLE] == "failed"
            state = manager.status_for(TABLE)
            assert state["consecutive_failures"] == round_index + 1
            eligibles.append(state["next_eligible"] - clock.now)
        # cooldown 10, multiplier 2 -> waits 20, 40, 80.
        assert eligibles == [20.0, 40.0, 80.0]
        assert service.model_for(TABLE) is model  # old model kept serving

    def test_backoff_is_capped(self, tmp_path):
        def broken_train(table, old_model, engine, queries):
            raise RuntimeError("still down")

        policy = DriftPolicy(
            fallback_rate_threshold=0.3,
            min_window_statements=20,
            cooldown_seconds=10.0,
            backoff_multiplier=10.0,
            max_backoff_seconds=50.0,
            min_retrain_queries=20,
            probe_size=32,
        )
        service, manager, clock, _ = self._make(
            tmp_path, train_fn=broken_train, policy=policy
        )
        self._serve(service, 0.55, 0.95, 60, seed=20)
        assert manager.tick()[TABLE] == "failed"
        assert manager.status_for(TABLE)["next_eligible"] - clock.now == 50.0

    def test_bad_new_model_is_rolled_back(self, tmp_path):
        def bad_train(table, old_model, engine, queries):
            # "Trained" on two queries in a far corner: near-zero coverage.
            model = LLMModel(
                dimension=old_model.dimension,
                config=old_model.config,
                training=old_model.training,
            )
            corner = [
                Query(center=np.array([0.05, 0.05]), radius=0.08),
                Query(center=np.array([0.08, 0.08]), radius=0.08),
            ]
            model.fit(
                LabelledWorkload.from_engine(corner, engine)
            )
            return model

        service, manager, clock, model = self._make(tmp_path, train_fn=bad_train)
        observer = RecordingObserver()
        service.observers.subscribe(observer)
        self._serve(service, 0.55, 0.95, 60, seed=7)
        assert manager.tick() == {TABLE: "rolled_back"}
        assert service.model_for(TABLE) is model
        assert service.model_version_for(TABLE) == "seed"
        rolled = observer.of_kind("swap.rolled_back")
        assert rolled and rolled[0].payload["new_fallback_estimate"] > 0.5
        assert manager.status_for(TABLE)["rollback_count"] == 1
        assert manager.status_for(TABLE)["consecutive_failures"] == 1

    def test_group_recorded_during_a_tick_lands_in_exactly_one_bucket(self):
        service = AnalyticsService()
        manager = ModelManager(
            service,
            policy=DriftPolicy(min_window_statements=1_000, window_buckets=4),
            clock=ManualClock(),
        )
        manager.manage(TABLE)
        stats = service.statistics_for(TABLE)
        stats.record_batch(10, exact_answered=10)
        snapshot = stats.snapshot
        landed = []

        def snapshot_racing_a_flush():
            # A flush worker records a group while the tick is reading.
            if not landed:
                landed.append(True)
                stats.record_batch(5, fallbacks=5)
            return snapshot()

        stats.snapshot = snapshot_racing_a_flush
        manager.tick()
        manager.tick()
        assert landed
        assert manager.window_statements(TABLE) == stats.statements_executed == 15

    def test_retrain_requires_enough_recent_queries(self, tmp_path):
        service, manager, clock, _ = self._make(tmp_path)
        service.query_log_for(TABLE).clear()
        assert manager.retrain(TABLE) == "failed"

    def test_unmanaged_table_raises(self, tmp_path):
        service, manager, clock, _ = self._make(tmp_path)
        with pytest.raises(LifecycleError):
            manager.retrain("nope")

    def test_policy_validation(self):
        with pytest.raises(ConfigurationError):
            DriftPolicy(fallback_rate_threshold=0.0)
        with pytest.raises(ConfigurationError):
            DriftPolicy(backoff_multiplier=0.5)
        with pytest.raises(ConfigurationError):
            DriftPolicy(keep_versions=0)


# --------------------------------------------------------------------- #
# end-to-end drift recovery over a store-backed table
# --------------------------------------------------------------------- #
class TestEndToEndDriftRecovery:
    def test_fallback_rate_recovers_after_auto_retrain(self, tmp_path):
        rng = np.random.default_rng(42)
        surface = DriftingFunction(SineRidge(dimension=2), velocity=0.15)
        inputs = rng.uniform(0, 1, size=(4_000, 2))
        dataset = SyntheticDataset(
            inputs=inputs, outputs=surface(inputs), name=TABLE, domain=(0.0, 1.0)
        )
        from repro.dbms.storage import SQLiteDataStore

        with SQLiteDataStore(tmp_path / "drift.sqlite") as store:
            store.load_dataset(dataset)
            service = AnalyticsService(query_log_size=512)
            engine = service.register_table_from_store(store, TABLE)
            model = _train_model(engine, _workload(0.05, 0.45, 220, seed=1))
            service.swap_model(TABLE, model, version="v0")
            clock = ManualClock()
            manager = ModelManager(
                service,
                policy=DriftPolicy(
                    fallback_rate_threshold=0.3,
                    min_window_statements=30,
                    window_buckets=4,
                    cooldown_seconds=5.0,
                    min_retrain_queries=30,
                    probe_size=64,
                ),
                version_store=ModelVersionStore(tmp_path / "versions"),
                clock=clock,
            )
            manager.manage(TABLE, store=store)

            def serve(low, high, count, seed):
                before = service.statistics_for(TABLE).snapshot()
                statements = [_q1_text(q) for q in _workload(low, high, count, seed)]
                results = service.execute_script(statements, mode="hybrid")
                assert all(r.ok for r in results)
                after = service.statistics_for(TABLE)
                served = after.statements_executed - before.statements_executed
                fell = after.fallback_count - before.fallback_count
                return fell / served

            # Phase 1: traffic where the model was trained — healthy.
            pre_drift_rate = serve(0.05, 0.45, 60, seed=2)
            assert manager.tick()[TABLE] == "healthy"

            # Phase 2: the world moves — the surface drifts, new rows land
            # in the store, and the analysts move to the upper region.
            surface.advance(1.0)
            fresh_inputs = rng.uniform(0, 1, size=(2_000, 2))
            store.append_rows(TABLE, fresh_inputs, surface(fresh_inputs))
            drifted_rate = serve(0.55, 0.95, 80, seed=3)
            assert drifted_rate > 0.5  # the stale model is lost out here

            # Phase 3: the manager notices and retrains on recent traffic.
            assert manager.tick()[TABLE] == "retrained"
            assert service.model_for(TABLE) is not model
            assert manager.version_store.latest(TABLE) == 1
            # The refreshed engine serves the appended rows too.
            assert service.engine_for(TABLE) is not engine

            # Phase 4: the same drifted traffic is now covered again.
            recovered_rate = serve(0.55, 0.95, 80, seed=4)
            assert recovered_rate <= max(1.5 * pre_drift_rate, 0.1)
            assert manager.tick()[TABLE] in ("healthy", "cooldown", "no-traffic")


# --------------------------------------------------------------------- #
# hot-swap atomicity under concurrent serving
# --------------------------------------------------------------------- #
class TestConcurrentHotSwap:
    def test_sessions_keep_serving_through_repeated_swaps(self):
        from repro.dbms.executor import ExactQueryEngine

        engine = ExactQueryEngine(_linear_dataset())
        model_a = _train_model(engine, _workload(0.0, 1.0, 150, seed=1))
        model_b = _train_model(engine, _workload(0.0, 1.0, 150, seed=2))
        service = AnalyticsService(engines={TABLE: engine})
        service.swap_model(TABLE, model_a, version="a")
        statements = [_q1_text(q) for q in _workload(0.1, 0.9, 20, seed=9)]
        errors: list[BaseException] = []
        stop = threading.Event()

        def serve_loop():
            try:
                while not stop.is_set():
                    results = service.execute_script(statements, mode="hybrid")
                    for result in results:
                        assert result.ok, result.error
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        workers = [threading.Thread(target=serve_loop) for _ in range(4)]
        for worker in workers:
            worker.start()
        for index in range(60):
            model, version = (
                (model_b, "b") if index % 2 == 0 else (model_a, "a")
            )
            service.swap_model(TABLE, model, version=version)
        stop.set()
        for worker in workers:
            worker.join(timeout=30)
        assert not errors
        assert service.model_for(TABLE) in (model_a, model_b)
        assert service.statistics_for(TABLE).error_count == 0


# --------------------------------------------------------------------- #
# LifecycleScheduler
# --------------------------------------------------------------------- #
class TestLifecycleScheduler:
    def _manager(self) -> ModelManager:
        from repro.dbms.executor import ExactQueryEngine

        engine = ExactQueryEngine(_linear_dataset(500))
        model = _train_model(engine, _workload(0.0, 1.0, 60, seed=1))
        service = AnalyticsService(engines={TABLE: engine})
        service.swap_model(TABLE, model, version="v1")
        manager = ModelManager(service)
        manager.manage(TABLE)
        return manager

    def test_interval_must_be_positive(self):
        from repro.dbms.lifecycle import LifecycleScheduler

        with pytest.raises(ConfigurationError):
            LifecycleScheduler(self._manager(), interval_seconds=0.0)

    def test_start_stop_and_ticks(self):
        from repro.dbms.lifecycle import LifecycleScheduler

        scheduler = LifecycleScheduler(
            self._manager(), interval_seconds=0.005
        )
        assert not scheduler.running
        with scheduler:
            assert scheduler.running
            deadline = threading.Event()
            for _ in range(200):  # up to ~2 s for the first few ticks
                if scheduler.tick_count >= 2:
                    break
                deadline.wait(0.01)
        assert not scheduler.running
        assert scheduler.tick_count >= 2
        assert scheduler.last_statuses.get(TABLE) in (
            "no-traffic",
            "insufficient-traffic",
            "healthy",
        )
        # Idempotent stop; restart works after a stop.
        scheduler.stop()
        scheduler.start()
        assert scheduler.running
        scheduler.stop()
        assert not scheduler.running

    def test_start_is_idempotent_while_running(self):
        from repro.dbms.lifecycle import LifecycleScheduler

        scheduler = LifecycleScheduler(self._manager(), interval_seconds=0.01)
        try:
            assert scheduler.start() is scheduler
            thread_before = scheduler._thread
            scheduler.start()
            assert scheduler._thread is thread_before
        finally:
            scheduler.stop()

    def test_exception_containment_publishes_and_keeps_running(self):
        from repro.dbms.lifecycle import LifecycleScheduler

        manager = self._manager()
        recorder = RecordingObserver()
        manager.service.observers.subscribe(recorder)
        boom = {"count": 0}
        original_tick = manager.tick

        def flaky_tick(now=None):
            boom["count"] += 1
            if boom["count"] <= 2:
                raise RuntimeError("injected tick failure")
            return original_tick(now)

        manager.tick = flaky_tick
        scheduler = LifecycleScheduler(manager, interval_seconds=0.005)
        with scheduler:
            for _ in range(400):
                if scheduler.tick_count >= 1:
                    break
                threading.Event().wait(0.01)
        # Both failures were contained (loop survived them to tick cleanly)
        # and surfaced as scheduler.error events.
        assert scheduler.error_count == 2
        assert scheduler.tick_count >= 1
        errors = recorder.of_kind("scheduler.error")
        assert len(errors) == 2
        assert "injected tick failure" in str(errors[0].payload["error"])


# --------------------------------------------------------------------- #
# Answer-cache correctness under hot-swap (concurrent front)
# --------------------------------------------------------------------- #
class TestCacheUnderHotSwap:
    def test_no_stale_cached_answer_across_swap_and_rollback(self):
        """Readers hammer the cached front while a swapper flips models.

        The invariant under test: a statement served *after* a swap
        commits must answer from the swapped-in model — never from a
        cached answer of the previous version.  Swapping back to a
        previously-live version marker (``"a"``) is exactly the rollback
        shape where version-only cache keys would go stale; the registry
        epoch in the key is what must keep it correct.
        """
        from repro.dbms.concurrent import ConcurrentAnalyticsService
        from repro.dbms.executor import ExactQueryEngine

        engine = ExactQueryEngine(_linear_dataset())
        model_a = _train_model(engine, _workload(0.0, 1.0, 150, seed=1))
        model_b = _train_model(engine, _workload(0.0, 1.0, 150, seed=2))
        service = AnalyticsService(engines={TABLE: engine})
        service.swap_model(TABLE, model_a, version="a")
        queries = _workload(0.2, 0.8, 12, seed=9)
        statements = [_q1_text(q) for q in queries]
        # Per-model ground truth through a plain sequential service.
        expected: dict[str, list[float]] = {}
        for version, model in (("a", model_a), ("b", model_b)):
            probe = AnalyticsService(engines={TABLE: engine})
            probe.swap_model(TABLE, model, version=version)
            expected[version] = [
                r.value for r in probe.execute_script(statements, mode="model")
            ]
        # The two models must genuinely disagree somewhere, or staleness
        # would be invisible.
        assert expected["a"] != expected["b"]

        front = ConcurrentAnalyticsService(service)
        stop = threading.Event()
        reader_errors: list[BaseException] = []

        def reader_loop():
            try:
                while not stop.is_set():
                    results = front.execute_script(statements, mode="model")
                    for result, value_a, value_b in zip(
                        results, expected["a"], expected["b"]
                    ):
                        # Any answer must be one model's answer, whole.
                        assert result.ok, result.error
                        assert result.value in (value_a, value_b)
            except BaseException as exc:  # pragma: no cover - failure path
                reader_errors.append(exc)

        readers = [threading.Thread(target=reader_loop) for _ in range(3)]
        try:
            for reader in readers:
                reader.start()
            for index in range(30):
                version = "b" if index % 2 == 0 else "a"
                model = model_b if version == "b" else model_a
                front.swap_model(TABLE, model, version=version)
                # The post-swap check: this thread is the only swapper, so
                # the current model is pinned until it swaps again — every
                # answer (cached or not) must be the swapped-in model's.
                results = front.execute_script(statements, mode="model")
                for result, want in zip(results, expected[version]):
                    assert result.ok, result.error
                    assert result.value == want, (
                        f"stale answer after swap to {version!r}"
                    )
        finally:
            stop.set()
            for reader in readers:
                reader.join(timeout=30)
            front.close()
        assert not reader_errors
