"""Fault-injection tests: the serving tier degrades instead of dying.

Covers the deterministic injector itself, per-group fault containment in
``execute_script``, transient retry with backoff, circuit-breaker state
transitions, corrupt-model-file recovery, mid-swap
crash consistency of the lifecycle manager, and (under ``REPRO_FAULT_SOAK``)
a full fault-matrix soak.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.config import ModelConfig, TrainingConfig
from repro.core.model import LLMModel
from repro.core.persistence import load_model, save_model
from repro.core.training import StreamingTrainer
from repro.data.synthetic import SyntheticDataset
from repro.dbms.executor import ExactQueryEngine
from repro.dbms.lifecycle import DriftPolicy, ModelManager, ModelVersionStore
from repro.dbms.resilience import CircuitBreaker, DegradationPolicy
from repro.dbms.serving import AnalyticsService
from repro.exceptions import (
    CircuitOpenError,
    InjectedFaultError,
    ModelPersistenceError,
    SQLSyntaxError,
    TransientEngineError,
)
from repro.queries.stream import LabelledWorkload
from repro.queries.workload import (
    QueryWorkloadGenerator,
    RadiusDistribution,
    WorkloadSpec,
)
from repro.testing import (
    FaultInjector,
    FaultyEngine,
    FaultyModel,
    RecordingObserver,
    corrupt_model_file,
)
from repro.testing.faults import CORRUPTION_MODES
from repro.testing.oracle import ExactOracle

# Every scenario ends with each service's statistics partitioning its
# statements by answer source (the fixture lives in conftest.py).
pytestmark = pytest.mark.usefixtures("statistics_partition")

TABLE = "sensors"


def _dataset(size: int = 3_000, seed: int = 0, name: str = TABLE) -> SyntheticDataset:
    rng = np.random.default_rng(seed)
    inputs = rng.uniform(0, 1, size=(size, 2))
    outputs = 1.0 + inputs[:, 0] + 2.0 * inputs[:, 1]
    return SyntheticDataset(inputs=inputs, outputs=outputs, name=name, domain=(0.0, 1.0))


def _train_model(
    engine: ExactQueryEngine,
    *,
    center_low: float = 0.0,
    center_high: float = 1.0,
    count: int = 250,
) -> LLMModel:
    spec = WorkloadSpec(
        dimension=2,
        center_low=center_low,
        center_high=center_high,
        radius=RadiusDistribution(mean=0.1, std=0.02),
    )
    queries = QueryWorkloadGenerator(spec, seed=1).generate(count)
    workload = LabelledWorkload.from_engine(queries, engine)
    model = LLMModel(
        dimension=2,
        config=ModelConfig(quantization_coefficient=0.15),
        training=TrainingConfig(convergence_threshold=1e-4),
    )
    model.fit(workload)
    return model


@pytest.fixture(scope="module")
def base_engine() -> ExactQueryEngine:
    return ExactQueryEngine(_dataset())


@pytest.fixture(scope="module")
def full_model(base_engine) -> LLMModel:
    return _train_model(base_engine)


@pytest.fixture(scope="module")
def half_model(base_engine) -> LLMModel:
    """Trained only on the lower-left region: real coverage gaps."""
    return _train_model(base_engine, center_high=0.45)


class ManualClock:
    """A hand-cranked monotonic clock for deterministic breaker tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _q1(x: float, y: float, radius: float = 0.1, table: str = TABLE) -> str:
    return f"SELECT AVG(u) FROM {table} WITHIN {radius!r} OF ({x!r}, {y!r})"


# --------------------------------------------------------------------- #
# the injector itself
# --------------------------------------------------------------------- #
class TestFaultInjector:
    def test_unarmed_point_is_a_no_op(self):
        injector = FaultInjector()
        injector.fire("nothing.here")  # must not raise
        assert injector.fired_count("nothing.here") == 0

    def test_armed_error_fires_with_context(self):
        injector = FaultInjector()
        injector.arm("p", error=InjectedFaultError)
        with pytest.raises(InjectedFaultError) as excinfo:
            injector.fire("p", batch=7)
        assert excinfo.value.fault_context == {"batch": 7}
        assert injector.fired_count("p") == 1

    def test_times_and_after_scheduling(self):
        injector = FaultInjector()
        injector.arm("p", error=RuntimeError, times=2, after=1)
        injector.fire("p")  # skipped (after=1)
        with pytest.raises(RuntimeError):
            injector.fire("p")
        with pytest.raises(RuntimeError):
            injector.fire("p")
        injector.fire("p")  # exhausted
        assert injector.fired_count("p") == 2

    def test_error_instance_is_raised_verbatim(self):
        injector = FaultInjector()
        sentinel = ValueError("exact instance")
        injector.arm("p", error=sentinel)
        with pytest.raises(ValueError) as excinfo:
            injector.fire("p")
        assert excinfo.value is sentinel

    def test_disarm(self):
        injector = FaultInjector()
        injector.arm("p", error=RuntimeError, times=None)
        injector.disarm("p")
        injector.fire("p")
        injector.arm("a", error=RuntimeError)
        injector.arm("b", error=RuntimeError)
        injector.disarm()
        injector.fire("a")
        injector.fire("b")

    def test_delay_only_fault_sleeps_without_raising(self):
        injector = FaultInjector()
        injector.arm("p", error=None, delay_seconds=0.01)
        injector.fire("p")  # no raise


# --------------------------------------------------------------------- #
# per-group containment (the script keeps serving)
# --------------------------------------------------------------------- #
class TestGroupContainment:
    def _two_table_service(self, base_engine, injector):
        other = ExactQueryEngine(_dataset(seed=3, name="other"))
        service = AnalyticsService(
            engines={
                TABLE: FaultyEngine(base_engine, injector, name="sick"),
                "other": other,
            }
        )
        return service

    def test_one_groups_failure_spares_the_rest(self, base_engine):
        injector = FaultInjector()
        service = self._two_table_service(base_engine, injector)
        injector.arm("sick.q1_batch", error=RuntimeError, times=None)
        results = service.execute_script(
            [_q1(0.4, 0.4), _q1(0.5, 0.5, table="other"), _q1(0.6, 0.6)],
            mode="exact",
        )
        assert results[0].source == "error" and isinstance(
            results[0].error, RuntimeError
        )
        assert results[2].source == "error"
        assert results[1].source == "exact" and results[1].ok
        dataset = service.engine_for("other").dataset
        assert results[1].value == pytest.approx(
            ExactOracle(dataset.inputs, dataset.outputs).mean(
                results[1].statement.to_query(2.0)
            )
        )

    def test_error_results_are_counted_in_statistics(self, base_engine):
        injector = FaultInjector()
        service = self._two_table_service(base_engine, injector)
        injector.arm("sick.q1_batch", error=RuntimeError, times=None)
        service.execute_script([_q1(0.4, 0.4), _q1(0.6, 0.6)], mode="exact")
        stats = service.statistics_for(TABLE)
        assert stats.error_count == 2
        assert stats.error_rate == 1.0

    def test_on_error_raise_propagates(self, base_engine):
        injector = FaultInjector()
        service = self._two_table_service(base_engine, injector)
        injector.arm("sick.q1_batch", error=RuntimeError)
        with pytest.raises(RuntimeError):
            service.execute_script([_q1(0.4, 0.4)], mode="exact", on_error="raise")

    def test_caller_errors_still_abort_the_script(self, base_engine):
        service = AnalyticsService(engines={TABLE: base_engine})
        with pytest.raises(SQLSyntaxError):
            service.execute_script(
                [_q1(0.4, 0.4, table="missing")], mode="exact"
            )

    def test_single_statement_execute_reraises_attached_error(self, base_engine):
        injector = FaultInjector()
        service = self._two_table_service(base_engine, injector)
        injector.arm("sick.q1_batch", error=RuntimeError, times=None)
        with pytest.raises(RuntimeError):
            service.execute(_q1(0.4, 0.4), mode="exact")


# --------------------------------------------------------------------- #
# transient retry
# --------------------------------------------------------------------- #
class TestTransientRetry:
    def test_transient_failures_are_retried_to_success(self, base_engine):
        injector = FaultInjector()
        faulty = FaultyEngine(base_engine, injector, name="flaky")
        service = AnalyticsService(
            engines={TABLE: faulty},
            degradation=DegradationPolicy(max_attempts=3, backoff_seconds=0.0),
        )
        injector.arm("flaky.q1_batch", error=TransientEngineError, times=2)
        results = service.execute_script([_q1(0.5, 0.5)], mode="exact")
        assert results[0].ok and results[0].source == "exact"
        assert service.statistics_for(TABLE).retry_count == 2

    def test_transient_budget_exhaustion_attaches_the_error(self, base_engine):
        injector = FaultInjector()
        faulty = FaultyEngine(base_engine, injector, name="flaky")
        service = AnalyticsService(
            engines={TABLE: faulty},
            degradation=DegradationPolicy(max_attempts=2, backoff_seconds=0.0),
        )
        injector.arm("flaky.q1_batch", error=TransientEngineError, times=None)
        results = service.execute_script([_q1(0.5, 0.5)], mode="exact")
        assert results[0].source == "error"
        assert isinstance(results[0].error, TransientEngineError)

    def test_streaming_trainer_retries_transient_chunks(self, base_engine):
        injector = FaultInjector()
        faulty = FaultyEngine(base_engine, injector, name="train")
        model = LLMModel(dimension=2)
        trainer = StreamingTrainer(
            model, faulty, max_engine_retries=2, retry_backoff_seconds=0.0
        )
        injector.arm("train.q1_batch", error=TransientEngineError, times=2)
        spec = WorkloadSpec(
            dimension=2, center_low=0.0, center_high=1.0,
            radius=RadiusDistribution(mean=0.1, std=0.02),
        )
        queries = QueryWorkloadGenerator(spec, seed=2).generate(40)
        breakdown = trainer.train(queries, batch_size=20)
        assert breakdown.pairs_processed > 0
        assert model.is_fitted

    def test_streaming_trainer_fail_fast_without_budget(self, base_engine):
        injector = FaultInjector()
        faulty = FaultyEngine(base_engine, injector, name="train")
        trainer = StreamingTrainer(LLMModel(dimension=2), faulty)
        injector.arm("train.q1_batch", error=TransientEngineError)
        spec = WorkloadSpec(
            dimension=2, center_low=0.0, center_high=1.0,
            radius=RadiusDistribution(mean=0.1, std=0.02),
        )
        queries = QueryWorkloadGenerator(spec, seed=2).generate(10)
        with pytest.raises(TransientEngineError):
            trainer.train(queries, batch_size=10)


# --------------------------------------------------------------------- #
# circuit breakers and tier degradation
# --------------------------------------------------------------------- #
class TestCircuitBreaker:
    def test_state_machine(self):
        clock = ManualClock()
        breaker = CircuitBreaker(2, 10.0, clock)
        assert breaker.state == CircuitBreaker.CLOSED and breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN and not breaker.allow()
        clock.advance(10.0)
        assert breaker.state == CircuitBreaker.HALF_OPEN and breaker.allow()
        breaker.record_failure()  # failed probe re-opens immediately
        assert breaker.state == CircuitBreaker.OPEN
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_hybrid_survives_model_tier_failure(self, base_engine, full_model):
        injector = FaultInjector()
        service = AnalyticsService(
            engines={TABLE: base_engine},
            models={TABLE: FaultyModel(full_model, injector, name="m")},
            degradation=DegradationPolicy(max_attempts=1, backoff_seconds=0.0),
        )
        injector.arm("m.predict", error=RuntimeError, times=None)
        results = service.execute_script([_q1(0.5, 0.5)], mode="hybrid")
        assert results[0].ok and results[0].degraded
        assert results[0].source == "fallback"
        exact = ExactOracle(
            base_engine.dataset.inputs, base_engine.dataset.outputs
        ).mean(results[0].statement.to_query(2.0))
        assert results[0].value == pytest.approx(exact)
        assert service.statistics_for(TABLE).degraded_count == 1

    def test_hybrid_survives_exact_tier_failure(self, base_engine, half_model):
        injector = FaultInjector()
        service = AnalyticsService(
            engines={TABLE: FaultyEngine(base_engine, injector, name="e")},
            models={TABLE: half_model},
            degradation=DegradationPolicy(max_attempts=1, backoff_seconds=0.0),
        )
        injector.arm("e.q1_batch", error=RuntimeError, times=None)
        # Far corner the half model never saw: would normally fall back.
        results = service.execute_script([_q1(0.9, 0.9)], mode="hybrid")
        assert results[0].ok and results[0].degraded
        assert results[0].source == "model"  # extrapolated, not exact
        assert isinstance(results[0].value, float)

    def test_breaker_opens_and_sheds_to_surviving_tier(
        self, base_engine, full_model
    ):
        clock = ManualClock()
        injector = FaultInjector()
        observer = RecordingObserver()
        service = AnalyticsService(
            engines={TABLE: FaultyEngine(base_engine, injector, name="e")},
            models={TABLE: full_model},
            degradation=DegradationPolicy(
                max_attempts=1,
                backoff_seconds=0.0,
                breaker_failure_threshold=2,
                breaker_reset_seconds=30.0,
            ),
            clock=clock,
        )
        service.observers.subscribe(observer)
        injector.arm("e.q1_batch", error=RuntimeError, times=2)
        for _ in range(2):
            results = service.execute_script([_q1(0.5, 0.5)], mode="exact")
            assert results[0].source == "error"
        opened = observer.of_kind("breaker.opened")
        assert [(e.table, e.payload["tier"]) for e in opened] == [(TABLE, "exact")]
        # Exact-mode groups now shed immediately with a typed error...
        results = service.execute_script([_q1(0.5, 0.5)], mode="exact")
        assert isinstance(results[0].error, CircuitOpenError)
        # ...while hybrid groups keep answering from the model tier.
        results = service.execute_script([_q1(0.5, 0.5)], mode="hybrid")
        assert results[0].ok and results[0].source == "model"
        # After the reset window a healthy probe closes the breaker.
        clock.advance(30.0)
        results = service.execute_script([_q1(0.5, 0.5)], mode="exact")
        assert results[0].ok and results[0].source == "exact"
        closed = observer.of_kind("breaker.closed")
        assert [(e.table, e.payload["tier"]) for e in closed] == [(TABLE, "exact")]


# --------------------------------------------------------------------- #
# corrupt model files
# --------------------------------------------------------------------- #
class TestCorruptModelFiles:
    @pytest.mark.parametrize("mode", CORRUPTION_MODES)
    def test_corrupt_file_raises_typed_error_and_spares_registry(
        self, tmp_path, base_engine, full_model, half_model, mode
    ):
        path = tmp_path / "model.json"
        save_model(full_model, path)
        corrupt_model_file(path, mode)
        service = AnalyticsService(
            engines={TABLE: base_engine}, models={TABLE: half_model}
        )
        with pytest.raises(ModelPersistenceError) as excinfo:
            service.register_model(TABLE, load_model(path))
        assert excinfo.value.path == path
        if mode == "bad_version":
            assert excinfo.value.format_version == 9999
        # The registry still serves the model that was there before.
        assert service.model_for(TABLE) is half_model

    def test_missing_file_raises_typed_error(self, tmp_path, base_engine):
        service = AnalyticsService(engines={TABLE: base_engine})
        with pytest.raises(ModelPersistenceError):
            service.register_model(TABLE, load_model(tmp_path / "nope.json"))


# --------------------------------------------------------------------- #
# mid-swap crash consistency
# --------------------------------------------------------------------- #
def _managed_service(base_engine, full_model, tmp_path, injector, **policy_kwargs):
    service = AnalyticsService(engines={TABLE: base_engine})
    service.swap_model(TABLE, full_model, version="v-old")
    # Warm the recent-query log so a retrain has a stream to train on.
    spec = WorkloadSpec(
        dimension=2, center_low=0.0, center_high=1.0,
        radius=RadiusDistribution(mean=0.12, std=0.02),
    )
    for query in QueryWorkloadGenerator(spec, seed=7).generate(80):
        service.query_log_for(TABLE).record(query)
    defaults = dict(
        min_retrain_queries=16, probe_size=32, cooldown_seconds=1.0,
        min_window_statements=1, window_buckets=4,
    )
    defaults.update(policy_kwargs)
    manager = ModelManager(
        service,
        policy=DriftPolicy(**defaults),
        version_store=ModelVersionStore(tmp_path / "versions"),
        injector=injector,
        clock=ManualClock(),
    )
    manager.manage(TABLE)
    return service, manager


class TestSwapCrashConsistency:
    @pytest.mark.parametrize("point", ModelManager.FAULT_POINTS)
    def test_crash_at_any_point_leaves_old_model_serving(
        self, tmp_path, base_engine, full_model, point
    ):
        injector = FaultInjector()
        service, manager = _managed_service(
            base_engine, full_model, tmp_path, injector
        )
        observer = RecordingObserver()
        service.observers.subscribe(observer)
        injector.arm(point, error=InjectedFaultError)
        status = manager.retrain(TABLE)
        assert status == "failed"
        assert service.model_for(TABLE) is full_model
        assert service.model_version_for(TABLE) == "v-old"
        assert observer.of_kind("retrain.failed")
        # Serving still works end to end after the crashed swap.
        result = service.execute_script([_q1(0.5, 0.5)], mode="hybrid")[0]
        assert result.ok

    def test_crash_then_clean_retry_succeeds(
        self, tmp_path, base_engine, full_model
    ):
        injector = FaultInjector()
        service, manager = _managed_service(
            base_engine, full_model, tmp_path, injector
        )
        injector.arm("lifecycle.pre_swap", error=InjectedFaultError, times=1)
        assert manager.retrain(TABLE) == "failed"
        status = manager.retrain(TABLE)
        assert status in ("retrained", "rolled_back")
        if status == "retrained":
            assert service.model_for(TABLE) is not full_model


# --------------------------------------------------------------------- #
# fault-matrix soak (scaled up under REPRO_FAULT_SOAK=1 in CI)
# --------------------------------------------------------------------- #
_SOAK = os.environ.get("REPRO_FAULT_SOAK", "") not in ("", "0")


class TestFaultMatrixSoak:
    @pytest.mark.parametrize(
        "engine_error",
        [RuntimeError, TransientEngineError, InjectedFaultError]
        if _SOAK
        else [TransientEngineError],
    )
    @pytest.mark.parametrize("swap_point", ModelManager.FAULT_POINTS if _SOAK else ModelManager.FAULT_POINTS[:1])
    @pytest.mark.parametrize("corruption", CORRUPTION_MODES if _SOAK else CORRUPTION_MODES[:1])
    def test_no_fault_combination_crashes_or_corrupts(
        self,
        tmp_path,
        base_engine,
        full_model,
        engine_error,
        swap_point,
        corruption,
    ):
        injector = FaultInjector()
        faulty = FaultyEngine(base_engine, injector, name="soak")
        service = AnalyticsService(
            engines={TABLE: faulty},
            models={TABLE: full_model},
            degradation=DegradationPolicy(max_attempts=2, backoff_seconds=0.0),
        )
        service.swap_model(TABLE, full_model, version="v-old")
        spec = WorkloadSpec(
            dimension=2, center_low=0.0, center_high=1.0,
            radius=RadiusDistribution(mean=0.12, std=0.02),
        )
        for query in QueryWorkloadGenerator(spec, seed=11).generate(60):
            service.query_log_for(TABLE).record(query)
        manager = ModelManager(
            service,
            policy=DriftPolicy(min_retrain_queries=16, probe_size=16),
            version_store=ModelVersionStore(tmp_path / "versions"),
            injector=injector,
            clock=ManualClock(),
        )
        manager.manage(TABLE)

        # 1. Engine faults mid-traffic: every statement answers or errors.
        injector.arm("soak.q1_batch", error=engine_error, times=3)
        rng = np.random.default_rng(5)
        for _ in range(4):
            x, y = rng.uniform(0.1, 0.9, size=2)
            results = service.execute_script(
                [_q1(round(float(x), 3), round(float(y), 3))], mode="hybrid"
            )
            for result in results:
                assert result.ok or result.error is not None
        injector.disarm("soak.q1_batch")

        # 2. A mid-swap crash must leave the old model serving.
        injector.arm(swap_point, error=InjectedFaultError, times=1)
        assert manager.retrain(TABLE) == "failed"
        assert service.model_for(TABLE) is full_model

        # 3. A corrupt file on disk must not reach the registry.
        path = tmp_path / "damaged.json"
        save_model(full_model, path)
        corrupt_model_file(path, corruption)
        with pytest.raises(ModelPersistenceError):
            service.register_model(TABLE, load_model(path))
        assert service.model_for(TABLE) is full_model

        # 4. And the service still serves cleanly afterwards.
        result = service.execute_script([_q1(0.5, 0.5)], mode="hybrid")[0]
        assert result.ok
