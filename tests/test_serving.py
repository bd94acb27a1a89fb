"""Tests for the model-backed batched serving layer (`repro.dbms.serving`)."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.config import ModelConfig, TrainingConfig
from repro.core.model import LLMModel
from repro.data.synthetic import SyntheticDataset
from repro.dbms.executor import ExactQueryEngine
from repro.dbms.serving import AnalyticsService, StatementResult
from repro.dbms.sqlfront import AnalyticsSession, parse_statement
from repro.dbms.stats import LatencyHistogram, ServingStatistics
from repro.dbms.storage import SQLiteDataStore
from repro.exceptions import (
    ConfigurationError,
    EmptySubspaceError,
    SQLSyntaxError,
)
from repro.queries.query import Query
from repro.queries.stream import LabelledWorkload
from repro.queries.workload import (
    QueryWorkloadGenerator,
    RadiusDistribution,
    WorkloadSpec,
)
from repro.testing.oracle import ExactOracle, ModelOracle

TABLE = "sensors"
FIXTURES = Path(__file__).parent / "fixtures"


def _dataset(size: int = 4_000, seed: int = 0) -> SyntheticDataset:
    rng = np.random.default_rng(seed)
    inputs = rng.uniform(0, 1, size=(size, 2))
    outputs = 1.0 + inputs[:, 0] + 2.0 * inputs[:, 1]
    return SyntheticDataset(
        inputs=inputs, outputs=outputs, name=TABLE, domain=(0.0, 1.0)
    )


def _train_model(
    engine: ExactQueryEngine,
    *,
    center_high: float = 1.0,
    norm_order: float = 2.0,
    count: int = 300,
) -> LLMModel:
    spec = WorkloadSpec(
        dimension=2,
        center_low=0.0,
        center_high=center_high,
        radius=RadiusDistribution(mean=0.1, std=0.02),
        norm_order=norm_order,
    )
    queries = QueryWorkloadGenerator(spec, seed=1).generate(count)
    workload = LabelledWorkload.from_engine(queries, engine)
    model = LLMModel(
        dimension=2,
        config=ModelConfig(quantization_coefficient=0.15, norm_order=norm_order),
        training=TrainingConfig(convergence_threshold=1e-4),
    )
    model.fit(workload)
    return model


@pytest.fixture(scope="module")
def engine() -> ExactQueryEngine:
    return ExactQueryEngine(_dataset())


@pytest.fixture(scope="module")
def half_model(engine) -> LLMModel:
    """A model trained only on the left part of the cube: coverage gaps."""
    return _train_model(engine, center_high=0.45)


@pytest.fixture(scope="module")
def full_model(engine) -> LLMModel:
    return _train_model(engine, center_high=1.0)


@pytest.fixture(scope="module")
def exact(engine) -> ExactOracle:
    """Brute-force reference for every exact answer the service gives."""
    return ExactOracle(engine.dataset.inputs, engine.dataset.outputs)


@pytest.fixture(scope="module")
def half_oracle(half_model) -> ModelOracle:
    """Brute-force reference for every model answer of ``half_model``."""
    return ModelOracle(half_model.local_maps)


@pytest.fixture()
def service(engine, half_model) -> AnalyticsService:
    service = AnalyticsService()
    service.register_engine(TABLE, engine)
    service.register_model(TABLE, half_model)
    return service


def _mixed_statements(count: int = 60) -> list[str]:
    """Statements spanning the covered left region and the uncovered right."""
    rng = np.random.default_rng(7)
    statements = []
    for index in range(count):
        x = rng.uniform(0.1, 0.9)
        y = rng.uniform(0.1, 0.9)
        radius = rng.uniform(0.08, 0.15)
        kind = ("AVG(u)", "REGRESSION(u)", "COUNT(*)")[index % 3]
        statements.append(
            f"SELECT {kind} FROM {TABLE} WITHIN {radius!r} OF ({x!r}, {y!r})"
        )
    return statements


class TestServingStatistics:
    def test_record_batch_and_rates(self):
        stats = ServingStatistics()
        stats.record_batch(
            10, model_answered=7, exact_answered=1, fallbacks=2, empties=1, seconds=0.5
        )
        assert stats.statements_executed == 10
        assert stats.batches_executed == 1
        assert stats.fallback_rate == pytest.approx(0.2)
        # Without per-statement latencies the amortised share is recorded.
        assert stats.latency.total_count == 10
        assert stats.p50_seconds == pytest.approx(0.05, rel=0.35)

    def test_zero_count_batch_ignored(self):
        stats = ServingStatistics()
        stats.record_batch(0, seconds=1.0)
        assert stats.statements_executed == 0
        assert stats.fallback_rate == 0.0
        assert stats.latency.total_count == 0

    def test_merge_adds_counters_and_histograms(self):
        first = ServingStatistics()
        first.record_batch(4, model_answered=4, seconds=0.4)
        second = ServingStatistics()
        second.record_batch(6, fallbacks=6, seconds=0.06)
        first.merge(second)
        assert first.statements_executed == 10
        assert first.batches_executed == 2
        assert first.fallback_count == 6
        assert first.latency.total_count == 10
        assert second.statements_executed == 6  # the donor is untouched

    def test_record_results_partitions_by_source(self):
        statement = parse_statement(
            f"SELECT AVG(u) FROM {TABLE} WITHIN 0.1 OF (0.5, 0.5)"
        )
        results = [
            StatementResult(statement, 1.0, "model"),
            StatementResult(statement, 1.0, "model"),
            StatementResult(statement, None, "exact", empty=True),
            StatementResult(statement, 1.0, "fallback", degraded=True),
            StatementResult(statement, None, "error", error=RuntimeError("x")),
        ]
        stats = ServingStatistics()
        stats.record_results(results, retries=2, seconds=0.5)
        assert (
            stats.model_answered,
            stats.exact_answered,
            stats.fallback_count,
            stats.error_count,
        ) == (2, 1, 1, 1)
        assert stats.statements_executed == 5
        assert (stats.empty_count, stats.degraded_count) == (1, 1)
        assert stats.retry_count == 2

    def test_from_dict_loads_a_payload_with_wall_clock_keys(self):
        # Written by a version that also kept wall-clock totals and extrema.
        path = FIXTURES / "serving_statistics_with_wallclock_keys.json"
        payload = json.loads(path.read_text())
        restored = ServingStatistics.from_dict(payload)
        kept = restored.to_dict()
        assert kept == {key: payload[key] for key in kept}
        assert restored.statements_executed == 10
        assert restored.cache_hits == 4
        assert restored.latency.total_count == 10


class TestRegistry:
    def test_tables_and_lookup_errors(self, engine, half_model):
        service = AnalyticsService(engines={"a": engine}, models={"b": half_model})
        assert service.tables == ["a", "b"]
        with pytest.raises(SQLSyntaxError):
            service.engine_for("b")
        with pytest.raises(SQLSyntaxError):
            service.model_for("a")

    def test_registers_a_model_loaded_from_file(
        self, tmp_path, engine, half_model, half_oracle
    ):
        from repro.core.persistence import load_model, save_model

        path = save_model(half_model, tmp_path / "model.json")
        service = AnalyticsService(engines={TABLE: engine})
        loaded = load_model(path)
        service.register_model(TABLE, loaded)
        query = Query(center=np.array([0.2, 0.3]), radius=0.1)
        assert loaded.predict_mean(query) == half_model.predict_mean(query)
        value = service.execute(
            f"SELECT AVG(u) FROM {TABLE} WITHIN 0.1 OF (0.2, 0.3)", mode="model"
        )
        assert value == pytest.approx(half_oracle.predict_mean(query), abs=1e-12)

    def test_register_table_from_store(self, engine):
        dataset = _dataset(size=500, seed=3)
        with SQLiteDataStore() as store:
            store.load_dataset(dataset, "stored")
            service = AnalyticsService()
            built = service.register_table_from_store(store, "stored", table=TABLE)
            assert built.size == dataset.size
            count = service.execute(
                f"SELECT COUNT(*) FROM {TABLE} WITHIN 0.3 OF (0.5, 0.5)",
                mode="exact",
            )
        reference = ExactOracle(dataset.inputs, dataset.outputs).count(
            Query(center=np.array([0.5, 0.5]), radius=0.3)
        )
        assert count == reference


class TestNormResolution:
    def test_defaults_to_euclidean_without_model(self, engine):
        service = AnalyticsService(engines={TABLE: engine})
        assert service.resolve_norm_order(TABLE) == 2.0

    def test_model_pins_the_table_geometry(self, engine):
        model = _train_model(engine, norm_order=1.0, count=150)
        service = AnalyticsService(engines={TABLE: engine}, models={TABLE: model})
        assert service.resolve_norm_order(TABLE) == 1.0
        # The model-side answer must be computed under the model's L1
        # geometry, not a hard-coded Euclidean ball.
        statement = parse_statement(
            f"SELECT AVG(u) FROM {TABLE} WITHIN 0.1 OF (0.4, 0.4)"
        )
        value = service.execute(statement, mode="model")
        l1_query = Query(center=np.array([0.4, 0.4]), radius=0.1, norm_order=1.0)
        expected = ModelOracle(model.local_maps).predict_mean(l1_query)
        assert value == pytest.approx(expected, abs=1e-12)

    def test_explicit_norm_clause_wins(self, engine, half_model, exact):
        service = AnalyticsService(engines={TABLE: engine}, models={TABLE: half_model})
        statement = parse_statement(
            f"SELECT COUNT(*) FROM {TABLE} WITHIN 0.1 OF (0.5, 0.5) NORM INF"
        )
        count = service.execute(statement, mode="exact")
        chebyshev = Query(
            center=np.array([0.5, 0.5]), radius=0.1, norm_order=float("inf")
        )
        assert count == exact.count(chebyshev)
        assert count > exact.count(chebyshev.with_norm_order(2.0))


class TestExactMode:
    def test_script_matches_per_query_engine(self, service, half_model, exact):
        statements = _mixed_statements(30)
        results = service.execute_script(statements, mode="exact")
        assert all(result.source == "exact" for result in results)
        order = half_model.config.norm_order
        for result in results:
            query = result.statement.to_query(order)
            if result.kind == "q1":
                assert result.value == pytest.approx(exact.mean(query), abs=1e-12)
            elif result.kind == "count":
                assert result.value == exact.count(query)
            else:
                coefficients = exact.q2(query)
                intercept, slope = result.value[0]
                assert intercept == pytest.approx(coefficients[0], abs=1e-9)
                assert np.allclose(slope, coefficients[1:], atol=1e-9)

    def test_exact_requires_engine(self, half_model):
        service = AnalyticsService(models={TABLE: half_model})
        with pytest.raises(SQLSyntaxError):
            service.execute(
                f"SELECT AVG(u) FROM {TABLE} WITHIN 0.1 OF (0.5, 0.5)", mode="exact"
            )

    def test_empty_subspace_script_contract(self, service):
        results = service.execute_script(
            [
                f"SELECT AVG(u) FROM {TABLE} WITHIN 0.001 OF (5.0, 5.0)",
                f"SELECT REGRESSION(u) FROM {TABLE} WITHIN 0.001 OF (5.0, 5.0)",
                f"SELECT COUNT(*) FROM {TABLE} WITHIN 0.001 OF (5.0, 5.0)",
            ],
            mode="exact",
        )
        assert results[0].value is None and results[0].empty
        assert results[1].value is None and results[1].empty
        # A count over an empty subspace is a defined answer: 0.
        assert results[2].value == 0 and not results[2].empty

    def test_empty_subspace_single_statement_raises_cleanly(self, service):
        for projection in ("AVG(u)", "REGRESSION(u)"):
            with pytest.raises(EmptySubspaceError):
                service.execute(
                    f"SELECT {projection} FROM {TABLE} WITHIN 0.001 OF (5.0, 5.0)",
                    mode="exact",
                )
        assert (
            service.execute(
                f"SELECT COUNT(*) FROM {TABLE} WITHIN 0.001 OF (5.0, 5.0)",
                mode="exact",
            )
            == 0
        )


class TestModelMode:
    def test_count_rejected(self, service):
        with pytest.raises(SQLSyntaxError):
            service.execute(
                f"SELECT COUNT(*) FROM {TABLE} WITHIN 0.1 OF (0.2, 0.2)", mode="model"
            )

    def test_model_required(self, engine):
        service = AnalyticsService(engines={TABLE: engine})
        with pytest.raises(SQLSyntaxError):
            service.execute(
                f"SELECT AVG(u) FROM {TABLE} WITHIN 0.1 OF (0.2, 0.2)", mode="model"
            )

    def test_q1_and_q2_match_model_batches(self, service, half_model, half_oracle):
        statements = [
            f"SELECT AVG(u) FROM {TABLE} WITHIN 0.1 OF (0.2, 0.2)",
            f"SELECT REGRESSION(u) FROM {TABLE} WITHIN 0.1 OF (0.3, 0.25)",
        ]
        results = service.execute_script(statements, mode="model")
        q1_query = results[0].statement.to_query(half_model.config.norm_order)
        assert results[0].value == pytest.approx(
            half_oracle.predict_mean(q1_query), abs=1e-12
        )
        q2_query = results[1].statement.to_query(half_model.config.norm_order)
        planes = half_oracle.regression_models(q2_query)
        assert len(results[1].value) == len(planes)
        for (intercept, slope), plane in zip(results[1].value, planes):
            assert intercept == pytest.approx(plane.intercept, abs=1e-12)
            assert np.allclose(slope, plane.slope, atol=1e-12)


class TestHybridMode:
    def test_hybrid_partitions_model_and_fallback(
        self, service, half_model, exact, half_oracle
    ):
        statements = _mixed_statements(60)
        results = service.execute_script(statements, mode="hybrid")
        sources = {result.source for result in results}
        assert "model" in sources and "fallback" in sources
        order = half_model.config.norm_order
        _, covered = half_model.predict_mean_batch_with_coverage(
            [r.statement.to_query(order) for r in results]
        )
        for result, is_covered in zip(results, covered):
            query = result.statement.to_query(order)
            if result.kind == "count":
                assert result.source == "exact"
                assert result.value == exact.count(query)
                continue
            assert result.source == ("model" if is_covered else "fallback")
            if result.kind == "q1":
                if is_covered:
                    assert result.value == pytest.approx(
                        half_oracle.predict_mean(query), abs=1e-12
                    )
                else:
                    assert result.value == pytest.approx(exact.mean(query), abs=1e-12)
            elif result.kind == "q2":
                if is_covered:
                    planes = half_oracle.regression_models(query)
                    assert [pair[0] for pair in result.value] == pytest.approx(
                        [plane.intercept for plane in planes], abs=1e-12
                    )
                else:
                    coefficients = exact.q2(query)
                    intercept, slope = result.value[0]
                    assert intercept == pytest.approx(coefficients[0], abs=1e-9)
                    assert np.allclose(slope, coefficients[1:], atol=1e-9)

    def test_fallback_rate_reported(self, service):
        statements = [
            f"SELECT AVG(u) FROM {TABLE} WITHIN 0.05 OF ({float(x)!r}, 0.9)"
            for x in np.linspace(0.6, 0.95, 10)
        ]
        service.execute_script(statements, mode="hybrid")
        stats = service.statistics_for(TABLE)
        assert stats.fallback_rate > 0.0
        assert stats.statements_executed == 10
        partition = stats.model_answered + stats.exact_answered + stats.fallback_count
        assert partition == stats.statements_executed

    def test_hybrid_without_model_serves_exact(self, engine, exact):
        service = AnalyticsService(engines={TABLE: engine})
        value = service.execute(
            f"SELECT AVG(u) FROM {TABLE} WITHIN 0.2 OF (0.5, 0.5)", mode="hybrid"
        )
        query = Query(center=np.array([0.5, 0.5]), radius=0.2)
        assert value == pytest.approx(exact.mean(query), abs=1e-12)
        assert service.statistics_for(TABLE).fallback_count == 0

    def test_hybrid_without_engine_serves_model(self, half_model, half_oracle):
        service = AnalyticsService(models={TABLE: half_model})
        # Out-of-coverage statement: no exact tier, so the model
        # extrapolates rather than failing.
        value = service.execute(
            f"SELECT AVG(u) FROM {TABLE} WITHIN 0.05 OF (0.9, 0.9)", mode="hybrid"
        )
        query = Query(
            center=np.array([0.9, 0.9]),
            radius=0.05,
            norm_order=half_model.config.norm_order,
        )
        assert value == pytest.approx(half_oracle.predict_mean(query), abs=1e-12)

    def test_hybrid_with_unfitted_model_falls_back(self, engine, exact):
        service = AnalyticsService(
            engines={TABLE: engine}, models={TABLE: LLMModel(dimension=2)}
        )
        value = service.execute(
            f"SELECT AVG(u) FROM {TABLE} WITHIN 0.2 OF (0.5, 0.5)", mode="hybrid"
        )
        query = Query(center=np.array([0.5, 0.5]), radius=0.2)
        assert value == pytest.approx(exact.mean(query), abs=1e-12)
        assert service.statistics_for(TABLE).fallback_count == 1

    def test_hybrid_empty_fallback_is_documented_empty(self, service):
        [result] = service.execute_script(
            [f"SELECT AVG(u) FROM {TABLE} WITHIN 0.001 OF (5.0, 5.0)"],
            mode="hybrid",
        )
        assert result.source == "fallback"
        assert result.value is None and result.empty


class TestDimensionMismatch:
    def test_refused_before_any_group_runs(self, service, exact):
        events: list = []

        class _Events:
            def notify(self, event) -> None:
                events.append(event.kind)

        service.observers.subscribe(_Events())
        valid = f"SELECT AVG(u) FROM {TABLE} WITHIN 0.15 OF (0.2, 0.2)"
        wide = f"SELECT AVG(u) FROM {TABLE} WITHIN 0.15 OF (0.2, 0.2, 0.2)"
        # Three refusals: as runtime failures they would have opened both
        # of the table's breakers (threshold 3).
        for _ in range(3):
            with pytest.raises(SQLSyntaxError, match="3-dimensional.*2-dimensional"):
                service.execute_script([valid, wide], mode="hybrid")
        assert service.statistics_for(TABLE).statements_executed == 0
        assert not [kind for kind in events if kind.startswith(("breaker.", "group."))]
        [result] = service.execute_script([valid], mode="exact")
        query = service.query_for(result.statement)
        assert result.source == "exact"
        assert result.value == pytest.approx(exact.mean(query), rel=1e-12)


    def test_reregistered_dimension_is_refused(self, engine, exact):
        rng = np.random.default_rng(4)
        deep_inputs = rng.uniform(0, 1, size=(500, 3))
        deep = ExactQueryEngine(
            SyntheticDataset(
                inputs=deep_inputs,
                outputs=deep_inputs.sum(axis=1),
                name=TABLE,
                domain=(0.0, 1.0),
            )
        )
        flat = f"SELECT AVG(u) FROM {TABLE} WITHIN 0.15 OF (0.2, 0.2)"
        service = AnalyticsService({TABLE: engine})
        [result] = service.execute_script([flat], mode="exact")
        assert result.value == pytest.approx(
            exact.mean(service.query_for(result.statement)), rel=1e-12
        )
        # The kept snapshot says 2-D; the registration drops it.
        service.register_engine(TABLE, deep)
        with pytest.raises(SQLSyntaxError, match="2-dimensional.*3-dimensional"):
            service.execute_script([flat], mode="exact")
        service.register_engine(TABLE, engine)
        assert service.execute_script([flat], mode="exact")[0].value == result.value


class TestStatisticsViews:
    def test_per_table_and_aggregate(self, engine, half_model):
        other_engine = ExactQueryEngine(_dataset(size=600, seed=5))
        service = AnalyticsService(
            engines={TABLE: engine, "other": other_engine},
            models={TABLE: half_model},
        )
        service.execute_script(
            [
                f"SELECT AVG(u) FROM {TABLE} WITHIN 0.1 OF (0.2, 0.2)",
                "SELECT AVG(u) FROM other WITHIN 0.2 OF (0.5, 0.5)",
            ],
            mode="hybrid",
        )
        per_table = service.per_table_statistics
        assert set(per_table) == {TABLE, "other"}
        aggregate = service.statistics
        assert aggregate.statements_executed == 2
        assert aggregate.latency.total_count == 2
        service.reset_statistics()
        assert service.statistics.statements_executed == 0

    def test_unknown_mode_rejected(self, service):
        with pytest.raises(SQLSyntaxError):
            service.execute_script([], mode="bogus")


class TestSessionFacade:
    def test_sessions_share_a_service(self, engine, half_model):
        service = AnalyticsService(
            engines={TABLE: engine}, models={TABLE: half_model}
        )
        first = AnalyticsSession(service=service)
        second = AnalyticsSession(service=service)
        first.execute(f"SELECT AVG(u) FROM {TABLE} WITHIN 0.1 OF (0.2, 0.2)")
        second.execute(
            f"SELECT AVG(u) FROM {TABLE} WITHIN 0.1 OF (0.3, 0.3)", mode="hybrid"
        )
        assert service.statistics.statements_executed == 2
        assert first.tables == second.tables == [TABLE]

    def test_service_and_registries_mutually_exclusive(self, engine):
        with pytest.raises(ConfigurationError):
            AnalyticsSession(engines={TABLE: engine}, service=AnalyticsService())

    def test_session_script_defaults_to_exact(self, engine, half_model):
        # The session facade keeps the seed front end's exact-by-default
        # contract on both entry points; hybrid is opt-in.
        session = AnalyticsSession(engines={TABLE: engine}, models={TABLE: half_model})
        sql = f"SELECT AVG(u) FROM {TABLE} WITHIN 0.1 OF (0.2, 0.2)"
        [result] = session.execute_script([sql])
        assert result.source == "exact"
        assert result.value == pytest.approx(session.execute(sql), abs=1e-12)

    def test_session_execute_script_modes(self, engine, half_model):
        session = AnalyticsSession(engines={TABLE: engine}, models={TABLE: half_model})
        results = session.execute_script(
            f"SELECT AVG(u) FROM {TABLE} WITHIN 0.1 OF (0.2, 0.2);\n"
            f"-- a comment\n"
            f"SELECT AVG(u) FROM {TABLE} WITHIN 0.1 OF (0.3, 0.2);",
            mode="approximate",
        )
        assert len(results) == 2
        assert all(result.source == "model" for result in results)
        # COUNT composes with hybrid scripts (served exactly) but is
        # rejected under pure model execution.
        [count_result] = session.execute_script(
            [f"SELECT COUNT(*) FROM {TABLE} WITHIN 0.1 OF (0.2, 0.2)"],
            mode="hybrid",
        )
        assert count_result.source == "exact"
        with pytest.raises(SQLSyntaxError):
            session.execute_script(
                [f"SELECT COUNT(*) FROM {TABLE} WITHIN 0.1 OF (0.2, 0.2)"],
                mode="approximate",
            )


class TestExperimentContextHelper:
    def test_serving_service_builder(self):
        from repro.eval.experiments import build_context

        context = build_context(
            "R1", dimension=2, dataset_size=1_500, training_queries=150,
            testing_queries=30, seed=11,
        )
        model, _ = context.train_model()
        service = context.serving_service(model)
        assert service.tables == [context.dataset_name]
        value = service.execute(
            f"SELECT AVG(u) FROM {context.dataset_name} WITHIN 0.15 OF (0.5, 0.5)",
            mode="hybrid",
        )
        assert np.isfinite(value)


# --------------------------------------------------------------------- #
# latency histogram + concurrency counters
# --------------------------------------------------------------------- #
class TestLatencyHistogram:
    def test_empty_percentile_is_zero(self):
        hist = LatencyHistogram()
        assert hist.total_count == 0
        assert hist.percentile(50) == 0.0
        assert hist.percentile(99) == 0.0

    def test_percentile_bounds_validated(self):
        hist = LatencyHistogram()
        with pytest.raises(ConfigurationError):
            hist.percentile(-1)
        with pytest.raises(ConfigurationError):
            hist.percentile(100.5)

    def test_percentile_within_bucket_resolution(self):
        hist = LatencyHistogram()
        for _ in range(99):
            hist.record(1e-4)
        hist.record(1e-1)
        # 8 buckets/decade: the midpoint estimate is within ~35% of truth.
        assert hist.percentile(50) == pytest.approx(1e-4, rel=0.35)
        assert hist.percentile(100) == pytest.approx(1e-1, rel=0.35)
        # Monotone in q.
        assert hist.percentile(99) <= hist.percentile(100)

    def test_merge_is_exact(self):
        left, right, together = (
            LatencyHistogram(),
            LatencyHistogram(),
            LatencyHistogram(),
        )
        samples_left = [1e-5, 3e-4, 2e-3, 5e-2]
        samples_right = [7e-6, 4e-3, 0.5, 2.0]
        left.record_many(samples_left)
        right.record_many(samples_right)
        together.record_many(samples_left + samples_right)
        left.merge(right)
        assert np.array_equal(left.counts, together.counts)
        for q in (50, 90, 99):
            assert left.percentile(q) == together.percentile(q)

    def test_under_and_overflow_buckets(self):
        from repro.dbms.stats import _LATENCY_EDGES

        below, above = LatencyHistogram(), LatencyHistogram()
        below.record(1e-9)  # below the first edge
        assert below.percentile(50) == _LATENCY_EDGES[0]
        above.record(1e5)  # above the last edge
        assert above.percentile(50) == _LATENCY_EDGES[-1]

    def test_record_buckets_like_record_many(self):
        from repro.dbms.stats import _LATENCY_EDGES

        values = [0.0, -1.0, 1e-9, 1e5, float("inf")]
        for edge in _LATENCY_EDGES:
            values += [edge, np.nextafter(edge, 0.0), np.nextafter(edge, np.inf)]
        one_by_one, together = LatencyHistogram(), LatencyHistogram()
        for value in values:
            one_by_one.record(float(value))
        together.record_many(values)
        assert np.array_equal(one_by_one.counts, together.counts)

    def test_a_single_latency_takes_the_searchsorted_bucket(self):
        # record_many of one latency bisects in Python instead of calling
        # NumPy; both must pick np.searchsorted's bucket, or histograms
        # recorded one way and merged with the other would disagree.
        from repro.dbms.stats import _LATENCY_EDGES

        rng = np.random.default_rng(5)
        values = [0.0, -1.0, 1e-9, 1e5, float("inf")]
        for edge in _LATENCY_EDGES:
            values += [edge, np.nextafter(edge, 0.0), np.nextafter(edge, np.inf)]
        values += list(10.0 ** rng.uniform(-8.0, 3.0, 2_000))
        values += list(rng.uniform(0.0, 1e-3, 500))
        for value in values:
            for latency in (value, float(value)):
                hist = LatencyHistogram()
                hist.record_many([latency])
                expected = np.zeros_like(hist.counts)
                expected[np.searchsorted(_LATENCY_EDGES, value, side="left")] = 1
                assert np.array_equal(hist.counts, expected), value
        one_at_a_time, together = LatencyHistogram(), LatencyHistogram()
        for value in values:
            one_at_a_time.record_many([value])
        together.record_many(values)
        assert np.array_equal(one_at_a_time.counts, together.counts)

    def test_copy_is_independent(self):
        hist = LatencyHistogram()
        hist.record(0.01)
        frozen = hist.copy()
        hist.record(0.01, count=10)
        assert frozen.total_count == 1
        assert hist.total_count == 11


class TestConcurrencyCounters:
    def test_record_batch_tracks_coalescing_and_cache(self):
        stats = ServingStatistics()
        stats.record_batch(10, seconds=0.01, coalesce_width=4)
        stats.record_batch(5, seconds=0.01, coalesce_width=1)
        stats.record_batch(3, seconds=0.0, cache_hits=3)
        assert stats.coalesced_batches == 1  # only width > 1 counts
        assert stats.max_coalesce_width == 4
        assert stats.mean_coalesce_width == pytest.approx(2.0)
        assert stats.cache_hits == 3
        assert stats.cache_hit_rate == pytest.approx(3 / 18)

    def test_latency_seconds_overrides_amortised_recording(self):
        stats = ServingStatistics()
        stats.record_batch(
            2, seconds=1.0, latency_seconds=[0.001, 0.001]
        )
        # The histogram saw the true per-statement latencies (~1 ms), not
        # the amortised 0.5 s share of the batch wall-clock.
        assert stats.p99_seconds < 0.01

    def test_merge_and_snapshot_cover_new_fields(self):
        first = ServingStatistics()
        second = ServingStatistics()
        first.record_batch(4, seconds=0.01, coalesce_width=2, cache_hits=1)
        second.record_batch(6, seconds=0.02, coalesce_width=3, cache_hits=2)
        frozen = first.snapshot()
        first.merge(second)
        assert first.cache_hits == 3
        assert first.coalesced_batches == 2
        assert first.coalesce_width_sum == 5
        assert first.max_coalesce_width == 3
        assert first.latency.total_count == 10
        # The earlier snapshot is fully independent (histogram included).
        assert frozen.cache_hits == 1
        assert frozen.latency.total_count == 4

    def test_merge_arithmetic_on_concurrency_counters(self):
        # Sums for the additive counters, max for the width watermark —
        # in both merge directions.
        wide = ServingStatistics()
        wide.record_batch(8, seconds=0.01, coalesce_width=5, cache_hits=4)
        narrow = ServingStatistics()
        narrow.record_batch(2, seconds=0.01, coalesce_width=2, cache_hits=1)
        narrow.merge(wide)
        assert narrow.cache_hits == 5
        assert narrow.coalesce_width_sum == 7
        assert narrow.max_coalesce_width == 5  # max climbs to the donor's
        wide.merge(ServingStatistics())  # empty donor changes nothing
        assert wide.max_coalesce_width == 5
        assert wide.cache_hits == 4

    def test_export_metrics_flattens_counters_and_percentiles(self):
        stats = ServingStatistics()
        stats.record_batch(
            4,
            model_answered=3,
            fallbacks=1,
            seconds=0.02,
            coalesce_width=2,
            cache_hits=2,
            latency_seconds=[0.001, 0.002, 0.003, 0.004],
        )
        exported = stats.export_metrics(prefix="srv_")
        assert exported["srv_statements_executed"] == 4.0
        assert exported["srv_cache_hits"] == 2.0
        assert exported["srv_cache_hit_rate"] == pytest.approx(0.5)
        assert exported["srv_max_coalesce_width"] == 2.0
        assert exported["srv_fallback_rate"] == pytest.approx(0.25)
        assert 0.0 < exported["srv_p50_seconds"] <= exported["srv_p99_seconds"]
        assert all(isinstance(v, float) for v in exported.values())
        # No prefix by default, same keys.
        assert set(stats.export_metrics()) == {
            k.removeprefix("srv_") for k in exported
        }

    def test_snapshot_histogram_does_not_alias_under_concurrent_merge(self):
        import threading

        shared = ServingStatistics()
        shared.record_batch(1, seconds=0.001, coalesce_width=1)
        stop = threading.Event()
        merged = threading.Event()

        def merger():
            while not stop.is_set():
                delta = ServingStatistics()
                delta.record_batch(3, seconds=0.003, coalesce_width=2)
                shared.merge(delta)
                merged.set()

        thread = threading.Thread(target=merger)
        thread.start()
        try:
            # Each snapshot's histogram must be a deep copy: its counts
            # stay frozen while merges keep mutating the shared instance.
            frozen = []
            for _ in range(200):
                snap = shared.snapshot()
                frozen.append((snap, snap.latency.total_count))
                if len(frozen) == 1:
                    merged.clear()
            # The 200 snapshots can finish before the merger first runs:
            # wait for a merge that followed the first snapshot.
            assert merged.wait(timeout=10.0)
        finally:
            stop.set()
            thread.join(timeout=10.0)
        assert not thread.is_alive()
        for snap, count_at_capture in frozen:
            assert snap.latency.total_count == count_at_capture
        assert shared.latency.total_count > frozen[0][1]

    def test_concurrent_recording_and_copies_share_one_lock(self):
        import sys
        import threading

        from repro.analysis.instrument import use_registry
        from repro.analysis.races import RaceRegistry

        registry = RaceRegistry(capture_stacks=False)
        writers, batches = 4, 200

        def work() -> None:
            # A flush worker's write racing a drift tick's and a
            # checkpoint's whole-record copies.
            for _ in range(batches):
                shared.record_batch(3, model_answered=1, exact_answered=1, fallbacks=1)
                shared.snapshot()
                shared.to_dict()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with use_registry(registry):
                shared = ServingStatistics()
                threads = [threading.Thread(target=work) for _ in range(writers)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert registry.race_findings() == []
        assert shared.statements_executed == 3 * writers * batches
        assert shared.model_answered == writers * batches
