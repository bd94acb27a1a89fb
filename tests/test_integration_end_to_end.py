"""End-to-end integration tests: the full Figure-2 system context.

These tests exercise the complete pipeline the paper describes: load a
dataset into the SQLite store, execute exact queries during a training
phase, train the model online, then answer unseen Q1/Q2 queries from the
model alone and compare against the exact engine.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    AnalyticsSession,
    ExactQueryEngine,
    LLMModel,
    LabelledWorkload,
    ModelConfig,
    Query,
    QueryWorkloadGenerator,
    RadiusDistribution,
    SQLiteDataStore,
    StreamingTrainer,
    TrainingConfig,
    WorkloadSpec,
    generate_gas_sensor_dataset,
    load_model,
    rmse,
    save_model,
)
from repro.metrics.evaluation import evaluate_q1_accuracy, evaluate_q2_goodness_of_fit


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Full pipeline: dataset -> SQLite -> engine -> trained model."""
    dataset = generate_gas_sensor_dataset(6_000, dimension=2, seed=21)
    store = SQLiteDataStore(tmp_path_factory.mktemp("db") / "analytics.db")
    store.load_dataset(dataset, table_name="sensors")
    engine = ExactQueryEngine.from_store(store, "sensors")

    spec = WorkloadSpec(dimension=2, radius=RadiusDistribution(mean=0.1, std=0.02))
    generator = QueryWorkloadGenerator(spec, seed=5)
    training_queries = generator.generate(2_000)
    testing_queries = generator.generate(150)

    model = LLMModel(
        dimension=2,
        config=ModelConfig(quantization_coefficient=0.05),
        training=TrainingConfig(convergence_threshold=1e-4),
    )
    trainer = StreamingTrainer(model, engine)
    breakdown = trainer.train(training_queries)
    return store, engine, model, breakdown, testing_queries


class TestEndToEnd:
    def test_training_produced_a_usable_model(self, pipeline):
        _, _, model, breakdown, _ = pipeline
        assert model.is_fitted
        assert model.prototype_count >= 10
        assert breakdown.pairs_processed > 100

    def test_q1_predictions_track_exact_answers(self, pipeline):
        _, engine, model, _, testing_queries = pipeline
        report = evaluate_q1_accuracy(model, engine, testing_queries)
        assert report.evaluated_queries > 100
        # Outputs are scaled to [0, 1]; the model should predict the mean
        # value with a small fraction of the range as error.
        assert report.rmse < 0.15

    def test_q1_prediction_beats_global_mean_baseline(self, pipeline):
        _, engine, model, _, testing_queries = pipeline
        report = evaluate_q1_accuracy(model, engine, testing_queries)
        global_mean = float(np.mean(engine.dataset.outputs))
        baseline = rmse(report.actual, np.full_like(report.actual, global_mean))
        assert report.rmse < baseline

    def test_q2_local_models_fit_better_than_global_line(self, pipeline):
        _, engine, model, _, testing_queries = pipeline
        analyst_queries = [
            Query(center=q.center, radius=q.radius * 4) for q in testing_queries[:25]
        ]
        report = evaluate_q2_goodness_of_fit(
            model, engine, analyst_queries, plr_max_basis_functions=10
        )
        assert report.evaluated_queries > 0
        assert report.llm_fvu < report.reg_fvu
        assert report.plr_fvu <= report.reg_fvu

    def test_model_answers_without_data_access(self, pipeline):
        store, engine, model, _, testing_queries = pipeline
        before = engine.statistics.queries_executed
        for query in testing_queries[:20]:
            model.predict_mean(query)
            model.regression_models(query)
        assert engine.statistics.queries_executed == before

    def test_sql_front_end_round_trip(self, pipeline):
        _, engine, model, _, _ = pipeline
        session = AnalyticsSession()
        session.register_engine("sensors", engine)
        session.register_model("sensors", model)
        exact = session.execute("SELECT AVG(u) FROM sensors WITHIN 0.15 OF (0.5, 0.5)")
        approx = session.execute(
            "SELECT AVG(u) FROM sensors WITHIN 0.15 OF (0.5, 0.5)", mode="approximate"
        )
        assert approx == pytest.approx(exact, abs=0.2)
        models = session.execute(
            "SELECT REGRESSION(u) FROM sensors WITHIN 0.3 OF (0.5, 0.5)",
            mode="approximate",
        )
        assert len(models) >= 1

    def test_model_round_trips_through_persistence(self, pipeline, tmp_path):
        _, engine, model, _, testing_queries = pipeline
        path = save_model(model, tmp_path / "model.json")
        restored = load_model(path)
        for query in testing_queries[:10]:
            assert restored.predict_mean(query) == pytest.approx(
                model.predict_mean(query)
            )

    def test_prediction_is_much_faster_than_exact_execution(self, pipeline):
        import time

        _, engine, model, _, testing_queries = pipeline
        queries = list(testing_queries[:30])
        # Compare against the default grid-indexed engine, a stronger
        # baseline than the paper's, which scans and aggregates the selected
        # data.  Its grid is already built by training; warm up the model's
        # prediction cache first so only steady-state latency is measured.
        model.predict_mean(queries[0])

        start = time.perf_counter()
        for query in queries:
            model.predict_mean(query)
        model_seconds = time.perf_counter() - start

        start = time.perf_counter()
        for query in queries:
            try:
                engine.execute_q1(query)
            except Exception:
                pass
        exact_seconds = time.perf_counter() - start

        # The paper reports orders of magnitude; at this tiny dataset size we
        # only require a clear win to keep the test robust.
        assert model_seconds < exact_seconds
