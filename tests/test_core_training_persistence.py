"""Tests for the streaming trainer and model persistence."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.config import ModelConfig, TrainingConfig
from repro.core.model import LLMModel
from repro.core.persistence import load_model, model_from_dict, model_to_dict, save_model
from repro.core.training import StreamingTrainer
from repro.data.synthetic import SyntheticDataset
from repro.dbms.executor import ExactQueryEngine
from repro.exceptions import NotFittedError, ReproError
from repro.queries.query import Query
from repro.queries.stream import LabelledWorkload
from repro.queries.workload import QueryWorkloadGenerator, RadiusDistribution, WorkloadSpec
from repro.testing.oracle import ModelOracle

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def engine() -> ExactQueryEngine:
    rng = np.random.default_rng(0)
    inputs = rng.uniform(0, 1, size=(4_000, 2))
    outputs = np.sin(2 * np.pi * inputs[:, 0]) + inputs[:, 1]
    dataset = SyntheticDataset(inputs=inputs, outputs=outputs, name="wave", domain=(0.0, 1.0))
    return ExactQueryEngine(dataset)


@pytest.fixture()
def workload_queries() -> list[Query]:
    spec = WorkloadSpec(dimension=2, radius=RadiusDistribution(mean=0.12, std=0.02))
    return QueryWorkloadGenerator(spec, seed=4).generate(400)


class TestStreamingTrainer:
    def test_training_updates_model_and_accounts_costs(self, engine, workload_queries):
        model = LLMModel(dimension=2, config=ModelConfig(quantization_coefficient=0.1))
        trainer = StreamingTrainer(model, engine)
        breakdown = trainer.train(workload_queries)
        assert breakdown.pairs_processed > 0
        assert model.is_fitted
        assert breakdown.final_prototype_count == model.prototype_count
        assert breakdown.total_seconds > 0.0
        assert 0.0 < breakdown.query_execution_share <= 1.0
        assert len(breakdown.criterion_trajectory) == breakdown.pairs_processed

    def test_query_execution_dominates_training_cost(self, workload_queries):
        # The paper reports ~99.6% of training time goes to executing queries
        # against the DBMS.  The module fixture's dataset is tiny (so the
        # other tests stay fast) which makes exact execution artificially
        # cheap; the claim is about realistic data sizes, so this check uses
        # a larger dataset.  It runs on the default grid-indexed engine, a
        # stronger claim than the paper's unindexed baseline: execution
        # still dominates even with the index.
        rng = np.random.default_rng(3)
        inputs = rng.uniform(0, 1, size=(60_000, 2))
        outputs = np.sin(2 * np.pi * inputs[:, 0]) + inputs[:, 1]
        dataset = SyntheticDataset(
            inputs=inputs, outputs=outputs, name="wave_large", domain=(0.0, 1.0)
        )
        model = LLMModel(dimension=2, config=ModelConfig(quantization_coefficient=0.1))
        breakdown = StreamingTrainer(model, ExactQueryEngine(dataset)).train(
            workload_queries[:150]
        )
        assert breakdown.query_execution_seconds > breakdown.model_update_seconds
        assert breakdown.query_execution_share > 0.5

    def test_training_stops_when_model_freezes(self, engine, workload_queries):
        model = LLMModel(
            dimension=2,
            config=ModelConfig(quantization_coefficient=0.9),
            training=TrainingConfig(convergence_threshold=0.5, min_steps=5, convergence_window=5),
        )
        breakdown = StreamingTrainer(model, engine).train(workload_queries)
        assert breakdown.converged
        assert breakdown.pairs_processed < len(workload_queries)

    def test_empty_subspaces_are_skipped(self, engine):
        model = LLMModel(dimension=2)
        trainer = StreamingTrainer(model, engine)
        outside = [Query(center=np.array([5.0, 5.0]), radius=0.01)]
        breakdown = trainer.train(outside)
        assert breakdown.pairs_skipped == 1
        assert breakdown.pairs_processed == 0

    @pytest.mark.parametrize("max_steps", [1, 100])
    def test_max_steps_caps_training_like_fit(self, engine, workload_queries, max_steps):
        # Outside queries select no rows: skipped, and counted only before the cut.
        outside = Query(center=np.array([5.0, 5.0]), radius=0.01)
        queries = [outside, *workload_queries[:50], outside, *workload_queries[50:]]
        training = TrainingConfig(convergence_threshold=1e-12, max_steps=max_steps)

        def fresh() -> LLMModel:
            return LLMModel(
                dimension=2,
                config=ModelConfig(quantization_coefficient=0.1),
                training=training,
            )

        trained = fresh()
        breakdown = StreamingTrainer(trained, engine).train(queries, batch_size=64)
        reference = fresh()
        reference.fit(LabelledWorkload.from_engine(queries, engine))

        assert trained.steps == reference.steps == max_steps
        assert breakdown.pairs_processed == max_steps
        assert breakdown.pairs_skipped == (1 if max_steps == 1 else 2)
        assert [llm.to_dict() for llm in trained.local_maps] == [
            llm.to_dict() for llm in reference.local_maps
        ]


class TestPersistence:
    def _trained_model(self) -> LLMModel:
        rng = np.random.default_rng(1)
        model = LLMModel(dimension=2, config=ModelConfig(quantization_coefficient=0.1))
        for _ in range(300):
            center = rng.uniform(0, 1, size=2)
            query = Query(center=center, radius=0.1)
            model.partial_fit(query, float(center.sum()))
        return model

    def test_round_trip_preserves_predictions(self, tmp_path):
        model = self._trained_model()
        path = save_model(model, tmp_path / "model.json")
        restored = load_model(path)
        assert restored.prototype_count == model.prototype_count
        assert restored.dimension == model.dimension
        query = Query(center=np.array([0.4, 0.6]), radius=0.1)
        assert restored.predict_mean(query) == pytest.approx(model.predict_mean(query))
        planes_original = model.regression_models(query)
        planes_restored = restored.regression_models(query)
        assert len(planes_original) == len(planes_restored)

    def test_round_trip_preserves_configuration(self, tmp_path):
        model = self._trained_model()
        restored = load_model(save_model(model, tmp_path / "model.json"))
        assert restored.config.quantization_coefficient == pytest.approx(
            model.config.quantization_coefficient
        )
        assert restored.training.convergence_threshold == pytest.approx(
            model.training.convergence_threshold
        )
        assert restored.steps == model.steps
        assert restored.is_frozen == model.is_frozen

    def test_round_trip_keeps_every_training_field(self, tmp_path):
        # No field at its default: a field the file forgets comes back
        # changed, and a retrain from the loaded model trains differently.
        training = TrainingConfig(
            convergence_threshold=0.02,
            max_steps=500,
            min_steps=7,
            convergence_window=8,
            learning_rate_schedule="power",
            learning_rate_scale=0.5,
            record_history=False,
        )
        config = ModelConfig(
            quantization_coefficient=0.1, norm_order=1.0, vigilance_override=0.3
        )
        model = LLMModel(dimension=2, config=config, training=training)
        model.partial_fit(Query(center=np.array([0.4, 0.6]), radius=0.1), 1.0)
        restored = load_model(save_model(model, tmp_path / "model.json"))
        assert restored.training == training
        assert restored.config == config

    def test_missing_training_fields_take_the_defaults(self):
        payload = model_to_dict(self._trained_model())
        payload["training"] = {"convergence_threshold": 0.05}
        assert model_from_dict(payload).training == TrainingConfig(
            convergence_threshold=0.05
        )

    def test_cannot_persist_unfitted_model(self, tmp_path):
        with pytest.raises(NotFittedError):
            save_model(LLMModel(dimension=2), tmp_path / "model.json")

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ReproError):
            load_model(tmp_path / "does_not_exist.json")

    def test_unsupported_format_version(self):
        payload = model_to_dict(self._trained_model())
        payload["format_version"] = 99
        with pytest.raises(ReproError):
            model_from_dict(payload)


def _synthetic_model_payload(
    prototype_count: int,
    *,
    format_version: int = 2,
    seed: int = 9,
) -> dict:
    """A valid persisted-model payload with an arbitrary prototype count."""
    rng = np.random.default_rng(seed)
    maps = []
    for _ in range(prototype_count):
        center = rng.uniform(0, 1, size=2)
        maps.append(
            {
                "prototype": [*center.tolist(), float(rng.uniform(0.05, 0.15))],
                "mean_output": float(center.sum()),
                "slope": rng.normal(size=3).tolist(),
                "updates": int(rng.integers(1, 50)),
                "difference_second_moment": float(rng.uniform(0.0, 0.2)),
            }
        )
    payload = {
        "format_version": format_version,
        "dimension": 2,
        "config": {
            "quantization_coefficient": 0.1,
            "norm_order": 2.0,
            "vigilance_override": None,
        },
        "training": {
            "convergence_threshold": 0.01,
            "min_steps": 10,
            "learning_rate_schedule": "hyperbolic",
            "learning_rate_scale": 1.0,
        },
        "state": {"steps": prototype_count, "frozen": True},
        "maps": maps,
    }
    return payload


class TestPersistenceBatchPaths:
    """Save → load must be bit-equal through every batched prediction path."""

    def _assert_batch_equivalence(self, model: LLMModel, restored: LLMModel) -> None:
        rng = np.random.default_rng(17)
        centers = rng.uniform(0, 1, size=(64, 2))
        radii = rng.uniform(0.05, 0.2, size=(64, 1))
        matrix = np.hstack([centers, radii])

        original_means = model.predict_mean_batch(matrix)
        restored_means = restored.predict_mean_batch(matrix)
        assert np.array_equal(original_means, restored_means)

        probe_radius = model.average_prototype_radius()
        assert probe_radius == restored.average_prototype_radius()
        original_values = model.predict_value_batch(centers, probe_radius)
        restored_values = restored.predict_value_batch(centers, probe_radius)
        assert np.array_equal(original_values, restored_values)

        original_planes = model.predict_q2_batch(matrix)
        restored_planes = restored.predict_q2_batch(matrix)
        assert len(original_planes) == len(restored_planes)
        for original_list, restored_list in zip(original_planes, restored_planes):
            assert len(original_list) == len(restored_list)
            for original, copy in zip(original_list, restored_list):
                assert original.intercept == copy.intercept
                assert np.array_equal(original.slope, copy.slope)
                assert original.weight == copy.weight

        original_covered = model.predict_mean_batch_with_coverage(matrix)[1]
        restored_covered = restored.predict_mean_batch_with_coverage(matrix)[1]
        assert np.array_equal(original_covered, restored_covered)

    def test_trained_model_batch_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        model = LLMModel(dimension=2, config=ModelConfig(quantization_coefficient=0.1))
        for _ in range(300):
            center = rng.uniform(0, 1, size=2)
            model.partial_fit(Query(center=center, radius=0.1), float(center.sum()))
        restored = load_model(save_model(model, tmp_path / "model.json"))
        self._assert_batch_equivalence(model, restored)

    def test_v1_payload_still_readable(self):
        # Seed-era files carry format_version 1.
        payload = _synthetic_model_payload(32, format_version=1)
        model = model_from_dict(payload)
        assert model.prototype_count == 32
        reserialized = model_to_dict(model)
        assert reserialized["format_version"] == 2
        self._assert_batch_equivalence(model, model_from_dict(reserialized))

    def test_v2_file_with_a_pruning_policy_loads(self, tmp_path):
        # Written by a version whose predictor had a prototype-pruning
        # option: a trained K = 64 model saved with use_pruning_index=true.
        path = FIXTURES / "model_v2_with_pruning_policy.json"
        payload = json.loads(path.read_text())
        assert payload["format_version"] == 2
        assert payload["use_pruning_index"] is True
        model = load_model(path)
        assert model.prototype_count == 64
        # The file predates persisting max_steps, convergence_window and
        # record_history, so they load as the dataclass defaults.
        assert model.training == TrainingConfig(
            convergence_threshold=payload["training"]["convergence_threshold"]
        )
        oracle = ModelOracle(model.local_maps)
        rng = np.random.default_rng(29)
        for _ in range(40):
            query = Query(
                center=rng.uniform(-0.1, 1.1, size=2),
                radius=float(rng.uniform(0.02, 0.3)),
            )
            assert model.predict_mean(query) == pytest.approx(
                oracle.predict_mean(query), rel=0.0, abs=1e-12
            )
            for plane, expected in zip(
                model.regression_models(query), oracle.regression_models(query),
                strict=True,
            ):
                assert plane.weight == pytest.approx(expected.weight, rel=0.0, abs=1e-12)
                assert plane.intercept == pytest.approx(
                    expected.intercept, rel=0.0, abs=1e-12
                )
            assert model.predict_value(query.center, query.radius) == pytest.approx(
                oracle.predict_value(query.center, query.radius, 2.0),
                rel=0.0,
                abs=1e-12,
            )
        resaved = json.loads(save_model(model, tmp_path / "model.json").read_text())
        assert "use_pruning_index" not in resaved
        assert resaved["maps"] == payload["maps"]
