"""Tests for the public LLMModel."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ModelConfig, TrainingConfig
from repro.core.model import LLMModel
from repro.core.persistence import model_from_dict
from repro.core.prototypes import LocalLinearMap
from repro.exceptions import DimensionalityMismatchError, NotFittedError
from repro.queries.query import Query, QueryResultPair
from repro.testing.oracle import ModelOracle


def _linear_pairs(count: int, seed: int = 0) -> list[tuple[Query, float]]:
    """Training pairs whose answers follow y = x1 + 2 x2 at the query center."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        center = rng.uniform(0, 1, size=2)
        query = Query(center=center, radius=float(rng.uniform(0.05, 0.15)))
        pairs.append((query, float(center[0] + 2.0 * center[1])))
    return pairs


class TestConstruction:
    def test_defaults(self):
        model = LLMModel(dimension=3)
        assert model.dimension == 3
        assert model.prototype_count == 0
        assert not model.is_fitted
        assert not model.is_frozen
        assert model.vigilance == pytest.approx(0.25 * (np.sqrt(3) + 1))

    def test_vigilance_override(self):
        model = LLMModel(dimension=2, config=ModelConfig(vigilance_override=0.3))
        assert model.vigilance == pytest.approx(0.3)

    def test_rejects_bad_dimension(self):
        with pytest.raises(DimensionalityMismatchError):
            LLMModel(dimension=0)


class TestTraining:
    def test_partial_fit_grows_prototypes(self):
        model = LLMModel(dimension=2, config=ModelConfig(quantization_coefficient=0.05))
        for query, answer in _linear_pairs(100):
            model.partial_fit(query, answer)
        assert model.prototype_count > 5
        assert model.is_fitted
        assert model.steps == 100

    def test_fit_accepts_tuples_and_pairs(self):
        model = LLMModel(dimension=2)
        tuples = _linear_pairs(20)
        pairs = [QueryResultPair(query=q, answer=a) for q, a in _linear_pairs(20, seed=1)]
        report = model.fit(tuples + pairs)
        assert report.pairs_processed == 40

    def test_partial_fit_dimension_mismatch(self):
        model = LLMModel(dimension=2)
        with pytest.raises(DimensionalityMismatchError):
            model.partial_fit(Query(center=np.array([0.1]), radius=0.1), 0.0)

    def test_max_steps_caps_training(self):
        model = LLMModel(
            dimension=2,
            training=TrainingConfig(max_steps=25, convergence_threshold=1e-12),
        )
        report = model.fit(_linear_pairs(200))
        assert report.pairs_processed == 25

    def test_convergence_freezes_the_model(self):
        model = LLMModel(
            dimension=2,
            config=ModelConfig(quantization_coefficient=0.9),
            training=TrainingConfig(convergence_threshold=0.5, min_steps=5, convergence_window=5),
        )
        report = model.fit(_linear_pairs(500))
        assert report.converged
        assert model.is_frozen
        # Further training does not change the parameters.
        before = model.prototype_matrix().copy()
        model.partial_fit(*_linear_pairs(1, seed=9)[0])
        assert np.allclose(model.prototype_matrix(), before)

    def test_reset_clears_everything(self):
        model = LLMModel(dimension=2)
        model.fit(_linear_pairs(50))
        model.reset()
        assert model.prototype_count == 0
        assert not model.is_fitted
        assert model.steps == 0

    def test_training_report_contents(self):
        model = LLMModel(dimension=2)
        report = model.fit(_linear_pairs(80))
        assert report.pairs_processed == 80 or report.converged
        assert report.prototype_count == model.prototype_count
        assert len(report.criterion_history) == report.pairs_processed
        assert report.criterion_values().shape[0] == report.pairs_processed


class TestPrediction:
    @pytest.fixture(scope="class")
    def trained(self) -> LLMModel:
        model = LLMModel(
            dimension=2,
            config=ModelConfig(quantization_coefficient=0.08),
            training=TrainingConfig(convergence_threshold=1e-5),
        )
        model.fit(_linear_pairs(1_500))
        return model

    def test_prediction_requires_fit(self):
        model = LLMModel(dimension=2)
        with pytest.raises(NotFittedError):
            model.predict_mean(Query(center=np.array([0.5, 0.5]), radius=0.1))

    def test_predicts_linear_answer_surface(self, trained):
        query = Query(center=np.array([0.4, 0.6]), radius=0.1)
        assert trained.predict_mean(query) == pytest.approx(0.4 + 1.2, abs=0.15)

    def test_predict_means_batch(self, trained):
        queries = [q for q, _ in _linear_pairs(20, seed=3)]
        values = trained.predict_mean_batch(queries)
        expected = np.array([q.center[0] + 2 * q.center[1] for q in queries])
        assert values.shape == (20,)
        assert np.sqrt(np.mean((values - expected) ** 2)) < 0.15

    def test_regression_models_capture_slope(self, trained):
        query = Query(center=np.array([0.5, 0.5]), radius=0.2)
        planes = trained.regression_models(query)
        assert len(planes) >= 1
        # The answer surface is y = x1 + 2 x2: the learned local slopes are
        # estimated from a finite stream so they undershoot slightly, but
        # they must point in the right direction — both positive and the x2
        # component clearly the larger of the two.
        weights = np.array([plane.weight for plane in planes])
        slopes = np.vstack([plane.slope for plane in planes])
        mean_slope = weights @ slopes / weights.sum()
        assert mean_slope[0] > 0.3
        assert mean_slope[1] > 1.0
        assert mean_slope[1] > mean_slope[0]

    def test_predict_value_near_truth(self, trained):
        point = np.array([0.3, 0.7])
        assert trained.predict_value(point) == pytest.approx(0.3 + 1.4, abs=0.2)

    def test_predict_values_batch_shape(self, trained):
        points = np.random.default_rng(0).uniform(0, 1, size=(15, 2))
        assert trained.predict_value_batch(points).shape == (15,)

    def test_diagnostics_and_describe(self, trained):
        description = trained.describe()
        assert description["prototype_count"] == trained.prototype_count
        assert description["memory_floats"] == trained.memory_footprint()
        assert trained.average_prototype_radius() > 0.0
        assert trained.prototype_matrix().shape == (trained.prototype_count, 3)

    def test_memory_footprint_formula(self, trained):
        expected = trained.prototype_count * (2 * 3 + 1)
        assert trained.memory_footprint() == expected

    def test_unfitted_diagnostics_raise(self):
        model = LLMModel(dimension=2)
        assert model.memory_footprint() == 0
        with pytest.raises(NotFittedError):
            model.average_prototype_radius()
        with pytest.raises(NotFittedError):
            model.prototype_matrix()


def _plane_bits(plane_lists) -> list[list[bytes]]:
    return [
        [
            np.concatenate(
                [
                    [plane.intercept, plane.weight, plane.prototype_radius],
                    plane.slope,
                    plane.prototype_center,
                ]
            ).tobytes()
            for plane in planes
        ]
        for planes in plane_lists
    ]


class TestPredictionSnapshot:
    def test_snapshot_owns_its_arrays(self):
        """A taken snapshot keeps its answers while training moves on."""
        rng = np.random.default_rng(5)
        # Eight maps fill the dense stores' initial capacity exactly.
        maps = [
            LocalLinearMap(
                prototype=np.append(rng.uniform(0.3, 0.7, 2), 0.2),
                mean_output=float(rng.normal()),
                slope=rng.normal(size=3),
            )
            for _ in range(8)
        ]
        for llm in maps:
            # Past its first update a winner's learning rate is below one,
            # so the step below moves its prototype, intercept and slope.
            llm.updates = 5
        model = model_from_dict(
            {
                "format_version": 2,
                "dimension": 2,
                "training": {"convergence_threshold": 1e-12},
                "state": {"steps": 8, "frozen": False},
                "maps": [llm.to_dict() for llm in maps],
            }
        )
        queries = [
            Query(center=rng.uniform(0.2, 0.8, 2), radius=0.3) for _ in range(20)
        ]
        matrix = np.vstack([query.to_vector() for query in queries])
        snapshot = model._predictor()

        def snapshot_answers() -> tuple:
            values, _, covered = snapshot.q1(matrix, 2.0)
            planes, _ = snapshot.q2(matrix, 2.0)
            data_values = snapshot.data_values(matrix, 2.0)
            return (
                values.tobytes(),
                covered.tobytes(),
                _plane_bits(planes),
                data_values.tobytes(),
            )

        before = snapshot_answers()
        held_planes = snapshot.q2(matrix, 2.0)[0]
        held = _plane_bits(held_planes)

        # A pair next to the first prototype moves that winner in place ...
        model.partial_fit(Query(center=maps[0].center + 0.01, radius=0.21), 5.0)
        assert model.prototype_count == 8
        # ... and one far from every prototype grows the stores past capacity.
        model.partial_fit(Query(center=np.array([9.0, 9.0]), radius=0.2), -5.0)
        assert model.prototype_count == 9

        assert snapshot_answers() == before
        assert _plane_bits(held_planes) == held

        oracle = ModelOracle(model.local_maps)
        values = model.predict_mean_batch(queries)
        assert values.tobytes() != before[0]
        np.testing.assert_allclose(
            values, [oracle.predict_mean(q) for q in queries], rtol=0.0, atol=1e-12
        )
        for planes, query in zip(model.predict_q2_batch(queries), queries):
            expected = oracle.regression_models(query)
            assert len(planes) == len(expected)
            for plane, reference in zip(planes, expected):
                np.testing.assert_array_equal(plane.slope, reference.slope)
                assert plane.intercept == reference.intercept
                assert plane.weight == pytest.approx(reference.weight, abs=1e-12)
        centers = matrix[:, :-1]
        np.testing.assert_allclose(
            model.predict_value_batch(centers, 0.3),
            [oracle.predict_value(center, 0.3) for center in centers],
            rtol=0.0,
            atol=1e-12,
        )
