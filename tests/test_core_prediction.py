"""Tests for the neighbourhood-based query processing algorithms."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.model import LLMModel
from repro.core.persistence import model_from_dict
from repro.core.prototypes import LocalLinearMap
from repro.exceptions import NotFittedError
from repro.queries.query import Query
from repro.testing.oracle import (
    ModelOracle,
    normalized_overlap_weights,
    overlapping_prototypes,
)


def _llm(center, radius, mean, slope=None):
    center = np.asarray(center, dtype=float)
    prototype = np.append(center, radius)
    if slope is None:
        slope = np.zeros(prototype.shape[0])
    else:
        slope = np.asarray(slope, dtype=float)
    return LocalLinearMap(prototype=prototype, mean_output=mean, slope=slope)


def _model(maps: list[LocalLinearMap]) -> LLMModel:
    """A fitted Euclidean model holding exactly ``maps``."""
    return model_from_dict(
        {
            "format_version": 2,
            "dimension": maps[0].dimension,
            "state": {"steps": len(maps), "frozen": True},
            "maps": [llm.to_dict() for llm in maps],
        }
    )


@pytest.fixture()
def maps() -> list[LocalLinearMap]:
    return [
        _llm([0.2, 0.2], 0.1, mean=0.2),
        _llm([0.5, 0.5], 0.1, mean=0.5),
        _llm([0.8, 0.8], 0.1, mean=0.8),
    ]


class TestOverlappingPrototypes:
    def test_only_overlapping_prototypes_returned(self, maps):
        query = Query(center=np.array([0.5, 0.5]), radius=0.1)
        overlaps = overlapping_prototypes(query, maps)
        indices = [index for index, _ in overlaps]
        assert 1 in indices
        assert 0 not in indices and 2 not in indices

    def test_large_query_overlaps_everything(self, maps):
        query = Query(center=np.array([0.5, 0.5]), radius=1.0)
        assert len(overlapping_prototypes(query, maps)) == 3

    def test_distant_query_has_empty_neighborhood(self, maps):
        query = Query(center=np.array([5.0, 5.0]), radius=0.1)
        assert overlapping_prototypes(query, maps) == []


class TestNormalizedWeights:
    def test_weights_sum_to_one(self):
        weights = normalized_overlap_weights([(0, 0.4), (1, 0.6), (2, 1.0)])
        assert sum(weight for _, weight in weights) == pytest.approx(1.0)

    def test_zero_degrees_become_uniform(self):
        weights = normalized_overlap_weights([(0, 0.0), (1, 0.0)])
        assert all(weight == pytest.approx(0.5) for _, weight in weights)

    def test_empty_input(self):
        assert normalized_overlap_weights([]) == []


class TestQ1Prediction:
    def test_prediction_at_prototype_matches_local_mean(self, maps):
        model = _model(maps)
        query = Query(center=np.array([0.5, 0.5]), radius=0.1)
        assert model.predict_mean(query) == pytest.approx(0.5)

    def test_prediction_between_prototypes_is_weighted_average(self, maps):
        model = _model(maps)
        query = Query(center=np.array([0.35, 0.35]), radius=0.12)
        value = model.predict_mean(query)
        assert 0.2 <= value <= 0.5

    def test_extrapolation_uses_closest_prototype(self, maps):
        model = _model(maps)
        query = Query(center=np.array([3.0, 3.0]), radius=0.05)
        value, diagnostics = model.predict_mean_with_diagnostics(query)
        assert diagnostics.extrapolated
        assert diagnostics.neighborhood_size == 1
        assert diagnostics.used_indices == (2,)
        assert value == pytest.approx(maps[2].evaluate(query.to_vector()))

    def test_diagnostics_weights_sum_to_one(self, maps):
        model = _model(maps)
        query = Query(center=np.array([0.5, 0.5]), radius=0.6)
        _, diagnostics = model.predict_mean_with_diagnostics(query)
        assert sum(diagnostics.weights) == pytest.approx(1.0)
        assert not diagnostics.extrapolated

    def test_empty_model_raises(self):
        with pytest.raises(NotFittedError):
            LLMModel(dimension=2).predict_mean(
                Query(center=np.array([0.0, 0.0]), radius=0.1)
            )


class TestQ2Prediction:
    def test_regression_models_report_overlapping_planes(self, maps):
        model = _model(maps)
        query = Query(center=np.array([0.5, 0.5]), radius=0.6)
        planes = model.regression_models(query)
        assert len(planes) == 3
        assert sum(plane.weight for plane in planes) == pytest.approx(1.0)

    def test_regression_models_extrapolation_returns_single_plane(self, maps):
        model = _model(maps)
        query = Query(center=np.array([4.0, 4.0]), radius=0.05)
        planes = model.regression_models(query)
        assert len(planes) == 1
        assert planes[0].weight == pytest.approx(1.0)

    def test_plane_coefficients_follow_theorem_three(self):
        llm = _llm([0.5, 0.5], 0.1, mean=1.0, slope=[2.0, 0.0, 0.3])
        model = _model([llm])
        query = Query(center=np.array([0.5, 0.5]), radius=0.1)
        plane = model.regression_models(query)[0]
        assert np.allclose(plane.slope, [2.0, 0.0])
        assert plane.intercept == pytest.approx(1.0 - 2.0 * 0.5)


class TestCoverageSignal:
    def test_coverage_mask_marks_extrapolated_rows(self, maps):
        model = _model(maps)
        matrix = np.array(
            [
                [0.5, 0.5, 0.2],  # overlaps the middle prototype
                [4.0, 4.0, 0.05],  # far outside every prototype
            ]
        )
        covered = model.predict_mean_batch_with_coverage(matrix)[1]
        assert covered.tolist() == [True, False]

    def test_with_coverage_values_match_plain_batch(self, maps):
        model = _model(maps)
        rng = np.random.default_rng(3)
        matrix = np.hstack(
            [rng.uniform(-1, 2, size=(32, 2)), rng.uniform(0.05, 0.3, size=(32, 1))]
        )
        plain = model.predict_mean_batch(matrix)
        values, covered = model.predict_mean_batch_with_coverage(matrix)
        assert np.array_equal(plain, values)
        assert np.array_equal(covered, model.predict_mean_batch_with_coverage(matrix)[1])
        # Covered rows are exactly those the brute-force oracle does not
        # extrapolate.
        oracle = ModelOracle(maps)
        for row, is_covered in zip(matrix, covered):
            query = Query(center=row[:-1], radius=float(row[-1]))
            assert bool(is_covered) == (not oracle.neighborhood(query)[2])

    def test_q2_with_coverage_matches_plain_batch(self, maps):
        model = _model(maps)
        matrix = np.array([[0.5, 0.5, 0.6], [4.0, 4.0, 0.05]])
        plain = model.predict_q2_batch(matrix)
        planes, covered = model.predict_q2_batch_with_coverage(matrix)
        assert covered.tolist() == [True, False]
        assert [len(plane_list) for plane_list in plain] == [
            len(plane_list) for plane_list in planes
        ]
        # The uncovered query still gets its extrapolated single plane.
        assert len(planes[1]) == 1
        assert planes[1][0].weight == pytest.approx(1.0)

    def test_model_level_coverage_groups_norm_orders(self):
        # A tiny hand-built model exercising the Query-sequence grouping.
        model = _model(
            [_llm([0.2, 0.2], 0.1, mean=0.2), _llm([0.8, 0.8], 0.1, mean=0.8)]
        )
        queries = [
            Query(center=np.array([0.2, 0.2]), radius=0.1, norm_order=2.0),
            Query(center=np.array([4.0, 4.0]), radius=0.1, norm_order=1.0),
            Query(center=np.array([0.8, 0.8]), radius=0.1, norm_order=float("inf")),
        ]
        values, covered = model.predict_mean_batch_with_coverage(queries)
        assert covered.tolist() == [True, False, True]
        assert np.array_equal(values, model.predict_mean_batch(queries))
        assert np.array_equal(covered, model.predict_mean_batch_with_coverage(queries)[1])
        plane_lists, q2_covered = model.predict_q2_batch_with_coverage(queries)
        assert q2_covered.tolist() == [True, False, True]
        assert len(plane_lists) == 3


class TestValuePrediction:
    def test_value_prediction_uses_own_radius(self):
        # Radius slope is huge; Equation (14) must ignore it by evaluating
        # each LLM at its own radius.
        llm = _llm([0.5], 0.1, mean=1.0, slope=[2.0, 100.0])
        model = _model([llm])
        value = model.predict_value(np.array([0.6]), radius=0.1)
        assert value == pytest.approx(1.0 + 2.0 * 0.1)

    def test_batch_value_prediction(self, maps):
        model = _model(maps)
        points = np.array([[0.2, 0.2], [0.5, 0.5], [0.8, 0.8]])
        values = model.predict_value_batch(points, radius=0.1)
        assert np.allclose(values, [0.2, 0.5, 0.8])
