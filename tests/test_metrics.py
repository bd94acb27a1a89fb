"""Tests for the scalar metrics and the evaluation helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.ols import OLSRegressor
from repro.config import ModelConfig
from repro.core.model import LLMModel
from repro.data.synthetic import SyntheticDataset
from repro.dbms.executor import ExactQueryEngine
from repro.exceptions import DimensionalityMismatchError
from repro.metrics.evaluation import (
    evaluate_q1_accuracy,
    evaluate_q2_goodness_of_fit,
    evaluate_value_prediction,
)
from repro.metrics.regression import (
    cod,
    coefficient_of_determination,
    fraction_of_variance_unexplained,
    fvu,
    mean_absolute_error,
    rmse,
    sum_of_squared_residuals,
    total_sum_of_squares,
)
from repro.queries.query import Query
from repro.queries.stream import LabelledWorkload
from repro.queries.workload import QueryWorkloadGenerator, RadiusDistribution, WorkloadSpec


class TestScalarMetrics:
    def test_rmse_of_perfect_prediction_is_zero(self):
        values = np.array([1.0, 2.0, 3.0])
        assert rmse(values, values) == 0.0

    def test_rmse_known_value(self):
        assert rmse([0.0, 0.0], [1.0, -1.0]) == pytest.approx(1.0)

    def test_mae_known_value(self):
        assert mean_absolute_error([0.0, 0.0], [2.0, -1.0]) == pytest.approx(1.5)

    def test_ssr_and_tss(self):
        actual = np.array([1.0, 2.0, 3.0])
        predicted = np.array([1.0, 2.0, 4.0])
        assert sum_of_squared_residuals(actual, predicted) == pytest.approx(1.0)
        assert total_sum_of_squares(actual) == pytest.approx(2.0)

    def test_fvu_and_cod_relationship(self):
        actual = np.array([1.0, 2.0, 3.0, 4.0])
        predicted = np.array([1.1, 1.9, 3.2, 3.8])
        assert cod(actual, predicted) == pytest.approx(1.0 - fvu(actual, predicted))

    def test_fvu_of_mean_prediction_is_one(self):
        actual = np.array([1.0, 2.0, 3.0])
        predicted = np.full(3, actual.mean())
        assert fvu(actual, predicted) == pytest.approx(1.0)

    def test_fvu_above_one_for_anti_correlated_prediction(self):
        actual = np.array([1.0, 2.0, 3.0])
        predicted = np.array([3.0, 2.0, 1.0])
        assert fvu(actual, predicted) > 1.0
        assert cod(actual, predicted) < 0.0

    def test_constant_actual_values(self):
        actual = np.full(4, 2.0)
        assert fvu(actual, actual) == 0.0
        assert np.isinf(fvu(actual, actual + 1.0))
        assert cod(actual, actual) == 1.0
        assert cod(actual, actual + 1.0) == float("-inf")

    def test_aliases_match_full_names(self):
        actual = np.array([1.0, 2.0, 4.0])
        predicted = np.array([1.5, 2.5, 3.0])
        assert fvu(actual, predicted) == fraction_of_variance_unexplained(actual, predicted)
        assert cod(actual, predicted) == coefficient_of_determination(actual, predicted)

    def test_length_mismatch_raises(self):
        with pytest.raises(DimensionalityMismatchError):
            rmse([1.0, 2.0], [1.0])

    def test_empty_input_raises(self):
        with pytest.raises(DimensionalityMismatchError):
            rmse([], [])
        with pytest.raises(DimensionalityMismatchError):
            total_sum_of_squares([])


@pytest.fixture(scope="module")
def evaluation_setup():
    """A trained model plus engine over a mildly non-linear dataset."""
    rng = np.random.default_rng(0)
    inputs = rng.uniform(0, 1, size=(6_000, 2))
    outputs = np.sin(2 * np.pi * inputs[:, 0]) * 0.5 + inputs[:, 1]
    dataset = SyntheticDataset(inputs=inputs, outputs=outputs, name="wavy", domain=(0.0, 1.0))
    engine = ExactQueryEngine(dataset)
    spec = WorkloadSpec(dimension=2, radius=RadiusDistribution(mean=0.12, std=0.02))
    queries = QueryWorkloadGenerator(spec, seed=1).generate(900)
    workload = LabelledWorkload.from_engine(queries, engine)
    model = LLMModel(dimension=2, config=ModelConfig(quantization_coefficient=0.06))
    model.fit(workload)
    test_queries = QueryWorkloadGenerator(spec, seed=99).generate(60)
    return model, engine, test_queries


class TestEvaluationHelpers:
    def test_q1_accuracy_report(self, evaluation_setup):
        model, engine, queries = evaluation_setup
        report = evaluate_q1_accuracy(model, engine, queries)
        assert report.evaluated_queries > 0
        assert report.rmse < 0.2
        assert report.actual.shape == report.predicted.shape

    def test_q1_accuracy_skips_empty_subspaces(self, evaluation_setup):
        model, engine, _ = evaluation_setup
        outside = [Query(center=np.array([9.0, 9.0]), radius=0.01)]
        report = evaluate_q1_accuracy(model, engine, outside)
        assert report.evaluated_queries == 0
        assert report.skipped_queries == 1
        assert np.isnan(report.rmse)

    def test_q2_goodness_of_fit_report(self, evaluation_setup):
        model, engine, queries = evaluation_setup
        analyst = [Query(center=q.center, radius=q.radius * 4) for q in queries[:15]]
        report = evaluate_q2_goodness_of_fit(
            model, engine, analyst, plr_max_basis_functions=8
        )
        assert report.evaluated_queries > 0
        # PLR has data access and flexible knots: it should fit at least as
        # well as a single global line.
        assert report.plr_fvu <= report.reg_fvu + 1e-9
        assert report.mean_local_models >= 1.0
        assert report.llm_cod == pytest.approx(1.0 - report.llm_fvu, abs=1e-9)

    def test_q2_report_with_no_valid_subspaces(self, evaluation_setup):
        model, engine, _ = evaluation_setup
        outside = [Query(center=np.array([9.0, 9.0]), radius=0.01)]
        report = evaluate_q2_goodness_of_fit(model, engine, outside)
        assert report.evaluated_queries == 0
        assert np.isnan(report.llm_fvu)

    def test_value_prediction_report(self, evaluation_setup):
        model, engine, queries = evaluation_setup
        report = evaluate_value_prediction(model, engine, queries[:15], seed=0)
        assert report["points"] > 0
        for key in ("llm", "reg", "plr"):
            assert np.isfinite(report[key])
        # A model without data access cannot beat PLR fitted on the subspace
        # by a large margin, but it should be in a comparable range.
        assert report["llm"] < 5 * max(report["plr"], 1e-3) + 0.5

    def test_value_prediction_empty(self, evaluation_setup):
        model, engine, _ = evaluation_setup
        outside = [Query(center=np.array([9.0, 9.0]), radius=0.01)]
        report = evaluate_value_prediction(model, engine, outside)
        assert report["points"] == 0
