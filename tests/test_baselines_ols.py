"""Tests for the OLS (REG) baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.ols import OLSRegressor
from repro.exceptions import (
    DimensionalityMismatchError,
    EmptySubspaceError,
    NotFittedError,
)


class TestFitting:
    def test_recovers_exact_linear_relationship(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, size=(200, 3))
        u = 0.5 - 2.0 * x[:, 0] + 1.5 * x[:, 1] + 0.25 * x[:, 2]
        model = OLSRegressor().fit(x, u)
        assert model.intercept == pytest.approx(0.5, abs=1e-9)
        assert np.allclose(model.slope, [-2.0, 1.5, 0.25], atol=1e-9)

    def test_noisy_fit_close_to_truth(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, size=(5_000, 2))
        u = 1.0 + 2.0 * x[:, 0] - 3.0 * x[:, 1] + rng.normal(0, 0.1, 5_000)
        model = OLSRegressor().fit(x, u)
        assert model.intercept == pytest.approx(1.0, abs=0.02)
        assert np.allclose(model.slope, [2.0, -3.0], atol=0.02)

    def test_single_row_fit_does_not_fail(self):
        model = OLSRegressor().fit(np.array([[1.0, 2.0]]), np.array([3.0]))
        assert model.predict(np.array([[1.0, 2.0]]))[0] == pytest.approx(3.0)

    def test_collinear_columns_handled(self):
        x = np.column_stack([np.arange(10.0), 2 * np.arange(10.0)])
        u = np.arange(10.0)
        model = OLSRegressor().fit(x, u)
        assert np.allclose(model.predict(x), u, atol=1e-8)

    def test_rejects_empty_input(self):
        with pytest.raises(EmptySubspaceError):
            OLSRegressor().fit(np.empty((0, 2)), np.empty(0))

    def test_rejects_mismatched_rows(self):
        with pytest.raises(DimensionalityMismatchError):
            OLSRegressor().fit(np.ones((5, 2)), np.ones(4))


class TestAccessorsAndPrediction:
    def test_requires_fit(self):
        model = OLSRegressor()
        with pytest.raises(NotFittedError):
            _ = model.coefficients
        with pytest.raises(NotFittedError):
            model.predict(np.ones((1, 2)))

    def test_coefficients_layout(self):
        x = np.array([[0.0], [1.0]])
        model = OLSRegressor().fit(x, np.array([1.0, 3.0]))
        assert np.allclose(model.coefficients, [1.0, 2.0])
        assert model.dimension == 1
        assert model.training_rows == 2

    def test_predict_dimension_mismatch(self):
        model = OLSRegressor().fit(np.ones((5, 2)), np.ones(5))
        with pytest.raises(DimensionalityMismatchError):
            model.predict(np.ones((3, 3)))

    def test_residuals_sum_to_zero_with_intercept(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(300, 2))
        u = 1.0 + x[:, 0] + rng.normal(0, 0.5, 300)
        model = OLSRegressor().fit(x, u)
        assert abs(model.residuals(x, u).sum()) < 1e-8


class TestDiagnostics:
    def test_r_squared_perfect_fit(self):
        x = np.arange(10.0).reshape(-1, 1)
        u = 3.0 * x.ravel() + 1.0
        model = OLSRegressor().fit(x, u)
        assert model.r_squared(x, u) == pytest.approx(1.0)

    def test_r_squared_no_relationship_near_zero(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2_000, 1))
        u = rng.normal(size=2_000)
        model = OLSRegressor().fit(x, u)
        assert abs(model.r_squared(x, u)) < 0.05

    def test_r_squared_constant_outputs(self):
        x = np.arange(5.0).reshape(-1, 1)
        u = np.full(5, 2.0)
        model = OLSRegressor().fit(x, u)
        assert model.r_squared(x, u) == pytest.approx(1.0)

    def test_ssr_non_negative(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(100, 2))
        u = rng.normal(size=100)
        model = OLSRegressor().fit(x, u)
        assert model.sum_of_squared_residuals(x, u) >= 0.0

    def test_standard_errors_shrink_with_more_data(self):
        rng = np.random.default_rng(5)

        def errors(n: int) -> np.ndarray:
            x = rng.uniform(-1, 1, size=(n, 1))
            u = 2.0 * x.ravel() + rng.normal(0, 0.3, n)
            model = OLSRegressor().fit(x, u)
            return model.coefficient_standard_errors(x, u)

        small = errors(50)
        large = errors(5_000)
        assert np.all(large < small)
