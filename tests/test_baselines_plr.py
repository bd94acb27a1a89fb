"""Tests for the MARS-style piecewise linear regression (PLR) baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.plr import BasisFunction, MARSRegressor
from repro.exceptions import (
    ConfigurationError,
    DimensionalityMismatchError,
    EmptySubspaceError,
    NotFittedError,
)


class TestBasisFunction:
    def test_right_hinge(self):
        hinge = BasisFunction(variable=0, knot=0.5, sign=+1)
        values = hinge.evaluate(np.array([[0.2], [0.5], [0.9]]))
        assert np.allclose(values, [0.0, 0.0, 0.4])

    def test_left_hinge(self):
        hinge = BasisFunction(variable=0, knot=0.5, sign=-1)
        values = hinge.evaluate(np.array([[0.2], [0.5], [0.9]]))
        assert np.allclose(values, [0.3, 0.0, 0.0])

    def test_describe(self):
        assert "x1" in BasisFunction(0, 0.25, +1).describe()
        assert "0.25" in BasisFunction(0, 0.25, -1).describe()

    def test_rejects_bad_sign(self):
        with pytest.raises(ConfigurationError):
            BasisFunction(variable=0, knot=0.5, sign=0)

    def test_rejects_negative_variable(self):
        with pytest.raises(ConfigurationError):
            BasisFunction(variable=-1, knot=0.5, sign=1)


class TestMARSFitting:
    def test_fits_piecewise_linear_function_exactly(self):
        # u = |x - 0.5| is exactly representable with two hinges at 0.5.
        x = np.linspace(0, 1, 200).reshape(-1, 1)
        u = np.abs(x.ravel() - 0.5)
        model = MARSRegressor(max_basis_functions=6).fit(x, u)
        assert model.r_squared(x, u) > 0.999

    def test_outperforms_single_line_on_nonlinear_data(self):
        from repro.baselines.ols import OLSRegressor

        x = np.linspace(0, 1, 400).reshape(-1, 1)
        u = np.sin(2 * np.pi * x.ravel())
        plr = MARSRegressor(max_basis_functions=10).fit(x, u)
        ols = OLSRegressor().fit(x, u)
        assert plr.r_squared(x, u) > ols.r_squared(x, u) + 0.3

    def test_linear_data_needs_no_knots_after_pruning(self):
        x = np.linspace(0, 1, 100).reshape(-1, 1)
        u = 2.0 * x.ravel() + 1.0
        model = MARSRegressor(max_basis_functions=10).fit(x, u)
        # The GCV pruning should keep the model compact on linear data while
        # preserving essentially perfect fit.
        assert model.r_squared(x, u) > 0.999
        assert model.knot_count <= 2

    def test_multivariate_additive_function(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, size=(800, 2))
        u = np.abs(x[:, 0] - 0.3) + 2.0 * np.maximum(x[:, 1] - 0.6, 0.0)
        model = MARSRegressor(max_basis_functions=12).fit(x, u)
        assert model.r_squared(x, u) > 0.97

    def test_respects_max_basis_functions(self):
        x = np.linspace(0, 1, 300).reshape(-1, 1)
        u = np.sin(6 * np.pi * x.ravel())
        model = MARSRegressor(max_basis_functions=4).fit(x, u)
        assert model.knot_count <= 4

    def test_handful_of_rows(self):
        x = np.array([[0.0], [0.5], [1.0]])
        u = np.array([0.0, 1.0, 0.0])
        model = MARSRegressor(max_basis_functions=4).fit(x, u)
        assert np.all(np.isfinite(model.predict(x)))

    def test_rejects_empty(self):
        with pytest.raises(EmptySubspaceError):
            MARSRegressor().fit(np.empty((0, 1)), np.empty(0))

    def test_rejects_mismatched_rows(self):
        with pytest.raises(DimensionalityMismatchError):
            MARSRegressor().fit(np.ones((4, 1)), np.ones(3))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_basis_functions": 0},
            {"gcv_penalty": -1.0},
            {"max_candidate_knots": 0},
            {"min_improvement": -0.1},
        ],
    )
    def test_rejects_bad_configuration(self, kwargs):
        with pytest.raises(ConfigurationError):
            MARSRegressor(**kwargs)


class TestMARSPrediction:
    def test_requires_fit(self):
        with pytest.raises(NotFittedError):
            MARSRegressor().predict(np.ones((1, 1)))

    def test_predict_dimension_mismatch(self):
        model = MARSRegressor(max_basis_functions=2).fit(np.ones((10, 2)), np.ones(10))
        with pytest.raises(DimensionalityMismatchError):
            model.predict(np.ones((2, 3)))

    def test_coefficients_align_with_basis(self):
        x = np.linspace(0, 1, 100).reshape(-1, 1)
        u = np.abs(x.ravel() - 0.5)
        model = MARSRegressor(max_basis_functions=4).fit(x, u)
        assert model.coefficients.shape[0] == 1 + model.knot_count


class TestLinearSegments:
    def test_segments_cover_the_grid(self):
        x = np.linspace(0, 1, 300).reshape(-1, 1)
        u = np.abs(x.ravel() - 0.5)
        model = MARSRegressor(max_basis_functions=4).fit(x, u)
        segments = model.linear_segments_1d(np.linspace(0, 1, 50))
        assert segments[0][0] == pytest.approx(0.0)
        assert segments[-1][1] == pytest.approx(1.0)
        # Slopes on either side of 0.5 should have opposite signs.
        slopes = [segment[3] for segment in segments]
        assert min(slopes) < 0 < max(slopes)

    def test_segments_require_1d_model(self):
        model = MARSRegressor(max_basis_functions=2).fit(np.ones((10, 2)), np.ones(10))
        with pytest.raises(ConfigurationError):
            model.linear_segments_1d(np.linspace(0, 1, 10))
