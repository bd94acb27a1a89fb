"""Tests for the analytic data functions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.functions import (
    PiecewiseNonLinear1D,
    ProductSaddle,
    Rosenbrock,
    SineRidge,
    get_data_function,
)
from repro.exceptions import ConfigurationError, DimensionalityMismatchError


class TestRosenbrock:
    def test_global_minimum_is_zero_at_ones(self):
        for dimension in (2, 3, 5):
            function = Rosenbrock(dimension)
            assert function(np.ones(dimension)) == pytest.approx(0.0)

    def test_known_value_2d(self):
        function = Rosenbrock(2)
        # g(0, 0) = 100*(0 - 0)^2 + (1 - 0)^2 = 1
        assert function(np.array([0.0, 0.0])) == pytest.approx(1.0)

    def test_batch_matches_scalar_evaluation(self):
        function = Rosenbrock(3)
        rng = np.random.default_rng(0)
        points = rng.uniform(-2, 2, size=(20, 3))
        batch = function(points)
        individual = np.array([function(point) for point in points])
        assert np.allclose(batch, individual)

    def test_values_are_non_negative(self):
        function = Rosenbrock(4)
        rng = np.random.default_rng(1)
        points = rng.uniform(-10, 10, size=(100, 4))
        assert np.all(function(points) >= 0.0)

    def test_rejects_one_dimension(self):
        with pytest.raises(ConfigurationError):
            Rosenbrock(1)

    def test_rejects_wrong_input_dimension(self):
        function = Rosenbrock(2)
        with pytest.raises(DimensionalityMismatchError):
            function(np.ones(3))


class TestProductSaddle:
    def test_matches_example_two_formula(self):
        function = ProductSaddle(2)
        # u = x1 (x2 + 1)
        assert function(np.array([0.5, 1.0])) == pytest.approx(1.0)
        assert function(np.array([2.0, -1.0])) == pytest.approx(0.0)

    def test_is_nonlinear(self):
        function = ProductSaddle(2)
        a = function(np.array([1.0, 1.0]))
        b = function(np.array([2.0, 2.0]))
        assert b != pytest.approx(2 * a)

    def test_one_dimensional_variant(self):
        function = ProductSaddle(1)
        assert function(np.array([2.0])) == pytest.approx(6.0)


class TestSineRidge:
    def test_output_is_bounded(self):
        function = SineRidge(3)
        rng = np.random.default_rng(0)
        points = rng.uniform(0, 1, size=(200, 3))
        values = function(points)
        assert np.all(values <= 2.0) and np.all(values >= -1.0)

    def test_rejects_bad_frequency(self):
        with pytest.raises(ConfigurationError):
            SineRidge(2, frequency=0.0)

    def test_deterministic(self):
        function = SineRidge(2)
        point = np.array([0.3, 0.7])
        assert function(point) == pytest.approx(function(point))


class TestPiecewise1D:
    def test_dimension_is_one(self):
        assert PiecewiseNonLinear1D().dimension == 1

    def test_has_multiple_local_trends(self):
        # The derivative changes sign at least twice over [0, 1].
        function = PiecewiseNonLinear1D()
        grid = np.linspace(0.0, 1.0, 400).reshape(-1, 1)
        values = function(grid)
        signs = np.sign(np.diff(values))
        sign_changes = np.sum(np.abs(np.diff(signs)) > 0)
        assert sign_changes >= 2

    def test_domain_is_unit_interval(self):
        assert PiecewiseNonLinear1D().domain == (0.0, 1.0)


class TestRegistry:
    def test_lists_all_functions(self):
        # An unknown name's error lists every registered function.
        with pytest.raises(ConfigurationError) as excinfo:
            get_data_function("not_a_function")
        for name in ("rosenbrock", "product_saddle", "sine_ridge", "piecewise_1d"):
            assert repr(name) in str(excinfo.value)

    def test_get_by_name(self):
        function = get_data_function("rosenbrock", dimension=3)
        assert isinstance(function, Rosenbrock)
        assert function.dimension == 3

    def test_get_piecewise_ignores_dimension(self):
        function = get_data_function("piecewise_1d", dimension=5)
        assert function.dimension == 1

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError):
            get_data_function("not_a_function")

    def test_sample_inputs_respect_domain(self):
        function = get_data_function("rosenbrock", dimension=2)
        samples = function.sample_inputs(100, np.random.default_rng(0))
        low, high = function.domain
        assert samples.min() >= low and samples.max() <= high
