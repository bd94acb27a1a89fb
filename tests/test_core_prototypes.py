"""Tests for the local linear map containers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.prototypes import LocalLinearMap, LocalModelParameters, RegressionPlane
from repro.exceptions import DimensionalityMismatchError, InvalidQueryError


class TestRegressionPlane:
    def test_prediction(self):
        plane = RegressionPlane(
            intercept=1.0,
            slope=np.array([2.0, -1.0]),
            prototype_center=np.array([0.5, 0.5]),
            prototype_radius=0.1,
        )
        assert plane.predict(np.array([1.0, 1.0])) == pytest.approx(2.0)
        batch = plane.predict(np.array([[0.0, 0.0], [1.0, 0.0]]))
        assert np.allclose(batch, [1.0, 3.0])

    def test_coefficients_layout(self):
        plane = RegressionPlane(
            intercept=0.5,
            slope=np.array([1.0]),
            prototype_center=np.array([0.0]),
            prototype_radius=0.1,
        )
        assert np.allclose(plane.coefficients(), [0.5, 1.0])

    def test_dimension_mismatch(self):
        plane = RegressionPlane(
            intercept=0.0,
            slope=np.array([1.0, 1.0]),
            prototype_center=np.array([0.0, 0.0]),
            prototype_radius=0.1,
        )
        with pytest.raises(DimensionalityMismatchError):
            plane.predict(np.array([1.0]))

    def test_slope_center_mismatch_rejected(self):
        with pytest.raises(DimensionalityMismatchError):
            RegressionPlane(
                intercept=0.0,
                slope=np.array([1.0]),
                prototype_center=np.array([0.0, 0.0]),
                prototype_radius=0.1,
            )


class TestLocalLinearMap:
    def test_rejects_scalar_prototype(self):
        with pytest.raises(InvalidQueryError):
            LocalLinearMap(prototype=np.array([1.0]))

    def test_rejects_mismatched_slope(self):
        with pytest.raises(DimensionalityMismatchError):
            LocalLinearMap(prototype=np.array([0.0, 0.0, 0.1]), slope=np.array([1.0]))

    def test_evaluate_at_prototype_returns_mean(self):
        llm = LocalLinearMap(
            prototype=np.array([0.5, 0.5, 0.1]),
            mean_output=0.3,
            slope=np.array([1.0, -1.0, 0.5]),
        )
        assert llm.evaluate(np.array([0.5, 0.5, 0.1])) == pytest.approx(0.3)

    def test_evaluate_linearity(self):
        llm = LocalLinearMap(
            prototype=np.array([0.0, 0.0, 0.1]),
            mean_output=1.0,
            slope=np.array([2.0, 0.0, 3.0]),
        )
        assert llm.evaluate(np.array([0.5, 0.0, 0.1])) == pytest.approx(2.0)
        assert llm.evaluate(np.array([0.0, 0.0, 0.2])) == pytest.approx(1.3)

    def test_evaluate_at_own_radius_ignores_radius_slope(self):
        llm = LocalLinearMap(
            prototype=np.array([0.0, 0.1]),
            mean_output=1.0,
            slope=np.array([2.0, 100.0]),
        )
        assert llm.evaluate_at_own_radius(np.array([0.5])) == pytest.approx(2.0)

    def test_distance_to(self):
        llm = LocalLinearMap(prototype=np.array([0.0, 0.0, 0.1]))
        assert llm.distance_to(np.array([0.0, 0.0, 0.1])) == 0.0
        assert llm.distance_to(np.array([3.0, 4.0, 0.1])) == pytest.approx(5.0)

    def test_regression_plane_matches_theorem_three(self):
        # Theorem 3: slope is b_{X,k}, intercept is y_k - b_{X,k} x_k^T.
        llm = LocalLinearMap(
            prototype=np.array([0.5, 0.25, 0.1]),
            mean_output=2.0,
            slope=np.array([3.0, -2.0, 0.7]),
        )
        plane = llm.regression_plane()
        assert np.allclose(plane.slope, [3.0, -2.0])
        assert plane.intercept == pytest.approx(2.0 - (3.0 * 0.5 - 2.0 * 0.25))
        # The plane and the LLM agree at the prototype center.
        assert plane.predict(llm.center) == pytest.approx(llm.mean_output)

    def test_shift_operations(self):
        llm = LocalLinearMap(prototype=np.array([0.2, 0.8, 0.1]), mean_output=0.7)
        # The prototype splits into center and radius; the slope starts at 0.
        assert llm.dimension == 2
        assert np.allclose(llm.center, [0.2, 0.8])
        assert llm.radius == pytest.approx(0.1)
        assert llm.mean_output == pytest.approx(0.7)
        assert np.allclose(llm.slope, 0.0)
        llm.shift_prototype(np.array([0.1, 0.0, 0.0]))
        llm.shift_slope(np.array([0.0, 0.5, 0.0]))
        llm.shift_mean_output(0.25)
        assert np.allclose(llm.prototype, [0.3, 0.8, 0.1])
        assert np.allclose(llm.slope, [0.0, 0.5, 0.0])
        assert llm.mean_output == pytest.approx(0.95)

    def test_serialisation_round_trip(self):
        llm = LocalLinearMap(
            prototype=np.array([0.1, 0.2, 0.3]),
            mean_output=0.4,
            slope=np.array([0.5, 0.6, 0.7]),
        )
        llm.updates = 9
        rebuilt = LocalLinearMap.from_dict(llm.to_dict())
        assert np.allclose(rebuilt.prototype, llm.prototype)
        assert np.allclose(rebuilt.slope, llm.slope)
        assert rebuilt.mean_output == pytest.approx(llm.mean_output)
        assert rebuilt.updates == 9


class TestLocalModelParameters:
    def test_add_and_iterate(self):
        params = LocalModelParameters()
        params.add(LocalLinearMap(prototype=np.array([0.0, 0.1])))
        params.add(LocalLinearMap(prototype=np.array([1.0, 0.1])))
        assert len(params) == 2
        assert params.prototype_count == 2
        assert params.prototype_matrix().shape == (2, 2)

    def test_add_rejects_dimension_mismatch(self):
        params = LocalModelParameters()
        params.add(LocalLinearMap(prototype=np.array([0.0, 0.1])))
        with pytest.raises(DimensionalityMismatchError):
            params.add(LocalLinearMap(prototype=np.array([0.0, 0.0, 0.1])))

    def test_snapshot(self):
        params = LocalModelParameters()
        params.add(LocalLinearMap(prototype=np.array([0.0, 0.1]), mean_output=1.0))
        snapshot = params.snapshot()
        assert len(snapshot) == 1
        assert snapshot[0]["mean_output"] == 1.0

    def test_empty_matrix(self):
        assert LocalModelParameters().prototype_matrix().size == 0

    def test_dense_store_write_through(self):
        # SGD shifts a prototype in place; the shared dense matrix must see
        # the update without any re-stacking.
        params = LocalModelParameters()
        llm = LocalLinearMap(prototype=np.array([0.0, 0.0, 0.1]))
        params.add(llm)
        llm.shift_prototype(np.array([0.5, -0.5, 0.0]))
        assert np.allclose(params.prototype_view()[0], [0.5, -0.5, 0.1])
        assert np.allclose(params.prototype_matrix()[0], [0.5, -0.5, 0.1])

    def test_capacity_doubling_preserves_write_through(self):
        params = LocalModelParameters()
        maps = [
            LocalLinearMap(prototype=np.array([float(i), 0.0, 0.1]))
            for i in range(20)  # forces several capacity doublings
        ]
        for llm in maps:
            params.add(llm)
        maps[0].shift_prototype(np.array([0.25, 0.0, 0.0]))
        maps[-1].shift_prototype(np.array([-0.25, 0.0, 0.0]))
        view = params.prototype_view()
        assert view.shape == (20, 3)
        assert view[0, 0] == pytest.approx(0.25)
        assert view[-1, 0] == pytest.approx(19.0 - 0.25)

    def test_prototype_view_is_read_only(self):
        params = LocalModelParameters()
        params.add(LocalLinearMap(prototype=np.array([0.0, 0.1])))
        view = params.prototype_view()
        with pytest.raises(ValueError):
            view[0, 0] = 1.0

    def test_prototype_matrix_is_an_independent_copy(self):
        params = LocalModelParameters()
        llm = LocalLinearMap(prototype=np.array([0.0, 0.1]))
        params.add(llm)
        matrix = params.prototype_matrix()
        llm.shift_prototype(np.array([1.0, 0.0]))
        assert matrix[0, 0] == pytest.approx(0.0)

    def test_maps_view_is_cached_until_growth(self):
        params = LocalModelParameters()
        params.add(LocalLinearMap(prototype=np.array([0.0, 0.1])))
        first = params.maps_view
        assert params.maps_view is first
        params.add(LocalLinearMap(prototype=np.array([1.0, 0.1])))
        second = params.maps_view
        assert second is not first
        assert len(second) == 2

    def test_construction_from_existing_maps(self):
        maps = [
            LocalLinearMap(prototype=np.array([0.0, 0.1])),
            LocalLinearMap(prototype=np.array([1.0, 0.2])),
        ]
        params = LocalModelParameters(maps=maps)
        assert params.prototype_matrix().shape == (2, 2)
        maps[0].shift_prototype(np.array([0.5, 0.0]))
        assert params.prototype_view()[0, 0] == pytest.approx(0.5)


class TestRegressionPlanePredictShapes:
    """The return type of RegressionPlane.predict follows the input rank."""

    def _plane(self) -> RegressionPlane:
        return RegressionPlane(
            intercept=1.0,
            slope=np.array([2.0, -1.0]),
            prototype_center=np.array([0.5, 0.5]),
            prototype_radius=0.1,
        )

    def test_single_point_returns_python_float(self):
        # Scalar probes (e.g. the value-prediction metrics) rely on a plain
        # float coming back for 1-D input.
        value = self._plane().predict(np.array([1.0, 1.0]))
        assert isinstance(value, float)
        assert value == pytest.approx(2.0)

    def test_point_batch_returns_vector(self):
        # The subspace evaluators assign the result into a masked slice of a
        # prediction vector and rely on an (n,)-shaped array for 2-D input.
        points = np.array([[1.0, 1.0], [0.0, 0.0], [0.5, 0.5]])
        values = self._plane().predict(points)
        assert isinstance(values, np.ndarray)
        assert values.shape == (3,)
        out = np.empty(3)
        mask = np.array([True, False, True])
        out[mask] = self._plane().predict(points[mask])
        assert out[0] == pytest.approx(2.0)
