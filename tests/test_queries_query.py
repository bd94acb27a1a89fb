"""Tests for the Query and answer containers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.synthetic import SyntheticDataset
from repro.dbms.executor import ExactQueryEngine
from repro.exceptions import DimensionalityMismatchError, InvalidQueryError
from repro.queries.query import (
    Query,
    QueryAnswer,
    QueryResultPair,
    group_by_norm_order,
    query_distance,
)
from repro.testing.oracle import ExactOracle


class TestQueryConstruction:
    def test_basic_properties(self):
        query = Query(center=np.array([0.2, 0.4]), radius=0.1)
        assert query.dimension == 2
        assert query.radius == 0.1
        assert query.norm_order == 2.0

    def test_center_is_read_only(self):
        query = Query(center=np.array([0.2, 0.4]), radius=0.1)
        with pytest.raises(ValueError):
            query.center[0] = 9.0

    def test_accepts_list_center(self):
        query = Query(center=[0.1, 0.2, 0.3], radius=0.5)
        assert query.dimension == 3

    @pytest.mark.parametrize("radius", [0.0, -0.5, float("nan"), float("inf")])
    def test_rejects_bad_radius(self, radius):
        with pytest.raises(InvalidQueryError):
            Query(center=np.array([0.0]), radius=radius)

    def test_rejects_non_finite_center(self):
        with pytest.raises(InvalidQueryError):
            Query(center=np.array([np.nan, 0.0]), radius=0.1)

    def test_rejects_matrix_center(self):
        with pytest.raises(InvalidQueryError):
            Query(center=np.ones((2, 2)), radius=0.1)

    @pytest.mark.parametrize(
        ("radius", "order"),
        # An order below 1, then radius ** order underflowing (radius < 1)
        # or overflowing (radius > 1) float64.
        [(0.1, 0.3), (0.1, 1000.0), (0.3, 640.0), (0.05, 260.0), (2.0, 1100.0), (3.0, 700.0)],
    )
    def test_rejects_bad_norm(self, radius, order):
        with pytest.raises(InvalidQueryError):
            Query(center=np.array([0.5, 0.5]), radius=radius, norm_order=order)


class TestRadiusPowerBound:
    """While radius ** p is a normal float64, the engine selects the
    oracle's rows, and those are the rows of the true (max-scaled) Lp ball."""

    @pytest.mark.parametrize(
        ("scale", "radius", "order"),
        [(1.0, 0.1, 300.0), (1.0, 0.3, 500.0), (1.0, 0.05, 200.0), (10.0, 2.0, 1000.0)],
    )
    def test_engine_equals_oracle(self, scale, radius, order):
        rng = np.random.default_rng(0)
        inputs = rng.uniform(0.0, scale, size=(20_000, 2))
        outputs = inputs.sum(axis=1)
        engine = ExactQueryEngine(
            SyntheticDataset(
                inputs=inputs, outputs=outputs, name="t", domain=(0.0, scale)
            )
        )
        center = np.full(2, scale / 2)
        query = Query(center=center, radius=radius, norm_order=order)
        with np.errstate(over="ignore"):
            [answer] = engine.execute_q1_batch([query])
            count = ExactOracle(inputs, outputs).count(query)
        deltas = np.abs(inputs - center)
        largest = deltas.max(axis=1)
        true = largest * ((deltas / largest[:, None]) ** order).sum(axis=1) ** (
            1.0 / order
        )
        assert answer.cardinality == count == int((true <= radius).sum()) > 0


class TestQueryVectorRoundTrip:
    def test_to_vector_layout(self):
        query = Query(center=np.array([0.2, 0.4]), radius=0.1)
        assert np.allclose(query.to_vector(), [0.2, 0.4, 0.1])

    def test_round_trip(self):
        original = Query(center=np.array([0.3, 0.6, 0.9]), radius=0.25)
        rebuilt = Query.from_vector(original.to_vector())
        assert rebuilt.dimension == original.dimension
        assert np.allclose(rebuilt.center, original.center)
        assert rebuilt.radius == pytest.approx(original.radius)

    def test_from_vector_needs_two_components(self):
        with pytest.raises(InvalidQueryError):
            Query.from_vector(np.array([1.0]))


class TestQueryGeometry:
    def test_distance_includes_radius_component(self):
        first = Query(center=np.array([0.0, 0.0]), radius=0.1)
        second = Query(center=np.array([0.0, 0.0]), radius=0.3)
        assert first.distance_to(second) == pytest.approx(0.2)

    def test_distance_to_dimension_mismatch(self):
        first = Query(center=np.array([0.0]), radius=0.1)
        second = Query(center=np.array([0.0, 0.0]), radius=0.1)
        with pytest.raises(DimensionalityMismatchError):
            first.distance_to(second)

    def test_query_distance_helper(self):
        first = Query(center=np.array([0.0]), radius=0.1)
        second = Query(center=np.array([1.0]), radius=0.1)
        assert query_distance(first, second) == pytest.approx(1.0)

    def test_overlaps_and_degree_consistent(self):
        first = Query(center=np.array([0.0, 0.0]), radius=0.2)
        near = Query(center=np.array([0.1, 0.0]), radius=0.2)
        far = Query(center=np.array([5.0, 0.0]), radius=0.2)
        assert first.overlaps(near)
        assert first.overlap_degree(near) > 0.0
        assert not first.overlaps(far)
        assert first.overlap_degree(far) == 0.0

    def test_contains_point(self):
        query = Query(center=np.array([0.5, 0.5]), radius=0.1)
        assert query.contains_point(np.array([0.55, 0.5]))
        assert not query.contains_point(np.array([0.9, 0.9]))


class TestGroupByNormOrder:
    def test_one_order_keeps_the_arrays(self):
        queries = [Query(center=[0.1 * i, 0.2], radius=0.1) for i in range(3)]
        centers = np.array([query.center for query in queries])
        [(order, positions, (rows,))] = group_by_norm_order(queries, centers)
        assert order == 2.0
        assert positions.tolist() == [0, 1, 2]
        assert rows is centers

    def test_orders_ascend_and_positions_are_kept(self):
        orders = [2.0, float("inf"), 1.0, 2.0, 1.0]
        queries = [
            Query(center=[0.1 * i], radius=0.1, norm_order=p)
            for i, p in enumerate(orders)
        ]
        radii = np.array([0.1 * (i + 1) for i in range(5)])
        groups = group_by_norm_order(queries, radii)
        assert [(order, positions.tolist()) for order, positions, _ in groups] == [
            (1.0, [2, 4]),
            (2.0, [0, 3]),
            (float("inf"), [1]),
        ]
        for _, positions, (rows,) in groups:
            assert np.array_equal(rows, radii[positions])

    def test_empty_batch_has_no_group(self):
        assert group_by_norm_order([]) == []


class TestQueryAnswer:
    def test_valid_answer(self):
        answer = QueryAnswer(mean=0.4, cardinality=10)
        assert answer.coefficients is None
        assert answer.r_squared is None

    def test_rejects_negative_cardinality(self):
        with pytest.raises(InvalidQueryError):
            QueryAnswer(mean=0.0, cardinality=-1)

    def test_coefficients_are_read_only(self):
        answer = QueryAnswer(
            mean=0.4, cardinality=10, coefficients=np.array([1.0, 2.0]), r_squared=0.9
        )
        with pytest.raises(ValueError):
            answer.coefficients[0] = 5.0


class TestWithNormOrder:
    def test_returns_self_when_order_matches(self):
        query = Query(center=np.array([0.2, 0.3]), radius=0.1, norm_order=2.0)
        assert query.with_norm_order(2.0) is query

    def test_renorms_immutably(self):
        query = Query(center=np.array([0.2, 0.3]), radius=0.1)
        renormed = query.with_norm_order(float("inf"))
        assert renormed.norm_order == float("inf")
        assert renormed.radius == query.radius
        assert np.array_equal(renormed.center, query.center)
        assert query.norm_order == 2.0

    @pytest.mark.parametrize("order", [0.5, 1000.0])
    def test_rejects_invalid_order(self, order):
        query = Query(center=np.array([0.2]), radius=0.1)
        with pytest.raises(InvalidQueryError):
            query.with_norm_order(order)


class TestQueryResultPair:
    def test_valid_pair(self):
        pair = QueryResultPair(Query(center=np.array([0.0]), radius=0.1), answer=1.5)
        assert pair.answer == 1.5
        assert pair.metadata == {}

    def test_rejects_non_finite_answer(self):
        with pytest.raises(InvalidQueryError):
            QueryResultPair(Query(center=np.array([0.0]), radius=0.1), answer=float("nan"))
