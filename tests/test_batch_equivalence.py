"""Equivalence suite: the batch kernels vs the brute-force oracle.

The batch engine (``predict_mean_batch`` / ``predict_q2_batch`` /
``predict_value_batch``) computes the full ``(m, K)`` overlap-weight matrix
and the weighted LLM evaluations as matrix operations.  These tests assert
that the batched answers agree with :mod:`repro.testing.oracle` (map-by-map
Algorithms 2 and 3 and Equation 14 from the scalar Eq. 9 degree; a full Lp
scan plus ``lstsq`` on the exact side) to within 1e-12 across dimensions d
in {1, 2, 6} and norm orders {1, 2, 3, inf}, including the zero-overlap
extrapolation branch next to covered rows and prototypes whose radius is
zero, negative or infinite.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ModelConfig, TrainingConfig
from repro.core.model import LLMModel
from repro.core.persistence import model_from_dict
from repro.core.prediction import NeighborhoodPredictor
from repro.core.prototypes import LocalLinearMap
from repro.exceptions import DimensionalityMismatchError, InvalidQueryError
from repro.queries.query import Query
from repro.testing.oracle import ExactOracle, ModelOracle

DIMENSIONS = (1, 2, 6)
TOLERANCE = 1e-12
#: The model's batch methods over a ``Query`` sequence or a raw matrix.
BATCH_METHODS = (
    "predict_mean_batch",
    "predict_mean_batch_with_coverage",
    "predict_q2_batch",
    "predict_q2_batch_with_coverage",
)


def _synthetic_maps(dimension: int, count: int = 40, seed: int = 5) -> list[LocalLinearMap]:
    rng = np.random.default_rng(seed)
    maps = []
    for _ in range(count):
        center = rng.uniform(0.0, 1.0, size=dimension)
        radius = rng.uniform(0.05, 0.3)
        prototype = np.concatenate([center, [radius]])
        slope = rng.normal(0.0, 1.0, size=dimension + 1)
        maps.append(
            LocalLinearMap(
                prototype=prototype,
                mean_output=float(rng.normal(0.0, 2.0)),
                slope=slope,
            )
        )
    return maps


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


def _mixed_queries(dimension: int, count: int = 60, seed: int = 11) -> list[Query]:
    """Queries inside the prototype cloud plus far-away extrapolation probes."""
    rng = np.random.default_rng(seed)
    queries = []
    for index in range(count):
        if index % 7 == 0:
            # Far outside [0, 1]^d with a tiny radius: empty overlap set.
            center = rng.uniform(8.0, 9.0, size=dimension)
            radius = 0.01
        else:
            center = rng.uniform(0.0, 1.0, size=dimension)
            radius = float(rng.uniform(0.02, 0.4))
        queries.append(Query(center=center, radius=radius))
    return queries


@pytest.fixture(params=DIMENSIONS, scope="module")
def setup(request):
    dimension = request.param
    maps = _synthetic_maps(dimension)
    model = _model(maps)
    queries = _mixed_queries(dimension)
    matrix = np.vstack([query.to_vector() for query in queries])
    return dimension, maps, model, queries, matrix


NORM_ORDERS = (1.0, 2.0, 3.0, np.inf)


def _dense_oracle_rows(oracle: ModelOracle, queries, count: int):
    """The oracle's ``(m, K)`` weights and extrapolated-row mask."""
    weights = np.zeros((len(queries), count))
    extrapolated = np.zeros(len(queries), dtype=bool)
    for row, query in enumerate(queries):
        indices, row_weights, extrapolated[row] = oracle.neighborhood(query)
        weights[row, indices] = row_weights
    return weights, extrapolated


class TestNeighborhoodKernel:
    """The fused Eq. 9 pass of ``NeighborhoodPredictor`` vs the scalar oracle."""

    @pytest.mark.parametrize("p", NORM_ORDERS)
    def test_weights_and_coverage_match_the_oracle(self, setup, p):
        # Every seventh query is far outside the prototypes: uncovered rows
        # sit next to covered ones in one batch.
        dimension, maps, model, queries, matrix = setup
        queries = [query.with_norm_order(p) for query in queries]
        values, weights, covered = model._predictor().q1(matrix, p)
        expected, extrapolated = _dense_oracle_rows(
            ModelOracle(maps), queries, len(maps)
        )
        assert extrapolated.any() and not extrapolated.all()
        np.testing.assert_array_equal(covered, ~extrapolated)
        np.testing.assert_allclose(weights, expected, rtol=0.0, atol=TOLERANCE)
        oracle = ModelOracle(maps)
        np.testing.assert_allclose(
            values,
            [oracle.predict_mean(query) for query in queries],
            rtol=0.0,
            atol=TOLERANCE,
        )

    @pytest.mark.parametrize("p", NORM_ORDERS)
    def test_prototype_radius_edge_cases(self, p):
        """Zero, negative and infinite prototype radii overlap no query.

        Eq. 9 over a zero radius is ``1 - max(D, theta) / theta <= 0``; the
        kernel takes a negative radius as zero, and an infinite one gives
        ``inf / inf``, a NaN degree that counts as no overlap.  A query
        overlapping none of the rest takes the closest prototype alone.
        A model file cannot hold an infinite radius (persistence refuses
        it), so the kernel is built from the maps' arrays directly.
        """
        rng = np.random.default_rng(17)
        maps = _synthetic_maps(2, count=12, seed=19)
        odd_radii = {0: 0.0, 3: -0.2, 5: -1e-12, 8: np.inf}
        maps = [
            LocalLinearMap(
                prototype=np.append(llm.center, odd_radii.get(k, llm.radius)),
                mean_output=llm.mean_output,
                slope=llm.slope,
            )
            for k, llm in enumerate(maps)
        ]
        predictor = NeighborhoodPredictor(
            np.vstack([llm.prototype for llm in maps]),
            np.vstack([llm.slope for llm in maps]),
            np.array([llm.mean_output for llm in maps]),
        )
        centers = np.vstack(
            [llm.center for llm in maps] + [rng.uniform(4.0, 5.0, size=(4, 2))]
        )
        queries = [
            Query(center=center, radius=0.15, norm_order=p) for center in centers
        ]
        matrix = np.vstack([query.to_vector() for query in queries])
        # The infinite radius makes its own LLM's value and degree inf / inf.
        with np.errstate(invalid="ignore"):
            _, weights, covered = predictor.q1(matrix, p)
        assert (weights[covered][:, list(odd_radii)] == 0.0).all()
        # The regular prototypes' weights are the oracle's over them alone.
        regular = [k for k in range(len(maps)) if k not in odd_radii]
        oracle = ModelOracle([maps[k] for k in regular])
        for row in np.flatnonzero(covered):
            indices, row_weights, extrapolated = oracle.neighborhood(queries[row])
            assert not extrapolated
            expected = np.zeros(len(maps))
            expected[np.array(regular)[indices]] = row_weights
            np.testing.assert_allclose(weights[row], expected, rtol=0.0, atol=TOLERANCE)
        # Uncovered rows weigh the closest prototype in [x, theta] space.
        prototypes = np.vstack([llm.prototype for llm in maps])
        for row in np.flatnonzero(~covered):
            with np.errstate(invalid="ignore"):
                nearest = np.argmin(np.linalg.norm(prototypes - matrix[row], axis=1))
            assert weights[row].tolist() == np.eye(len(maps))[nearest].tolist()
        assert covered.any() and not covered.all()


class TestQ1Equivalence:
    def test_batch_matches_single(self, setup):
        _, maps, model, queries, matrix = setup
        batch = model.predict_mean_batch(matrix)
        oracle = ModelOracle(maps)
        single = np.array([oracle.predict_mean(query) for query in queries])
        assert batch.shape == single.shape
        np.testing.assert_allclose(batch, single, rtol=0.0, atol=TOLERANCE)

    def test_extrapolation_branch_is_exercised(self, setup):
        _, maps, _, queries, _ = setup
        oracle = ModelOracle(maps)
        flags = [oracle.neighborhood(query)[2] for query in queries]
        assert any(flags) and not all(flags)

    def test_batch_reports_extrapolated_rows(self, setup):
        _, maps, model, queries, matrix = setup
        extrapolated = ~model.predict_mean_batch_with_coverage(matrix)[1]
        oracle = ModelOracle(maps)
        expected = np.array([oracle.neighborhood(query)[2] for query in queries])
        np.testing.assert_array_equal(extrapolated, expected)


class TestQ2Equivalence:
    def test_batch_planes_match_single(self, setup):
        _, maps, model, queries, matrix = setup
        batch = model.predict_q2_batch(matrix)
        assert len(batch) == len(queries)
        oracle = ModelOracle(maps)
        for planes, query in zip(batch, queries):
            expected = oracle.regression_models(query)
            assert len(planes) == len(expected)
            for plane, reference in zip(planes, expected):
                assert plane.weight == pytest.approx(reference.weight, abs=TOLERANCE)
                assert plane.intercept == pytest.approx(
                    reference.intercept, abs=TOLERANCE
                )
                np.testing.assert_allclose(
                    plane.slope, reference.slope, rtol=0.0, atol=TOLERANCE
                )


class TestValuePredictionEquivalence:
    def test_batch_matches_single(self, setup):
        dimension, maps, model, _, _ = setup
        rng = np.random.default_rng(23)
        points = np.vstack(
            [
                rng.uniform(0.0, 1.0, size=(30, dimension)),
                rng.uniform(7.0, 8.0, size=(5, dimension)),  # extrapolation
            ]
        )
        radius = 0.15
        batch = model.predict_value_batch(points, radius)
        oracle = ModelOracle(maps)
        single = np.array([oracle.predict_value(point, radius) for point in points])
        np.testing.assert_allclose(batch, single, rtol=0.0, atol=TOLERANCE)


class TestModelBatchAPI:
    @pytest.fixture(scope="class")
    def trained(self) -> LLMModel:
        rng = np.random.default_rng(2)
        model = LLMModel(
            dimension=2,
            config=ModelConfig(quantization_coefficient=0.1),
            training=TrainingConfig(convergence_threshold=1e-6),
        )
        for _ in range(600):
            center = rng.uniform(0, 1, size=2)
            query = Query(center=center, radius=float(rng.uniform(0.05, 0.2)))
            model.partial_fit(query, float(center[0] + 2 * center[1]))
        return model

    def test_predict_mean_batch_matches_loop(self, trained):
        queries = _mixed_queries(2, count=40, seed=31)
        batch = trained.predict_mean_batch(queries)
        oracle = ModelOracle(trained.local_maps)
        single = np.array([oracle.predict_mean(query) for query in queries])
        np.testing.assert_allclose(batch, single, rtol=0.0, atol=TOLERANCE)

    def test_heterogeneous_norm_orders(self, trained):
        rng = np.random.default_rng(41)
        queries = [
            Query(
                center=rng.uniform(0, 1, size=2),
                radius=float(rng.uniform(0.05, 0.3)),
                norm_order=order,
            )
            for order in (1.0, 2.0, np.inf, 2.0, 1.0, 3.0)
        ]
        batch = trained.predict_mean_batch(queries)
        oracle = ModelOracle(trained.local_maps)
        single = np.array([oracle.predict_mean(query) for query in queries])
        np.testing.assert_allclose(batch, single, rtol=0.0, atol=TOLERANCE)

    def test_q2_batch_matches_loop(self, trained):
        queries = _mixed_queries(2, count=15, seed=43)
        batch = trained.predict_q2_batch(queries)
        oracle = ModelOracle(trained.local_maps)
        for planes, query in zip(batch, queries):
            expected = oracle.regression_models(query)
            assert len(planes) == len(expected)
            for plane, reference in zip(planes, expected):
                assert plane.weight == pytest.approx(reference.weight, abs=TOLERANCE)

    def test_value_batch_matches_loop(self, trained):
        rng = np.random.default_rng(47)
        points = rng.uniform(0, 1, size=(20, 2))
        batch = trained.predict_value_batch(points, 0.1)
        oracle = ModelOracle(trained.local_maps)
        single = np.array(
            [oracle.predict_value(p, 0.1, trained.config.norm_order) for p in points]
        )
        np.testing.assert_allclose(batch, single, rtol=0.0, atol=TOLERANCE)

    def test_raw_matrix_input(self, trained):
        queries = _mixed_queries(2, count=8, seed=53)
        matrix = np.vstack([query.to_vector() for query in queries])
        np.testing.assert_allclose(
            trained.predict_mean_batch(matrix),
            trained.predict_mean_batch(queries),
            rtol=0.0,
            atol=TOLERANCE,
        )

    def test_empty_batch(self, trained):
        assert trained.predict_mean_batch([]).shape == (0,)

    def test_invalid_matrix_rejected(self, trained):
        with pytest.raises(InvalidQueryError):
            trained.predict_mean_batch(np.array([[0.5, 0.5, -0.1]]))
        with pytest.raises(DimensionalityMismatchError):
            trained.predict_mean_batch(np.array([[0.5, 0.5]]))

    @pytest.mark.parametrize("method", BATCH_METHODS)
    def test_mixed_dimensions_rejected(self, trained, method):
        flat = Query(center=np.array([0.5]), radius=0.1)
        plane = Query(center=np.array([0.5, 0.5]), radius=0.1)
        for queries in ([plane, flat], [flat, plane], [flat, flat]):
            with pytest.raises(DimensionalityMismatchError):
                getattr(trained, method)(queries)

    @pytest.mark.parametrize("method", BATCH_METHODS)
    @pytest.mark.parametrize("norm_order", (0.5, -1.0, 0.0, float("nan")))
    def test_matrix_norm_order_below_one_rejected(self, trained, method, norm_order):
        # ``Query`` and ``ModelConfig`` refuse the same orders.
        with pytest.raises(InvalidQueryError):
            getattr(trained, method)(np.array([[0.5, 0.5, 0.1]]), norm_order=norm_order)


class TestExecutorQ2BatchEquivalence:
    """``execute_q2_batch`` vs the full-scan ``lstsq`` oracle."""

    @pytest.fixture(params=DIMENSIONS, scope="class")
    def setup(self, request):
        from repro.data.synthetic import SyntheticDataset
        from repro.dbms.executor import ExactQueryEngine

        dimension = request.param
        rng = np.random.default_rng(29)
        inputs = rng.uniform(0, 1, size=(3_000, dimension))
        slope = rng.normal(0.0, 1.0, size=dimension)
        outputs = 1.0 + inputs @ slope + 0.05 * rng.normal(size=3_000)
        dataset = SyntheticDataset(
            inputs=inputs,
            outputs=outputs,
            name=f"q2batch{dimension}",
            domain=(0.0, 1.0),
        )
        queries = []
        for index in range(30):
            if index % 9 == 0:
                queries.append(
                    Query(center=rng.uniform(6, 7, size=dimension), radius=0.01)
                )
            elif index % 7 == 0:
                anchor = inputs[int(rng.integers(3_000))]
                queries.append(Query(center=anchor + 1e-6, radius=2e-4))
            else:
                order = (1.0, 2.0, np.inf)[index % 3]
                queries.append(
                    Query(
                        center=rng.uniform(0, 1, size=dimension),
                        radius=float(rng.uniform(0.05, 0.4)),
                        norm_order=order,
                    )
                )
        return dataset, queries

    def test_batch_matches_per_query(self, setup):
        from repro.dbms.executor import ExactQueryEngine

        dataset, queries = setup
        engine = ExactQueryEngine(dataset)
        answers = engine.execute_q2_batch(queries, on_empty="null")
        oracle = ExactOracle(dataset.inputs, dataset.outputs)
        for query, answer in zip(queries, answers):
            expected = oracle.q2(query)
            if expected is None:
                assert answer is None
                continue
            assert answer is not None
            assert answer.cardinality == oracle.count(query)
            np.testing.assert_allclose(
                answer.mean, oracle.mean(query), rtol=TOLERANCE, atol=TOLERANCE
            )
            np.testing.assert_allclose(
                oracle.fitted(query, answer.coefficients),
                oracle.fitted(query, expected),
                rtol=TOLERANCE,
                atol=TOLERANCE,
            )
            np.testing.assert_allclose(
                answer.coefficients, expected, rtol=1e-9, atol=TOLERANCE
            )
            np.testing.assert_allclose(
                answer.r_squared, oracle.r_squared(query), rtol=1e-9, atol=1e-9
            )

    def test_on_empty_raise(self, setup):
        from repro.dbms.executor import ExactQueryEngine

        dataset, _ = setup
        engine = ExactQueryEngine(dataset)
        from repro.exceptions import EmptySubspaceError

        with pytest.raises(EmptySubspaceError):
            engine.execute_q2_batch(
                [Query(center=np.full(dataset.dimension, 9.0), radius=0.01)]
            )

    def test_empty_batch(self, setup):
        from repro.dbms.executor import ExactQueryEngine

        dataset, _ = setup
        assert ExactQueryEngine(dataset).execute_q2_batch([]) == []


class TestExecutorBatchEquivalence:
    @pytest.fixture(scope="class")
    def engine(self):
        from repro.data.synthetic import SyntheticDataset
        from repro.dbms.executor import ExactQueryEngine

        rng = np.random.default_rng(7)
        inputs = rng.uniform(0, 1, size=(4_000, 2))
        outputs = 1.0 + inputs[:, 0] - 2.0 * inputs[:, 1]
        dataset = SyntheticDataset(
            inputs=inputs, outputs=outputs, name="batch2d", domain=(0.0, 1.0)
        )
        return dataset, ExactQueryEngine(dataset)

    def test_batch_matches_single_indexed(self, engine):
        dataset, indexed = engine
        queries = _mixed_queries(2, count=20, seed=61)
        answers = indexed.execute_q1_batch(queries, on_empty="null")
        oracle = ExactOracle(dataset.inputs, dataset.outputs)
        for query, answer in zip(queries, answers):
            expected = oracle.mean(query)
            if expected is None:
                assert answer is None
                continue
            assert answer is not None
            assert answer.mean == pytest.approx(expected, abs=1e-12)
            assert answer.cardinality == oracle.count(query)

    def test_batch_matches_single_across_norms(self, engine):
        dataset, indexed = engine
        queries = [
            Query(center=np.array([0.5, 0.5]), radius=0.2),
            Query(center=np.array([0.2, 0.8]), radius=0.3, norm_order=1.0),
            Query(center=np.array([0.7, 0.3]), radius=0.25, norm_order=np.inf),
        ]
        answers = indexed.execute_q1_batch(queries)
        oracle = ExactOracle(dataset.inputs, dataset.outputs)
        for query, answer in zip(queries, answers):
            assert answer.mean == pytest.approx(oracle.mean(query), rel=1e-12)
            assert answer.cardinality == oracle.count(query)
