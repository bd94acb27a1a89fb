"""Equivalence suite: the batch kernels vs the brute-force oracle.

The batch engine (``predict_mean_batch`` / ``predict_q2_batch`` /
``predict_value_batch``) computes the full ``(m, K)`` overlap-degree matrix
and the weighted LLM evaluations as matrix operations.  These tests assert
that the batched answers agree with :mod:`repro.testing.oracle` (map-by-map
Algorithms 2 and 3 and Equation 14; a full Lp scan plus ``lstsq`` on the
exact side) to within 1e-12 across dimensions d in {1, 2, 6}, including the
zero-overlap extrapolation branch and the (defensive) all-degrees-zero
uniform-weight branch, and that the prototype-pruning index never changes
an answer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ModelConfig, TrainingConfig
from repro.core.model import LLMModel
from repro.core.prediction import NeighborhoodPredictor, normalized_weight_rows
from repro.core.prototypes import LocalLinearMap
from repro.exceptions import DimensionalityMismatchError, InvalidQueryError
from repro.queries.geometry import overlap_degree, overlap_degree_matrix
from repro.queries.query import Query
from repro.testing.oracle import ExactOracle, ModelOracle, normalized_overlap_weights

DIMENSIONS = (1, 2, 6)
TOLERANCE = 1e-12


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
    predictor = NeighborhoodPredictor(maps, use_pruning_index=False)
    queries = _mixed_queries(dimension)
    matrix = np.vstack([query.to_vector() for query in queries])
    return dimension, maps, predictor, queries, matrix


class TestOverlapDegreeMatrix:
    def test_matches_scalar_overlap_degree(self, setup):
        dimension, maps, predictor, queries, matrix = setup
        degrees = overlap_degree_matrix(
            matrix[:, :-1],
            matrix[:, -1],
            predictor._prototypes[:, :-1],
            predictor._prototypes[:, -1],
        )
        for i, query in enumerate(queries[:10]):
            for k, llm in enumerate(maps):
                expected = overlap_degree(
                    query.center, query.radius, llm.center, llm.radius
                )
                assert degrees[i, k] == pytest.approx(expected, abs=TOLERANCE)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, np.inf])
    def test_norm_orders(self, setup, p):
        dimension, maps, _, _, _ = setup
        rng = np.random.default_rng(3)
        centers = rng.uniform(0, 1, size=(5, dimension))
        radii = rng.uniform(0.05, 0.5, size=5)
        protos = np.vstack([llm.prototype for llm in maps])
        degrees = overlap_degree_matrix(centers, radii, protos[:, :-1], protos[:, -1], p=p)
        for i in range(5):
            for k, llm in enumerate(maps):
                expected = overlap_degree(
                    centers[i], radii[i], llm.center, llm.radius, p=p
                )
                assert degrees[i, k] == pytest.approx(expected, abs=TOLERANCE)


class TestQ1Equivalence:
    def test_batch_matches_single(self, setup):
        _, maps, predictor, queries, matrix = setup
        batch = predictor.predict_mean_batch(matrix)
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
        _, maps, predictor, queries, matrix = setup
        _, extrapolated = predictor._batch_neighborhood(matrix, norm_order=2.0)
        oracle = ModelOracle(maps)
        expected = np.array([oracle.neighborhood(query)[2] for query in queries])
        np.testing.assert_array_equal(extrapolated, expected)


class TestQ2Equivalence:
    def test_batch_planes_match_single(self, setup):
        _, maps, predictor, queries, matrix = setup
        batch = predictor.predict_q2_batch(matrix)
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
        dimension, maps, predictor, _, _ = setup
        rng = np.random.default_rng(23)
        points = np.vstack(
            [
                rng.uniform(0.0, 1.0, size=(30, dimension)),
                rng.uniform(7.0, 8.0, size=(5, dimension)),  # extrapolation
            ]
        )
        radius = 0.15
        batch = predictor.predict_value_batch(points, radius)
        oracle = ModelOracle(maps)
        single = np.array([oracle.predict_value(point, radius) for point in points])
        np.testing.assert_allclose(batch, single, rtol=0.0, atol=TOLERANCE)


class TestPruningIndexEquivalence:
    def test_pruned_single_query_matches_full_scan(self, setup):
        _, maps, _, queries, _ = setup
        pruned = NeighborhoodPredictor(maps, use_pruning_index=True)
        assert pruned.uses_pruning_index
        oracle = ModelOracle(maps)
        for query in queries:
            value, diagnostics = pruned.predict_mean_with_diagnostics(query)
            assert value == pytest.approx(oracle.predict_mean(query), abs=TOLERANCE)
            indices, _, extrapolated = oracle.neighborhood(query)
            assert diagnostics.used_indices == tuple(indices)
            assert diagnostics.extrapolated == extrapolated

    def test_auto_threshold(self):
        from repro.core.prediction import DEFAULT_PRUNING_THRESHOLD

        maps = _synthetic_maps(2, count=100)
        # Below the crossover the dense scan wins; pruning must be off by
        # default but available on request.
        assert DEFAULT_PRUNING_THRESHOLD > 100
        assert not NeighborhoodPredictor(maps).uses_pruning_index
        assert NeighborhoodPredictor(
            maps, use_pruning_index=True
        ).uses_pruning_index


class TestWeightNormalisation:
    def test_rows_match_scalar_helper(self):
        degrees = np.array([[0.5, 0.0, 0.25], [0.0, 0.0, 0.0], [0.1, 0.1, 0.0]])
        weights, extrapolated = normalized_weight_rows(degrees)
        for row_index in range(degrees.shape[0]):
            overlaps = [
                (k, float(degrees[row_index, k]))
                for k in range(degrees.shape[1])
                if degrees[row_index, k] > 0.0
            ]
            expected = dict(normalized_overlap_weights(overlaps))
            for k in range(degrees.shape[1]):
                assert weights[row_index, k] == pytest.approx(
                    expected.get(k, 0.0), abs=TOLERANCE
                )
        np.testing.assert_array_equal(extrapolated, [False, True, False])

    def test_all_degrees_zero_uniform_branch(self):
        # Just-touching balls have overlap flagged but degree zero; both the
        # scalar helper and the batched helper fall back to uniform weights.
        degrees = np.array([[0.0, 0.0, 0.0, 0.0]])
        mask = np.array([[True, False, True, False]])
        weights, extrapolated = normalized_weight_rows(degrees, overlap_mask=mask)
        scalar = dict(normalized_overlap_weights([(0, 0.0), (2, 0.0)]))
        assert not extrapolated[0]
        np.testing.assert_allclose(weights[0], [0.5, 0.0, 0.5, 0.0], atol=TOLERANCE)
        assert scalar == {0: 0.5, 2: 0.5}

    def test_mask_shape_mismatch(self):
        with pytest.raises(DimensionalityMismatchError):
            normalized_weight_rows(np.zeros((2, 3)), overlap_mask=np.zeros((2, 2), bool))


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


class TestBatchPruningEquivalence:
    """Block-sparse candidate-union batch mode vs the dense batch path."""

    K = 600

    @pytest.fixture(scope="class")
    def predictors(self):
        # Tight prototype radii keep the pruning reach local, as in a
        # converged large-K quantization (vigilance shrinks with K).
        rng = np.random.default_rng(17)
        maps = []
        for _ in range(self.K):
            center = rng.uniform(0.0, 1.0, size=2)
            radius = rng.uniform(0.01, 0.05)
            maps.append(
                LocalLinearMap(
                    prototype=np.concatenate([center, [radius]]),
                    mean_output=float(rng.normal(0.0, 2.0)),
                    slope=rng.normal(0.0, 1.0, size=3),
                )
            )
        dense = NeighborhoodPredictor(maps, use_pruning_index=False)
        sparse = NeighborhoodPredictor(maps, use_pruning_index=True)
        return dense, sparse

    def _localized_matrix(self, count: int = 40, seed: int = 71) -> np.ndarray:
        """A localized batch (small union) with extrapolation probes mixed in."""
        rng = np.random.default_rng(seed)
        centers = np.array([0.3, 0.7]) + rng.uniform(-0.05, 0.05, size=(count, 2))
        radii = rng.uniform(0.01, 0.05, size=(count, 1))
        matrix = np.hstack([centers, radii])
        matrix[::9, :2] += 7.0  # far away: empty overlap set
        return matrix

    def test_sparse_mode_engages_on_localized_batches(self, predictors):
        _, sparse = predictors
        matrix = self._localized_matrix()
        weights, _, columns = sparse._batch_weight_matrix(matrix, 2.0)
        assert columns is not None
        assert 0 < columns.size < self.K
        assert weights.shape == (matrix.shape[0], columns.size)

    def test_union_contains_every_overlapping_prototype(self, predictors):
        dense, sparse = predictors
        matrix = self._localized_matrix()
        assert sparse._pruning_index is not None
        union = sparse._pruning_index.candidates_union(
            matrix[:, :-1], matrix[:, -1]
        )
        degrees = overlap_degree_matrix(
            matrix[:, :-1], matrix[:, -1], dense._centers, dense._radii
        )
        needed = np.nonzero(degrees.max(axis=0) > 0.0)[0]
        assert np.isin(needed, union).all()

    def test_mean_batch_matches_dense(self, predictors):
        dense, sparse = predictors
        matrix = self._localized_matrix()
        np.testing.assert_allclose(
            sparse.predict_mean_batch(matrix),
            dense.predict_mean_batch(matrix),
            rtol=0.0,
            atol=TOLERANCE,
        )

    def test_q2_batch_matches_dense(self, predictors):
        dense, sparse = predictors
        matrix = self._localized_matrix(count=20)
        for sparse_planes, dense_planes in zip(
            sparse.predict_q2_batch(matrix), dense.predict_q2_batch(matrix)
        ):
            assert len(sparse_planes) == len(dense_planes)
            for left, right in zip(sparse_planes, dense_planes):
                assert left.weight == pytest.approx(right.weight, abs=TOLERANCE)
                assert left.intercept == pytest.approx(
                    right.intercept, abs=TOLERANCE
                )
                np.testing.assert_allclose(
                    left.prototype_center, right.prototype_center, atol=0.0
                )

    def test_value_batch_matches_dense(self, predictors):
        dense, sparse = predictors
        matrix = self._localized_matrix()
        np.testing.assert_allclose(
            sparse.predict_value_batch(matrix[:, :2], 0.03),
            dense.predict_value_batch(matrix[:, :2], 0.03),
            rtol=0.0,
            atol=TOLERANCE,
        )

    def test_scattered_batch_falls_back_to_dense(self, predictors):
        _, sparse = predictors
        rng = np.random.default_rng(73)
        matrix = np.hstack(
            [rng.uniform(0, 1, size=(60, 2)), rng.uniform(0.2, 0.4, size=(60, 1))]
        )
        _, _, columns = sparse._batch_weight_matrix(matrix, 2.0)
        assert columns is None  # union covers most prototypes -> dense path


def _whole_table_scan(dataset):
    """One serial shard over the whole table: the chunked full-scan kernel."""
    from repro.dbms.executor import ExactQueryEngine

    return ExactQueryEngine(dataset, route="scan")


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

    @pytest.mark.parametrize("indexed", [True, False])
    def test_batch_matches_per_query(self, setup, indexed):
        from repro.dbms.executor import ExactQueryEngine

        dataset, queries = setup
        engine = ExactQueryEngine(dataset) if indexed else _whole_table_scan(dataset)
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

    def test_indexed_and_scan_batches_agree(self, setup):
        from repro.dbms.executor import ExactQueryEngine

        dataset, queries = setup
        indexed = ExactQueryEngine(dataset)
        scan = _whole_table_scan(dataset)
        left = indexed.execute_q2_batch(queries, on_empty="null")
        right = scan.execute_q2_batch(queries, on_empty="null")
        for a, b in zip(left, right):
            if a is None:
                assert b is None
                continue
            assert a.cardinality == b.cardinality
            np.testing.assert_allclose(
                a.coefficients, b.coefficients, rtol=1e-9, atol=TOLERANCE
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

    def test_batch_matches_single_full_scan(self, engine):
        dataset, _ = engine
        scan = _whole_table_scan(dataset)
        queries = [
            Query(center=np.array([0.5, 0.5]), radius=0.2),
            Query(center=np.array([0.2, 0.8]), radius=0.3, norm_order=1.0),
            Query(center=np.array([0.7, 0.3]), radius=0.25, norm_order=np.inf),
        ]
        answers = scan.execute_q1_batch(queries)
        oracle = ExactOracle(dataset.inputs, dataset.outputs)
        for query, answer in zip(queries, answers):
            assert answer.mean == pytest.approx(oracle.mean(query), rel=1e-12)
            assert answer.cardinality == oracle.count(query)

    def test_full_scan_sub_chunking(self, engine):
        # A tiny element budget processes the batch in several (chunk, n)
        # slices of the scan kernels; the statistics must be unchanged.
        from repro.dbms.executor import (
            q1_sufficient_statistics_scan,
            q2_sufficient_statistics_scan,
        )

        dataset, _ = engine
        queries = _mixed_queries(2, count=12, seed=67)
        centers = np.array([query.center for query in queries])
        radii = np.array([query.radius for query in queries])
        for kernel in (q1_sufficient_statistics_scan, q2_sufficient_statistics_scan):
            counts, sums = kernel(dataset.inputs, dataset.outputs, centers, radii)
            chunked_counts, chunked_sums = kernel(
                dataset.inputs, dataset.outputs, centers, radii, element_budget=1
            )
            np.testing.assert_array_equal(chunked_counts, counts)
            np.testing.assert_allclose(chunked_sums, sums, rtol=1e-12, atol=1e-12)
