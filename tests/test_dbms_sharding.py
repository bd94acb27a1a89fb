"""Tests for the sharded parallel execution engine.

The load-bearing property is *exact mergeability*: per-shard sufficient
statistics summed across shards must answer Q1/Q2 identically (to summation
rounding) to the single-engine paths, across dimensions, norm orders,
backends, empty subspaces, and rank-deficient selections.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.ols import OLSRegressor
from repro.data.synthetic import SyntheticDataset
from repro.dbms.executor import (
    ExactQueryEngine,
    q1_sufficient_statistics_scan,
    q2_sufficient_statistics_scan,
    solve_q2_sufficient_statistics,
)
from repro.dbms.sharding import ShardedQueryEngine, shard_bounds
from repro.dbms.storage import SQLiteDataStore
from repro.exceptions import ConfigurationError, EmptySubspaceError, StorageError
from repro.queries.query import Query
from repro.testing.oracle import ExactOracle

DIMENSIONS = (1, 2, 6)
TOLERANCE = 1e-12


def _dataset(dimension: int, size: int = 3_000, seed: int = 3) -> SyntheticDataset:
    rng = np.random.default_rng(seed)
    inputs = rng.uniform(0.0, 1.0, size=(size, dimension))
    slope = rng.normal(0.0, 1.0, size=dimension)
    outputs = 1.0 + inputs @ slope + 0.05 * rng.normal(0.0, 1.0, size=size)
    return SyntheticDataset(
        inputs=inputs, outputs=outputs, name=f"shard{dimension}", domain=(0.0, 1.0)
    )


def _mixed_queries(
    dataset: SyntheticDataset, count: int = 30, seed: int = 11
) -> list[Query]:
    """In-domain queries (several norms), empty probes and tiny selections."""
    rng = np.random.default_rng(seed)
    dimension = dataset.dimension
    queries: list[Query] = []
    for index in range(count):
        if index % 9 == 0:
            queries.append(
                Query(center=rng.uniform(6.0, 7.0, size=dimension), radius=0.01)
            )
        elif index % 7 == 0:
            # A handful of rows at most: exercises the rank-deficient /
            # exactly-determined fallback of the blocked solve.
            anchor = dataset.inputs[int(rng.integers(dataset.size))]
            queries.append(Query(center=anchor + 1e-6, radius=2e-4))
        else:
            order = (1.0, 2.0, np.inf)[index % 3]
            queries.append(
                Query(
                    center=rng.uniform(0.0, 1.0, size=dimension),
                    radius=float(rng.uniform(0.05, 0.4)),
                    norm_order=order,
                )
            )
    return queries


def _assert_q2_matches_oracle(answers, queries, dataset) -> None:
    """Q2 answers vs the full-scan ``lstsq`` oracle: counts and means to
    1e-12, fitted values on the selected rows to 1e-12, coefficients and
    R^2 to 1e-9 relative."""
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


def _assert_answers_match(sharded_answers, reference_answers) -> None:
    for answer, reference in zip(sharded_answers, reference_answers):
        if reference is None:
            assert answer is None
            continue
        assert answer is not None
        assert answer.cardinality == reference.cardinality
        np.testing.assert_allclose(
            answer.mean, reference.mean, rtol=TOLERANCE, atol=TOLERANCE
        )
        if reference.coefficients is not None:
            np.testing.assert_allclose(
                answer.coefficients,
                reference.coefficients,
                rtol=1e-9,
                atol=TOLERANCE,
            )
            np.testing.assert_allclose(
                answer.r_squared, reference.r_squared, rtol=1e-9, atol=1e-9
            )


class TestShardBounds:
    def test_bounds_partition_rows(self):
        bounds = shard_bounds(1000, 3)
        assert bounds[0] == 0 and bounds[-1] == 1000
        assert np.all(np.diff(bounds) > 0)

    def test_invalid_shard_count(self):
        with pytest.raises(ConfigurationError):
            shard_bounds(100, 0)


@pytest.mark.parametrize("dimension", DIMENSIONS)
class TestShardedEquivalence:
    def test_q2_matches_per_query_engine(self, dimension):
        dataset = _dataset(dimension)
        queries = _mixed_queries(dataset)
        with ShardedQueryEngine(dataset, num_shards=3, backend="serial") as engine:
            answers = engine.execute_q2_batch(queries, on_empty="null")
        _assert_q2_matches_oracle(answers, queries, dataset)

    def test_q1_matches_per_query_engine(self, dimension):
        dataset = _dataset(dimension)
        oracle = ExactOracle(dataset.inputs, dataset.outputs)
        queries = _mixed_queries(dataset)
        with ShardedQueryEngine(dataset, num_shards=3, backend="serial") as engine:
            answers = engine.execute_q1_batch(queries, on_empty="null")
        for query, answer in zip(queries, answers):
            expected = oracle.mean(query)
            if expected is None:
                assert answer is None
                continue
            assert answer is not None
            assert answer.cardinality == oracle.count(query)
            np.testing.assert_allclose(
                answer.mean, expected, rtol=TOLERANCE, atol=TOLERANCE
            )

    def test_sharded_matches_unsharded_batch(self, dimension):
        dataset = _dataset(dimension)
        batch_engine = ExactQueryEngine(dataset)
        queries = _mixed_queries(dataset)
        unsharded = batch_engine.execute_q2_batch(queries, on_empty="null")
        with ShardedQueryEngine(dataset, num_shards=4, backend="threads") as engine:
            sharded = engine.execute_q2_batch(queries, on_empty="null")
        _assert_answers_match(sharded, unsharded)

    def test_shard_count_does_not_change_answers(self, dimension):
        dataset = _dataset(dimension, size=1_200)
        queries = _mixed_queries(dataset, count=12, seed=5)
        results = []
        for shards in (1, 2, 5):
            with ShardedQueryEngine(
                dataset, num_shards=shards, backend="serial"
            ) as engine:
                results.append(engine.execute_q2_batch(queries, on_empty="null"))
        _assert_answers_match(results[1], results[0])
        _assert_answers_match(results[2], results[0])


class TestShardMergeStatistics:
    """Blocked statistics of row partitions must merge to the full-scan ones."""

    def test_q2_moments_merge_exactly(self):
        dataset = _dataset(2, size=900)
        centers = np.array([[0.5, 0.5], [0.2, 0.8], [0.9, 0.1]])
        radii = np.array([0.25, 0.15, 0.3])
        full_counts, full_moments = q2_sufficient_statistics_scan(
            dataset.inputs, dataset.outputs, centers, radii
        )
        bounds = shard_bounds(dataset.size, 3)
        counts = np.zeros_like(full_counts)
        moments = np.zeros_like(full_moments)
        for start, stop in zip(bounds[:-1], bounds[1:]):
            shard_counts, shard_moments = q2_sufficient_statistics_scan(
                dataset.inputs[start:stop],
                dataset.outputs[start:stop],
                centers,
                radii,
            )
            counts += shard_counts
            moments += shard_moments
        np.testing.assert_array_equal(counts, full_counts)
        np.testing.assert_allclose(moments, full_moments, rtol=1e-12, atol=1e-12)
        solution = solve_q2_sufficient_statistics(counts, moments, centers)
        for index in range(centers.shape[0]):
            rows = np.nonzero(
                np.linalg.norm(dataset.inputs - centers[index], axis=1)
                <= radii[index]
            )[0]
            direct = OLSRegressor().fit(dataset.inputs[rows], dataset.outputs[rows])
            np.testing.assert_allclose(
                solution.coefficients[index],
                direct.coefficients,
                rtol=1e-9,
                atol=TOLERANCE,
            )

    def test_q1_statistics_merge_exactly(self):
        dataset = _dataset(2, size=700)
        centers = np.array([[0.4, 0.6], [0.8, 0.2]])
        radii = np.array([0.2, 0.25])
        full_counts, full_sums = q1_sufficient_statistics_scan(
            dataset.inputs, dataset.outputs, centers, radii
        )
        bounds = shard_bounds(dataset.size, 4)
        counts = np.zeros_like(full_counts)
        sums = np.zeros_like(full_sums)
        for start, stop in zip(bounds[:-1], bounds[1:]):
            shard_counts, shard_sums = q1_sufficient_statistics_scan(
                dataset.inputs[start:stop],
                dataset.outputs[start:stop],
                centers,
                radii,
            )
            counts += shard_counts
            sums += shard_sums
        np.testing.assert_array_equal(counts, full_counts)
        np.testing.assert_allclose(sums, full_sums, rtol=1e-12, atol=1e-12)

    def test_rank_deficient_shards_merge_to_full_rank_answer(self):
        # Every shard alone holds fewer than d + 1 selected rows, but the
        # merged statistics recover the full-rank OLS plane.
        rng = np.random.default_rng(9)
        inputs = rng.uniform(0.45, 0.55, size=(9, 2))
        outputs = 2.0 + inputs @ np.array([1.5, -0.5])
        dataset = SyntheticDataset(
            inputs=inputs, outputs=outputs, name="tiny", domain=(0.0, 1.0)
        )
        query = Query(center=np.array([0.5, 0.5]), radius=0.4)
        with ShardedQueryEngine(dataset, num_shards=5, backend="serial") as engine:
            answer = engine.execute_q2(query)
        assert answer.cardinality == 9
        _assert_q2_matches_oracle([answer], [query], dataset)


class TestBackends:
    def test_threads_and_serial_agree(self):
        dataset = _dataset(2)
        queries = _mixed_queries(dataset, count=15)
        with ShardedQueryEngine(dataset, num_shards=3, backend="serial") as serial:
            expected = serial.execute_q2_batch(queries, on_empty="null")
        with ShardedQueryEngine(dataset, num_shards=3, backend="threads") as threaded:
            actual = threaded.execute_q2_batch(queries, on_empty="null")
        _assert_answers_match(actual, expected)

    def test_process_backend_smoke(self):
        dataset = _dataset(2, size=800)
        query = Query(center=np.array([0.5, 0.5]), radius=0.25)
        with ShardedQueryEngine(
            dataset, num_shards=2, backend="processes", max_workers=2
        ) as engine:
            answer = engine.execute_q2(query)
        _assert_q2_matches_oracle([answer], [query], dataset)

    def test_invalid_backend(self):
        with pytest.raises(ConfigurationError):
            ShardedQueryEngine(_dataset(1, size=50), backend="fibers")


class TestIndexedRouting:
    """Per-shard grid-indexed execution and the adaptive route planner."""

    def test_invalid_route_rejected(self):
        dataset = _dataset(1, size=50)
        with pytest.raises(ConfigurationError):
            ShardedQueryEngine(dataset, backend="serial", route="btree")
        with ShardedQueryEngine(dataset, backend="serial") as engine:
            with pytest.raises(ConfigurationError):
                engine.route = "fastest"

    @pytest.mark.parametrize("dimension", DIMENSIONS)
    def test_indexed_route_matches_scan_route(self, dimension):
        dataset = _dataset(dimension)
        queries = _mixed_queries(dataset)
        results = {}
        for route in ("scan", "indexed", "auto"):
            with ShardedQueryEngine(
                dataset, num_shards=3, backend="serial", route=route
            ) as engine:
                results[route] = engine.execute_q2_batch(queries, on_empty="null")
        _assert_answers_match(results["indexed"], results["scan"])
        _assert_answers_match(results["auto"], results["scan"])

    def test_indexed_route_scans_fewer_rows_on_selective_batch(self):
        dataset = _dataset(2, size=4_000)
        rng = np.random.default_rng(17)
        queries = [
            Query(center=rng.uniform(0.2, 0.8, size=2), radius=0.03)
            for _ in range(10)
        ]
        with ShardedQueryEngine(
            dataset, num_shards=3, backend="serial", route="scan"
        ) as engine:
            scan_answers = engine.execute_q1_batch(queries, on_empty="null")
            scan_rows = engine.statistics.rows_scanned
        with ShardedQueryEngine(
            dataset, num_shards=3, backend="serial", route="indexed"
        ) as engine:
            indexed_answers = engine.execute_q1_batch(queries, on_empty="null")
            indexed_rows = engine.statistics.rows_scanned
        assert scan_rows == len(queries) * dataset.size
        assert indexed_rows < scan_rows / 5
        _assert_answers_match(indexed_answers, scan_answers)

    def test_auto_routes_by_selectivity(self):
        dataset = _dataset(2, size=4_000)
        selective = [Query(center=np.array([0.5, 0.5]), radius=0.02)]
        unselective = [Query(center=np.array([0.5, 0.5]), radius=0.45)]
        with ShardedQueryEngine(
            dataset, num_shards=2, backend="serial", route="auto"
        ) as engine:
            engine.execute_q1_batch(selective, on_empty="null")
            selective_rows = engine.statistics.rows_scanned
            engine.statistics.reset()
            engine.execute_q1_batch(unselective, on_empty="null")
            unselective_rows = engine.statistics.rows_scanned
        assert selective_rows < dataset.size / 5
        assert unselective_rows == dataset.size

    def test_pipelines_built_lazily_and_only_for_indexed_routes(self):
        dataset = _dataset(2, size=1_000)
        queries = _mixed_queries(dataset, count=6, seed=3)
        with ShardedQueryEngine(
            dataset, num_shards=3, backend="serial", route="scan"
        ) as engine:
            engine.execute_q1_batch(queries, on_empty="null")
            assert all(pipeline._grid is None for pipeline in engine._pipelines)
            engine.route = "indexed"
            engine.execute_q1_batch(queries, on_empty="null")
            assert all(pipeline._grid is not None for pipeline in engine._pipelines)

    def test_indexed_route_thread_and_process_backends(self):
        dataset = _dataset(2, size=900)
        queries = _mixed_queries(dataset, count=10, seed=13)
        with ShardedQueryEngine(
            dataset, num_shards=3, backend="serial", route="indexed"
        ) as engine:
            expected = engine.execute_q2_batch(queries, on_empty="null")
        for backend in ("threads", "processes"):
            with ShardedQueryEngine(
                dataset,
                num_shards=3,
                backend=backend,
                max_workers=2,
                route="indexed",
            ) as engine:
                actual = engine.execute_q2_batch(queries, on_empty="null")
            _assert_answers_match(actual, expected)

    def test_from_store_indexed_route_matches_memory(self):
        dataset = _dataset(2, size=700)
        queries = _mixed_queries(dataset, count=8, seed=29)
        with ShardedQueryEngine(
            dataset, num_shards=3, backend="serial", route="indexed"
        ) as engine:
            expected = engine.execute_q2_batch(queries, on_empty="null")
        with SQLiteDataStore(":memory:") as store:
            store.load_dataset(dataset)
            engine = ShardedQueryEngine.from_store(
                store, dataset.name, num_shards=3, backend="serial", route="indexed"
            )
        with engine:
            np.testing.assert_allclose(engine.dataset.inputs, dataset.inputs)
            actual = engine.execute_q2_batch(queries, on_empty="null")
        _assert_answers_match(actual, expected)


class TestEngineContract:
    def test_on_empty_raise(self):
        dataset = _dataset(2, size=500)
        with ShardedQueryEngine(dataset, num_shards=2, backend="serial") as engine:
            with pytest.raises(EmptySubspaceError):
                engine.execute_q1_batch(
                    [Query(center=np.array([9.0, 9.0]), radius=0.01)]
                )
            with pytest.raises(EmptySubspaceError):
                engine.execute_q2_batch(
                    [Query(center=np.array([9.0, 9.0]), radius=0.01)]
                )

    def test_on_empty_null_alignment(self):
        dataset = _dataset(2, size=500)
        queries = [
            Query(center=np.array([0.5, 0.5]), radius=0.3),
            Query(center=np.array([9.0, 9.0]), radius=0.01),
            Query(center=np.array([0.4, 0.4]), radius=0.3),
        ]
        with ShardedQueryEngine(dataset, num_shards=2, backend="serial") as engine:
            answers = engine.execute_q2_batch(queries, on_empty="null")
        assert answers[0] is not None and answers[2] is not None
        assert answers[1] is None

    def test_invalid_on_empty(self):
        dataset = _dataset(1, size=50)
        with ShardedQueryEngine(dataset, num_shards=1, backend="serial") as engine:
            with pytest.raises(ConfigurationError):
                engine.execute_q1_batch([], on_empty="skip")

    def test_dimension_mismatch(self):
        dataset = _dataset(2, size=100)
        with ShardedQueryEngine(dataset, num_shards=2, backend="serial") as engine:
            with pytest.raises(StorageError):
                engine.execute_q1_batch([Query(center=np.array([0.5]), radius=0.1)])

    def test_empty_batch(self):
        dataset = _dataset(1, size=50)
        with ShardedQueryEngine(dataset, num_shards=1, backend="serial") as engine:
            assert engine.execute_q1_batch([]) == []
            assert engine.execute_q2_batch([]) == []

    def test_statistics_accumulate(self):
        dataset = _dataset(2, size=400)
        with ShardedQueryEngine(dataset, num_shards=2, backend="serial") as engine:
            engine.execute_q1_batch(
                [Query(center=np.array([0.5, 0.5]), radius=0.3)]
            )
            stats = engine.statistics
            assert stats.queries_executed == 1
            assert stats.rows_scanned == dataset.size
            assert stats.rows_selected > 0
            assert stats.mean_seconds > 0.0

    def test_closed_engine_rejects_work(self):
        dataset = _dataset(1, size=50)
        engine = ShardedQueryEngine(dataset, num_shards=1, backend="serial")
        engine.close()
        with pytest.raises(StorageError):
            engine.execute_q1(Query(center=np.array([0.5]), radius=0.3))

    def test_mean_value_oracle(self):
        dataset = _dataset(2, size=400)
        query = Query(center=np.array([0.5, 0.5]), radius=0.3)
        expected = ExactOracle(dataset.inputs, dataset.outputs).mean(query)
        with ShardedQueryEngine(dataset, num_shards=2, backend="serial") as engine:
            assert engine.mean_value(query) == pytest.approx(expected, abs=TOLERANCE)


class TestFromStore:
    def test_from_store_matches_in_memory(self):
        dataset = _dataset(2, size=600)
        queries = _mixed_queries(dataset, count=8, seed=21)
        with SQLiteDataStore(":memory:") as store:
            store.load_dataset(dataset)
            engine = ShardedQueryEngine.from_store(
                store, dataset.name, num_shards=3, backend="serial"
            )
        with engine:
            answers = engine.execute_q2_batch(queries, on_empty="null")
        _assert_q2_matches_oracle(answers, queries, dataset)

    def test_scan_row_range_partitions(self):
        dataset = _dataset(2, size=250)
        with SQLiteDataStore(":memory:") as store:
            store.load_dataset(dataset)
            first_inputs, first_outputs = store.scan_row_range(dataset.name, 0, 100)
            rest_inputs, rest_outputs = store.scan_row_range(dataset.name, 100, 250)
            assert first_inputs.shape == (100, 2)
            assert rest_inputs.shape == (150, 2)
            np.testing.assert_allclose(
                np.vstack([first_inputs, rest_inputs]), dataset.inputs
            )
            np.testing.assert_allclose(
                np.concatenate([first_outputs, rest_outputs]), dataset.outputs
            )
            with pytest.raises(StorageError):
                store.scan_row_range(dataset.name, 5, 2)


class TestStreamingTrainerIntegration:
    def test_label_queries_through_sharded_engine(self):
        from repro.core.model import LLMModel
        from repro.core.training import StreamingTrainer

        dataset = _dataset(2, size=800)
        queries = _mixed_queries(dataset, count=20, seed=31)
        reference_engine = ExactQueryEngine(dataset)
        model = LLMModel(dimension=2)
        with ShardedQueryEngine(dataset, num_shards=3, backend="serial") as engine:
            trainer = StreamingTrainer(model, engine)
            pairs = list(trainer.label_queries(queries, batch_size=6))
        reference = StreamingTrainer(LLMModel(dimension=2), reference_engine)
        expected = list(reference.label_queries(queries, batch_size=6))
        assert len(pairs) == len(expected)
        for pair, ref in zip(pairs, expected):
            assert pair.query is ref.query
            assert pair.answer == pytest.approx(ref.answer, abs=TOLERANCE)

    def test_label_queries_engine_auto_routes_and_restores(self):
        from repro.core.model import LLMModel
        from repro.core.training import StreamingTrainer

        dataset = _dataset(2, size=800)
        queries = _mixed_queries(dataset, count=12, seed=51)
        reference = StreamingTrainer(
            LLMModel(dimension=2), ExactQueryEngine(dataset)
        )
        expected = list(reference.label_queries(queries, batch_size=4))
        with ShardedQueryEngine(
            dataset, num_shards=3, backend="serial", route="scan"
        ) as engine:
            trainer = StreamingTrainer(LLMModel(dimension=2), engine)
            pairs = list(
                trainer.label_queries(queries, batch_size=4, engine="auto")
            )
            # The labelling run borrowed adaptive routing; the engine's own
            # policy is restored afterwards.
            assert engine.route == "scan"
        assert len(pairs) == len(expected)
        for pair, ref in zip(pairs, expected):
            assert pair.answer == pytest.approx(ref.answer, abs=TOLERANCE)

    def test_label_queries_explicit_engine_instance(self):
        from repro.core.model import LLMModel
        from repro.core.training import StreamingTrainer

        dataset = _dataset(2, size=500)
        queries = _mixed_queries(dataset, count=8, seed=61)
        trainer = StreamingTrainer(
            LLMModel(dimension=2), ExactQueryEngine(dataset)
        )
        with ShardedQueryEngine(dataset, num_shards=2, backend="serial") as other:
            pairs = list(trainer.label_queries(queries, batch_size=4, engine=other))
            assert other.statistics.queries_executed > 0
        assert trainer.engine.statistics.queries_executed == 0
        assert len(pairs) == len(
            list(trainer.label_queries(queries, batch_size=4))
        )

    def test_label_queries_rejects_unknown_engine_selector(self):
        from repro.core.model import LLMModel
        from repro.core.training import StreamingTrainer

        dataset = _dataset(2, size=200)
        trainer = StreamingTrainer(LLMModel(dimension=2), ExactQueryEngine(dataset))
        with pytest.raises(ValueError):
            list(trainer.label_queries([], engine="turbo"))

    def test_train_through_sharded_engine(self):
        from repro.core.model import LLMModel
        from repro.core.training import StreamingTrainer

        dataset = _dataset(2, size=600)
        queries = _mixed_queries(dataset, count=25, seed=41)
        model = LLMModel(dimension=2)
        with ShardedQueryEngine(dataset, num_shards=2, backend="serial") as engine:
            trainer = StreamingTrainer(model, engine)
            breakdown = trainer.train(queries)
        assert breakdown.pairs_processed > 0
        assert model.is_fitted
