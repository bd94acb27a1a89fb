"""Tests for the shard configurations of the exact engine.

The load-bearing property is *exact mergeability*: per-shard sufficient
statistics summed across shards must answer Q1/Q2 identically (to summation
rounding) to one shard, across dimensions, norm orders, backends,
empty subspaces, rank-deficient selections, and more shards than rows.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.ols import OLSRegressor
from repro.data.synthetic import SyntheticDataset
from repro.dbms.executor import (
    ExactQueryEngine,
    SegmentedBatchPipeline,
    shard_bounds,
    solve_q2_sufficient_statistics,
)
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
        with ExactQueryEngine(dataset, num_shards=3, backend="serial") as engine:
            answers = engine.execute_q2_batch(queries, on_empty="null")
        _assert_q2_matches_oracle(answers, queries, dataset)

    def test_q1_matches_per_query_engine(self, dimension):
        dataset = _dataset(dimension)
        oracle = ExactOracle(dataset.inputs, dataset.outputs)
        queries = _mixed_queries(dataset)
        with ExactQueryEngine(dataset, num_shards=3, backend="serial") as engine:
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
        with ExactQueryEngine(dataset, num_shards=4, backend="threads") as engine:
            sharded = engine.execute_q2_batch(queries, on_empty="null")
        _assert_answers_match(sharded, unsharded)

    def test_shard_count_does_not_change_answers(self, dimension):
        dataset = _dataset(dimension, size=1_200)
        queries = _mixed_queries(dataset, count=12, seed=5)
        results = []
        for shards in (1, 2, 5):
            with ExactQueryEngine(
                dataset, num_shards=shards, backend="serial"
            ) as engine:
                results.append(engine.execute_q2_batch(queries, on_empty="null"))
        _assert_answers_match(results[1], results[0])
        _assert_answers_match(results[2], results[0])


def _pipeline_statistics(inputs, outputs, centers, radii, kind):
    """``(counts, sums)`` of one row set's segmented pipeline (L2 balls)."""
    counts, sums, _ = SegmentedBatchPipeline(inputs, outputs).segment_statistics(
        centers, radii, 2.0, kind=kind
    )
    return counts, sums


class TestShardMergeStatistics:
    """Blocked statistics of row partitions must merge to the whole table's."""

    def test_q2_moments_merge_exactly(self):
        dataset = _dataset(2, size=900)
        centers = np.array([[0.5, 0.5], [0.2, 0.8], [0.9, 0.1]])
        radii = np.array([0.25, 0.15, 0.3])
        full_counts, full_moments = _pipeline_statistics(
            dataset.inputs, dataset.outputs, centers, radii, "q2"
        )
        bounds = shard_bounds(dataset.size, 3)
        counts = np.zeros_like(full_counts)
        moments = np.zeros_like(full_moments)
        for start, stop in zip(bounds[:-1], bounds[1:]):
            shard_counts, shard_moments = _pipeline_statistics(
                dataset.inputs[start:stop],
                dataset.outputs[start:stop],
                centers,
                radii,
                "q2",
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
        full_counts, full_sums = _pipeline_statistics(
            dataset.inputs, dataset.outputs, centers, radii, "q1"
        )
        bounds = shard_bounds(dataset.size, 4)
        counts = np.zeros_like(full_counts)
        sums = np.zeros_like(full_sums)
        for start, stop in zip(bounds[:-1], bounds[1:]):
            shard_counts, shard_sums = _pipeline_statistics(
                dataset.inputs[start:stop],
                dataset.outputs[start:stop],
                centers,
                radii,
                "q1",
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
        with ExactQueryEngine(dataset, num_shards=5, backend="serial") as engine:
            answer = engine.execute_q2(query)
        assert answer.cardinality == 9
        _assert_q2_matches_oracle([answer], [query], dataset)


class TestBackends:
    def test_threads_and_serial_agree(self):
        dataset = _dataset(2)
        queries = _mixed_queries(dataset, count=15)
        with ExactQueryEngine(dataset, num_shards=3, backend="serial") as serial:
            expected = serial.execute_q2_batch(queries, on_empty="null")
        with ExactQueryEngine(dataset, num_shards=3, backend="threads") as threaded:
            actual = threaded.execute_q2_batch(queries, on_empty="null")
        _assert_answers_match(actual, expected)

    def test_process_backend_smoke(self):
        dataset = _dataset(2, size=800)
        query = Query(center=np.array([0.5, 0.5]), radius=0.25)
        with ExactQueryEngine(
            dataset, num_shards=2, backend="processes", max_workers=2
        ) as engine:
            answer = engine.execute_q2(query)
        _assert_q2_matches_oracle([answer], [query], dataset)

    @pytest.mark.parametrize("backend", ("threads", "processes"))
    def test_pool_defaults_to_one_shard_per_worker(self, backend):
        # Every row shard repeats the grid pass over the whole domain.
        with ExactQueryEngine(
            _dataset(2, size=100), backend=backend, max_workers=2
        ) as engine:
            assert engine.num_shards == 2

    def test_invalid_backend(self):
        with pytest.raises(ConfigurationError):
            ExactQueryEngine(_dataset(1, size=50), backend="fibers")


class TestShardPipelines:
    """Per-shard grid-indexed execution."""

    def test_selective_batch_scans_a_fraction_of_the_rows(self):
        dataset = _dataset(2, size=4_000)
        oracle = ExactOracle(dataset.inputs, dataset.outputs)
        rng = np.random.default_rng(17)
        queries = [
            Query(center=rng.uniform(0.2, 0.8, size=2), radius=0.03)
            for _ in range(10)
        ]
        with ExactQueryEngine(dataset, num_shards=3, backend="serial") as engine:
            answers = engine.execute_q1_batch(queries, on_empty="null")
            indexed_rows = engine.statistics.rows_scanned
        assert indexed_rows < len(queries) * dataset.size / 5
        for query, answer in zip(queries, answers):
            assert answer.cardinality == oracle.count(query)
            np.testing.assert_allclose(
                answer.mean, oracle.mean(query), rtol=TOLERANCE, atol=TOLERANCE
            )

    def test_pipelines_built_lazily(self):
        dataset = _dataset(2, size=1_000)
        queries = _mixed_queries(dataset, count=6, seed=3)
        with ExactQueryEngine(dataset, num_shards=3, backend="serial") as engine:
            assert all(pipeline._grid is None for pipeline in engine._pipelines)
            engine.execute_q1_batch(queries, on_empty="null")
            assert all(pipeline._grid is not None for pipeline in engine._pipelines)

    def test_thread_and_process_backends_match_serial(self):
        dataset = _dataset(2, size=900)
        queries = _mixed_queries(dataset, count=10, seed=13)
        with ExactQueryEngine(dataset, num_shards=3, backend="serial") as engine:
            expected = engine.execute_q2_batch(queries, on_empty="null")
        for backend in ("threads", "processes"):
            with ExactQueryEngine(
                dataset,
                num_shards=3,
                backend=backend,
                max_workers=2,
            ) as engine:
                actual = engine.execute_q2_batch(queries, on_empty="null")
            _assert_answers_match(actual, expected)

    def test_from_store_matches_memory(self):
        dataset = _dataset(2, size=700)
        queries = _mixed_queries(dataset, count=8, seed=29)
        with ExactQueryEngine(dataset, num_shards=3, backend="serial") as engine:
            expected = engine.execute_q2_batch(queries, on_empty="null")
        with SQLiteDataStore(":memory:") as store:
            store.load_dataset(dataset)
            engine = ExactQueryEngine.from_store(
                store, dataset.name, num_shards=3, backend="serial"
            )
        with engine:
            np.testing.assert_allclose(engine.dataset.inputs, dataset.inputs)
            actual = engine.execute_q2_batch(queries, on_empty="null")
        _assert_answers_match(actual, expected)


class TestEngineContract:
    def test_on_empty_raise(self):
        dataset = _dataset(2, size=500)
        with ExactQueryEngine(dataset, num_shards=2, backend="serial") as engine:
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
        with ExactQueryEngine(dataset, num_shards=2, backend="serial") as engine:
            answers = engine.execute_q2_batch(queries, on_empty="null")
        assert answers[0] is not None and answers[2] is not None
        assert answers[1] is None

    def test_invalid_on_empty(self):
        dataset = _dataset(1, size=50)
        with ExactQueryEngine(dataset, num_shards=1, backend="serial") as engine:
            with pytest.raises(ConfigurationError):
                engine.execute_q1_batch([], on_empty="skip")

    def test_dimension_mismatch(self):
        dataset = _dataset(2, size=100)
        with ExactQueryEngine(dataset, num_shards=2, backend="serial") as engine:
            with pytest.raises(StorageError):
                engine.execute_q1_batch([Query(center=np.array([0.5]), radius=0.1)])

    def test_empty_batch(self):
        dataset = _dataset(1, size=50)
        with ExactQueryEngine(dataset, num_shards=1, backend="serial") as engine:
            assert engine.execute_q1_batch([]) == []
            assert engine.execute_q2_batch([]) == []

    def test_statistics_accumulate(self):
        dataset = _dataset(2, size=400)
        query = Query(center=np.array([0.5, 0.5]), radius=0.3)
        selected = ExactOracle(dataset.inputs, dataset.outputs).count(query)
        with ExactQueryEngine(dataset, num_shards=2, backend="serial") as engine:
            engine.execute_q1_batch([query])
            stats = engine.statistics
            assert stats.queries_executed == 1
            assert 0 < selected == stats.rows_selected
            assert selected <= stats.rows_scanned <= dataset.size

    def test_closed_engine_rejects_work(self):
        dataset = _dataset(1, size=50)
        engine = ExactQueryEngine(dataset, num_shards=1, backend="serial")
        engine.close()
        with pytest.raises(StorageError):
            engine.execute_q1(Query(center=np.array([0.5]), radius=0.3))


class TestFromStore:
    def test_from_store_matches_in_memory(self):
        dataset = _dataset(2, size=600)
        queries = _mixed_queries(dataset, count=8, seed=21)
        with SQLiteDataStore(":memory:") as store:
            store.load_dataset(dataset)
            engine = ExactQueryEngine.from_store(
                store, dataset.name, num_shards=3, backend="serial"
            )
        with engine:
            answers = engine.execute_q2_batch(queries, on_empty="null")
        _assert_q2_matches_oracle(answers, queries, dataset)

    def test_from_store_rows_follow_rowid_order(self):
        # Appended rows come after the loaded ones, and the shards are
        # contiguous slices of that order.
        dataset = _dataset(2, size=250)
        extra = _dataset(2, size=30, seed=8)
        with SQLiteDataStore(":memory:") as store:
            store.load_dataset(dataset)
            store.append_rows(dataset.name, extra.inputs, extra.outputs)
            loaded = store.load_as_dataset(dataset.name)
            engine = ExactQueryEngine.from_store(
                store, dataset.name, num_shards=3, backend="serial"
            )
        inputs = np.vstack([dataset.inputs, extra.inputs])
        outputs = np.concatenate([dataset.outputs, extra.outputs])
        with engine:
            np.testing.assert_array_equal(engine.dataset.inputs, loaded.inputs)
            np.testing.assert_array_equal(engine.dataset.outputs, loaded.outputs)
            np.testing.assert_array_equal(engine.dataset.inputs, inputs)
            np.testing.assert_array_equal(engine.dataset.outputs, outputs)
            np.testing.assert_array_equal(
                np.vstack([pipeline._inputs for pipeline in engine._pipelines]),
                inputs,
            )


class TestMoreShardsThanRows:
    """More shards than rows caps the shard count, so no shard is empty.

    An empty shard used to crash the engine (a grid index over zero points)
    on every backend.
    """

    @pytest.mark.parametrize("backend", ("serial", "threads", "processes"))
    def test_answers_match_oracle(self, backend):
        dataset = _dataset(2, size=5, seed=19)
        oracle = ExactOracle(dataset.inputs, dataset.outputs)
        queries = [
            Query(center=np.array([0.5, 0.5]), radius=2.0),
            Query(center=dataset.inputs[2], radius=1e-9),
            Query(center=np.array([6.0, 6.0]), radius=0.1),
            Query(center=dataset.inputs[0], radius=0.6, norm_order=1.0),
            Query(center=dataset.inputs[4], radius=0.4, norm_order=np.inf),
        ]
        with ExactQueryEngine(
            dataset, num_shards=8, backend=backend, max_workers=2
        ) as engine:
            assert engine.num_shards == dataset.size
            q1 = engine.execute_q1_batch(queries, on_empty="null")
            q2 = engine.execute_q2_batch(queries, on_empty="null")
            for query, answer in zip(queries, q1):
                rows = oracle.select(query)
                inputs, outputs = engine.select_subspace(query)
                np.testing.assert_array_equal(inputs, dataset.inputs[rows])
                np.testing.assert_array_equal(outputs, dataset.outputs[rows])
                assert engine.cardinality(query) == rows.size
                if not rows.size:
                    assert answer is None
                    continue
                assert answer.cardinality == rows.size
                np.testing.assert_allclose(
                    answer.mean, oracle.mean(query), rtol=TOLERANCE, atol=TOLERANCE
                )
        _assert_q2_matches_oracle(q2, queries, dataset)


class TestStreamingTrainerIntegration:
    def test_train_through_sharded_engine(self):
        from repro.core.model import LLMModel
        from repro.core.training import StreamingTrainer

        dataset = _dataset(2, size=600)
        queries = _mixed_queries(dataset, count=25, seed=41)
        model = LLMModel(dimension=2)
        with ExactQueryEngine(dataset, num_shards=2, backend="serial") as engine:
            trainer = StreamingTrainer(model, engine)
            breakdown = trainer.train(queries)
        assert breakdown.pairs_processed > 0
        assert model.is_fitted
