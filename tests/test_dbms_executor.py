"""Tests for the exact Q1/Q2 query executor."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.data.synthetic import SyntheticDataset
from repro.dbms.executor import ExactQueryEngine, ExecutionStatistics
from repro.dbms.storage import SQLiteDataStore
from repro.exceptions import EmptySubspaceError, StorageError
from repro.queries.geometry import pairwise_lp_distance
from repro.queries.query import Query
from repro.testing.oracle import ExactOracle


@pytest.fixture(scope="module")
def linear_dataset() -> SyntheticDataset:
    rng = np.random.default_rng(0)
    inputs = rng.uniform(0, 1, size=(3_000, 2))
    outputs = 2.0 + 3.0 * inputs[:, 0] - 1.0 * inputs[:, 1]
    return SyntheticDataset(inputs=inputs, outputs=outputs, name="linear2d", domain=(0.0, 1.0))


@pytest.fixture(scope="module")
def engine(linear_dataset) -> ExactQueryEngine:
    return ExactQueryEngine(linear_dataset)


class TestSelection:
    def test_selection_matches_brute_force(self, engine, linear_dataset):
        query = Query(center=np.array([0.4, 0.6]), radius=0.2)
        inputs, outputs = engine.select_subspace(query)
        distances = pairwise_lp_distance(linear_dataset.inputs, query.center)
        expected = int(np.sum(distances <= query.radius))
        assert inputs.shape[0] == expected == outputs.shape[0]

    def test_indexed_and_unindexed_agree(self, linear_dataset):
        # The unindexed reference is the brute-force oracle's full scan.
        indexed = ExactQueryEngine(linear_dataset)
        oracle = ExactOracle(linear_dataset.inputs, linear_dataset.outputs)
        query = Query(center=np.array([0.5, 0.5]), radius=0.15)
        a = indexed.execute_q1(query)
        assert a.mean == pytest.approx(oracle.mean(query))
        assert a.cardinality == oracle.count(query)

    def test_cardinality(self, engine):
        query = Query(center=np.array([0.5, 0.5]), radius=0.1)
        assert engine.cardinality(query) == engine.execute_q1(query).cardinality

    def test_dimension_mismatch(self, engine):
        with pytest.raises(StorageError):
            engine.select_subspace(Query(center=np.array([0.5]), radius=0.1))


class TestQ1:
    def test_mean_value_matches_numpy(self, engine, linear_dataset):
        query = Query(center=np.array([0.3, 0.3]), radius=0.2)
        distances = pairwise_lp_distance(linear_dataset.inputs, query.center)
        mask = distances <= query.radius
        expected = float(np.mean(linear_dataset.outputs[mask]))
        assert engine.execute_q1(query).mean == pytest.approx(expected)

    def test_empty_subspace_raises(self, engine):
        query = Query(center=np.array([5.0, 5.0]), radius=0.01)
        with pytest.raises(EmptySubspaceError):
            engine.execute_q1(query)


class TestQ2:
    def test_recovers_linear_coefficients(self, engine):
        query = Query(center=np.array([0.5, 0.5]), radius=0.3)
        answer = engine.execute_q2(query)
        assert answer.coefficients is not None
        intercept, slope = answer.coefficients[0], answer.coefficients[1:]
        assert intercept == pytest.approx(2.0, abs=1e-6)
        assert np.allclose(slope, [3.0, -1.0], atol=1e-6)
        assert answer.r_squared == pytest.approx(1.0)

    def test_q2_empty_subspace_raises(self, engine):
        with pytest.raises(EmptySubspaceError):
            engine.execute_q2(Query(center=np.array([9.0, 9.0]), radius=0.01))

    def test_q2_agrees_with_direct_ols(self, engine, linear_dataset):
        query = Query(center=np.array([0.4, 0.4]), radius=0.25)
        oracle = ExactOracle(linear_dataset.inputs, linear_dataset.outputs)
        answer = engine.execute_q2(query)
        assert np.allclose(answer.coefficients, oracle.q2(query))


class TestQ1Batch:
    def test_on_empty_raise(self, engine):
        queries = [
            Query(center=np.array([0.5, 0.5]), radius=0.2),
            Query(center=np.array([5.0, 5.0]), radius=0.01),
        ]
        with pytest.raises(EmptySubspaceError):
            engine.execute_q1_batch(queries)

    def test_on_empty_null_keeps_alignment(self, engine):
        queries = [
            Query(center=np.array([0.5, 0.5]), radius=0.2),
            Query(center=np.array([5.0, 5.0]), radius=0.01),
            Query(center=np.array([0.3, 0.3]), radius=0.2),
        ]
        answers = engine.execute_q1_batch(queries, on_empty="null")
        assert len(answers) == 3
        assert answers[0] is not None and answers[2] is not None
        assert answers[1] is None

    def test_invalid_on_empty(self, engine):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            engine.execute_q1_batch([], on_empty="skip")

    def test_empty_batch(self, engine):
        assert engine.execute_q1_batch([]) == []

    def test_dimension_mismatch(self, engine):
        with pytest.raises(StorageError):
            engine.execute_q1_batch([Query(center=np.array([0.5]), radius=0.1)])


class TestStatistics:
    def test_statistics_accumulate(self, linear_dataset):
        engine = ExactQueryEngine(linear_dataset)
        assert engine.statistics.queries_executed == 0
        engine.execute_q1(Query(center=np.array([0.5, 0.5]), radius=0.2))
        engine.execute_q1(Query(center=np.array([0.4, 0.4]), radius=0.2))
        stats = engine.statistics
        assert stats.queries_executed == 2
        assert stats.rows_selected > 0
        assert stats.rows_scanned >= stats.rows_selected

    def test_running_aggregates_are_constant_memory(self):
        stats = ExecutionStatistics()
        for index in range(9_999):
            stats.record_batch(1, 10 + index % 3, 5)
        assert stats.queries_executed == 9_999
        assert stats.rows_scanned == 9_999 * 11
        assert stats.rows_selected == 9_999 * 5
        # No per-query containers anywhere in the instance state.
        assert not any(
            isinstance(value, (list, dict, np.ndarray))
            for value in vars(stats).values()
        )

    def test_per_query_seconds_removed(self):
        # The deprecated raw-latency accessor (warning shipped two releases
        # ago) is gone for good; the O(1) aggregates are the only surface.
        stats = ExecutionStatistics()
        stats.record_batch(1, 10, 5)
        assert not hasattr(stats, "per_query_seconds")

    def test_empty_statistics_read_as_zero(self):
        stats = ExecutionStatistics()
        assert stats.queries_executed == 0
        assert stats.rows_scanned == 0
        assert stats.rows_selected == 0


class TestFromStore:
    def test_engine_from_sqlite_store(self, linear_dataset):
        with SQLiteDataStore(":memory:") as store:
            store.load_dataset(linear_dataset)
            engine = ExactQueryEngine.from_store(store, "linear2d")
        query = Query(center=np.array([0.5, 0.5]), radius=0.2)
        direct = ExactQueryEngine(linear_dataset).execute_q1(query)
        via_store = engine.execute_q1(query)
        assert via_store.mean == pytest.approx(direct.mean)
        assert via_store.cardinality == direct.cardinality


class TestNonFiniteRows:
    """An exact answer over NaN or infinite rows is undefined: the engine
    refuses such a dataset, naming its first non-finite row."""

    ROW = 7

    @staticmethod
    def _table(value: float, column: str) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng(3)
        inputs = rng.uniform(0, 1, size=(200, 2))
        outputs = inputs.sum(axis=1)
        if column == "input":
            inputs[TestNonFiniteRows.ROW, 1] = value
        else:
            outputs[TestNonFiniteRows.ROW] = value
        return inputs, outputs

    @pytest.mark.parametrize("column", ("input", "output"))
    @pytest.mark.parametrize("value", (np.nan, np.inf, -np.inf))
    def test_refused_when_built_directly(self, value, column):
        inputs, outputs = self._table(value, column)
        dataset = SyntheticDataset(inputs=inputs, outputs=outputs, name="bad")
        with pytest.raises(StorageError, match=f"row {self.ROW} "):
            ExactQueryEngine(dataset)

    @pytest.mark.parametrize("column", ("input", "output"))
    @pytest.mark.parametrize("value", (np.nan, np.inf, -np.inf))
    def test_refused_through_from_store(self, value, column):
        # The store refuses such rows itself, so they arrive as another
        # program would leave them: a table without NOT NULL columns
        # (SQLite stores NaN as NULL, which reads back as NaN).
        inputs, outputs = self._table(value, column)
        with SQLiteDataStore(":memory:") as store:
            store.connection.execute("CREATE TABLE bad (x1 REAL, x2 REAL, u REAL)")
            store.connection.executemany(
                "INSERT INTO bad (x1, x2, u) VALUES (?, ?, ?)",
                np.column_stack([inputs, outputs]).tolist(),
            )
            store.catalog.register("bad", dimension=2, row_count=200)
            with pytest.raises(StorageError, match=f"row {self.ROW} "):
                ExactQueryEngine.from_store(store, "bad")


class TestBoundedWorkingSet:
    def test_peak_memory_does_not_grow_with_the_batch(self):
        """Doubling a batch of wide balls leaves its peak memory in place.

        At d = 8 a ball of radius ~0.8 makes nearly every row a boundary
        row.  Run as one piece, a batch of 120 such queries peaks at about
        twice a batch of 60 (311 vs 149 MiB); in query chunks of bounded
        estimated boundary rows both peak near 55 MiB.
        """
        rng = np.random.default_rng(8)
        inputs = rng.uniform(0.0, 1.0, size=(20_000, 8))
        dataset = SyntheticDataset(
            inputs=inputs,
            outputs=inputs @ rng.normal(size=8),
            name="wide8",
            domain=(0.0, 1.0),
        )
        queries = [
            Query(
                center=rng.uniform(0.0, 1.0, 8),
                radius=float(max(rng.normal(0.8, 0.08), 0.0)),
            )
            for _ in range(120)
        ]
        engine = ExactQueryEngine(dataset)
        for kind in ("execute_q1_batch", "execute_q2_batch"):
            execute = getattr(engine, kind)
            # Warm up: the grid, the clustered rows and the prefix table.
            execute(queries[:4])
            peaks = []
            for count in (60, 120):
                tracemalloc.start()
                try:
                    execute(queries[:count])
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert peaks[1] <= 1.25 * peaks[0], (kind, peaks)
