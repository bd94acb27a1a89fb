"""Tests for the exact Q1/Q2 query executor."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.data.synthetic import SyntheticDataset
from repro.baselines.ols import OLSRegressor
from repro.dbms.executor import (
    ExactQueryEngine,
    ExecutionStatistics,
    SegmentedBatchPipeline,
    solve_q2_sufficient_statistics,
)
from repro.dbms.spatial_index import batch_grid_cells_per_dimension
from repro.dbms.storage import SQLiteDataStore
from repro.exceptions import ConfigurationError, EmptySubspaceError, StorageError
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


TOLERANCE = 1e-12


def _table(dimension: int, size: int, seed: int = 3) -> SyntheticDataset:
    """A seeded uniform table whose output is a noisy plane."""
    rng = np.random.default_rng(seed)
    inputs = rng.uniform(0.0, 1.0, size=(size, dimension))
    slope = rng.normal(0.0, 1.0, size=dimension)
    outputs = 1.0 + inputs @ slope + 0.05 * rng.normal(0.0, 1.0, size=size)
    return SyntheticDataset(
        inputs=inputs, outputs=outputs, name=f"table{dimension}", domain=(0.0, 1.0)
    )


def _mixed_queries(
    dataset: SyntheticDataset, count: int = 30, seed: int = 11
) -> list[Query]:
    """In-domain balls of every norm family, empty probes and tiny selections."""
    rng = np.random.default_rng(seed)
    dimension = dataset.dimension
    queries: list[Query] = []
    for index in range(count):
        if index % 9 == 0:
            queries.append(
                Query(center=rng.uniform(6.0, 7.0, size=dimension), radius=0.01)
            )
        elif index % 7 == 0:
            # A handful of rows at most: fewer than d + 1 sends the query
            # down the dense minimum-norm fallback.
            anchor = dataset.inputs[int(rng.integers(dataset.size))]
            queries.append(Query(center=anchor + 1e-6, radius=2e-4))
        else:
            # Radii grow as d ** (1 / p), so balls cover alike at every d.
            norm_order = (1.0, 2.0, 3.0, np.inf)[index % 4]
            queries.append(
                Query(
                    center=rng.uniform(0.0, 1.0, size=dimension),
                    radius=float(rng.uniform(0.05, 0.4))
                    * dimension ** (1.0 / norm_order),
                    norm_order=norm_order,
                )
            )
    return queries


def _answer_key(answer) -> tuple:
    if answer is None:
        return (None,)
    coefficients = () if answer.coefficients is None else tuple(answer.coefficients)
    return answer.cardinality, answer.mean, coefficients, answer.r_squared


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

    def test_pipeline_built_lazily(self, linear_dataset):
        engine = ExactQueryEngine(linear_dataset)
        assert engine._pipeline._grid is None
        engine.execute_q1_batch(
            [Query(center=np.array([0.5, 0.5]), radius=0.2)], on_empty="null"
        )
        assert engine._pipeline._grid is not None

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


BATCH_KINDS = ("execute_q1_batch", "execute_q2_batch")


@pytest.mark.parametrize("kind", BATCH_KINDS)
class TestBatchContract:
    def test_on_empty_raise(self, engine, kind):
        queries = [
            Query(center=np.array([0.5, 0.5]), radius=0.2),
            Query(center=np.array([5.0, 5.0]), radius=0.01),
        ]
        with pytest.raises(EmptySubspaceError):
            getattr(engine, kind)(queries)

    def test_on_empty_null_keeps_alignment(self, engine, kind):
        queries = [
            Query(center=np.array([0.5, 0.5]), radius=0.2),
            Query(center=np.array([5.0, 5.0]), radius=0.01),
            Query(center=np.array([0.3, 0.3]), radius=0.2),
        ]
        answers = getattr(engine, kind)(queries, on_empty="null")
        assert len(answers) == 3
        assert answers[0] is not None and answers[2] is not None
        assert answers[1] is None

    def test_invalid_on_empty(self, engine, kind):
        with pytest.raises(ConfigurationError):
            getattr(engine, kind)([], on_empty="skip")

    def test_empty_batch(self, engine, kind):
        assert getattr(engine, kind)([]) == []

    def test_dimension_mismatch(self, engine, kind):
        with pytest.raises(StorageError):
            getattr(engine, kind)([Query(center=np.array([0.5]), radius=0.1)])

    def test_mixed_dimensions(self, engine, kind):
        # The batch's dimension is checked once, on its stacked centers; a
        # batch whose centers differ in length names the odd query.
        plane = Query(center=np.array([0.5, 0.5]), radius=0.1)
        line = Query(center=np.array([0.5]), radius=0.1)
        for batch in ([plane, line], [line, plane]):
            with pytest.raises(StorageError, match="query has dimension 1 "):
                getattr(engine, kind)(batch)


@pytest.mark.parametrize("dimension", (1, 2, 3, 6, 8))
class TestMixedBatches:
    """One batch mixing norm orders, empty probes and selections of a few
    rows, against the oracle: counts equal, means and Q2 fitted values on
    the selected rows to 1e-12, coefficients and R^2 to 1e-9 relative, and
    the counters of the batch equal to the oracle's selections."""

    def test_q1_matches_oracle(self, dimension):
        dataset = _table(dimension, size=3_000)
        oracle = ExactOracle(dataset.inputs, dataset.outputs)
        queries = _mixed_queries(dataset)
        engine = ExactQueryEngine(dataset)
        answers = engine.execute_q1_batch(queries, on_empty="null")
        for query, answer in zip(queries, answers):
            expected = oracle.mean(query)
            if expected is None:
                assert answer is None
                continue
            assert answer.cardinality == oracle.count(query)
            np.testing.assert_allclose(
                answer.mean, expected, rtol=TOLERANCE, atol=TOLERANCE
            )
        # Single rows (the fallback) and hundreds of rows in one batch.
        sizes = [answer.cardinality for answer in answers if answer is not None]
        assert min(sizes) < dimension + 1 and max(sizes) > 100
        assert engine.statistics.queries_executed == len(queries)
        assert engine.statistics.rows_selected == sum(map(oracle.count, queries))

    def test_q2_matches_oracle(self, dimension):
        dataset = _table(dimension, size=3_000)
        oracle = ExactOracle(dataset.inputs, dataset.outputs)
        queries = _mixed_queries(dataset)
        engine = ExactQueryEngine(dataset)
        answers = engine.execute_q2_batch(queries, on_empty="null")
        for query, answer in zip(queries, answers):
            expected = oracle.q2(query)
            if expected is None:
                assert answer is None
                continue
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
        # Single rows (the fallback) and hundreds of rows in one batch.
        sizes = [answer.cardinality for answer in answers if answer is not None]
        assert min(sizes) < dimension + 1 and max(sizes) > 100
        assert engine.statistics.queries_executed == len(queries)
        assert engine.statistics.rows_selected == sum(map(oracle.count, queries))


def _pipeline_statistics(inputs, outputs, centers, radii, kind):
    """``(counts, sums)`` of one row set's pipeline (L2 balls)."""
    counts, sums, _, _ = SegmentedBatchPipeline(inputs, outputs).segment_statistics(
        centers, radii, 2.0, kind=kind
    )
    return counts, sums


def _merged_statistics(inputs, outputs, centers, radii, kind, parts):
    """Sums of the pipeline statistics of ``parts`` contiguous row blocks."""
    blocks = [
        _pipeline_statistics(inputs[rows], outputs[rows], centers, radii, kind)
        for rows in np.array_split(np.arange(len(inputs)), parts)
    ]
    counts, sums = zip(*blocks)
    return sum(counts), sum(sums), blocks


class TestStatisticsMerge:
    """Statistics of disjoint row sets merge by plain addition, which is how
    a query's boundary rows and its inner-cell runs combine: the sums over
    a partition of the rows equal the whole table's statistics."""

    def test_q2_moments_merge_exactly(self):
        dataset = _table(2, size=900)
        centers = np.array([[0.5, 0.5], [0.2, 0.8], [0.9, 0.1]])
        radii = np.array([0.25, 0.15, 0.3])
        full_counts, full_moments = _pipeline_statistics(
            dataset.inputs, dataset.outputs, centers, radii, "q2"
        )
        counts, moments, _ = _merged_statistics(
            dataset.inputs, dataset.outputs, centers, radii, "q2", parts=3
        )
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
        dataset = _table(2, size=700)
        centers = np.array([[0.4, 0.6], [0.8, 0.2]])
        radii = np.array([0.2, 0.25])
        full_counts, full_sums = _pipeline_statistics(
            dataset.inputs, dataset.outputs, centers, radii, "q1"
        )
        counts, sums, _ = _merged_statistics(
            dataset.inputs, dataset.outputs, centers, radii, "q1", parts=4
        )
        np.testing.assert_array_equal(counts, full_counts)
        np.testing.assert_allclose(sums, full_sums, rtol=1e-12, atol=1e-12)

    def test_rank_deficient_parts_merge_to_full_rank_answer(self):
        # Every block alone holds fewer than d + 1 selected rows, but the
        # merged statistics recover the full-rank plane.
        rng = np.random.default_rng(9)
        inputs = rng.uniform(0.45, 0.55, size=(9, 2))
        outputs = 2.0 + inputs @ np.array([1.5, -0.5])
        centers = np.array([[0.5, 0.5]])
        radii = np.array([0.4])
        counts, moments, blocks = _merged_statistics(
            inputs, outputs, centers, radii, "q2", parts=5
        )
        for block_counts, block_moments in blocks:
            assert block_counts[0] < 3
            solution = solve_q2_sufficient_statistics(
                block_counts, block_moments, centers
            )
            assert solution.needs_fallback.all()
        solution = solve_q2_sufficient_statistics(counts, moments, centers)
        assert counts[0] == 9 and not solution.needs_fallback.any()
        np.testing.assert_allclose(
            solution.coefficients[0], [2.0, 1.5, -0.5], rtol=1e-9, atol=TOLERANCE
        )


class TestStatistics:
    def test_statistics_accumulate(self, linear_dataset):
        engine = ExactQueryEngine(linear_dataset)
        oracle = ExactOracle(linear_dataset.inputs, linear_dataset.outputs)
        queries = [
            Query(center=np.array([0.5, 0.5]), radius=0.2),
            Query(center=np.array([0.4, 0.4]), radius=0.2),
        ]
        assert engine.statistics.queries_executed == 0
        for query in queries:
            engine.execute_q1(query)
        stats = engine.statistics
        selected = sum(oracle.count(query) for query in queries)
        assert stats.queries_executed == 2
        assert 0 < selected == stats.rows_selected
        assert selected <= stats.rows_scanned <= 2 * linear_dataset.size

    def test_selective_batch_scans_a_fraction_of_the_rows(self, linear_dataset):
        engine = ExactQueryEngine(linear_dataset)
        oracle = ExactOracle(linear_dataset.inputs, linear_dataset.outputs)
        rng = np.random.default_rng(17)
        queries = [
            Query(center=rng.uniform(0.2, 0.8, size=2), radius=0.03)
            for _ in range(10)
        ]
        answers = engine.execute_q1_batch(queries, on_empty="null")
        assert engine.statistics.rows_scanned < len(queries) * engine.size / 5
        for query, answer in zip(queries, answers):
            assert answer.cardinality == oracle.count(query)
            np.testing.assert_allclose(
                answer.mean, oracle.mean(query), rtol=TOLERANCE, atol=TOLERANCE
            )

    def test_rows_tested_are_the_boundary_share_of_rows_scanned(
        self, linear_dataset
    ):
        engine = ExactQueryEngine(linear_dataset)
        oracle = ExactOracle(linear_dataset.inputs, linear_dataset.outputs)
        queries = [
            Query(center=np.array([0.5, 0.5]), radius=0.3),
            Query(center=np.array([0.2, 0.7]), radius=0.1),
        ]
        engine.execute_q1_batch(queries)
        stats = engine.statistics
        selected = sum(map(oracle.count, queries))
        # Wide balls sum most of their rows from inner runs.
        assert 0 < stats.rows_tested < selected < stats.rows_scanned
        # A ball covering the table is all inner runs: nothing is tested.
        covering = ExactQueryEngine(linear_dataset)
        covering.execute_q2_batch([Query(center=np.array([0.5, 0.5]), radius=9.0)])
        assert covering.statistics.rows_tested == 0
        assert covering.statistics.rows_scanned == linear_dataset.size
        # select_subspace tests every candidate it scans.
        single = ExactQueryEngine(linear_dataset)
        single.select_subspace(queries[1])
        assert 0 < single.statistics.rows_tested == single.statistics.rows_scanned

    def test_running_aggregates_are_constant_memory(self):
        stats = ExecutionStatistics()
        for index in range(9_999):
            stats.record_batch(1, 10 + index % 3, 5, 4)
        assert stats.queries_executed == 9_999
        assert stats.rows_scanned == 9_999 * 11
        assert stats.rows_selected == 9_999 * 5
        assert stats.rows_tested == 9_999 * 4
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
        assert stats.rows_tested == 0


def _holed_table(dimension: int, size: int = 3_000) -> SyntheticDataset:
    """:func:`_table` without the rows of a central box a few cells wide."""
    table = _table(dimension, size, seed=dimension + 5)
    cells = batch_grid_cells_per_dimension(size, dimension)
    half = max(0.1, 0.6 / cells)
    keep = ~(np.abs(table.inputs - 0.5) <= half).all(axis=1)
    return SyntheticDataset(
        inputs=table.inputs[keep],
        outputs=table.outputs[keep],
        name=table.name,
        domain=(0.0, 1.0),
    )


def _segment_edge_batch(dataset: SyntheticDataset, norm_order: float):
    """A batch whose queries sit at every edge of the per-query segments.

    In order: a ball inside one cell (boundary rows, no inner run), a ball
    covering the table (inner runs, no boundary row), a tiny ball in the
    table's empty central box (neither), a radius-0 ball on a row (selects
    it), a ball far outside the domain (boundary rows, none selected), then
    regular balls with both.  The edge balls repeat at the end, so empty
    segments sit first, last and between non-empty ones.
    """
    rng = np.random.default_rng(dataset.dimension)
    inputs = dataset.inputs
    dimension = dataset.dimension
    cell = SegmentedBatchPipeline(dataset.inputs, dataset.outputs).grid.cell_width
    scale = dimension ** (1.0 / norm_order) if np.isfinite(norm_order) else 1.0
    edges = [
        (inputs[7], 0.2 * float(cell.min())),
        (np.full(dimension, 0.5), 4.0 * dimension),
        (np.full(dimension, 0.5), 1e-3),
        (inputs[11], 0.0),
        (np.full(dimension, 40.0), 0.3),
    ]
    regular = [
        (rng.uniform(0.0, 1.0, dimension), float(rng.uniform(0.15, 0.4)) * scale)
        for _ in range(5)
    ]
    balls = edges + regular + edges[::-1]
    centers = np.array([center for center, _ in balls], dtype=float)
    radii = np.array([radius for _, radius in balls], dtype=float)
    return centers, radii


@pytest.mark.parametrize("kind", ("q1", "q2"))
@pytest.mark.parametrize("norm_order", (1.0, 2.0, np.inf))
@pytest.mark.parametrize("dimension", (1, 2, 6))
def test_segment_offsets_at_their_edges(dimension, norm_order, kind, monkeypatch):
    """Queries with no boundary row, no inner run or neither, in one batch.

    The batch, its batches of one and its chunked split (one query per
    chunk) give bit-identical counts and sums, and the same rows scanned
    and rows tested.
    """
    import repro.dbms.executor as executor

    dataset = _holed_table(dimension)
    centers, radii = _segment_edge_batch(dataset, norm_order)
    pipeline = SegmentedBatchPipeline(dataset.inputs, dataset.outputs)
    grid = pipeline.grid
    (
        boundary_qid,
        boundary_starts,
        boundary_ends,
        inner_qid,
        inner_starts,
        inner_ends,
    ) = grid.classified_ranges_batch(centers, radii, norm_order)
    has_boundary = np.isin(np.arange(len(radii)), boundary_qid)
    has_inner = np.isin(np.arange(len(radii)), inner_qid)
    assert (has_boundary & ~has_inner).any()
    assert (~has_boundary & has_inner).any()
    assert (~has_boundary & ~has_inner).any()
    assert (has_boundary & has_inner).any()

    counts, sums, scanned, tested = pipeline.segment_statistics(
        centers, radii, norm_order, kind=kind
    )
    # Tested: every boundary candidate; scanned: those plus the inner rows.
    offsets = grid.cell_row_offsets
    assert tested == int((boundary_ends - boundary_starts).sum())
    inner_rows = int((offsets[inner_ends] - offsets[inner_starts]).sum())
    assert scanned == tested + inner_rows
    singles = [
        pipeline.segment_statistics(
            centers[q : q + 1], radii[q : q + 1], norm_order, kind=kind
        )
        for q in range(len(radii))
    ]
    assert counts.tobytes() == np.concatenate([s[0] for s in singles]).tobytes()
    assert sums.tobytes() == np.concatenate([s[1] for s in singles]).tobytes()
    assert scanned == sum(s[2] for s in singles)
    assert tested == sum(s[3] for s in singles)
    monkeypatch.setattr(executor, "_CHUNK_BOUNDARY_ROWS", 1)
    chunked = pipeline.segment_statistics(centers, radii, norm_order, kind=kind)
    assert chunked[0].tobytes() == counts.tobytes()
    assert chunked[1].tobytes() == sums.tobytes()
    assert chunked[2:] == (scanned, tested)
    # The counts are the oracle's, and the radius-0 ball selects its row.
    oracle = ExactOracle(dataset.inputs, dataset.outputs)
    for q in np.flatnonzero(radii > 0.0):
        query = Query(center=centers[q], radius=radii[q], norm_order=norm_order)
        assert counts[q] == oracle.count(query)
    assert counts[3] >= 1 and counts[2] == counts[4] == 0
    assert 0 <= tested <= scanned


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

    def test_from_store_matches_in_memory(self):
        # The store keeps rowid order and IEEE doubles, so the answers and
        # the counters are those of the in-memory engine bit for bit.
        dataset = _table(2, size=600)
        queries = _mixed_queries(dataset, count=8, seed=21)
        with SQLiteDataStore(":memory:") as store:
            store.load_dataset(dataset)
            engine = ExactQueryEngine.from_store(store, dataset.name)
        memory = ExactQueryEngine(dataset)
        for kind in BATCH_KINDS:
            got = getattr(engine, kind)(queries, on_empty="null")
            want = getattr(memory, kind)(queries, on_empty="null")
            assert [_answer_key(a) for a in got] == [_answer_key(a) for a in want]
        assert vars(engine.statistics) == vars(memory.statistics)

    def test_rows_follow_rowid_order(self):
        # Appended rows come after the loaded ones, and the engine selects
        # rows in that order.
        rng = np.random.default_rng(3)
        inputs = rng.uniform(0.0, 1.0, size=(280, 2))
        outputs = 1.0 + inputs @ np.array([0.7, -1.3])
        dataset = SyntheticDataset(
            inputs=inputs[:250], outputs=outputs[:250], name="ordered"
        )
        with SQLiteDataStore(":memory:") as store:
            store.load_dataset(dataset)
            store.append_rows(dataset.name, inputs[250:], outputs[250:])
            engine = ExactQueryEngine.from_store(store, dataset.name)
        np.testing.assert_array_equal(engine.dataset.inputs, inputs)
        np.testing.assert_array_equal(engine.dataset.outputs, outputs)
        query = Query(center=np.array([0.5, 0.5]), radius=0.3)
        rows = ExactOracle(inputs, outputs).select(query)
        selected_inputs, selected_outputs = engine.select_subspace(query)
        np.testing.assert_array_equal(selected_inputs, inputs[rows])
        np.testing.assert_array_equal(selected_outputs, outputs[rows])


class TestFiveRowTable:
    def test_answers_match_oracle(self):
        """Selections, counts and means to 1e-12; Q2 fitted values on the
        selected rows to 1e-12, coefficients and R^2 to 1e-9 relative."""
        rng = np.random.default_rng(19)
        inputs = rng.uniform(0.0, 1.0, size=(5, 2))
        slope = rng.normal(0.0, 1.0, size=2)
        outputs = 1.0 + inputs @ slope + 0.05 * rng.normal(0.0, 1.0, size=5)
        dataset = SyntheticDataset(
            inputs=inputs, outputs=outputs, name="five", domain=(0.0, 1.0)
        )
        oracle = ExactOracle(dataset.inputs, dataset.outputs)
        queries = [
            Query(center=np.array([0.5, 0.5]), radius=2.0),
            Query(center=dataset.inputs[2], radius=1e-9),
            Query(center=np.array([6.0, 6.0]), radius=0.1),
            Query(center=dataset.inputs[0], radius=0.6, norm_order=1.0),
            Query(center=dataset.inputs[4], radius=0.4, norm_order=np.inf),
        ]
        engine = ExactQueryEngine(dataset)
        q1 = engine.execute_q1_batch(queries, on_empty="null")
        q2 = engine.execute_q2_batch(queries, on_empty="null")
        for query, mean, plane in zip(queries, q1, q2):
            rows = oracle.select(query)
            inputs, outputs = engine.select_subspace(query)
            np.testing.assert_array_equal(inputs, dataset.inputs[rows])
            np.testing.assert_array_equal(outputs, dataset.outputs[rows])
            assert engine.cardinality(query) == rows.size
            if not rows.size:
                assert mean is None and plane is None
                continue
            assert mean.cardinality == plane.cardinality == rows.size
            for answer in (mean, plane):
                np.testing.assert_allclose(
                    answer.mean, oracle.mean(query), rtol=TOLERANCE, atol=TOLERANCE
                )
            expected = oracle.q2(query)
            np.testing.assert_allclose(
                oracle.fitted(query, plane.coefficients),
                oracle.fitted(query, expected),
                rtol=TOLERANCE,
                atol=TOLERANCE,
            )
            np.testing.assert_allclose(
                plane.coefficients, expected, rtol=1e-9, atol=TOLERANCE
            )
            np.testing.assert_allclose(
                plane.r_squared, oracle.r_squared(query), rtol=1e-9, atol=1e-9
            )


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


def test_large_order_ball_counts_without_overflow_warnings():
    """A valid high-order ball whose far rows' terms pass float64's range.

    ``2 ** 1000`` is a normal float64, so ``WITHIN 2 ... NORM 1000`` is a
    valid statement, but a row 3 away in one coordinate has a term
    ``3 ** 1000`` that overflows to inf: that row is outside the ball,
    which is the answer, and no ``RuntimeWarning`` may reach the caller.
    """
    import warnings

    from repro.dbms.sqlfront import parse_statement

    rng = np.random.default_rng(0)
    inputs = rng.uniform(0.0, 10.0, size=(20_000, 2))
    outputs = inputs.sum(axis=1)
    dataset = SyntheticDataset(
        inputs=inputs, outputs=outputs, name="wide_ball", domain=(0.0, 10.0)
    )
    query = parse_statement(
        "SELECT COUNT(*) FROM wide_ball WITHIN 2 OF (5, 5) NORM 1000"
    ).to_query()
    # The true count, scaled so no term overflows: |d|_p = m * |d / m|_p.
    deltas = np.abs(inputs - query.center)
    largest = deltas.max(axis=1)
    scaled = ((deltas / largest[:, None]) ** 1000.0).sum(axis=1) ** 1e-3
    true_count = int(np.count_nonzero(largest * scaled <= 2.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        [answer] = ExactQueryEngine(dataset).execute_q1_batch([query])
        oracle_count = ExactOracle(inputs, outputs).count(query)
        distances = pairwise_lp_distance(inputs, query.center, p=1000.0)
    assert answer.cardinality == oracle_count == true_count == 3_260
    assert np.isinf(distances).any()  # the far rows overflowed, silently


def _balls_past_the_grid(dimension: int, norm_order: float) -> list[Query]:
    """Balls whose bounding box runs more than ``2**63`` cells past the grid.

    A 20k-row table has 10 to 141 fine-grid cells per dimension over
    [0, 1], so a radius of 1e18 already spans more than ``2**63`` cells.
    Radii go up to 1e300 where ``radius ** p`` stays a normal float64, and
    the centers include points 1e300 away.
    """
    radii = [1e18, 1e19, 1e100]
    radii += [1e150] if norm_order == 2.0 else [1e300]
    centers = [np.full(dimension, 0.5)] * len(radii)
    huge = 1e150 if norm_order == 2.0 else 1e300
    # A far center whose ball reaches back over the table, and one whose
    # ball stops short of it.
    far = np.full(dimension, 0.5)
    far[0] = huge
    centers += [far, -far]
    radii += [huge, huge / 10.0]
    return [
        Query(center=center, radius=radius, norm_order=norm_order)
        for center, radius in zip(centers, radii)
    ]


@pytest.mark.parametrize("norm_order", (1.0, 2.0, np.inf))
@pytest.mark.parametrize("dimension", (1, 2, 3))
def test_balls_past_int64_cell_coordinates_select_the_oracle_rows(
    dimension, norm_order
):
    """Cell coordinates are clipped before the int64 cast.

    A box corner more than ``2**63`` cells out once cast to INT64_MIN and
    clipped to cell 0, so the box collapsed and a ball covering the table
    selected a sliver of it.  Through the engine and through
    ``AnalyticsService``, every such ball selects exactly the oracle's rows,
    and no ``RuntimeWarning`` reaches the caller.
    """
    import warnings

    from repro.dbms.serving import AnalyticsService

    dataset = _table(dimension, 20_000, seed=dimension)
    oracle = ExactOracle(dataset.inputs, dataset.outputs)
    queries = _balls_past_the_grid(dimension, norm_order)
    norm = " NORM INF" if np.isinf(norm_order) else f" NORM {norm_order:g}"
    texts = [
        f"SELECT {kind} FROM t WITHIN {query.radius!r} OF "
        f"({', '.join(repr(float(x)) for x in query.center)}){norm}"
        for query in queries
        for kind in ("COUNT(*)", "AVG(u)")
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        engine = ExactQueryEngine(dataset)
        answers = engine.execute_q1_batch(queries, on_empty="null")
        singles = [engine.execute_q1_batch([q], on_empty="null")[0] for q in queries]
        results = AnalyticsService(engines={"t": engine}).execute_script(
            "; ".join(texts), mode="exact"
        )
    assert any(oracle.count(query) == dataset.size for query in queries)
    assert any(oracle.count(query) == 0 for query in queries)
    for index, query in enumerate(queries):
        context = f"ball {index}: {query!r}"
        count, mean = oracle.count(query), oracle.mean(query)
        for answer in (answers[index], singles[index]):
            if count == 0:
                assert answer is None, context
                continue
            assert answer.cardinality == count, context
            assert answer.mean == pytest.approx(mean, rel=TOLERANCE), context
        count_result, mean_result = results[2 * index], results[2 * index + 1]
        assert count_result.value == count, context
        if count:
            assert mean_result.value == pytest.approx(mean, rel=TOLERANCE), context
        else:
            assert mean_result.value is None and mean_result.empty, context
