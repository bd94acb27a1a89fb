"""Tests for the uniform grid spatial index."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dbms.spatial_index import (
    GridIndex,
    batch_grid_cells_per_dimension,
    expand_ranges,
)
from repro.exceptions import ConfigurationError, DimensionalityMismatchError
from repro.queries.geometry import pairwise_lp_distance


@pytest.fixture(scope="module")
def points() -> np.ndarray:
    return np.random.default_rng(0).uniform(0, 1, size=(2_000, 2))


class TestConstruction:
    def test_basic_properties(self, points):
        index = GridIndex(points, cells_per_dimension=8)
        assert index.size == 2_000
        assert index.dimension == 2
        assert index.cells_per_dimension == 8
        assert 0 < index.cell_flats.size <= 64
        span = points.max(axis=0) - points.min(axis=0)
        np.testing.assert_array_equal(index.cell_width, span / 8)
        with pytest.raises(ValueError):
            index.cell_width[0] = 1.0

    def test_rejects_empty_points(self):
        with pytest.raises(ConfigurationError):
            GridIndex(np.empty((0, 2)), cells_per_dimension=4)

    def test_rejects_bad_cell_count(self, points):
        with pytest.raises(ConfigurationError):
            GridIndex(points, cells_per_dimension=0)


class TestBatchGridSizing:
    """The fine-grid resolution the engine's pipeline uses."""

    def test_batch_grid_sizing(self):
        # ~8 rows per cell, capped at 256 cells per dimension, floor of 1.
        assert batch_grid_cells_per_dimension(200_000, 2) == 158
        assert batch_grid_cells_per_dimension(4, 3) == 1
        assert batch_grid_cells_per_dimension(10**9, 1) == 256
        with pytest.raises(ConfigurationError):
            batch_grid_cells_per_dimension(100, 0)


def _candidates(index: GridIndex, center, radius, p=2.0) -> np.ndarray:
    """Row ids of one query's candidate ranges, probed as a batch of one."""
    query_ids, starts, ends = index.candidate_ranges_batch(
        np.asarray(center, dtype=float)[np.newaxis, :], np.array([radius]), p=p
    )
    positions, _ = expand_ranges(starts, ends - starts)
    return index.clustered_order[positions]


def _ball(index: GridIndex, points, center, radius, p=2.0) -> np.ndarray:
    """Grid candidates filtered by the exact Lp test."""
    candidates = _candidates(index, center, radius, p)
    if candidates.size == 0:
        return candidates
    distances = pairwise_lp_distance(points[candidates], center, p=p)
    return candidates[distances <= radius]


class TestBallQueries:
    """One ball query through the batch probe the executor uses."""

    def test_matches_brute_force(self, points):
        index = GridIndex(points, cells_per_dimension=10)
        rng = np.random.default_rng(1)
        for _ in range(20):
            center = rng.uniform(0, 1, size=2)
            radius = rng.uniform(0.01, 0.3)
            expected = np.nonzero(
                pairwise_lp_distance(points, center) <= radius
            )[0]
            actual = _ball(index, points, center, radius)
            assert set(actual.tolist()) == set(expected.tolist())

    def test_manhattan_norm(self, points):
        index = GridIndex(points, cells_per_dimension=10)
        center = np.array([0.5, 0.5])
        expected = np.nonzero(pairwise_lp_distance(points, center, p=1) <= 0.2)[0]
        actual = _ball(index, points, center, 0.2, p=1)
        assert set(actual.tolist()) == set(expected.tolist())

    def test_query_outside_domain_returns_empty(self, points):
        index = GridIndex(points, cells_per_dimension=10)
        assert _ball(index, points, np.array([5.0, 5.0]), 0.1).size == 0

    def test_candidate_rows_superset_of_matches(self, points):
        index = GridIndex(points, cells_per_dimension=10)
        center = np.array([0.3, 0.7])
        candidates = set(_candidates(index, center, 0.2).tolist())
        matches = set(
            np.nonzero(pairwise_lp_distance(points, center) <= 0.2)[0].tolist()
        )
        assert matches <= candidates

    def test_selectivity_between_zero_and_one(self, points):
        index = GridIndex(points, cells_per_dimension=10)
        value = _ball(index, points, np.array([0.5, 0.5]), 0.25).size / index.size
        assert 0.0 < value < 1.0

    def test_zero_radius(self, points):
        index = GridIndex(points, cells_per_dimension=10)
        # Query centered exactly on an indexed point with radius 0 finds it.
        target = points[42]
        assert 42 in _ball(index, points, target, 0.0).tolist()

    def test_rejects_bad_radius(self, points):
        index = GridIndex(points, cells_per_dimension=10)
        with pytest.raises(ConfigurationError):
            _candidates(index, np.array([0.5, 0.5]), -0.1)

    def test_rejects_wrong_dimension(self, points):
        index = GridIndex(points, cells_per_dimension=10)
        with pytest.raises(DimensionalityMismatchError):
            _candidates(index, np.array([0.5, 0.5, 0.5]), 0.1)


class TestHigherDimensions:
    def test_five_dimensional_index(self):
        pts = np.random.default_rng(2).uniform(0, 1, size=(3_000, 5))
        index = GridIndex(pts, cells_per_dimension=2)
        center = np.full(5, 0.5)
        radius = 0.4
        expected = np.nonzero(pairwise_lp_distance(pts, center) <= radius)[0]
        actual = _ball(index, pts, center, radius)
        assert set(actual.tolist()) == set(expected.tolist())


class TestBatchCandidateRanges:
    """Vectorised candidate/classified range generation over the grid."""

    @pytest.mark.parametrize("dimension", [1, 2, 3, 6])
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, np.inf])
    def test_ranges_cover_every_selected_row(self, dimension, p):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0, 1, size=(1_500, dimension))
        index = GridIndex(
            pts, cells_per_dimension=batch_grid_cells_per_dimension(1_500, dimension)
        )
        centers = np.vstack(
            [
                rng.uniform(0, 1, size=(25, dimension)),
                rng.uniform(3, 4, size=(5, dimension)),  # out of domain
            ]
        )
        radii = rng.uniform(0.02, 0.45, size=30)
        query_ids, starts, ends = index.candidate_ranges_batch(centers, radii, p=p)
        order = index.clustered_order
        candidates: list[set[int]] = [set() for _ in range(30)]
        for qid, start, end in zip(query_ids, starts, ends):
            rows = order[start:end].tolist()
            assert not candidates[qid].intersection(rows), "duplicate candidates"
            candidates[qid].update(rows)
        for i in range(30):
            distances = pairwise_lp_distance(pts, centers[i], p=p)
            selected = set(np.nonzero(distances <= radii[i])[0].tolist())
            assert selected <= candidates[i]

    @pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
    def test_inner_cells_are_fully_inside(self, p):
        rng = np.random.default_rng(7)
        pts = rng.uniform(0, 1, size=(2_000, 2))
        index = GridIndex(pts, cells_per_dimension=24)
        centers = rng.uniform(0, 1, size=(20, 2))
        radii = rng.uniform(0.1, 0.4, size=20)
        (
            bnd_qid,
            bnd_starts,
            bnd_ends,
            inner_qid,
            cell_starts,
            cell_ends,
        ) = index.classified_ranges_batch(centers, radii, p=p)
        assert inner_qid.size > 0  # classification engages at these radii
        order = index.clustered_order
        offsets = index.cell_row_offsets
        for qid, cs, ce in zip(inner_qid, cell_starts, cell_ends):
            for cell in range(cs, ce):
                rows = order[offsets[cell] : offsets[cell + 1]]
                distances = pairwise_lp_distance(pts[rows], centers[qid], p=p)
                assert np.all(distances <= radii[qid])

    def test_classified_partition_matches_plain_candidates(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(0, 1, size=(1_000, 2))
        index = GridIndex(pts, cells_per_dimension=16)
        centers = rng.uniform(0, 1, size=(10, 2))
        radii = rng.uniform(0.05, 0.35, size=10)
        q_all, s_all, e_all = index.candidate_ranges_batch(centers, radii)
        (
            bnd_qid,
            bnd_starts,
            bnd_ends,
            inner_qid,
            cell_starts,
            cell_ends,
        ) = index.classified_ranges_batch(centers, radii)
        order = index.clustered_order
        offsets = index.cell_row_offsets
        for i in range(10):
            plain: set[int] = set()
            for qid, start, end in zip(q_all, s_all, e_all):
                if qid == i:
                    plain.update(order[start:end].tolist())
            split: set[int] = set()
            for qid, start, end in zip(bnd_qid, bnd_starts, bnd_ends):
                if qid == i:
                    split.update(order[start:end].tolist())
            for qid, cs, ce in zip(inner_qid, cell_starts, cell_ends):
                if qid == i:
                    for cell in range(cs, ce):
                        split.update(
                            order[offsets[cell] : offsets[cell + 1]].tolist()
                        )
            assert split == plain

    def test_validation(self, points):
        index = GridIndex(points, cells_per_dimension=3)
        with pytest.raises(DimensionalityMismatchError):
            index.candidate_ranges_batch(np.zeros((2, 3)), np.array([0.1, 0.1]))
        with pytest.raises(ConfigurationError):
            index.candidate_ranges_batch(np.zeros((2, 2)), np.array([0.1]))
        with pytest.raises(ConfigurationError):
            index.candidate_ranges_batch(np.zeros((1, 2)), np.array([-0.5]))
        empty = index.candidate_ranges_batch(np.empty((0, 2)), np.empty(0))
        assert all(part.size == 0 for part in empty)


class _SearchsortedGrid(GridIndex):
    """The grid with every range end found by binary search, not the directory.

    The searches run over the rows' sorted cell ids, recomputed from the
    points, so nothing here reads the directory.
    """

    def _sorted_ids(self) -> np.ndarray:
        return np.sort(self._cell_coordinates(self._points) @ self._strides)

    def _row_positions(self, flat):
        return self._sorted_ids().searchsorted(flat, side="left")

    def _cell_positions(self, flat):
        return np.unique(self._sorted_ids()).searchsorted(flat, side="left")


def _directory_layout(layout: str, dimension: int, rng) -> np.ndarray:
    if layout == "uniform":
        return rng.uniform(0, 1, size=(1_500, dimension))
    if layout == "corner":
        # Packed into the corner of low x1 and high other coordinates, with
        # one row at the opposite corner to span the grid: the lowest and
        # the highest cell ids are empty.
        points = rng.uniform(0, 0.1, size=(1_500, dimension))
        points[:, 1:] += 0.9
        points[0] = 0.0
        points[0, 0] = 1.0
        return points
    if layout == "single_cell":
        return np.full((300, dimension), 0.37)
    if layout == "duplicate":
        return np.repeat(rng.uniform(0, 1, size=(200, dimension)), 6, axis=0)
    raise AssertionError(layout)


class TestCellDirectory:
    """The directory reads equal the binary searches they replace."""

    @pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
    @pytest.mark.parametrize(
        "layout,dimension",
        [
            *(("uniform", d) for d in (1, 2, 3, 6)),
            ("corner", 2),
            ("corner", 3),
            ("single_cell", 1),
            ("single_cell", 2),
            ("duplicate", 1),
            ("duplicate", 3),
        ],
    )
    def test_ranges_match_the_searchsorted_reference(self, layout, dimension, p):
        rng = np.random.default_rng(dimension * 13 + len(layout))
        points = _directory_layout(layout, dimension, rng)
        cells = batch_grid_cells_per_dimension(points.shape[0], dimension)
        index = GridIndex(points, cells_per_dimension=cells)
        reference = _SearchsortedGrid(points, cells_per_dimension=cells)
        if layout == "corner":
            flats = index.cell_flats
            assert flats[0] > 0 and flats[-1] < cells**dimension - 1
        low, high = points.min(axis=0) - 0.2, points.max(axis=0) + 0.2
        centers = np.vstack(
            [
                rng.uniform(low, high, size=(40, dimension)),
                points[rng.integers(0, points.shape[0], size=8)],
            ]
        )
        radii = rng.uniform(0.0, 0.5, size=centers.shape[0])
        radii[::6] = 0.0
        for method in ("candidate_ranges_batch", "classified_ranges_batch"):
            got = getattr(index, method)(centers, radii, p=p)
            want = getattr(reference, method)(centers, radii, p=p)
            assert len(got) == len(want)
            for part, (a, b) in enumerate(zip(got, want)):
                np.testing.assert_array_equal(a, b, err_msg=f"{method}[{part}]")


def _partition_batch(points: np.ndarray, count: int, rng) -> tuple:
    """Centers and radii of in-domain balls, out-of-domain balls, zero radii
    at data points and balls that cover the whole domain, interleaved."""
    dimension = points.shape[1]
    kinds = np.arange(count) % 4
    centers = rng.uniform(0.0, 1.0, size=(count, dimension))
    radii = rng.uniform(0.02, 0.4, size=count)
    far = kinds == 1
    centers[far] = rng.uniform(-3.0, 4.0, size=(int(far.sum()), dimension))
    zero = kinds == 2
    centers[zero] = points[rng.integers(0, points.shape[0], size=int(zero.sum()))]
    radii[zero] = 0.0
    radii[kinds == 3] = rng.uniform(2.0, 50.0, size=int((kinds == 3).sum()))
    return centers, radii


def _query_ranges(result: tuple, query: int) -> list[np.ndarray]:
    """One query's arrays of a range result, in result order."""
    parts = []
    for group in range(0, len(result), 3):
        mine = result[group] == query
        parts += [part[mine] for part in result[group + 1 : group + 3]]
    return parts


class TestBatchPartition:
    """A query's ranges do not depend on the batch that carries it.

    Every step of the range pass works on its own query's blocks, so no
    fused step may let one query's ranges depend on another's.
    """

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, np.inf])
    @pytest.mark.parametrize("dimension", [1, 2, 3, 6])
    def test_a_query_has_the_same_ranges_alone_as_in_a_batch(self, dimension, p):
        rng = np.random.default_rng(dimension * 31 + int(min(p, 9)))
        points = rng.uniform(0.0, 1.0, size=(1_500, dimension))
        index = GridIndex(
            points, cells_per_dimension=batch_grid_cells_per_dimension(1_500, dimension)
        )
        centers, radii = _partition_batch(points, 200, rng)
        for method in ("candidate_ranges_batch", "classified_ranges_batch"):
            ranges = getattr(index, method)
            alone = [
                _query_ranges(ranges(centers[i : i + 1], radii[i : i + 1], p=p), 0)
                for i in range(200)
            ]
            for size in (16, 200):
                for start in range(0, 200, size):
                    batch = ranges(
                        centers[start : start + size], radii[start : start + size], p=p
                    )
                    for query in range(min(size, 200 - start)):
                        got = _query_ranges(batch, query)
                        want = alone[start + query]
                        for part, (a, b) in enumerate(zip(got, want)):
                            np.testing.assert_array_equal(
                                a, b, err_msg=f"{method} query {start + query} [{part}]"
                            )
