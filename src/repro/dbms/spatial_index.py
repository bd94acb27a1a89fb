"""Uniform-grid spatial index for dNN selections.

The exact executor must repeatedly select the rows inside a ball
``D(x, theta)``.  A full scan touches every row per query; the paper's setup
uses a B-tree index on the input attributes to prune this.  Here we provide
an in-memory uniform grid index: the input domain is split into equal-width
cells per dimension and the rows are laid out sorted by cell, so a batch of
ball queries becomes contiguous candidate row ranges over the cells that
intersect each ball.  For the moderate dimensionalities used by the paper
(d between 2 and 6) this is a simple and effective pruning structure.
"""

from __future__ import annotations

import math

import numpy as np

from ..analysis.instrument import make_lock
from ..exceptions import (
    ConfigurationError,
    DimensionalityMismatchError,
    InternalInvariantError,
)

__all__ = [
    "GridIndex",
    "batch_grid_cells_per_dimension",
    "expand_ranges",
]


#: Rows per cell the fine batch grid aims for, and its cap on cells per
#: dimension.
_BATCH_GRID_ROWS_PER_CELL = 8.0
_BATCH_GRID_MAX_CELLS = 256


def batch_grid_cells_per_dimension(count: int, dimension: int) -> int:
    """Fine batch-grid resolution for a clustered row set of ``count`` rows.

    The segmented batch pipeline pays no per-cell Python cost, so it targets
    a few rows per cell (``count / _BATCH_GRID_ROWS_PER_CELL`` cells in
    total, at most ``_BATCH_GRID_MAX_CELLS`` per dimension), trimming the
    candidate superset towards the exact selection.  The exact engine's
    pipeline sizes its grid with it.
    """
    if dimension < 1:
        raise ConfigurationError(f"dimension must be >= 1, got {dimension}")
    target_cells = max(count / _BATCH_GRID_ROWS_PER_CELL, 1.0)
    cells = max(int(round(target_cells ** (1.0 / dimension))), 1)
    return min(cells, _BATCH_GRID_MAX_CELLS)


def expand_ranges(
    query_ids: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Flatten ``[start, end)`` runs into per-element ``(position, qid)``.

    The vectorised inverse of range compression: every run contributes its
    positions in order, tagged with the run's query id.  Used by the
    executor's segmented batch pipeline.
    """
    lengths = ends - starts
    offsets = lengths.cumsum() - lengths
    total = int(offsets[-1] + lengths[-1]) if lengths.size else 0
    positions = np.arange(total, dtype=np.int64)
    positions += (starts - offsets).repeat(lengths)
    return positions, query_ids.repeat(lengths)


def _cell_directories(
    flat: np.ndarray, cell_count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Row and cell directories of a grid over every flat id ``f <= cell_count``.

    ``flat`` holds each row's flat cell id.  Once the rows are sorted by it,
    ``rows[f]`` is the first row of a cell with id ``>= f`` and ``cells[f]``
    the first occupied cell with id ``>= f``, for ``f`` in
    ``[0, cell_count]``: ``searchsorted(f, "left")`` over the sorted row
    ids and over the occupied cell ids, respectively.
    """
    rows_per_cell = np.bincount(flat, minlength=cell_count)
    rows = np.zeros(cell_count + 1, dtype=np.int64)
    np.cumsum(rows_per_cell, out=rows[1:])
    cells = np.zeros(cell_count + 1, dtype=np.int64)
    np.cumsum(rows_per_cell > 0, out=cells[1:])
    return rows, cells


#: Relative inflation applied to the query radius when computing candidate
#: cell bounds.  The cell-pruning tests below compare floating-point
#: round-offs of the same quantities computed along different routes; the
#: inflation (seven orders of magnitude above double rounding error) makes
#: the pruned cell set a guaranteed superset of the cells holding selected
#: rows.  Inflation only ever admits extra *candidates* — the exact Lp
#: membership test downstream is always evaluated with the caller's radius.
_CANDIDATE_MARGIN = 1e-9


class GridIndex:
    """Uniform grid over the input space mapping cells to row indices.

    The cell-clustered layout behind the batch candidate ranges is built
    once, on first use, under a lock.  With it comes a dense *directory*
    over every flat cell id ``f`` of the grid, occupied or not: the first
    clustered row, and the first occupied cell, whose id is at least ``f``.
    A candidate range's ends are then two directory reads, not two binary
    searches over the clustered rows.  The directory holds
    ``2 (cells_per_dimension**d + 1)`` int64 entries, 16 bytes per grid
    cell, so it is sized by the grid, not by the rows: at the executor's
    resolution (:func:`batch_grid_cells_per_dimension`, about one cell per
    8 rows) it takes about 2 bytes per row, 390 KiB for 200k rows at
    ``d = 2``.  A grid much finer than its rows pays for every empty cell.

    Parameters
    ----------
    points:
        The ``(n, d)`` array of input vectors to index.  The grid spans
        their bounding box.
    cells_per_dimension:
        Number of grid cells per dimension (the executor sizes it with
        :func:`batch_grid_cells_per_dimension`).
    """

    def __init__(self, points: np.ndarray, cells_per_dimension: int) -> None:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[0] == 0:
            raise ConfigurationError("cannot build a grid index over zero points")
        self._points = pts
        self._count, self._dimension = pts.shape

        if cells_per_dimension < 1:
            raise ConfigurationError(
                f"cells_per_dimension must be >= 1, got {cells_per_dimension}"
            )
        self._cells_per_dimension = int(cells_per_dimension)
        # Row-major strides of the cell grid (last dimension contiguous).
        self._strides = self._cells_per_dimension ** np.arange(
            self._dimension - 1, -1, -1, dtype=np.int64
        )

        low = pts.min(axis=0)
        high = pts.max(axis=0)
        span = np.where(high > low, high - low, 1.0)
        self._low = low
        self._cell_width = span / self._cells_per_dimension
        self._cell_width.flags.writeable = False

        # Clustered (cell-sorted) layout for the batched candidate path;
        # built lazily on first use under _layout_lock.  _clustered_order is
        # published last, so a reader that sees it sees the whole layout.
        self._layout_lock = make_lock("grid.layout")
        self._clustered_order: np.ndarray | None = None
        self._row_directory: np.ndarray = np.empty(0, dtype=np.int64)
        self._cell_directory: np.ndarray = np.empty(0, dtype=np.int64)
        self._cell_flats: np.ndarray = np.empty(0, dtype=np.int64)
        self._cell_row_offsets: np.ndarray = np.empty(0, dtype=np.int64)
        self._cell_centers_array: np.ndarray = np.empty((0, self._dimension))

    # ------------------------------------------------------------------ #
    # properties
    # ------------------------------------------------------------------ #
    @property
    def dimension(self) -> int:
        return self._dimension

    @property
    def size(self) -> int:
        """Number of indexed points."""
        return self._count

    @property
    def cells_per_dimension(self) -> int:
        return self._cells_per_dimension

    @property
    def cell_width(self) -> np.ndarray:
        """Per-dimension cell widths, ``(d,)`` (read-only)."""
        return self._cell_width

    @property
    def occupied_cell_count(self) -> int:
        """Number of non-empty grid cells."""
        self._ensure_clustered()
        return self._cell_flats.size

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _cell_coordinates(self, points: np.ndarray) -> np.ndarray:
        """Map points to integer cell coordinates, clipping to the grid."""
        raw = np.floor((points - self._low) / self._cell_width).astype(np.int64)
        # minimum/maximum rather than np.clip: same result, a fraction of
        # the per-call cost on the small arrays of one query.
        return np.minimum(np.maximum(raw, 0), self._cells_per_dimension - 1)

    # ------------------------------------------------------------------ #
    # clustered layout (batched candidate generation)
    # ------------------------------------------------------------------ #
    def _ensure_clustered(self) -> None:
        if self._clustered_order is not None:
            return
        with self._layout_lock:
            if self._clustered_order is not None:
                return
            flat = self._cell_coordinates(self._points) @ self._strides
            order = np.argsort(flat, kind="stable")
            self._row_directory, self._cell_directory = _cell_directories(
                flat, self._cells_per_dimension**self._dimension
            )
            # Occupied cells: flat ids, row segment per cell, centers.
            flats = np.flatnonzero(np.diff(self._cell_directory))
            self._cell_flats = flats
            self._cell_row_offsets = np.append(
                self._row_directory.take(flats), self._count
            )
            cell_coords = (flats[:, np.newaxis] // self._strides[np.newaxis, :]) % (
                self._cells_per_dimension
            )
            self._cell_centers_array = (
                self._low + (cell_coords + 0.5) * self._cell_width
            )
            self._clustered_order = order

    @property
    def cell_flats(self) -> np.ndarray:
        """Sorted flat ids of the occupied cells."""
        self._ensure_clustered()
        return self._cell_flats

    @property
    def cell_row_offsets(self) -> np.ndarray:
        """Clustered row segment boundaries per occupied cell (length C+1)."""
        self._ensure_clustered()
        return self._cell_row_offsets

    @property
    def cell_centers(self) -> np.ndarray:
        """Geometric centers of the occupied cells, one row per cell."""
        self._ensure_clustered()
        return self._cell_centers_array

    @property
    def clustered_order(self) -> np.ndarray:
        """Permutation sorting the indexed rows by (row-major) cell id.

        Positions returned by :meth:`candidate_ranges_batch` refer to this
        clustered ordering; ``clustered_order[position]`` recovers the
        original row index.
        """
        self._ensure_clustered()
        if self._clustered_order is None:
            raise InternalInvariantError(
                "clustered order missing after _ensure_clustered"
            )
        return self._clustered_order

    def _row_ranges(
        self, first: np.ndarray, last: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Clustered row ranges ``[start, end)`` of the cells ``first..last``.

        Two directory reads: ``searchsorted(first, "left")`` over the
        clustered rows' sorted cell ids is ``directory[first]``, and
        ``searchsorted(last, "right")`` is ``directory[last + 1]``.
        """
        return self._row_directory.take(first), self._row_directory.take(last + 1)

    def _cell_ranges(
        self, first: np.ndarray, last: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Ranges ``[start, end)`` of :attr:`cell_flats` over cells ``first..last``."""
        return self._cell_directory.take(first), self._cell_directory.take(last + 1)

    def _box_cells(
        self, centers: np.ndarray, radii: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each ball's bounding-box corner cells and its inflated radius."""
        reach = radii * (1.0 + _CANDIDATE_MARGIN)
        column = reach[:, np.newaxis]
        corners = self._cell_coordinates(
            np.concatenate([centers - column, centers + column])
        )
        m = centers.shape[0]
        return corners[:m], corners[m:], reach

    def blocks_per_query(self, centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
        """Blocks of each ball's bounding box, before any pruning.

        A block is one combination of leading-dimension cells: one
        candidate run along the last dimension.
        """
        low, high, _ = self._box_cells(centers, radii)
        return (high[:, :-1] - low[:, :-1] + 1).prod(axis=1)

    def candidate_ranges_batch(
        self, centers: np.ndarray, radii: np.ndarray, p: float = 2.0
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorised candidate generation for a whole query batch.

        For every query the grid cells intersecting its Lp ball are
        enumerated as *contiguous runs* in the clustered row layout: the
        last grid dimension is row-major contiguous, so each combination of
        leading-dimension cells contributes one ``[start, end)`` range of
        clustered row positions.  The leading-dimension combinations are
        pruned with the standard point-to-cell-box Lp bound, and the
        last-dimension extent is narrowed to the chord admitted by the
        remaining radius — together this yields a near-disc-shaped candidate
        set instead of the full bounding box, with no per-query Python work
        beyond this single vectorised pass.

        Parameters
        ----------
        centers:
            ``(m, d)`` query centers.
        radii:
            ``(m,)`` query radii.
        p:
            Norm order shared by the batch (``numpy.inf`` for Chebyshev).

        Returns
        -------
        tuple
            ``(query_ids, starts, ends)`` — parallel arrays of non-empty
            ranges, grouped in ascending query order.  Positions index the
            clustered layout (see :attr:`clustered_order`).  The union of
            ranges of one query is a superset of the rows its ball selects.
        """
        qid, starts, ends, _, _, _ = self._ranges_batch(
            centers, radii, p, classify=False
        )
        return qid, starts, ends

    def classified_ranges_batch(
        self, centers: np.ndarray, radii: np.ndarray, p: float = 2.0
    ) -> tuple[np.ndarray, ...]:
        """Like :meth:`candidate_ranges_batch`, splitting inner cells out.

        Cells whose farthest corner is certifiably inside the (slightly
        deflated) query ball need no per-row distance test — every row they
        hold is selected.  Those cells are returned as ranges over the
        *occupied-cell directory* (see :attr:`cell_flats`), while the
        remaining boundary cells are returned as clustered row ranges that
        the caller must test exactly.

        Returns
        -------
        tuple
            ``(boundary_qid, boundary_starts, boundary_ends,
            inner_qid, inner_cell_starts, inner_cell_ends)`` — row ranges as
            in :meth:`candidate_ranges_batch`, cell ranges indexing
            :attr:`cell_flats` / :attr:`cell_row_offsets` /
            :attr:`cell_centers`.  Both groups are sorted by query id.
        """
        return self._ranges_batch(centers, radii, p, classify=True)

    def _ranges_batch(
        self, centers: np.ndarray, radii: np.ndarray, p: float, *, classify: bool
    ) -> tuple[np.ndarray, ...]:
        # Every step is one array operation over the whole batch; a batch of
        # one pays each step's fixed NumPy call cost once, so steps are
        # fused where that keeps the arithmetic (and the ranges) unchanged.
        centers = np.atleast_2d(np.asarray(centers, dtype=float))
        radii = np.asarray(radii, dtype=float).ravel()
        if centers.shape[1] != self._dimension:
            raise DimensionalityMismatchError(
                f"query centers have dimension {centers.shape[1]}, index has "
                f"{self._dimension}"
            )
        if centers.shape[0] != radii.shape[0]:
            raise ConfigurationError(
                "centers and radii must have the same number of rows"
            )
        if not ((radii >= 0.0) & (radii < math.inf)).all():
            raise ConfigurationError("radii must all be finite and >= 0")
        self._ensure_clustered()
        empty = np.empty(0, dtype=np.int64)
        m, d = centers.shape
        if m == 0:
            return empty, empty, empty, empty, empty, empty

        lo, hi, reach = self._box_cells(centers, radii)

        # Enumerate every combination of leading-dimension cells (ragged
        # cross product across queries) with the repeat/mixed-radix idiom.
        lead_counts = hi[:, : d - 1] - lo[:, : d - 1] + 1  # (m, d - 1)
        blocks_per_query = lead_counts.prod(axis=1)  # all ones when d == 1
        qid = np.arange(m, dtype=np.int64).repeat(blocks_per_query)
        rank = np.arange(qid.size, dtype=np.int64)
        rank -= (blocks_per_query.cumsum() - blocks_per_query)[qid]
        lead_coords = np.empty((qid.size, d - 1), dtype=np.int64)
        block_lo = lo.take(qid, axis=0)
        block_counts = lead_counts.take(qid, axis=0)
        for k in range(d - 2, -1, -1):
            lead_coords[:, k] = block_lo[:, k] + rank % block_counts[:, k]
            rank //= block_counts[:, k]

        # Lp distances from each query center to its block's leading cell
        # box: the *closest* point of the box bounds the candidate test
        # (edge cells extend to infinity, matching coordinate clipping) and
        # the *farthest* corner bounds the fully-inside test.  ``half`` and
        # ``half_inner`` are the chords those leave along the last dimension.
        block_reach = reach.take(qid)
        block_shrunk = radii.take(qid) * (1.0 - _CANDIDATE_MARGIN)
        if d > 1:
            low_edges = self._low[: d - 1] + lead_coords * self._cell_width[: d - 1]
            high_edges = low_edges + self._cell_width[: d - 1]
            block_centers = centers[:, : d - 1].take(qid, axis=0)
            far = np.maximum(block_centers - low_edges, high_edges - block_centers)
            low_edges[lead_coords == 0] = -np.inf
            high_edges[lead_coords == self._cells_per_dimension - 1] = np.inf
            clamp = np.maximum(
                np.maximum(low_edges - block_centers, block_centers - high_edges), 0.0
            )
            if math.isinf(p):
                keep = clamp.max(axis=1) <= block_reach
                half = block_reach
                half_inner = np.where(
                    far.max(axis=1) <= block_shrunk, block_shrunk, -1.0
                )
            else:
                gp = np.power(clamp, p).sum(axis=1)
                rp = np.power(block_reach, p)
                keep = gp <= rp
                with np.errstate(invalid="ignore"):
                    half = np.power(np.maximum(rp - gp, 0.0), 1.0 / p)
                    # A far-corner term past float64's range is inf: the
                    # block is not inside the ball, which is the answer.
                    with np.errstate(over="ignore"):
                        gp_far = np.power(far, p).sum(axis=1)
                    rp_in = np.power(block_shrunk, p)
                    half_inner = np.where(
                        gp_far <= rp_in,
                        np.power(np.maximum(rp_in - gp_far, 0.0), 1.0 / p),
                        -1.0,
                    )
            qid = qid.compress(keep)
            half = half.compress(keep)
            half_inner = half_inner.compress(keep)
            lead_coords = lead_coords.compress(keep, axis=0)
        else:
            half = block_reach
            half_inner = block_shrunk

        # Last-dimension chord ends in one coordinate pass, narrowed to the
        # bounding box (the chord can only narrow it, never widen it).
        blocks = qid.size
        last_center = centers[:, d - 1].take(qid)
        width = self._cell_width[d - 1]
        low = self._low[d - 1]
        top = self._cells_per_dimension - 1
        chord = np.floor(
            (np.concatenate([last_center - half, last_center + half]) - low) / width
        ).astype(np.int64)
        last_lo = np.minimum(np.maximum(chord[:blocks], lo[:, d - 1].take(qid)), top)
        last_hi = np.maximum(np.minimum(chord[blocks:], hi[:, d - 1].take(qid)), 0)
        base = lead_coords @ self._strides[: d - 1]

        if not classify:
            starts, ends = self._row_ranges(base + last_lo, base + last_hi)
            nonempty = ends > starts
            return qid[nonempty], starts[nonempty], ends[nonempty], empty, empty, empty

        # Fully-inside sub-interval of the last dimension: cells whose own
        # extent lies within ``half_inner`` of the center on both sides.
        with np.errstate(invalid="ignore"):
            inner_lo = np.ceil((last_center - half_inner - low) / width).astype(
                np.int64
            )
            inner_hi = (
                np.floor((last_center + half_inner - low) / width).astype(np.int64) - 1
            )
        inner_lo = np.maximum(inner_lo, last_lo)
        inner_hi = np.minimum(inner_hi, last_hi)
        has_inner = (half_inner >= 0.0) & (inner_lo <= inner_hi)
        inner_lo = np.where(has_inner, inner_lo, last_hi + 1)
        inner_hi = np.where(has_inner, inner_hi, last_hi)

        # Boundary = candidate interval minus the inner interval (two runs).
        bnd_qid = np.concatenate([qid, qid])
        bnd_first = np.concatenate([base + last_lo, base + inner_hi + 1])
        bnd_last = np.concatenate([base + inner_lo - 1, base + last_hi])
        order = bnd_qid.argsort(kind="stable")
        ok = bnd_last[order] >= bnd_first[order]
        order = order[ok]
        bnd_qid = bnd_qid[order]
        bnd_starts, bnd_ends = self._row_ranges(bnd_first[order], bnd_last[order])
        bnd_keep = bnd_ends > bnd_starts

        cell_starts, cell_ends = self._cell_ranges(
            (base + inner_lo)[has_inner], (base + inner_hi)[has_inner]
        )
        cell_keep = cell_ends > cell_starts
        return (
            bnd_qid[bnd_keep],
            bnd_starts[bnd_keep],
            bnd_ends[bnd_keep],
            qid[has_inner][cell_keep],
            cell_starts[cell_keep],
            cell_ends[cell_keep],
        )
