"""Uniform-grid spatial index for dNN selections.

The exact executor must repeatedly select the rows inside a ball
``D(x, theta)``.  A full scan touches every row per query; the paper's setup
uses a B-tree index on the input attributes to prune this.  Here we provide
an in-memory uniform grid index: the input domain is split into equal-width
cells per dimension and the rows are laid out sorted by cell, so a batch of
ball queries becomes contiguous candidate row ranges over the cells that
intersect each ball.  For the moderate dimensionalities used by the paper
(d between 2 and 6) this is a simple and effective pruning structure.

The range pass (:meth:`GridIndex.classified_ranges_batch`) is one pass of
array operations over the whole query batch.  A batch of one pays each
operation's fixed NumPy call cost, about a microsecond, so the pass is
built from few operations: per-grid constants (the leading cells' edges)
are tabulated once, values that share a formula (a block's near and far
corner distances, its two chord half-widths, the four last-dimension cell
coordinates) are computed in one array, and the boundary runs are read
from the grid's cell directory in one take.  Cell coordinates are clipped
as floats before any integer cast, so a ball whose box runs past the
int64 range of cell coordinates keeps its cells.
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
    starts: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Flatten the runs ``[start, start + length)`` into their positions.

    The vectorised inverse of range compression: every run contributes its
    positions in order.  Returns the positions and the ``(runs + 1,)``
    bounds of the runs among them: run ``i`` fills
    ``[bounds[i], bounds[i + 1])``.  Used by the executor's segmented batch
    pipeline, which takes a position's query from the run that holds it,
    not from a per-position array.
    """
    bounds = np.zeros(lengths.size + 1, dtype=np.int64)
    lengths.cumsum(out=bounds[1:])
    positions = np.arange(bounds[-1], dtype=np.int64)
    positions += (starts - bounds[:-1]).repeat(lengths)
    return positions, bounds


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

#: A ball's radius bounds ``[-reach, reach, shrunk]``: the inflated radius
#: (negated, for the box's low corner) and the deflated one the fully-inside
#: test uses.
_RADIUS_FACTORS = np.array(
    [[-(1.0 + _CANDIDATE_MARGIN)], [1.0 + _CANDIDATE_MARGIN], [1.0 - _CANDIDATE_MARGIN]]
)

#: Rows ``[inner, half, half, inner]`` of a block's half-widths, and their
#: signs: the last-dimension coordinates ``c - inner``, ``c - half``,
#: ``c + half`` and ``c + inner``.
_CHORD_ROWS = np.array([1, 0, 0, 1])
_CHORD_SIGNS = np.array([[-1.0], [-1.0], [1.0], [1.0]])


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
        cells = self._cells_per_dimension = int(cells_per_dimension)
        self._top = float(cells - 1)
        # Row-major strides of the cell grid (last dimension contiguous).
        self._strides = cells ** np.arange(
            self._dimension - 1, -1, -1, dtype=np.int64
        )

        low = pts.min(axis=0)
        high = pts.max(axis=0)
        span = np.where(high > low, high - low, 1.0)
        self._low = low
        self._cell_width = span / cells
        self._cell_width.flags.writeable = False

        # Per-grid constants of the range pass.  The lead-edge table holds,
        # for each leading dimension k and cell coordinate c, the rows
        # ``[near low, near high, low, high]`` of the cell's extent: ``low =
        # low_k + c width_k`` and ``high = low + width_k``, and the same
        # with the grid's edge cells open to infinity (the cell coordinates
        # clip there).  Column ``k cells + c`` holds dimension k's cell c.
        lead = self._dimension - 1
        low_edges = self._low[:lead, np.newaxis] + np.arange(
            cells, dtype=np.int64
        ) * self._cell_width[:lead, np.newaxis]
        high_edges = low_edges + self._cell_width[:lead, np.newaxis]
        table = np.stack([low_edges, high_edges, low_edges, high_edges])
        table[0, :, 0] = -np.inf
        table[1, :, -1] = np.inf
        self._lead_edges = table.reshape(4, lead * cells)
        self._lead_columns = np.arange(lead, dtype=np.int64) * cells
        self._last_low = self._low[-1:]
        self._last_width = self._cell_width[-1:]

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

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _cell_floats(self, points: np.ndarray) -> np.ndarray:
        """Cell coordinates of points as floats, clipped to the grid.

        The clip comes before any integer cast: a point more than ``2**63``
        cells out would cast to a wrapped int64.  An in-range coordinate is
        an exact small integer, so it keeps its bits.
        """
        cells = np.subtract(points, self._low)
        np.divide(cells, self._cell_width, out=cells)
        np.floor(cells, out=cells)
        # minimum/maximum rather than np.clip: same result, a fraction of
        # the per-call cost on the small arrays of one query.
        np.maximum(cells, 0.0, out=cells)
        return np.minimum(cells, self._top, out=cells)

    def _cell_coordinates(self, points: np.ndarray) -> np.ndarray:
        """Map points to integer cell coordinates, clipping to the grid."""
        return self._cell_floats(points).astype(np.int64)

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

    def _row_positions(self, flat: np.ndarray) -> np.ndarray:
        """First clustered row of a cell with flat id ``>= flat``, per entry.

        A directory read: ``searchsorted(flat, "left")`` over the clustered
        rows' sorted cell ids.  The rows of cells ``first..last`` are
        ``[positions(first), positions(last + 1))``.
        """
        return self._row_directory.take(flat)

    def _cell_positions(self, flat: np.ndarray) -> np.ndarray:
        """First occupied cell (index into :attr:`cell_flats`) with id ``>= flat``."""
        return self._cell_directory.take(flat)

    def _box(
        self, centers: np.ndarray, radii: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Each ball's radius bounds and its bounding box's corner cells.

        Returns the ``(3, m)`` bounds ``[-reach, reach, shrunk]`` (see
        ``_RADIUS_FACTORS``) and the ``(2, m, d)`` float cell coordinates of
        the boxes' low and high corners, ``center -+ reach``.
        """
        bounds = _RADIUS_FACTORS * radii
        corners = np.add(centers, bounds[:2, :, np.newaxis])
        return bounds, self._cell_floats(corners)

    def blocks_per_query(self, centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
        """Blocks of each ball's bounding box, before any pruning.

        A block is one combination of leading-dimension cells: one
        candidate run along the last dimension.
        """
        with np.errstate(over="ignore"):
            _, box = self._box(centers, radii)
        corners = box[:, :, :-1].astype(np.int64)
        return (corners[1] - corners[0] + 1).prod(axis=1)

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
            *self._checked(centers, radii), p, classify=False
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
        return self._ranges_batch(*self._checked(centers, radii), p, classify=True)

    def _checked(
        self, centers: np.ndarray, radii: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """A caller's ``(m, d)`` centers and ``(m,)`` finite, non-negative radii."""
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
        return centers, radii

    # One errstate covers the pass: an overflow to inf, or an inf - inf, is
    # a far, huge or undecidable bound, which the float clips and the
    # NaN-aware comparisons below resolve towards more candidates and fewer
    # inner cells.
    @np.errstate(over="ignore", invalid="ignore")
    def _ranges_batch(
        self, centers: np.ndarray, radii: np.ndarray, p: float, *, classify: bool
    ) -> tuple[np.ndarray, ...]:
        """The range pass over checked ``(m, d)`` centers and ``(m,)`` radii.

        :meth:`candidate_ranges_batch` and :meth:`classified_ranges_batch`
        check a caller's arrays first; the exact engine, whose queries are
        checked once per batch, calls this directly.
        """
        self._ensure_clustered()
        empty = np.empty(0, dtype=np.int64)
        m, d = centers.shape
        if m == 0:
            return empty, empty, empty, empty, empty, empty
        bounds, box = self._box(centers, radii)
        lead = d - 1
        if lead:
            # Every combination of leading-dimension cells of each box (a
            # ragged cross product across queries): its query id ``qid`` and
            # its coordinates, digit by digit from its rank in its query.
            corners = box[:, :, :lead].astype(np.int64)
            lead_counts = corners[1] - corners[0] + 1
            per_query = np.multiply.reduce(lead_counts, axis=1)
            qid = np.arange(m, dtype=np.int64).repeat(per_query)
            rank = np.arange(qid.size, dtype=np.int64)
            np.subtract(rank, (per_query.cumsum() - per_query).take(qid), out=rank)
            coords = corners[0].take(qid, axis=0)
            for k in range(lead - 1, 0, -1):
                count = lead_counts[:, k].take(qid)
                coords[:, k] += rank % count
                rank //= count
            np.add(coords[:, 0], rank, out=coords[:, 0])

            # Lp distances from each center to its block's leading cell
            # box: the *closest* point of the box (edge cells open to
            # infinity, matching coordinate clipping) bounds the candidate
            # test, the *farthest* corner the fully-inside test.  One pair
            # of differences gives both: ``-(a - b)`` is ``b - a`` exactly.
            edges = self._lead_edges.take(coords + self._lead_columns, axis=1)
            block_centers = centers[:, :lead].take(qid, axis=0)
            np.subtract(edges[::3], block_centers, out=edges[::3])
            np.subtract(block_centers, edges[1:3], out=edges[1:3])
            terms = np.maximum(edges[0::2], edges[1::2])  # [near, far]
            np.maximum(terms, 0.0, out=terms)
            if math.isinf(p):
                reduced = np.maximum.reduce(terms, axis=2)
                limits = bounds[1:].take(qid, axis=1)
                inside = reduced <= limits
                # A block whose far corner is outside gets inner half-width
                # 0, which leaves no inner cell.
                roots = np.where(inside, limits, 0.0)
            else:
                reduced = np.add.reduce(np.power(terms, p, out=terms), axis=2)
                limits = np.power(bounds[1:], p).take(qid, axis=1)
                inside = reduced <= limits
                # Both chords' half-widths in one root; a far corner outside
                # the ball gives 0 (no inner cell), or NaN when undecidable.
                roots = np.subtract(limits, reduced, out=reduced)
                np.maximum(roots, 0.0, out=roots)
                np.power(roots, 1.0 / p, out=roots)
            keep = inside[0]
            qid = qid.compress(keep)
            base = coords.compress(keep, axis=0) @ self._strides[:lead]
            roots = roots.compress(keep, axis=1)
            last_box = box[:, :, lead].take(qid, axis=1)
            last_center = centers[:, lead].take(qid)
        else:
            qid = np.arange(m, dtype=np.int64)
            base = np.zeros(m, dtype=np.int64)
            roots = bounds[1:]
            last_box = box[:, :, 0]
            last_center = centers[:, 0]

        # Last-dimension cell coordinates of ``c - inner``, ``c - half``,
        # ``c + half`` and ``c + inner`` in one pass: the chord the
        # candidate test admits and the sub-interval certified inside.
        chord = np.multiply(roots.take(_CHORD_ROWS, axis=0), _CHORD_SIGNS)
        np.add(chord, last_center, out=chord)
        np.subtract(chord, self._last_low, out=chord)
        np.divide(chord, self._last_width, out=chord)
        np.ceil(chord[0], out=chord[0])
        np.floor(chord[1:], out=chord[1:])
        # The last-dimension cells ``[lo, inner_hi + 1, inner_lo, hi + 1]``
        # that bound each block's runs, as floats: the chord narrowed to the
        # bounding box (fmax/fmin, so a NaN chord keeps the box), then the
        # inner interval within it (maximum/minimum, so a NaN one is empty).
        # Adding the block's ``base`` makes them flat cell ids.
        flats = np.empty((4, qid.size))
        np.fmax(chord[1], last_box[0], out=flats[0])
        np.fmin(flats[0], self._top, out=flats[0])
        np.fmin(chord[2], last_box[1], out=flats[3])
        np.fmax(flats[3], 0.0, out=flats[3])
        np.add(flats[3], 1.0, out=flats[3])
        if not classify:
            ids = flats[::3].astype(np.int64)
            np.add(ids, base, out=ids)
            starts, ends = self._row_positions(ids)
            nonempty = ends > starts
            return (
                qid.compress(nonempty),
                starts.compress(nonempty),
                ends.compress(nonempty),
                empty,
                empty,
                empty,
            )
        np.maximum(chord[0], flats[0], out=flats[2])
        np.minimum(chord[3], flats[3], out=flats[1])
        # A block with no inner cell is one boundary run, ``[lo, hi]``.
        flats[1:3] = np.where(flats[2] < flats[1], flats[1:3], flats[3])
        ids = flats.astype(np.int64)
        np.add(ids, base, out=ids)

        # Boundary runs, the candidate interval minus the inner one, grouped
        # by query: a query's left runs, then its right runs.  A run whose
        # rows are empty (the inner interval reaching an end, or an empty
        # chord) is dropped.
        runs = self._row_positions(ids).reshape(2, -1)
        pair_qid = np.concatenate([qid, qid])
        order = pair_qid.argsort(kind="stable")
        runs = runs.take(order, axis=1)
        nonempty = runs[1] > runs[0]
        boundary = runs.compress(nonempty, axis=1)

        cells = self._cell_positions(ids[2:0:-1])
        occupied = cells[1] > cells[0]
        inner = cells.compress(occupied, axis=1)
        return (
            pair_qid.take(order).compress(nonempty),
            boundary[0],
            boundary[1],
            qid.compress(occupied),
            inner[0],
            inner[1],
        )
