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

import itertools
import math
from typing import Iterable

import numpy as np

from ..analysis.instrument import make_lock
from ..exceptions import (
    ConfigurationError,
    DimensionalityMismatchError,
    InternalInvariantError,
)

__all__ = [
    "GridIndex",
    "PrototypeIndex",
    "batch_grid_cells_per_dimension",
    "estimate_boundary_fraction",
    "estimate_candidate_fraction",
    "expand_ranges",
]


def batch_grid_cells_per_dimension(
    count: int, dimension: int, *, rows_per_cell: float = 8.0, max_cells: int = 256
) -> int:
    """Fine batch-grid resolution for a clustered row set of ``count`` rows.

    The segmented batch pipeline pays no per-cell Python cost, so it targets
    a few rows per cell (``count / rows_per_cell`` cells in total) — much
    finer than :class:`GridIndex`'s default — trimming the candidate
    superset towards the exact selection.  Every shard pipeline of the
    exact engine and its ``route="auto"`` planner size cells with it, so
    both agree for the same row count.
    """
    if dimension < 1:
        raise ConfigurationError(f"dimension must be >= 1, got {dimension}")
    target_cells = max(count / rows_per_cell, 1.0)
    cells = max(int(round(target_cells ** (1.0 / dimension))), 1)
    return min(cells, max_cells)


def estimate_candidate_fraction(
    extent: np.ndarray, radii: np.ndarray, cells_per_dimension: int
) -> np.ndarray:
    """Estimated fraction of a row set a grid probe must touch, per query.

    The candidate set of a ball query is the cells intersecting its bounding
    box, so along each dimension a query of radius ``r`` touches an expected
    width of ``2 r`` plus one cell width of quantisation, clipped to the
    data extent.  Multiplying the per-dimension fractions assumes the rows
    are roughly uniform over their bounding box — good enough to route
    between a full scan (fraction near 1) and the indexed segmented
    pipeline (fraction near 0); the routed answers are exact either way.

    Returns the ``(m,)`` per-query fractions in ``(0, 1]``.
    """
    extent = np.asarray(extent, dtype=float).ravel()
    radii = np.asarray(radii, dtype=float).ravel()
    safe = np.where(extent > 0.0, extent, 1.0)
    width = safe / max(int(cells_per_dimension), 1)
    per_dimension = np.minimum(
        (2.0 * radii[:, np.newaxis] + width[np.newaxis, :]) / safe[np.newaxis, :],
        1.0,
    )
    return np.prod(per_dimension, axis=1)


def estimate_boundary_fraction(
    extent: np.ndarray, radii: np.ndarray, cells_per_dimension: int
) -> np.ndarray:
    """Estimated fraction of rows needing *row-level* tests, per query.

    The segmented batch pipeline only pays per-row work for cells straddling
    the ball surface: cells certified fully inside contribute O(1)
    precomputed aggregates regardless of how many rows they hold.  Its cost
    therefore tracks the candidate volume *minus* the certified-inner
    volume — the shell of boundary cells.  The inner volume shrinks the
    ball's extent by roughly one cell diagonal per side (the certification
    tests the cell's farthest corner), modelled here as ``(1 + sqrt(d))``
    cell widths; as with :func:`estimate_candidate_fraction` the rows are
    assumed roughly uniform over their bounding box.  This is the quantity
    the adaptive router compares against a full scan: for a wide ball over
    a fine grid the shell is thin and the pipeline beats the scan even
    though nearly every row is a *candidate*.

    Returns the ``(m,)`` per-query fractions in ``[0, 1]``.
    """
    extent = np.asarray(extent, dtype=float).ravel()
    radii = np.asarray(radii, dtype=float).ravel()
    safe = np.where(extent > 0.0, extent, 1.0)
    width = safe / max(int(cells_per_dimension), 1)
    candidate = estimate_candidate_fraction(extent, radii, cells_per_dimension)
    shrink = (1.0 + math.sqrt(extent.size)) * width
    inner = np.clip(
        (2.0 * radii[:, np.newaxis] - shrink[np.newaxis, :])
        / safe[np.newaxis, :],
        0.0,
        1.0,
    )
    return candidate - np.prod(inner, axis=1)


def expand_ranges(
    query_ids: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Flatten ``[start, end)`` runs into per-element ``(position, qid)``.

    The vectorised inverse of range compression: every run contributes its
    positions in order, tagged with the run's query id.  Used by the
    executor's segmented batch pipeline and by
    :meth:`PrototypeIndex.candidates_union`.
    """
    lengths = ends - starts
    offsets = lengths.cumsum() - lengths
    total = int(offsets[-1] + lengths[-1]) if lengths.size else 0
    positions = np.arange(total, dtype=np.int64)
    positions += (starts - offsets).repeat(lengths)
    return positions, query_ids.repeat(lengths)

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
    once, on first use, under a lock; :meth:`candidate_rows` walks a lazily
    built per-cell dictionary instead (the prototype index's one-query
    probe, see :meth:`PrototypeIndex.candidates`).

    Parameters
    ----------
    points:
        The ``(n, d)`` array of input vectors to index.
    cells_per_dimension:
        Number of grid cells per dimension.  ``None`` chooses a value aimed
        at a few hundred points per cell on average.
    bounds:
        Optional ``(low, high)`` arrays describing the domain.  Defaults to
        the min/max of the indexed points.
    """

    def __init__(
        self,
        points: np.ndarray,
        cells_per_dimension: int | None = None,
        bounds: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> None:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[0] == 0:
            raise ConfigurationError("cannot build a grid index over zero points")
        self._points = pts
        self._count, self._dimension = pts.shape

        if cells_per_dimension is None:
            # Target roughly 256 points per cell: cells^d ≈ n / 256.
            target_cells = max(self._count / 256.0, 1.0)
            cells_per_dimension = max(int(round(target_cells ** (1.0 / self._dimension))), 1)
            cells_per_dimension = min(cells_per_dimension, 64)
        if cells_per_dimension < 1:
            raise ConfigurationError(
                f"cells_per_dimension must be >= 1, got {cells_per_dimension}"
            )
        self._cells_per_dimension = int(cells_per_dimension)
        # Row-major strides of the cell grid (last dimension contiguous).
        self._strides = self._cells_per_dimension ** np.arange(
            self._dimension - 1, -1, -1, dtype=np.int64
        )

        if bounds is None:
            low = pts.min(axis=0)
            high = pts.max(axis=0)
        else:
            low = np.asarray(bounds[0], dtype=float)
            high = np.asarray(bounds[1], dtype=float)
            if low.shape[0] != self._dimension or high.shape[0] != self._dimension:
                raise DimensionalityMismatchError(
                    "bounds must have one (low, high) pair per dimension"
                )
        span = np.where(high > low, high - low, 1.0)
        self._low = low
        self._cell_width = span / self._cells_per_dimension

        # Per-cell row-id dictionary for candidate_rows; built lazily since
        # the batched candidate path never reads it (it costs an O(n)
        # interpreted loop).
        self._cells: dict[tuple[int, ...], list[int]] | None = None

        # Clustered (cell-sorted) layout for the batched candidate path;
        # built lazily on first use under _layout_lock.  _clustered_order is
        # published last, so a reader that sees it sees the whole layout.
        self._layout_lock = make_lock("grid.layout")
        self._clustered_order: np.ndarray | None = None
        self._clustered_flat: np.ndarray | None = None
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
    def occupied_cell_count(self) -> int:
        """Number of non-empty grid cells."""
        self._ensure_clustered()
        return self._cell_flats.size

    def _ensure_cells(self) -> dict[tuple[int, ...], list[int]]:
        if self._cells is None:
            cells: dict[tuple[int, ...], list[int]] = {}
            cell_ids = self._cell_coordinates(self._points)
            for row, key in enumerate(map(tuple, cell_ids)):
                cells.setdefault(key, []).append(row)
            self._cells = cells
        return self._cells

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _cell_coordinates(self, points: np.ndarray) -> np.ndarray:
        """Map points to integer cell coordinates, clipping to the grid."""
        raw = np.floor((points - self._low) / self._cell_width).astype(np.int64)
        # minimum/maximum rather than np.clip: same result, a fraction of
        # the per-call cost on the small arrays of one query.
        return np.minimum(np.maximum(raw, 0), self._cells_per_dimension - 1)

    def _candidate_cells(
        self, center: np.ndarray, radius: float
    ) -> Iterable[tuple[int, ...]]:
        """Yield the cell keys intersecting the bounding box of the ball."""
        lower = self._cell_coordinates((center - radius).reshape(1, -1))[0]
        upper = self._cell_coordinates((center + radius).reshape(1, -1))[0]
        ranges = [range(int(lo), int(hi) + 1) for lo, hi in zip(lower, upper)]
        return itertools.product(*ranges)

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
            self._clustered_flat = flat[order]
            # Occupied-cell directory: flat ids, row segment per cell, centers.
            flats, first = np.unique(self._clustered_flat, return_index=True)
            self._cell_flats = flats
            self._cell_row_offsets = np.append(first, self._count).astype(np.int64)
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
        clustered_flat = self._clustered_flat
        if clustered_flat is None:
            raise InternalInvariantError(
                "clustered cell ids missing after _ensure_clustered"
            )
        empty = np.empty(0, dtype=np.int64)
        m, d = centers.shape
        if m == 0:
            return empty, empty, empty, empty, empty, empty

        # Bounding-box cells of every ball: low corners in rows [0, m), high
        # corners in rows [m, 2m) of one coordinate pass.
        reach = radii * (1.0 + _CANDIDATE_MARGIN)
        column = reach[:, np.newaxis]
        corners = self._cell_coordinates(
            np.concatenate([centers - column, centers + column])
        )
        lo, hi = corners[:m], corners[m:]

        # Enumerate every combination of leading-dimension cells (ragged
        # cross product across queries) with the repeat/mixed-radix idiom.
        lead_counts = hi[:, : d - 1] - lo[:, : d - 1] + 1  # (m, d - 1)
        blocks_per_query = lead_counts.prod(axis=1)  # all ones when d == 1
        qid = np.arange(m, dtype=np.int64).repeat(blocks_per_query)
        rank = np.arange(qid.size, dtype=np.int64)
        rank -= (blocks_per_query.cumsum() - blocks_per_query)[qid]
        lead_coords = np.empty((qid.size, d - 1), dtype=np.int64)
        block_lo = lo[qid]
        block_counts = lead_counts[qid]
        for k in range(d - 2, -1, -1):
            lead_coords[:, k] = block_lo[:, k] + rank % block_counts[:, k]
            rank //= block_counts[:, k]

        # Lp distances from each query center to its block's leading cell
        # box: the *closest* point of the box bounds the candidate test
        # (edge cells extend to infinity, matching coordinate clipping) and
        # the *farthest* corner bounds the fully-inside test.  ``half`` and
        # ``half_inner`` are the chords those leave along the last dimension.
        block_reach = reach[qid]
        block_shrunk = radii[qid] * (1.0 - _CANDIDATE_MARGIN)
        if d > 1:
            low_edges = self._low[: d - 1] + lead_coords * self._cell_width[: d - 1]
            high_edges = low_edges + self._cell_width[: d - 1]
            block_centers = centers[qid, : d - 1]
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
                    gp_far = np.power(far, p).sum(axis=1)
                    rp_in = np.power(block_shrunk, p)
                    half_inner = np.where(
                        gp_far <= rp_in,
                        np.power(np.maximum(rp_in - gp_far, 0.0), 1.0 / p),
                        -1.0,
                    )
            qid = qid[keep]
            half = half[keep]
            half_inner = half_inner[keep]
            lead_coords = lead_coords[keep]
        else:
            half = block_reach
            half_inner = block_shrunk

        # Last-dimension chord ends in one coordinate pass, narrowed to the
        # bounding box (the chord can only narrow it, never widen it).
        blocks = qid.size
        last_center = centers[qid, d - 1]
        width = self._cell_width[d - 1]
        low = self._low[d - 1]
        top = self._cells_per_dimension - 1
        chord = np.floor(
            (np.concatenate([last_center - half, last_center + half]) - low) / width
        ).astype(np.int64)
        last_lo = np.minimum(np.maximum(chord[:blocks], lo[qid, d - 1]), top)
        last_hi = np.maximum(np.minimum(chord[blocks:], hi[qid, d - 1]), 0)
        base = lead_coords @ self._strides[: d - 1]

        if not classify:
            starts = clustered_flat.searchsorted(base + last_lo, side="left")
            ends = clustered_flat.searchsorted(base + last_hi, side="right")
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
        bnd_starts = clustered_flat.searchsorted(bnd_first[order], side="left")
        bnd_ends = clustered_flat.searchsorted(bnd_last[order], side="right")
        bnd_keep = bnd_ends > bnd_starts

        inner_base = (base + inner_lo)[has_inner]
        cell_starts = self._cell_flats.searchsorted(inner_base, side="left")
        cell_ends = self._cell_flats.searchsorted(
            (base + inner_hi)[has_inner], side="right"
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

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def candidate_rows(self, center: np.ndarray, radius: float) -> np.ndarray:
        """Return the row indices in cells overlapping the ball's bounding box."""
        center = np.asarray(center, dtype=float).ravel()
        if center.shape[0] != self._dimension:
            raise DimensionalityMismatchError(
                f"query center has dimension {center.shape[0]}, index has "
                f"{self._dimension}"
            )
        if radius < 0 or not math.isfinite(radius):
            raise ConfigurationError(f"radius must be finite and >= 0, got {radius}")
        cells = self._ensure_cells()
        rows: list[int] = []
        for key in self._candidate_cells(center, radius):
            bucket = cells.get(key)
            if bucket:
                rows.extend(bucket)
        return np.asarray(rows, dtype=int)


class PrototypeIndex:
    """Pruning index over the radius-augmented prototype space.

    The query-processing algorithms need the overlap set
    ``W(q) = { w_k : delta(q, w_k) > 0 }``, and a prototype ``w_k = [x_k,
    theta_k]`` can only overlap a query ``q = [x, theta]`` when
    ``||x - x_k||_p <= theta + theta_k``.  Every member of ``W(q)`` therefore
    lies within ``theta + max_k theta_k`` of the query center, so a
    :class:`GridIndex` over the prototype *centers*, probed with that
    inflated radius, yields a small candidate superset of ``W(q)`` — the
    exact degree test then runs over candidates only, making neighbourhood
    construction sublinear in ``K`` for localised workloads (batched
    prediction through :meth:`candidates_union`, the trainer's winner
    pruning through :meth:`candidates`).

    The bounding box used by the grid contains the Lp ball for every
    ``p >= 1`` (the L-infinity box is the largest), so the candidate set is a
    superset of the overlap set under any norm order.

    Parameters
    ----------
    prototypes:
        The ``(K, d + 1)`` matrix of prototype vectors ``[x_k, theta_k]``.
    cells_per_dimension:
        Grid resolution; defaults to a few prototypes per cell (prototype
        sets are much smaller than datasets, so the grid is denser than the
        executor's default).
    """

    def __init__(
        self,
        prototypes: np.ndarray,
        cells_per_dimension: int | None = None,
    ) -> None:
        protos = np.atleast_2d(np.asarray(prototypes, dtype=float))
        if protos.shape[0] == 0:
            raise ConfigurationError("cannot index zero prototypes")
        if protos.shape[1] < 2:
            raise ConfigurationError(
                "prototypes need at least a center component and a radius, "
                f"got width {protos.shape[1]}"
            )
        centers = protos[:, :-1]
        radii = protos[:, -1]
        self._max_radius = float(max(radii.max(), 0.0))
        if cells_per_dimension is None:
            # Target ~4 prototypes per cell: cells^d ≈ K / 4.
            dimension = centers.shape[1]
            target_cells = max(protos.shape[0] / 4.0, 1.0)
            cells_per_dimension = max(
                int(round(target_cells ** (1.0 / dimension))), 1
            )
            cells_per_dimension = min(cells_per_dimension, 64)
        self._grid = GridIndex(centers, cells_per_dimension=cells_per_dimension)

    @property
    def size(self) -> int:
        """Number of indexed prototypes ``K``."""
        return self._grid.size

    @property
    def dimension(self) -> int:
        """Dimensionality ``d`` of the data (center) space."""
        return self._grid.dimension

    @property
    def max_radius(self) -> float:
        """The largest prototype radius (the pruning-bound inflation)."""
        return self._max_radius

    def candidates(self, center: np.ndarray, radius: float) -> np.ndarray:
        """Return a sorted candidate superset of the overlap set ``W(q)``."""
        if radius < 0 or not math.isfinite(radius):
            raise ConfigurationError(f"radius must be finite and >= 0, got {radius}")
        reach = float(radius) + self._max_radius
        return np.sort(self._grid.candidate_rows(center, reach))

    def candidates_union(
        self, centers: np.ndarray, radii: np.ndarray, p: float = 2.0
    ) -> np.ndarray:
        """Sorted union of candidate supersets for a whole query batch.

        Every prototype overlapping *any* query of the batch is contained in
        the result, so batched prediction can restrict its ``(m, K)`` degree
        computation to these columns (block-sparse mode) without changing a
        single answer.  The per-query reach is ``theta_i + max_k theta_k``,
        exactly as in :meth:`candidates`.
        """
        centers = np.atleast_2d(np.asarray(centers, dtype=float))
        radii = np.asarray(radii, dtype=float).ravel()
        if radii.size and (np.min(radii) < 0 or not np.all(np.isfinite(radii))):
            raise ConfigurationError("radii must all be finite and >= 0")
        reach = radii + self._max_radius
        query_ids, starts, ends = self._grid.candidate_ranges_batch(
            centers, reach, p=p
        )
        if starts.size == 0:
            return np.empty(0, dtype=np.int64)
        positions, _ = expand_ranges(query_ids, starts, ends)
        return np.unique(self._grid.clustered_order[positions])
