"""Exact Q1/Q2 query execution over the DBMS substrate.

:class:`ExactQueryEngine` is the "ground truth" side of the system context
(Figure 2): it evaluates the dNN selection over the stored data and then
computes the exact mean value (Q1) or fits the exact multivariate OLS
regression over the selected subspace (Q2 / REG).  It also counts the
queries it executed and the rows it scanned and selected, which the
scalability experiment (Figure 12) reports.

Batched execution is organised around *sufficient statistics*: a Q1 answer
needs ``(count, sum)`` of the selected outputs and a Q2 answer needs the
selected Gram moments (``sum x``, ``sum y``, ``sum y^2``, ``sum x y``,
``sum x x^T``), from which the OLS plane is recovered by the blocked solve
in :func:`solve_q2_sufficient_statistics`.  Moments computed over disjoint
row partitions merge by plain addition, which is what makes every shard
layout of the engine exactly equivalent to a single shard.

Shards
------
The engine splits its rows into ``num_shards`` contiguous row shards (one
by default), answers a batch shard by shard and merges the per-shard
statistics.  Each shard owns two interchangeable kernels producing
identical statistics:

* an **indexed** segmented pipeline over the shard's own cell-clustered
  fine grid (:class:`SegmentedBatchPipeline`, its grid built on the shard's
  first indexed batch): candidate ranges from one vectorised grid pass,
  materialized per-cell aggregates for cells certified inside the ball,
  row-level exact tests only on boundary cells, and
* a chunked full **scan** of the shard's rows
  (:func:`q1_sufficient_statistics_scan` /
  :func:`q2_sufficient_statistics_scan`).

Rank-deficient or ill-conditioned subspaces fall back to the dense
per-query OLS over the query's selected rows, keeping the exact
minimum-norm semantics.

Routing
-------
``route="indexed"`` (default) and ``route="scan"`` force one kernel on
every shard.  ``route="auto"`` picks the kernel per shard and the execution
mode per batch from a selectivity estimate
(:func:`~repro.dbms.spatial_index.estimate_boundary_fraction`: query radii
against the shard's extent and batch-grid cell volume).  Batches whose
estimated *boundary* fraction — the rows in cells straddling the ball
surface, the only rows the pipeline tests individually — stays below
``_INDEXED_ROUTE_MAX_BOUNDARY`` go to the indexed pipeline; batches whose
boundary shell approaches the shard size keep the cache-blocked scan,
whose sequential row traffic beats gather-heavy candidate tests at that
point.  Small batches (estimated touched elements below
``_SERIAL_BATCH_ELEMENTS``) run the shards inline even on a pool backend —
pool dispatch latency dominates sub-millisecond kernels.  Forced routes
always use the configured backend, which is what
``benchmarks/bench_shard_scaling.py`` uses to measure the crossover.

Backends
--------
``"serial"`` (default) runs the shards inline.  ``"threads"`` runs them on
a thread pool: the NumPy distance/mask/GEMM kernels release the GIL, so
shards execute in parallel on multi-core hosts, and the shard slices (and
their lazily-built indexes) are shared with the pool for free.
``"processes"`` runs them on a process pool (shard arrays are shipped once
per worker at pool start-up, and each worker builds the shard grids it
needs on first indexed use); it sidesteps the GIL entirely but pays
serialisation of the per-batch query arrays and of the returned
statistics.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from ..analysis.instrument import make_lock
from ..baselines.ols import OLSRegressor
from ..data.synthetic import SyntheticDataset
from ..exceptions import (
    ConfigurationError,
    EmptySubspaceError,
    InternalInvariantError,
    StorageError,
)
from ..queries.geometry import lp_distance_matrix
from ..queries.query import Query, QueryAnswer
from .spatial_index import (
    GridIndex,
    batch_grid_cells_per_dimension,
    estimate_boundary_fraction,
    expand_ranges,
)
from .storage import SQLiteDataStore

__all__ = [
    "ExactQueryEngine",
    "ExecutionStatistics",
    "Q2BatchSolution",
    "SegmentedBatchPipeline",
    "moment_column_count",
    "moment_products",
    "q1_sufficient_statistics_scan",
    "q2_sufficient_statistics_scan",
    "shard_bounds",
    "solve_q2_sufficient_statistics",
]

#: Cap on the number of float64 elements of one ``(chunk, n)`` distance
#: matrix in the scan kernels (:func:`q1_sufficient_statistics_scan`,
#: :func:`q2_sufficient_statistics_scan`), which the engine runs on every
#: shard routed to the scan.  This is a cache-blocking parameter as much as
#: a memory cap: 256k elements keeps the per-chunk distance matrix at
#: ~2 MiB (and the broadcasted difference tensor behind it at a few MiB),
#: which measures ~2x faster on large scans than the previous 64 MiB
#: working sets that streamed through DRAM.
_BATCH_SCAN_ELEMENTS = 262_144

#: Floor of a query's centred Gram spectrum, relative to the uncentred
#: second-moment scale ``trace sum z z^T`` (``z = x - c``: the inputs about
#: the query center).  The centred Gram is recovered as a difference of
#: those center-referenced moments, so each entry carries an absolute error
#: of about ``eps * scale``, and the normal-equation solve divides by the
#: smallest centred eigenvalue: the slope's relative error is roughly
#: ``eps * scale / smallest``.  Capping that ratio at 1e3 bounds the fast
#: path's deviation from the SVD solver near 1e-13 relative — an order of
#: margin inside the budgets the differential harness pins across every
#: engine pair.  The ratio is at least the condition number ``largest /
#: smallest``; it is larger still when a selection is thin in some
#: direction and its mean sits off the query center (a near-collinear slab,
#: where a cap on the condition number alone let coefficient errors reach
#: 1e-9 relative), and when the subspace is exactly degenerate (identical
#: inputs, or inputs on a lower-dimensional manifold), where every
#: eigenvalue is cancellation noise of order ``eps * scale``.  Such queries
#: are answered by the dense SVD least-squares solver of
#: :class:`~repro.baselines.ols.OLSRegressor`; ball-shaped dNN selections
#: sit far below the cap, so the fallback is rare in practice.  Both
#: failure modes were found by the randomized differential harness
#: (``tests/test_engine_differential.py``: the degenerate and
#: near-collinear layouts).
_GRAM_CONDITION_RTOL = 1e-3

#: Shards per worker used when a pool backend is given no ``num_shards``.
#: More shards than workers keeps the pool busy when shard runtimes are
#: uneven and shrinks each shard's working set (cache blocking).
_SHARDS_PER_WORKER = 4

#: Mean estimated boundary fraction at or below which ``route="auto"``
#: sends a shard's batch through the indexed segmented pipeline instead of
#: the scan kernel.  The indexed path's per-row cost tracks only the
#: *boundary shell* of each ball — cells certified fully inside contribute
#: O(1) precomputed aggregates however many rows they hold — so on a fine
#: grid it beats the scan even for wide balls (BENCH_shard.json measures
#: 4-5x at radius 0.4 on d=2, N=200k, where ~90% of rows are candidates
#: but only ~5% sit in boundary cells).  The scan only wins once the
#: boundary work approaches the shard size times the ~3x throughput edge
#: sequential row traffic holds over gather-heavy candidate tests — i.e.
#: coarse grids relative to the radius (high dimensions, small shards).
_INDEXED_ROUTE_MAX_BOUNDARY = 0.3

#: Estimated touched elements (selected-candidate rows for indexed routes,
#: ``m x shard rows`` for scans) below which ``route="auto"`` runs the
#: shard kernels inline instead of dispatching to the pool: pool dispatch
#: and result marshalling cost ~100 us per shard, which dominates kernels
#: that touch fewer than ~a million elements.
_SERIAL_BATCH_ELEMENTS = 1_000_000

_ROUTES = ("indexed", "scan", "auto")
_BACKENDS = ("serial", "threads", "processes")


@dataclass
class ExecutionStatistics:
    """Cumulative counters of an exact engine.

    Three running totals — queries executed, rows scanned, rows selected —
    so recording a query stream of any length costs constant memory.
    """

    queries_executed: int = 0
    rows_scanned: int = 0
    rows_selected: int = 0

    def record_batch(self, count: int, scanned: int, selected: int) -> None:
        """Add one batch's counters (a single-query call is a batch of one)."""
        self.queries_executed += count
        self.rows_scanned += scanned
        self.rows_selected += selected


# --------------------------------------------------------------------------- #
# sufficient-statistics kernels
# --------------------------------------------------------------------------- #
def moment_column_count(dimension: int) -> int:
    """Number of Q2 moment columns for ``d`` input attributes.

    Layout (in column order): ``z_1..z_d``, ``y``, ``y^2``,
    ``z_1 y..z_d y``, then the upper triangle of ``z z^T`` row-major —
    where ``z = x - c`` is the input *relative to the query center*.
    Referencing every moment to the query's own center keeps the
    accumulated sums at the scale of the subspace radius, so recovering the
    centred Gram system never subtracts two large near-equal numbers (the
    cancellation that would otherwise cost ~``(|x| / theta)^2`` digits).
    The reference is a property of the query, not of the row partition, so
    per-shard moments still merge by plain addition.
    """
    return 2 * dimension + 2 + dimension * (dimension + 1) // 2


def moment_products(deltas: np.ndarray, outputs: np.ndarray) -> np.ndarray:
    """Per-row Q2 moment columns (see layout above).

    ``deltas`` holds the selected inputs minus the owning query's center,
    one row per selected (query, row) pair.
    """
    deltas = np.atleast_2d(np.asarray(deltas, dtype=float))
    outputs = np.asarray(outputs, dtype=float).ravel()
    rows, dimension = deltas.shape
    # One transposed copy makes every per-dimension factor contiguous, which
    # roughly halves the wall-clock of the column products below.
    transposed = np.ascontiguousarray(deltas.T)
    products = np.empty((rows, moment_column_count(dimension)), dtype=float)
    products[:, :dimension] = deltas
    products[:, dimension] = outputs
    np.multiply(outputs, outputs, out=products[:, dimension + 1])
    for j in range(dimension):
        np.multiply(transposed[j], outputs, out=products[:, dimension + 2 + j])
    column = 2 * dimension + 2
    for a in range(dimension):
        for b in range(a, dimension):
            np.multiply(transposed[a], transposed[b], out=products[:, column])
            column += 1
    return products


def q1_sufficient_statistics_scan(
    inputs: np.ndarray,
    outputs: np.ndarray,
    centers: np.ndarray,
    radii: np.ndarray,
    p: float = 2.0,
    *,
    element_budget: int = _BATCH_SCAN_ELEMENTS,
) -> tuple[np.ndarray, np.ndarray]:
    """Q1 sufficient statistics ``(counts, sums)`` of a query batch by scan.

    The whole batch is answered with chunked ``(chunk, n)`` distance-matrix
    arithmetic; chunks bound peak memory to ``O(element_budget)`` floats.
    Statistics over disjoint row partitions add up exactly, so shards can
    call this on their slice and merge.
    """
    rows = inputs.shape[0]
    count = centers.shape[0]
    counts = np.zeros(count, dtype=np.int64)
    sums = np.zeros(count, dtype=float)
    chunk = max(element_budget // max(rows, 1), 1)
    for start in range(0, count, chunk):
        stop = min(start + chunk, count)
        distances = lp_distance_matrix(centers[start:stop], inputs, p=p)
        masks = distances <= radii[start:stop, np.newaxis]
        counts[start:stop] = masks.sum(axis=1)
        sums[start:stop] = masks.astype(float) @ outputs
    return counts, sums


def q2_sufficient_statistics_scan(
    inputs: np.ndarray,
    outputs: np.ndarray,
    centers: np.ndarray,
    radii: np.ndarray,
    p: float = 2.0,
    *,
    element_budget: int = _BATCH_SCAN_ELEMENTS,
) -> tuple[np.ndarray, np.ndarray]:
    """Q2 sufficient statistics ``(counts, moments)`` of a batch by scan.

    ``moments`` has one :func:`moment_products` column-sum row per query
    (center-referenced, see there); like the Q1 variant it merges across
    disjoint row partitions by plain addition (the "blocked OLS"
    decomposition).  The chunk size is divided by the moment width so the
    selected-pair products stay within the element budget even for fully
    unselective batches.
    """
    rows = inputs.shape[0]
    count = centers.shape[0]
    dimension = inputs.shape[1] if inputs.ndim == 2 else 1
    width = moment_column_count(dimension)
    counts = np.zeros(count, dtype=np.int64)
    moments = np.zeros((count, width), dtype=float)
    chunk = max(element_budget // max(rows * width, 1), 1)
    for start in range(0, count, chunk):
        stop = min(start + chunk, count)
        distances = lp_distance_matrix(centers[start:stop], inputs, p=p)
        masks = distances <= radii[start:stop, np.newaxis]
        chunk_counts = masks.sum(axis=1)
        counts[start:stop] = chunk_counts
        query_rel, row_rel = np.nonzero(masks)
        if query_rel.size:
            deltas = inputs[row_rel] - centers[start:stop][query_rel]
            products = moment_products(deltas, outputs[row_rel])
            nonempty = chunk_counts > 0
            offsets = (np.cumsum(chunk_counts) - chunk_counts)[nonempty]
            moments[start:stop][nonempty] = np.add.reduceat(
                products, offsets, axis=0
            )
    return counts, moments


def translate_cell_moments(
    aggregates: np.ndarray, shifts: np.ndarray
) -> np.ndarray:
    """Re-reference per-cell moment aggregates to per-query centers.

    ``aggregates`` rows are ``[count, <moment_products columns>]`` taken
    about each cell's own center ``t``; ``shifts`` holds ``s = t - c`` for
    the owning query.  The translation identities

    * ``sum (x - c) = m1 + n s``
    * ``sum (x - c) y = m_zy + s sum_y``
    * ``sum (x - c)(x - c)^T = M2 + s m1^T + m1 s^T + n s s^T``

    only combine radius-scale quantities, so cell-level aggregation loses
    none of the numerical headroom of the center-referenced row moments.
    """
    count = aggregates[:, 0]
    d = shifts.shape[1]
    out = np.empty_like(aggregates)
    out[:, 0] = count
    m1 = aggregates[:, 1 : 1 + d]
    sum_y = aggregates[:, 1 + d]
    out[:, 1 : 1 + d] = m1 + count[:, np.newaxis] * shifts
    out[:, 1 + d] = sum_y
    out[:, 2 + d] = aggregates[:, 2 + d]
    out[:, 3 + d : 3 + 2 * d] = (
        aggregates[:, 3 + d : 3 + 2 * d] + shifts * sum_y[:, np.newaxis]
    )
    column = 3 + 2 * d
    for a in range(d):
        for b in range(a, d):
            out[:, column] = (
                aggregates[:, column]
                + shifts[:, a] * m1[:, b]
                + shifts[:, b] * m1[:, a]
                + count * shifts[:, a] * shifts[:, b]
            )
            column += 1
    return out


@functools.lru_cache(maxsize=None)
def _gram_pairs(dimension: int) -> tuple[np.ndarray, np.ndarray]:
    """``(a, b)`` index arrays of the upper-triangle moment columns, in order."""
    first, second = np.triu_indices(dimension)
    return first, second


@dataclass(frozen=True)
class Q2BatchSolution:
    """Blocked-OLS answers recovered from merged Q2 sufficient statistics."""

    means: np.ndarray
    coefficients: np.ndarray
    r_squared: np.ndarray
    needs_fallback: np.ndarray


def solve_q2_sufficient_statistics(
    counts: np.ndarray, moments: np.ndarray, centers: np.ndarray
) -> Q2BatchSolution:
    """Solve the per-query OLS planes from merged Q2 moments.

    ``moments`` must be the center-referenced column sums of
    :func:`moment_products` (``z = x - c``); ``centers`` are the matching
    query centers, used to express the intercept back in the original input
    coordinates.  The solve is the centred normal-equation form (slope from
    the centred Gram system, intercept from the means), whose conditioning
    is that of the radius-scale deviations rather than the raw second
    moments.  Queries with fewer than ``d + 1`` selected rows or a
    (near-)singular centred Gram matrix are flagged in ``needs_fallback`` —
    callers answer those with the dense per-query OLS solver so
    rank-deficient subspaces keep the exact minimum-norm semantics of
    :class:`~repro.baselines.ols.OLSRegressor`.
    """
    counts = np.asarray(counts, dtype=np.int64).ravel()
    moments = np.atleast_2d(np.asarray(moments, dtype=float))
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    m, d = centers.shape

    sum_z = moments[:, :d]
    sum_y = moments[:, d]
    sum_yy = moments[:, d + 1]
    sum_zy = moments[:, d + 2 : 2 * d + 2]
    gram = np.empty((m, d, d), dtype=float)
    first, second = _gram_pairs(d)
    gram[:, first, second] = gram[:, second, first] = moments[:, 2 * d + 2 :]

    weight = np.where(counts > 0, counts, 1).astype(float)
    z_bar = sum_z / weight[:, np.newaxis]
    y_bar = sum_y / weight
    gram_c = gram - weight[:, np.newaxis, np.newaxis] * (
        z_bar[:, :, np.newaxis] * z_bar[:, np.newaxis, :]
    )
    cross_c = sum_zy - weight[:, np.newaxis] * z_bar * y_bar[:, np.newaxis]
    tss = sum_yy - weight * y_bar * y_bar

    # Under- or exactly-determined systems go to the dense solver: they have
    # no averaging redundancy, so the per-query SVD path's minimum-norm
    # semantics (and its conditioning) must be preserved verbatim.
    needs_fallback = counts <= d + 1
    finite = (
        np.isfinite(gram_c).all(axis=(1, 2))
        & np.isfinite(cross_c).all(axis=1)
        & np.isfinite(tss)
    )
    needs_fallback |= ~finite
    solvable = (~needs_fallback) & (counts > 0)
    if solvable.any():
        smallest = np.linalg.eigvalsh(gram_c[solvable])[:, 0]
        # ``sum_a sum z_a^2``: the uncentred moment scale the centred Gram's
        # cancellation error is relative to (see _GRAM_CONDITION_RTOL).
        scale = np.einsum("ijj->i", gram[solvable])
        ill = smallest <= _GRAM_CONDITION_RTOL * scale
        rows = np.nonzero(solvable)[0]
        needs_fallback[rows[ill]] = True
        solvable[rows[ill]] = False

    slope = np.zeros((m, d), dtype=float)
    if solvable.any():
        slope[solvable] = np.linalg.solve(
            gram_c[solvable], cross_c[solvable][:, :, np.newaxis]
        )[:, :, 0]
    intercept = (
        y_bar
        - np.einsum("ij,ij->i", slope, z_bar)
        - np.einsum("ij,ij->i", slope, centers)
    )
    residual = (
        tss
        - 2.0 * np.einsum("ij,ij->i", slope, cross_c)
        + np.einsum("ij,ijk,ik->i", slope, gram_c, slope)
    )
    # Constant outputs (TSS 0) score 1.0 when the residual is
    # ``np.isclose(residual, 0.0)`` (default atol 1e-8), else 0.0.
    positive = tss > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        r_squared = np.where(
            positive,
            1.0 - residual / np.where(positive, tss, 1.0),
            np.where(np.abs(residual) <= 1e-8, 1.0, 0.0),
        )
    coefficients = np.empty((m, d + 1), dtype=float)
    coefficients[:, 0] = intercept
    coefficients[:, 1:] = slope
    return Q2BatchSolution(
        means=y_bar,
        coefficients=coefficients,
        r_squared=r_squared,
        needs_fallback=needs_fallback,
    )


def _group_by_norm_order(queries: Sequence[Query]) -> list[tuple[float, np.ndarray]]:
    """Group batch positions by norm order (ascending order, positions kept)."""
    orders = [query.norm_order for query in queries]
    distinct = sorted(set(orders))
    if len(distinct) == 1:
        return [(distinct[0], np.arange(len(orders)))]
    array = np.array(orders, dtype=float)
    return [(order, np.flatnonzero(array == order)) for order in distinct]

def _lp_rows(diff: np.ndarray, p: float) -> np.ndarray:
    """Row-wise Lp norms with the same elementwise formulation as
    :func:`~repro.queries.geometry.pairwise_lp_distance` (bit-identical
    selections between the segmented pipeline and the full scans)."""
    if math.isinf(p):
        return np.abs(diff).max(axis=1)
    if p == 2.0:
        return np.sqrt((diff * diff).sum(axis=1))
    if p == 1.0:
        return np.abs(diff).sum(axis=1)
    return np.power(np.power(np.abs(diff), p).sum(axis=1), 1.0 / p)


class SegmentedBatchPipeline:
    """Segmented candidate-range + cell-aggregate batch pipeline of one row set.

    The indexed batch paths reduce a query batch to per-query sufficient
    statistics with one vectorised candidate-range pass over a fine,
    cell-clustered grid: cells certified fully inside a ball contribute
    precomputed *materialized aggregates* (translated to the query center
    for Q2), and only boundary cells pay row-level exact Lp tests.  This
    class owns everything that pipeline needs about one contiguous row set —
    the fine batch grid, the cell-clustered row copies, and the per-cell
    aggregate tables — one pipeline per shard of :class:`ExactQueryEngine`
    (the whole table when there is one shard).  Statistics of disjoint row
    sets merge by plain addition, exactly like the scan kernels'.

    The grid, the clustered rows and each aggregate table are built once,
    on first use, under one build lock; queries read them without locking.

    Parameters
    ----------
    inputs, outputs:
        The ``(n, d)`` input matrix and ``(n,)`` output vector of the rows.
    """

    def __init__(self, inputs: np.ndarray, outputs: np.ndarray) -> None:
        self._inputs = inputs
        self._outputs = outputs
        self._build_lock = make_lock("pipeline.build")
        self._grid: GridIndex | None = None
        self._clustered: tuple[np.ndarray, np.ndarray] | None = None
        self._cell_aggregate_cache: dict[str, np.ndarray] = {}

    @property
    def rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``(inputs, outputs)`` of the row set."""
        return self._inputs, self._outputs

    @property
    def size(self) -> int:
        return int(self._inputs.shape[0])

    @property
    def dimension(self) -> int:
        return int(self._inputs.shape[1])

    @property
    def grid(self) -> GridIndex:
        """The fine batch grid (lazy: built on the first indexed query).

        The pipeline pays no per-cell Python cost, so it uses a fine grid (a
        few rows per cell, see
        :func:`~repro.dbms.spatial_index.batch_grid_cells_per_dimension`)
        that trims the candidate superset towards the exact selection; every
        candidate-proportional stage speeds up with it.
        """
        grid = self._grid
        if grid is None:
            with self._build_lock:
                if self._grid is None:
                    cells = batch_grid_cells_per_dimension(self.size, self.dimension)
                    self._grid = GridIndex(self._inputs, cells_per_dimension=cells)
                grid = self._grid
        return grid

    def _clustered_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Cell-clustered copies of ``(inputs, outputs)`` (lazy)."""
        clustered = self._clustered
        if clustered is None:
            order = self.grid.clustered_order
            with self._build_lock:
                if self._clustered is None:
                    self._clustered = (self._inputs[order], self._outputs[order])
                clustered = self._clustered
        return clustered

    def select_rows(
        self, center: np.ndarray, radius: float, p: float
    ) -> tuple[np.ndarray, int]:
        """Ascending ids of the rows inside one ball, plus rows scanned.

        A batch of one through the fine grid: the ball's candidate ranges,
        the exact Lp test on the candidates, then a gather back to row ids.
        """
        grid = self.grid
        qid, starts, ends = grid.candidate_ranges_batch(
            center[np.newaxis, :], np.array([radius]), p=p
        )
        positions, _ = expand_ranges(qid, starts, ends)
        clustered_inputs, _ = self._clustered_arrays()
        inside = _lp_rows(clustered_inputs[positions] - center, p) <= radius
        rows = np.sort(grid.clustered_order[positions[inside]])
        return rows, int(positions.size)

    def _cell_aggregates(self, kind: str) -> np.ndarray:
        """Per-occupied-cell sufficient statistics (lazy, one-time build).

        ``kind="q1"`` rows are ``[count, sum_y]``; ``kind="q2"`` rows are
        ``[count, <moment_products about the cell's own center>]``.  Cells
        certified fully inside a query ball contribute these aggregates
        directly — no per-row work — which is what makes batch latency
        scale with the selection *boundary* rather than its volume.
        """
        cached = self._cell_aggregate_cache.get(kind)
        if cached is not None:
            return cached
        grid = self.grid
        clustered_inputs, clustered_outputs = self._clustered_arrays()
        with self._build_lock:
            cached = self._cell_aggregate_cache.get(kind)
            if cached is not None:
                return cached
            offsets = grid.cell_row_offsets
            cell_counts = np.diff(offsets)
            if kind == "q1":
                aggregates = np.empty((cell_counts.size, 2), dtype=float)
                aggregates[:, 0] = cell_counts
                aggregates[:, 1] = np.add.reduceat(clustered_outputs, offsets[:-1])
            else:
                references = np.repeat(grid.cell_centers, cell_counts, axis=0)
                products = moment_products(
                    clustered_inputs - references, clustered_outputs
                )
                aggregates = np.empty(
                    (cell_counts.size, 1 + products.shape[1]), dtype=float
                )
                aggregates[:, 0] = cell_counts
                aggregates[:, 1:] = np.add.reduceat(products, offsets[:-1], axis=0)
            self._cell_aggregate_cache[kind] = aggregates
        return aggregates

    @staticmethod
    def _segment_sums(
        values: np.ndarray, counts: np.ndarray, out: np.ndarray
    ) -> None:
        """Accumulate contiguous per-query segments of ``values`` into ``out``."""
        nonempty = counts > 0
        if not nonempty.any():
            return
        segment_offsets = (counts.cumsum() - counts)[nonempty]
        out[nonempty] += np.add.reduceat(values, segment_offsets, axis=0)

    def segment_statistics(
        self,
        centers: np.ndarray,
        radii: np.ndarray,
        p: float,
        *,
        kind: str,
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Sufficient statistics of a (single-norm) batch via the fine grid.

        Candidate cells come from one vectorised pass over the batch grid
        (:meth:`GridIndex.classified_ranges_batch`).  Cells certified fully
        inside the ball contribute their precomputed aggregates (translated
        to the query center for Q2); only the boundary cells' rows get the
        exact Lp membership test, and all per-query sums are segment
        reductions — no per-query Python loop anywhere.

        Returns ``(counts, sums, scanned)`` where ``sums`` is ``(m, 1)``
        output sums (``kind="q1"``) or the ``(m, width)``
        :func:`moment_products` column sums (``kind="q2"``).
        """
        m = centers.shape[0]
        width = 1 if kind == "q1" else moment_column_count(self.dimension)
        counts = np.zeros(m, dtype=np.int64)
        sums = np.zeros((m, width), dtype=float)
        grid = self.grid
        (
            boundary_qid,
            boundary_starts,
            boundary_ends,
            inner_qid,
            inner_cell_starts,
            inner_cell_ends,
        ) = grid.classified_ranges_batch(centers, radii, p=p)
        scanned = 0

        # Boundary cells: exact membership test row by row.
        if boundary_starts.size:
            positions, candidate_qid = expand_ranges(
                boundary_qid, boundary_starts, boundary_ends
            )
            scanned += positions.size
            clustered_inputs, clustered_outputs = self._clustered_arrays()
            difference = clustered_inputs[positions] - centers[candidate_qid]
            distances = _lp_rows(difference, p)
            inside = distances <= radii[candidate_qid]
            selected_positions = positions[inside]
            selected_qid = candidate_qid[inside]
            boundary_counts = np.bincount(selected_qid, minlength=m)
            counts += boundary_counts
            if selected_positions.size:
                if kind == "q1":
                    values = clustered_outputs[selected_positions][:, np.newaxis]
                else:
                    # The candidate differences ARE the center-referenced
                    # deltas; compressing them avoids a second gather.
                    values = moment_products(
                        difference[inside], clustered_outputs[selected_positions]
                    )
                self._segment_sums(values, boundary_counts, sums)

        # Fully-inside cells: precomputed aggregates, zero row-level work.
        if inner_cell_starts.size:
            cell_positions, instance_qid = expand_ranges(
                inner_qid, inner_cell_starts, inner_cell_ends
            )
            aggregates = self._cell_aggregates(kind)[cell_positions]
            if kind == "q2":
                shifts = grid.cell_centers[cell_positions] - centers[instance_qid]
                aggregates = translate_cell_moments(aggregates, shifts)
            instance_counts = np.bincount(instance_qid, minlength=m)
            inner_totals = np.zeros((m, aggregates.shape[1]), dtype=float)
            self._segment_sums(aggregates, instance_counts, inner_totals)
            inner_rows = inner_totals[:, 0]
            scanned += int(inner_rows.sum())
            counts += np.rint(inner_rows).astype(np.int64)
            sums += inner_totals[:, 1:]
        return counts, sums, scanned



# --------------------------------------------------------------------------- #
# shards
# --------------------------------------------------------------------------- #
def shard_bounds(row_count: int, num_shards: int) -> np.ndarray:
    """Row boundaries of ``num_shards`` near-equal contiguous shards.

    Returns ``num_shards + 1`` monotonically increasing offsets starting at
    0 and ending at ``row_count``.
    """
    if num_shards < 1:
        raise ConfigurationError(f"num_shards must be >= 1, got {num_shards}")
    return np.linspace(0, row_count, num_shards + 1).astype(np.int64)


def _shard_pipelines(
    inputs: np.ndarray, outputs: np.ndarray, bounds: np.ndarray
) -> list[SegmentedBatchPipeline]:
    """One pipeline per shard; constructing one only stores its rows."""
    return [
        SegmentedBatchPipeline(inputs[start:stop], outputs[start:stop])
        for start, stop in zip(bounds[:-1], bounds[1:])
    ]


def _shard_statistics(
    pipeline: SegmentedBatchPipeline,
    route: str,
    kind: str,
    centers: np.ndarray,
    radii: np.ndarray,
    p: float,
) -> tuple[np.ndarray, np.ndarray, int]:
    """One shard's ``(counts, sums, rows scanned)`` by its route's kernel.

    ``sums`` is the ``(m,)`` output sums (``kind="q1"``) or the
    ``(m, width)`` :func:`moment_products` column sums (``kind="q2"``);
    both kernels produce the same statistics, which merge across shards by
    addition.
    """
    if route == "indexed":
        counts, sums, scanned = pipeline.segment_statistics(
            centers, radii, p, kind=kind
        )
        return counts, sums[:, 0] if kind == "q1" else sums, scanned
    inputs, outputs = pipeline.rows
    kernel = (
        q1_sufficient_statistics_scan if kind == "q1" else q2_sufficient_statistics_scan
    )
    counts, sums = kernel(inputs, outputs, centers, radii, p=p)
    return counts, sums, centers.shape[0] * inputs.shape[0]


#: The shard pipelines of a process-pool worker, installed once at pool
#: start-up; each builds its grid on the worker's first indexed batch.
_WORKER_PIPELINES: list[SegmentedBatchPipeline] = []


def _process_worker_init(
    inputs: np.ndarray, outputs: np.ndarray, bounds: np.ndarray
) -> None:
    _WORKER_PIPELINES[:] = _shard_pipelines(inputs, outputs, bounds)


def _process_worker_statistics(args: tuple) -> tuple[np.ndarray, np.ndarray, int]:
    index, *task = args
    return _shard_statistics(_WORKER_PIPELINES[index], *task)


class ExactQueryEngine:
    """Execute exact Q1 and Q2 queries against a dataset.

    Parameters
    ----------
    dataset:
        The dataset to query.
    num_shards:
        Number of contiguous row shards, capped at the row count so that no
        shard is empty.  Defaults to one shard on the serial backend and to
        ``4 * max_workers`` on a pool backend (shard working sets stay
        cache-friendly and the pool stays saturated).
    backend:
        ``"serial"`` (default), ``"threads"`` or ``"processes"``.
    max_workers:
        Pool width; defaults to the machine's CPU count.
    route:
        ``"indexed"`` (default), ``"scan"`` or ``"auto"``.  Every route
        returns identical answers.

    The module docstring describes shards, routes and backends.  Every
    configuration answers through the batch entry points
    (:meth:`execute_q1_batch` / :meth:`execute_q2_batch`); the single-query
    calls are batches of one.  :meth:`from_store` builds the engine over a
    table of a :class:`~repro.dbms.storage.SQLiteDataStore`.  A pool
    backend starts its pool on the first batch it dispatches; :meth:`close`
    (or leaving a ``with`` block) shuts it down.
    """

    def __init__(
        self,
        dataset: SyntheticDataset,
        *,
        num_shards: int | None = None,
        backend: str = "serial",
        max_workers: int | None = None,
        route: str = "indexed",
    ) -> None:
        if backend not in _BACKENDS:
            raise ConfigurationError(
                f"backend must be one of {_BACKENDS}, got {backend!r}"
            )
        if route not in _ROUTES:
            raise ConfigurationError(f"route must be one of {_ROUTES}, got {route!r}")
        workers = max_workers if max_workers is not None else (os.cpu_count() or 1)
        self._max_workers = max(int(workers), 1)
        if num_shards is None:
            num_shards = (
                1 if backend == "serial" else self._max_workers * _SHARDS_PER_WORKER
            )
        self._dataset = dataset
        self._inputs = dataset.inputs
        self._outputs = dataset.outputs
        self._backend = backend
        self._route = route
        # A dataset holds at least one row, so capping the shard count at
        # the row count leaves no shard empty.
        self._bounds = shard_bounds(dataset.size, min(int(num_shards), dataset.size))
        self._pipelines = _shard_pipelines(self._inputs, self._outputs, self._bounds)
        # The auto planner's per-shard (extents, grid resolutions), computed
        # on its first batch.
        self._selectivity: tuple[np.ndarray, list[int]] | None = None
        # The pool is built on the first pooled batch; the lock makes that
        # build, and close(), happen once however many threads race them.
        self._pool_lock = make_lock("executor.pool")
        self._pool: Executor | None = None
        self._closed = False
        self.statistics = ExecutionStatistics()

    @classmethod
    def from_store(
        cls, store: SQLiteDataStore, table_name: str, **options: Any
    ) -> "ExactQueryEngine":
        """Build an engine over a stored table, its rows in rowid order.

        ``options`` are the constructor's keyword arguments.
        """
        return cls(store.load_as_dataset(table_name), **options)

    @property
    def dataset(self) -> SyntheticDataset:
        return self._dataset

    @property
    def dimension(self) -> int:
        return self._dataset.dimension

    @property
    def size(self) -> int:
        return self._dataset.size

    @property
    def num_shards(self) -> int:
        return len(self._pipelines)

    @property
    def backend(self) -> str:
        return self._backend

    @property
    def max_workers(self) -> int:
        return self._max_workers

    @property
    def route(self) -> str:
        """The routing policy: ``"indexed"``, ``"scan"`` or ``"auto"``."""
        return self._route

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Shut the worker pool down; further queries will fail."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
            self._closed = True
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "ExactQueryEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _require_open(self) -> None:
        if self._closed:
            raise StorageError("the exact engine has been closed")

    def _ensure_pool(self) -> Executor:
        """The worker pool of a pooled backend, built on first use."""
        with self._pool_lock:
            # Re-checked under the lock: a batch racing close() must not
            # build a pool on a closed engine.
            self._require_open()
            pool = self._pool
            if pool is None:
                if self._backend == "threads":
                    pool = ThreadPoolExecutor(max_workers=self._max_workers)
                else:
                    pool = ProcessPoolExecutor(
                        max_workers=self._max_workers,
                        initializer=_process_worker_init,
                        initargs=(self._inputs, self._outputs, self._bounds),
                    )
                self._pool = pool
            return pool

    # ------------------------------------------------------------------ #
    # single queries: batches of one
    # ------------------------------------------------------------------ #
    def select_subspace(self, query: Query) -> tuple[np.ndarray, np.ndarray]:
        """Return the ``(inputs, outputs)`` of the rows inside ``D(x, theta)``.

        Rows come in ascending row-id order; an empty subspace gives empty
        arrays.
        """
        self._validate_batch([query], "raise")
        rows, scanned = self._select(query)
        self.statistics.record_batch(1, scanned, int(rows.size))
        return self._inputs[rows], self._outputs[rows]

    def cardinality(self, query: Query) -> int:
        """Return ``n_theta(x)``: the number of rows inside the subspace."""
        answer = self.execute_q1_batch([query], on_empty="null")[0]
        return 0 if answer is None else answer.cardinality

    def execute_q1(self, query: Query) -> QueryAnswer:
        """Execute an exact mean-value query (Definition 4)."""
        return self._only_answer(self.execute_q1_batch([query]))

    def execute_q2(self, query: Query) -> QueryAnswer:
        """Execute an exact regression query: OLS over the selected subspace."""
        return self._only_answer(self.execute_q2_batch([query]))

    def mean_value(self, query: Query) -> float:
        """Convenience oracle used by training streams: the Q1 scalar answer."""
        return self.execute_q1(query).mean

    # ------------------------------------------------------------------ #
    # batched execution
    # ------------------------------------------------------------------ #
    def execute_q1_batch(
        self, queries: Sequence[Query], *, on_empty: str = "raise"
    ) -> list[QueryAnswer | None]:
        """Execute many exact Q1 queries in one pass, amortising overheads.

        Each shard reduces the whole batch to per-query ``(count, sum)``
        with its route's kernel — on an indexed shard one vectorised
        candidate-range generation, one exact Lp membership test over all
        candidates and per-query segment sums — and the shards' statistics
        add up.  There is no per-query Python loop, and a query's answer
        does not depend on the rest of its batch.

        Parameters
        ----------
        queries:
            The query batch.
        on_empty:
            ``"raise"`` (default) raises
            :class:`~repro.exceptions.EmptySubspaceError` on the first query
            selecting no rows; ``"null"`` returns ``None`` in that query's
            slot instead, keeping the result aligned with the input.
        """
        batch = self._validate_batch(queries, on_empty)
        if not batch:
            return []
        answers: list[QueryAnswer | None] = [None] * len(batch)
        centers = np.array([query.center for query in batch])
        radii = np.array([query.radius for query in batch])
        scanned = 0
        selected = 0
        for order, group in _group_by_norm_order(batch):
            counts, sums, scanned_group = self._statistics(
                centers[group], radii[group], order, "q1"
            )
            scanned += scanned_group
            selected += int(counts.sum())
            for local, position in enumerate(group):
                if counts[local]:
                    answers[int(position)] = QueryAnswer(
                        mean=float(sums[local] / counts[local]),
                        cardinality=int(counts[local]),
                    )
        self.statistics.record_batch(len(batch), scanned, selected)
        self._raise_on_empty(batch, answers, on_empty, "Q1")
        return answers

    def execute_q2_batch(
        self, queries: Sequence[Query], *, on_empty: str = "raise"
    ) -> list[QueryAnswer | None]:
        """Execute many exact Q2 (regression) queries in one pass.

        The batch is reduced to per-query Q2 sufficient statistics, merged
        across shards, and every well-conditioned query is solved by the
        blocked OLS of :func:`solve_q2_sufficient_statistics` (one batched
        ``(d, d)`` solve for the whole batch).  Queries with rank-deficient
        or near-singular subspaces fall back to the dense per-query
        least-squares solver of :class:`~repro.baselines.ols.OLSRegressor`
        over the query's selected rows, keeping its minimum-norm semantics.

        ``on_empty`` behaves exactly as in :meth:`execute_q1_batch`.
        """
        batch = self._validate_batch(queries, on_empty)
        if not batch:
            return []
        answers: list[QueryAnswer | None] = [None] * len(batch)
        centers = np.array([query.center for query in batch])
        radii = np.array([query.radius for query in batch])
        scanned = 0
        selected = 0
        fallback_positions: list[int] = []
        for order, group in _group_by_norm_order(batch):
            group_centers = centers[group]
            counts, moments, scanned_group = self._statistics(
                group_centers, radii[group], order, "q2"
            )
            scanned += scanned_group
            selected += int(counts.sum())
            solution = solve_q2_sufficient_statistics(counts, moments, group_centers)
            for local, position in enumerate(group):
                if counts[local] == 0:
                    continue
                if solution.needs_fallback[local]:
                    fallback_positions.append(int(position))
                    continue
                answers[int(position)] = QueryAnswer(
                    mean=float(solution.means[local]),
                    cardinality=int(counts[local]),
                    coefficients=solution.coefficients[local],
                    r_squared=float(solution.r_squared[local]),
                )
        for position in fallback_positions:
            rows, fallback_scanned = self._select(batch[position])
            scanned += fallback_scanned
            inputs, outputs = self._inputs[rows], self._outputs[rows]
            regressor = OLSRegressor().fit(inputs, outputs)
            answers[position] = QueryAnswer(
                mean=float(np.mean(outputs)),
                cardinality=int(outputs.size),
                coefficients=regressor.coefficients,
                r_squared=regressor.r_squared(inputs, outputs),
            )
        self.statistics.record_batch(len(batch), scanned, selected)
        self._raise_on_empty(batch, answers, on_empty, "Q2")
        return answers

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _validate_batch(self, queries: Sequence[Query], on_empty: str) -> list[Query]:
        self._require_open()
        if on_empty not in ("raise", "null"):
            raise ConfigurationError(
                f"on_empty must be 'raise' or 'null', got {on_empty!r}"
            )
        batch = list(queries)
        for query in batch:
            if query.dimension != self.dimension:
                raise StorageError(
                    f"query has dimension {query.dimension} but the dataset has "
                    f"{self.dimension}"
                )
        return batch

    @staticmethod
    def _raise_on_empty(
        batch: list[Query],
        answers: list[QueryAnswer | None],
        on_empty: str,
        label: str,
    ) -> None:
        if on_empty != "raise":
            return
        for position, answer in enumerate(answers):
            if answer is None:
                raise EmptySubspaceError(
                    f"query {batch[position]!r} selected no rows; its {label} "
                    "answer is undefined"
                )

    @staticmethod
    def _only_answer(answers: list[QueryAnswer | None]) -> QueryAnswer:
        """The answer of a batch of one run with ``on_empty="raise"``."""
        if len(answers) != 1 or answers[0] is None:
            raise InternalInvariantError("a batch of one returned no single answer")
        return answers[0]

    def _plan_batch(self, radii: np.ndarray) -> tuple[list[str], bool]:
        """Pick each shard's kernel and whether to dispatch to the pool.

        Returns ``(routes, pooled)`` where ``routes[i]`` is ``"scan"`` or
        ``"indexed"`` for shard ``i``.  Forced routes always use the
        configured backend so forced measurements isolate the kernel
        choice; the adaptive route additionally drops to inline execution
        when the estimated touched work is too small to amortise pool
        dispatch.
        """
        pooled = self._backend != "serial"
        if self._route != "auto":
            return [self._route] * len(self._pipelines), pooled
        if self._selectivity is None:
            # One O(N) min/max pass plus the closed-form fine-grid cell
            # counts each shard's pipeline would use; no grid is built.
            self._selectivity = (
                np.array([np.ptp(shard.rows[0], axis=0) for shard in self._pipelines]),
                [
                    batch_grid_cells_per_dimension(pipeline.size, self.dimension)
                    for pipeline in self._pipelines
                ],
            )
        extents, grid_cells = self._selectivity
        m = int(radii.shape[0])
        routes = []
        estimated_elements = 0.0
        for pipeline, extent, cells in zip(self._pipelines, extents, grid_cells):
            fraction = float(np.mean(estimate_boundary_fraction(extent, radii, cells)))
            if fraction <= _INDEXED_ROUTE_MAX_BOUNDARY:
                routes.append("indexed")
                estimated_elements += m * pipeline.size * fraction
            else:
                routes.append("scan")
                estimated_elements += m * pipeline.size
        return routes, pooled and estimated_elements >= _SERIAL_BATCH_ELEMENTS

    def _statistics(
        self, centers: np.ndarray, radii: np.ndarray, p: float, kind: str
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Run one (single-norm) batch on every shard and merge exactly.

        Returns ``(counts, sums, scanned)`` as :func:`_shard_statistics`
        does, summed over the shards.
        """
        routes, pooled = self._plan_batch(radii)
        if not pooled:
            parts = [
                _shard_statistics(pipeline, route, kind, centers, radii, p)
                for pipeline, route in zip(self._pipelines, routes)
            ]
        elif self._backend == "processes":
            tasks = [
                (index, route, kind, centers, radii, p)
                for index, route in enumerate(routes)
            ]
            parts = list(self._ensure_pool().map(_process_worker_statistics, tasks))
        else:
            task = functools.partial(
                _shard_statistics, kind=kind, centers=centers, radii=radii, p=p
            )
            parts = list(self._ensure_pool().map(task, self._pipelines, routes))
        counts, sums, scanned = parts[0]
        for shard_counts, shard_sums, shard_scanned in parts[1:]:
            counts = counts + shard_counts
            sums = sums + shard_sums
            scanned += shard_scanned
        return counts, sums, scanned

    def _select(self, query: Query) -> tuple[np.ndarray, int]:
        """``(ascending selected row ids, rows scanned)`` of one query.

        Each shard selects through its route's kernel: the grid's candidate
        ranges and exact Lp test on an indexed shard, the Lp test over all
        its rows on a scan shard.  Both compute the distances with the same
        elementwise formulation, so the selection does not depend on the
        route.
        """
        center, radius, p = query.center, query.radius, query.norm_order
        routes, _ = self._plan_batch(np.array([radius]))
        selections = []
        scanned = 0
        for start, pipeline, route in zip(self._bounds, self._pipelines, routes):
            if route == "indexed":
                rows, touched = pipeline.select_rows(center, radius, p)
            else:
                inputs = pipeline.rows[0]
                rows = np.flatnonzero(_lp_rows(inputs - center, p) <= radius)
                touched = inputs.shape[0]
            selections.append(rows + start)
            scanned += touched
        return np.concatenate(selections), scanned
