"""Exact Q1/Q2 query execution over the DBMS substrate.

:class:`ExactQueryEngine` is the "ground truth" side of the system context
(Figure 2): it evaluates the dNN selection over the stored data and then
computes the exact mean value (Q1) or fits the exact multivariate OLS
regression over the selected subspace (Q2 / REG).  It also records
execution statistics (rows scanned, rows selected, wall-clock time) which
the scalability experiment (Figure 12) reports.

Batched execution is organised around *sufficient statistics*: a Q1 answer
needs ``(count, sum)`` of the selected outputs and a Q2 answer needs the
selected Gram moments (``sum x``, ``sum y``, ``sum y^2``, ``sum x y``,
``sum x x^T``), from which the OLS plane is recovered by the blocked solve
in :func:`solve_q2_sufficient_statistics`.  Moments computed over disjoint
row partitions merge by plain addition, which is what makes the sharded
engine (:mod:`repro.dbms.sharding`) exactly equivalent to the single-shot
paths.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from typing import Sequence

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
from ..queries.geometry import lp_distance_matrix, pairwise_lp_distance
from ..queries.query import Query, QueryAnswer
from .spatial_index import (
    GridIndex,
    batch_grid_cells_per_dimension,
    expand_ranges,
)
from .storage import SQLiteDataStore

__all__ = [
    "ExactQueryEngine",
    "ExecutionStatistics",
    "SingleQueryMixin",
    "Q2BatchSolution",
    "SegmentedBatchPipeline",
    "moment_column_count",
    "moment_products",
    "q1_sufficient_statistics_scan",
    "q2_sufficient_statistics_scan",
    "solve_q2_sufficient_statistics",
]

#: Cap on the number of float64 elements of one ``(chunk, n)`` distance
#: matrix in the unindexed batch path.  This is a cache-blocking parameter
#: as much as a memory cap: 256k elements keeps the per-chunk distance
#: matrix at ~2 MiB (and the broadcasted difference tensor behind it at a
#: few MiB), which measures ~2x faster on large scans than the previous
#: 64 MiB working sets that streamed through DRAM.
_BATCH_SCAN_ELEMENTS = 262_144

#: Relative eigenvalue threshold below which a query's centred Gram matrix
#: is treated as ill-conditioned and the query falls back to the dense
#: per-query OLS path.  The normal-equation solve carries a relative error
#: of roughly ``eps * cond(Gram)``, so capping the fast path at condition
#: 1e3 bounds its deviation from the SVD solver near 1e-13 relative — an
#: order of margin inside the 1e-12 budget the differential harness pins
#: across every engine pair (the previous 1e4 cap sat exactly at the
#: budget, and the harness's soak mode found batches straddling it).
#: Collinear or otherwise ill-conditioned subspaces are answered by the
#: dense SVD least-squares solver of :func:`q2_answer_from_rows` (ball-shaped
#: dNN selections sit at single-digit condition numbers, so the fallback is
#: rare in practice).
_GRAM_CONDITION_RTOL = 1e-3

#: Absolute floor of the centred Gram spectrum, relative to the uncentred
#: second-moment scale (``trace sum z z^T``).  The centred Gram is computed
#: as a difference of radius-scale second moments, so when a subspace is
#: exactly degenerate (all selected inputs identical, or confined to a
#: lower-dimensional manifold) every eigenvalue is pure cancellation noise
#: of order ``eps * scale`` — the *relative* condition test above cannot see
#: that, because the noise eigenvalues are all tiny together.  Anything
#: below 1e-10 of the moment scale is noise, not variance (legitimate
#: selections have input spread comparable to the query radius, putting
#: their smallest eigenvalue many orders above this floor); such queries go
#: to the dense SVD fallback, which resolves the degeneracy with exact
#: minimum-norm semantics.  Found by the randomized differential harness
#: (`tests/test_engine_differential.py`, degenerate d=1 layouts).
_GRAM_SCALE_RTOL = 1e-10


@dataclass
class ExecutionStatistics:
    """Cumulative execution statistics of an exact engine.

    Only O(1) running aggregates are kept (count, sums, min/max of the
    per-query latency); recording a query stream of any length costs
    constant memory.
    """

    queries_executed: int = 0
    rows_scanned: int = 0
    rows_selected: int = 0
    total_seconds: float = 0.0
    min_query_seconds: float = math.inf
    max_query_seconds: float = 0.0

    def record_batch(
        self, count: int, scanned: int, selected: int, seconds: float
    ) -> None:
        """Add one batched execution's counters.

        The per-query latency of a batch is the amortised share of the batch
        wall-clock time, so :attr:`mean_seconds` stays comparable across
        batch sizes (a single-query call records a batch of one).
        """
        if count <= 0:
            return
        amortised = seconds / count
        self.queries_executed += count
        self.rows_scanned += scanned
        self.rows_selected += selected
        self.total_seconds += seconds
        self.min_query_seconds = min(self.min_query_seconds, amortised)
        self.max_query_seconds = max(self.max_query_seconds, amortised)

    @property
    def mean_seconds(self) -> float:
        """Average per-query execution time in seconds (0 when unused)."""
        if self.queries_executed == 0:
            return 0.0
        return self.total_seconds / self.queries_executed

    @property
    def min_seconds(self) -> float:
        """Smallest (amortised) per-query latency seen (0 when unused)."""
        if self.queries_executed == 0:
            return 0.0
        return self.min_query_seconds

    @property
    def max_seconds(self) -> float:
        """Largest (amortised) per-query latency seen (0 when unused)."""
        return self.max_query_seconds

    def merge(self, other: "ExecutionStatistics") -> None:
        """Fold another statistics object into this one.

        Counters add, latency extrema combine — the aggregation a serving
        layer uses to mirror per-table engine statistics into one
        service-wide view without touching the engines' own records.
        """
        self.queries_executed += other.queries_executed
        self.rows_scanned += other.rows_scanned
        self.rows_selected += other.rows_selected
        self.total_seconds += other.total_seconds
        self.min_query_seconds = min(self.min_query_seconds, other.min_query_seconds)
        self.max_query_seconds = max(self.max_query_seconds, other.max_query_seconds)

    def snapshot(self) -> "ExecutionStatistics":
        """Return an independent copy of the current counters."""
        return ExecutionStatistics(
            queries_executed=self.queries_executed,
            rows_scanned=self.rows_scanned,
            rows_selected=self.rows_selected,
            total_seconds=self.total_seconds,
            min_query_seconds=self.min_query_seconds,
            max_query_seconds=self.max_query_seconds,
        )

    def reset(self) -> None:
        """Clear all counters."""
        self.queries_executed = 0
        self.rows_scanned = 0
        self.rows_selected = 0
        self.total_seconds = 0.0
        self.min_query_seconds = math.inf
        self.max_query_seconds = 0.0


# --------------------------------------------------------------------------- #
# sufficient-statistics kernels (shared with the sharded engine)
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
        eigenvalues = np.linalg.eigvalsh(gram_c[solvable])
        smallest, largest = eigenvalues[:, 0], eigenvalues[:, -1]
        # ``sum_a sum z_a^2``: the uncentred moment scale anchoring the
        # absolute degeneracy floor (see _GRAM_SCALE_RTOL).
        scale = np.einsum("ijj->i", gram[solvable])
        ill = (
            (largest <= 0.0)
            | (largest <= _GRAM_SCALE_RTOL * scale)
            | (smallest <= _GRAM_CONDITION_RTOL * largest)
        )
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


def _validate_batch_queries(
    queries: Sequence[Query], on_empty: str, dimension: int
) -> list[Query]:
    """Shared batch validation of the exact engines (single and sharded)."""
    if on_empty not in ("raise", "null"):
        raise ConfigurationError(
            f"on_empty must be 'raise' or 'null', got {on_empty!r}"
        )
    batch = list(queries)
    for query in batch:
        if query.dimension != dimension:
            raise StorageError(
                f"query has dimension {query.dimension} but the dataset has "
                f"{dimension}"
            )
    return batch


def _raise_on_empty_answers(
    batch: list[Query],
    answers: list[QueryAnswer | None],
    on_empty: str,
    label: str,
) -> None:
    """Shared ``on_empty="raise"`` contract of the exact engines."""
    if on_empty != "raise":
        return
    for position, answer in enumerate(answers):
        if answer is None:
            raise EmptySubspaceError(
                f"query {batch[position]!r} selected no rows; its {label} "
                "answer is undefined"
            )


def q2_answer_from_rows(inputs: np.ndarray, outputs: np.ndarray) -> QueryAnswer:
    """Exact Q2 answer over materialised rows (the dense SVD path).

    This is the per-query solver every batched path falls back to for
    rank-deficient or ill-conditioned subspaces, shared so the single and
    sharded engines cannot drift apart in fallback semantics.
    """
    regressor = OLSRegressor().fit(inputs, outputs)
    return QueryAnswer(
        mean=float(np.mean(outputs)),
        cardinality=int(outputs.size),
        coefficients=regressor.coefficients,
        r_squared=regressor.r_squared(inputs, outputs),
    )


def _fill_q1_answers(
    answers: list[QueryAnswer | None],
    group: np.ndarray,
    counts: np.ndarray,
    sums: np.ndarray,
) -> None:
    """Turn merged Q1 statistics of one norm group into ``QueryAnswer``s.

    Shared by the single and sharded engines so the empty-query skip and
    the mean/cardinality construction cannot drift apart.
    """
    for local, position in enumerate(group):
        if counts[local]:
            answers[int(position)] = QueryAnswer(
                mean=float(sums[local] / counts[local]),
                cardinality=int(counts[local]),
            )


def _fill_q2_answers(
    answers: list[QueryAnswer | None],
    group: np.ndarray,
    counts: np.ndarray,
    solution: "Q2BatchSolution",
    fallback_positions: list[int],
) -> None:
    """Turn one norm group's blocked-OLS solution into ``QueryAnswer``s.

    Empty queries stay ``None``; flagged queries are collected into
    ``fallback_positions`` for the caller's dense re-solve.  Shared by the
    single and sharded engines.
    """
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
    aggregate tables — so the same machinery serves both the single engine
    (over the whole table) and every shard of the sharded engine (over the
    shard's row range).  Statistics of disjoint row sets merge by plain
    addition, exactly like the scan kernels'.

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


class SingleQueryMixin:
    """Single-query conveniences of the exact engines: batches of one.

    The engine class supplies ``execute_q1_batch`` / ``execute_q2_batch``.
    Each call here runs through them, so it returns bit for bit the batch
    answer, raises :class:`~repro.exceptions.EmptySubspaceError` on an
    empty subspace, and is counted in the engine statistics as a batch of
    one.
    """

    def execute_q1(self, query: Query) -> QueryAnswer:
        """Execute an exact mean-value query (Definition 4)."""
        return _only_answer(self.execute_q1_batch([query]))

    def execute_q2(self, query: Query) -> QueryAnswer:
        """Execute an exact regression query: OLS over the selected subspace."""
        return _only_answer(self.execute_q2_batch([query]))

    def mean_value(self, query: Query) -> float:
        """Convenience oracle used by training streams: the Q1 scalar answer."""
        return self.execute_q1(query).mean


def _only_answer(answers: list[QueryAnswer | None]) -> QueryAnswer:
    """The answer of a batch of one run with ``on_empty="raise"``."""
    if len(answers) != 1 or answers[0] is None:
        raise InternalInvariantError("a batch of one returned no single answer")
    return answers[0]


class ExactQueryEngine(SingleQueryMixin):
    """Execute exact Q1 and Q2 queries against a dataset.

    The engine answers every query through its batch entry points, in one
    of two modes:

    * through the segmented pipeline over a fine grid index
      (``use_index=True``, default), or
    * by a chunked full distance scan (``use_index=False``).

    :meth:`from_store` builds the engine over a table of a
    :class:`~repro.dbms.storage.SQLiteDataStore`.
    """

    #: Whether the batch entry points accept a call-scoped ``route=``
    #: argument (the single-engine pipeline has no scan/indexed router, so
    #: callers like the serving layer must not forward one).
    supports_route = False

    def __init__(self, dataset: SyntheticDataset, *, use_index: bool = True) -> None:
        self._dataset = dataset
        self._inputs = dataset.inputs
        self._outputs = dataset.outputs
        self._pipeline: SegmentedBatchPipeline | None = None
        if use_index:
            self._pipeline = SegmentedBatchPipeline(self._inputs, self._outputs)
        self.statistics = ExecutionStatistics()

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_store(
        cls, store: SQLiteDataStore, table_name: str, *, use_index: bool = True
    ) -> "ExactQueryEngine":
        """Build an engine over a table stored in a SQLite data store."""
        dataset = store.load_as_dataset(table_name)
        return cls(dataset, use_index=use_index)

    @property
    def dataset(self) -> SyntheticDataset:
        return self._dataset

    @property
    def dimension(self) -> int:
        return self._dataset.dimension

    @property
    def size(self) -> int:
        return self._dataset.size

    # ------------------------------------------------------------------ #
    # selection
    # ------------------------------------------------------------------ #
    def _select(self, query: Query) -> tuple[np.ndarray, int]:
        """``(ascending selected row ids, rows scanned)`` of one query."""
        if self._pipeline is not None:
            return self._pipeline.select_rows(
                query.center, query.radius, query.norm_order
            )
        distances = pairwise_lp_distance(self._inputs, query.center, p=query.norm_order)
        return np.nonzero(distances <= query.radius)[0], self.size

    def select_subspace(self, query: Query) -> tuple[np.ndarray, np.ndarray]:
        """Return the ``(inputs, outputs)`` of the rows inside ``D(x, theta)``.

        Rows come in ascending row-id order; an empty subspace gives empty
        arrays.
        """
        self._validate_batch([query], "raise")
        start = time.perf_counter()
        rows, scanned = self._select(query)
        elapsed = time.perf_counter() - start
        self.statistics.record_batch(1, scanned, int(rows.size), elapsed)
        return self._inputs[rows], self._outputs[rows]

    def cardinality(self, query: Query) -> int:
        """Return ``n_theta(x)``: the number of rows inside the subspace."""
        answer = self.execute_q1_batch([query], on_empty="null")[0]
        return 0 if answer is None else answer.cardinality

    # ------------------------------------------------------------------ #
    # batched execution
    # ------------------------------------------------------------------ #
    def _validate_batch(
        self, queries: Sequence[Query], on_empty: str
    ) -> list[Query]:
        return _validate_batch_queries(queries, on_empty, self.dimension)

    def execute_q1_batch(
        self, queries: Sequence[Query], *, on_empty: str = "raise"
    ) -> list[QueryAnswer | None]:
        """Execute many exact Q1 queries in one pass, amortising overheads.

        With a grid index the whole batch is answered by the segmented
        candidate pipeline: one vectorised candidate-range generation, one
        exact Lp membership test over all candidates, and per-query segment
        sums.  Without an index the batch is answered by chunked ``(m, n)``
        distance-matrix arithmetic.  Either way there is no per-query
        Python loop, and a query's answer does not depend on the rest of
        its batch.

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
        start = time.perf_counter()
        answers: list[QueryAnswer | None] = [None] * len(batch)
        centers = np.array([query.center for query in batch])
        radii = np.array([query.radius for query in batch])
        scanned = 0
        selected = 0
        for order, group in _group_by_norm_order(batch):
            group_centers = centers[group]
            group_radii = radii[group]
            if self._pipeline is not None:
                counts, sums, scanned_group = self._pipeline.segment_statistics(
                    group_centers, group_radii, order, kind="q1"
                )
                sums = sums[:, 0]
                scanned += scanned_group
            else:
                counts, sums = q1_sufficient_statistics_scan(
                    self._inputs, self._outputs, group_centers, group_radii, p=order
                )
                scanned += group.size * self.size
            selected += int(counts.sum())
            _fill_q1_answers(answers, group, counts, sums)
        elapsed = time.perf_counter() - start
        self.statistics.record_batch(len(batch), scanned, selected, elapsed)
        self._raise_on_empty(batch, answers, on_empty, "Q1")
        return answers

    def execute_q2_batch(
        self, queries: Sequence[Query], *, on_empty: str = "raise"
    ) -> list[QueryAnswer | None]:
        """Execute many exact Q2 (regression) queries in one pass.

        The batch is reduced to per-query Q2 sufficient statistics — via the
        segmented index pipeline or, without an index, the chunked scan
        kernel — and every well-conditioned query is solved by the blocked
        OLS of :func:`solve_q2_sufficient_statistics` (one batched ``(d, d)``
        solve for the whole batch).  Queries with rank-deficient or
        near-singular subspaces fall back to the dense per-query least-squares
        solver over the query's selected rows, keeping its minimum-norm
        semantics.

        ``on_empty`` behaves exactly as in :meth:`execute_q1_batch`.
        """
        batch = self._validate_batch(queries, on_empty)
        if not batch:
            return []
        start = time.perf_counter()
        answers: list[QueryAnswer | None] = [None] * len(batch)
        centers = np.array([query.center for query in batch])
        radii = np.array([query.radius for query in batch])
        scanned = 0
        selected = 0
        fallback_positions: list[int] = []
        for order, group in _group_by_norm_order(batch):
            group_centers = centers[group]
            group_radii = radii[group]
            if self._pipeline is not None:
                counts, moments, scanned_group = self._pipeline.segment_statistics(
                    group_centers, group_radii, order, kind="q2"
                )
                scanned += scanned_group
            else:
                counts, moments = q2_sufficient_statistics_scan(
                    self._inputs,
                    self._outputs,
                    group_centers,
                    group_radii,
                    p=order,
                )
                scanned += group.size * self.size
            selected += int(counts.sum())
            solution = solve_q2_sufficient_statistics(counts, moments, group_centers)
            _fill_q2_answers(answers, group, counts, solution, fallback_positions)
        for position in fallback_positions:
            answer, fallback_scanned = self._execute_q2_dense(batch[position])
            answers[position] = answer
            scanned += fallback_scanned
        elapsed = time.perf_counter() - start
        self.statistics.record_batch(len(batch), scanned, selected, elapsed)
        self._raise_on_empty(batch, answers, on_empty, "Q2")
        return answers

    def _execute_q2_dense(self, query: Query) -> tuple[QueryAnswer, int]:
        """Per-query Q2 fallback; returns ``(answer, rows scanned)``."""
        rows, scanned = self._select(query)
        return q2_answer_from_rows(self._inputs[rows], self._outputs[rows]), scanned

    _raise_on_empty = staticmethod(_raise_on_empty_answers)
