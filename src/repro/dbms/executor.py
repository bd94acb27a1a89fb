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
row sets merge by plain addition, which is how a query's boundary rows and
its inner-cell runs combine.

Kernel
------
The engine runs one kernel over the whole table, inline in the calling
thread.  It is a segmented pipeline over a cell-clustered fine grid
(:class:`SegmentedBatchPipeline`, its grid built on the first batch):
candidate ranges from one vectorised grid pass whose range ends are reads
of a dense directory over the grid's cell ids, cells certified inside the
ball summed run by run from two rows of a compensated prefix table
(translated to the query center once per run for Q2), and exact row tests
only on boundary cells, gathered from a ``(d, n)`` column copy of the
clustered inputs.  Served traffic gets its parallelism from the concurrent
front's flush pool (:class:`~repro.dbms.concurrent.ConcurrencyPolicy`
``max_workers``), which runs independent batches at once.

Rank-deficient or ill-conditioned subspaces fall back to the dense
per-query OLS over the query's selected rows, keeping the exact
minimum-norm semantics.

Chunks
------
A batch's working set grows with its boundary rows, nearly every row of
the table for balls that cover the domain at high ``d``.  So the pipeline
splits a batch, before the range pass, into query chunks of about
``_CHUNK_BOUNDARY_ROWS`` estimated boundary rows and runs them in turn:
peak memory follows the chunk, not the batch, as in vectorised engines
(Boncz et al., "MonetDB/X100", CIDR 2005).  A query's totals are segment
sums over its own runs and rows, so the split changes no answer and no
counter, and a query's answer does not depend on the rest of its batch.
"""

from __future__ import annotations

import functools
import math
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
from ..queries.query import Query, QueryAnswer, group_by_norm_order
from .spatial_index import (
    GridIndex,
    batch_grid_cells_per_dimension,
    expand_ranges,
)
from .storage import SQLiteDataStore, require_finite_rows

__all__ = [
    "ExactQueryEngine",
    "ExecutionStatistics",
    "Q2BatchSolution",
    "SegmentedBatchPipeline",
    "moment_column_count",
    "moment_products",
    "solve_q2_sufficient_statistics",
]

#: Estimated boundary rows of one query chunk of a batch (see
#: :meth:`SegmentedBatchPipeline.segment_statistics`).  A boundary row costs
#: its ``d`` deltas and, for Q2, its moment products, so at ``d = 8`` a
#: chunk's working set stays near 100 MiB however wide its balls are;
#: chunks below this size buy no memory and pay per-chunk NumPy calls.
_CHUNK_BOUNDARY_ROWS = 1 << 18

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
    """Number of Q2 moments for ``d`` input attributes.

    Layout (in order): ``z_1..z_d``, ``y``, ``y^2``, ``z_1 y..z_d y``, then
    the upper triangle of ``z z^T`` row-major — where ``z = x - c`` is the
    input *relative to the query center*.
    Referencing every moment to the query's own center keeps the
    accumulated sums at the scale of the subspace radius, so recovering the
    centred Gram system never subtracts two large near-equal numbers (the
    cancellation that would otherwise cost ~``(|x| / theta)^2`` digits).
    The reference is a property of the query, not of the rows, so a query's
    moments over disjoint row sets (its boundary rows and its inner-cell
    runs) still merge by plain addition.
    """
    return 2 * dimension + 2 + dimension * (dimension + 1) // 2


def moment_products(deltas: np.ndarray, outputs: np.ndarray) -> np.ndarray:
    """Q2 moments of each selected row, column-major (layout above).

    ``deltas`` is ``(d, N)``: column ``i`` holds the inputs of the ``i``-th
    selected (query, row) pair minus that query's center; ``outputs`` holds
    the ``N`` rows' outputs.  Returns the ``(width, N)`` moments, one
    column per pair, so that per-query sums reduce along the last axis.
    """
    dimension, rows = deltas.shape
    products = np.empty((moment_column_count(dimension), rows), dtype=float)
    products[:dimension] = deltas
    products[dimension] = outputs
    np.multiply(outputs, outputs, out=products[dimension + 1])
    np.multiply(deltas, outputs, out=products[dimension + 2 : 2 * dimension + 2])
    row = 2 * dimension + 2
    for a in range(dimension):
        np.multiply(deltas[a], deltas[a:], out=products[row : row + dimension - a])
        row += dimension - a
    return products


def _compensated_prefix_table(values: np.ndarray) -> np.ndarray:
    """Running sums of the rows of ``values``, with their rounding errors.

    Row ``i`` of the ``(n + 1, 2 k)`` result is ``[P_i, E_i]``: ``P_i`` is
    the sequential floating-point sum of the first ``i`` rows and ``E_i``
    the running sum of each step's exact rounding error (TwoSum: with
    ``s = a + b`` and ``bb = s - a``, the error is
    ``(a - (s - bb)) + (b - bb)``).  Rows ``[a, b)`` then sum to
    ``(P_b - P_a) + (E_b - E_a)``.  Without ``E`` that difference would
    carry the rounding error of the whole prefix, losing digits in
    proportion to the prefix over the run; with it a run's sum is as
    accurate as summing its rows directly (the range-sum-as-difference
    idea of Ho et al., "Range Queries in OLAP Data Cubes", SIGMOD 1997).
    """
    count, width = values.shape
    table = np.zeros((count + 1, 2 * width), dtype=float)
    running, errors = table[:, :width], table[1:, width:]
    np.cumsum(values, axis=0, out=running[1:])
    before, after = running[:-1], running[1:]
    # Each step's TwoSum error, built in place in the E columns.
    np.subtract(after, before, out=errors)
    partial = after - errors
    np.subtract(before, partial, out=partial)
    np.subtract(values, errors, out=errors)
    errors += partial
    np.cumsum(errors, axis=0, out=errors)
    return table


def _range_sums(table: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Sums of the value rows ``[start, end)`` from a compensated prefix table."""
    difference = table.take(ends, axis=0) - table.take(starts, axis=0)
    width = table.shape[1] // 2
    return difference[:, :width] + difference[:, width:]


def _cell_references(
    grid: GridIndex, cells: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Q2 reference points of occupied cells, their ``j``, and the ``j`` step.

    A cell's Q2 moments are taken about its grid center along the leading
    dimensions and about ``base + j step`` along the last, where ``j`` is
    its last-dimension grid index.  ``base`` and ``step`` are that
    dimension's first cell center and cell width rounded to a common
    power-of-two quantum fine enough that every ``base + j step`` is exact
    in float64.  So the references of one grid line differ by exactly
    ``(j - j0) step``, which :func:`_translate_runs` relies on; the grid's
    own rounded centers would put up to an ulp of the coordinates on every
    cell's shift (1e-13 for inputs near 1000, against radius-scale
    moments).
    """
    cells_per_dimension = grid.cells_per_dimension
    width = float(grid.cell_width[-1])
    origin = float(grid.cell_centers[0, -1]) - width * float(
        grid.cell_flats[0] % cells_per_dimension
    )
    quantum = math.ulp(2.0 * (abs(origin) + cells_per_dimension * width))
    base = round(origin / quantum) * quantum
    step = round(width / quantum) * quantum
    index = (grid.cell_flats.take(cells) % cells_per_dimension).astype(float)
    references = grid.cell_centers.take(cells, axis=0)
    references[:, -1] = base + index * step
    return references, index, step


def _cell_values(
    kind: str, grid: GridIndex, columns: np.ndarray, outputs: np.ndarray
) -> np.ndarray:
    """One row of prefix-table values per occupied cell, in directory order.

    ``columns`` (``(d, n)``) and ``outputs`` are the grid's cell-clustered
    rows.  Rows are
    ``[count, sum_y]`` for ``kind="q1"``; for ``kind="q2"`` the cell's
    ``[count, <moment_products about its reference>]`` (see
    :func:`_cell_references`) followed by the ``j``-weighted columns
    ``j count``, ``j sum_y``, ``j m1`` and ``j^2 count`` that
    :func:`_translate_runs` needs (``m1`` the first moments).
    """
    offsets = grid.cell_row_offsets
    cell_counts = np.diff(offsets)
    if kind == "q1":
        values = np.empty((cell_counts.size, 2), dtype=float)
        values[:, 0] = cell_counts
        values[:, 1] = np.add.reduceat(outputs, offsets[:-1])
        return values
    d = columns.shape[0]
    width = moment_column_count(d)
    references, index, _ = _cell_references(grid, np.arange(cell_counts.size))
    products = moment_products(
        columns - np.repeat(references.T, cell_counts, axis=1), outputs
    )
    values = np.empty((cell_counts.size, 4 + width + d), dtype=float)
    values[:, 0] = cell_counts
    values[:, 1 : 1 + width] = np.add.reduceat(products, offsets[:-1], axis=1).T
    values[:, 1 + width : 3 + width + d] = (
        index[:, np.newaxis] * values[:, _j_weighted_columns(d)]
    )
    values[:, 3 + width + d] = index * values[:, 1 + width]
    return values


def _translate_runs(
    sums: np.ndarray,
    first_index: np.ndarray,
    shifts: np.ndarray,
    step: float,
) -> np.ndarray:
    """Re-reference the Q2 moments of inner-cell runs to their query centers.

    ``sums`` rows are one run's sums of the Q2 cell values (see
    :func:`_cell_values`): ``[n, m1, sum_y, sum_y^2, m_zy, M2]`` taken
    about each cell's reference ``t``, then ``j n``, ``j sum_y``, ``j m1``
    and ``j^2 n`` with ``j`` the cell's last-dimension grid index.
    ``first_index`` holds ``j0``, the run's first ``j``; ``shifts`` holds
    ``s0 = t0 - c``, its first cell's reference minus the query center.  A
    run lies in one grid line, so cell ``j`` of it sits at
    ``s = s0 + k step e_d`` with ``k = j - j0`` (see
    :func:`_cell_references`).  Summing the per-cell translation identities

    * ``sum (x - c) = m1 + n s``
    * ``sum (x - c) y = m_zy + s sum_y``
    * ``sum (x - c)(x - c)^T = M2 + s m1^T + m1 s^T + n s s^T``

    over the run therefore needs only the run's sums of ``n``, ``m1``,
    ``sum_y`` and of ``k n``, ``k sum_y``, ``k m1`` and ``k^2 n`` (each
    ``sum k f = sum j f - j0 sum f``): one translation per run, not per
    cell, and every term stays at the scale of the query radius.  Returns
    ``[n, <moment_products columns>]`` rows about the query centers.
    """
    runs, d = shifts.shape
    width = moment_column_count(d)
    last = d - 1
    m1 = sums[:, 1 : 1 + d]
    # [sum k n, sum k sum_y, sum k m1]; the count column is an exact
    # integer, the others carry one rounding each.
    k_sums = sums[:, 1 + width : 3 + width + d] - first_index[
        :, np.newaxis
    ] * sums.take(_j_weighted_columns(d), axis=1)
    k_n = k_sums[:, 0]
    # sum k^2 n = sum j^2 n - j0 (sum j n + sum k n), in exact integers.
    k2_n = sums[:, 3 + width + d] - first_index * (sums[:, 1 + width] + k_n)
    # sum n s and sum s sum_y.
    weighted = sums[:, [0, 1 + d], np.newaxis] * shifts[:, np.newaxis, :]
    weighted[:, :, last] += step * k_sums[:, :2]
    out = np.empty((runs, 1 + width), dtype=float)
    out[:, : 3 + d] = sums[:, : 3 + d]
    out[:, 1 : 1 + d] += weighted[:, 0]
    out[:, 3 + d : 3 + 2 * d] = sums[:, 3 + d : 3 + 2 * d] + weighted[:, 1]
    # sum s m1^T + m1 s^T + n s s^T = s0 m1^T + (sum z) s0^T plus the step
    # terms along e_d, where sum z = m1 + sum n s is the translated m1.
    outer = (
        shifts[:, :, np.newaxis] * m1[:, np.newaxis, :]
        + out[:, 1 : 1 + d, np.newaxis] * shifts[:, np.newaxis, :]
    )
    step_m1 = step * k_sums[:, 2:]
    outer[:, last, :] += step_m1
    outer[:, :, last] += step_m1 + (step * k_n)[:, np.newaxis] * shifts
    outer[:, last, last] += (step * step) * k2_n
    first, second = _gram_pairs(d)
    out[:, 3 + 2 * d :] = sums[:, 3 + 2 * d : 1 + width] + outer[:, first, second]
    return out


@functools.lru_cache(maxsize=None)
def _j_weighted_columns(dimension: int) -> np.ndarray:
    """Q2 cell-value columns ``n``, ``sum_y``, ``m1`` weighted by ``j``, in order."""
    return np.array([0, 1 + dimension, *range(1, 1 + dimension)])


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
    # slope^T gram_c slope as a fixed-order sum per row: the three-operand
    # einsum rounds differently with the batch size, so a query's R^2
    # would depend on the rest of its batch.
    quadratic = np.zeros(m, dtype=float)
    for a in range(d):
        for b in range(d):
            quadratic += slope[:, a] * gram_c[:, a, b] * slope[:, b]
    residual = tss - 2.0 * np.einsum("ij,ij->i", slope, cross_c) + quadratic
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


#: NumPy adds a row of fewer than this many terms left to right and a
#: longer one pairwise (``.sum(axis=1)``, as in
#: :func:`~repro.queries.geometry.pairwise_lp_distance`).
_PAIRWISE_SUM_TERMS = 8


def _lp_norms(deltas: np.ndarray, p: float) -> np.ndarray:
    """Lp norms of the columns of the ``(d, N)`` differences ``deltas``.

    The same elementwise formulation, and the same summation order, as the
    row sums of :func:`~repro.queries.geometry.pairwise_lp_distance` behind
    the brute-force oracle (:class:`~repro.testing.oracle.ExactOracle`), so
    the engine selects the oracle's rows bit for bit, ulp ties included.  Below
    ``_PAIRWISE_SUM_TERMS`` dimensions the ``d`` rows of terms are added
    left to right, as NumPy adds a short row; wider terms are summed by
    that same ``.sum(axis=1)`` over a row-major copy, since NumPy sums
    longer rows pairwise.
    """
    if math.isinf(p):
        return np.abs(deltas).max(axis=0)
    terms = deltas * deltas if p == 2.0 else np.abs(deltas)
    if p not in (1.0, 2.0):
        # A term past float64's range is inf: that row is outside the ball.
        with np.errstate(over="ignore"):
            np.power(terms, p, out=terms)
    if deltas.shape[0] >= _PAIRWISE_SUM_TERMS:
        total = np.ascontiguousarray(terms.T).sum(axis=1)
    else:
        total = terms[0]
        for row in terms[1:]:
            total += row
    if p == 2.0:
        return np.sqrt(total, out=total)
    if p == 1.0:
        return total
    return np.power(total, 1.0 / p, out=total)


def _clustered_columns(inputs: np.ndarray, order: np.ndarray) -> np.ndarray:
    """The ``(d, n)`` C-contiguous column copy of ``inputs[order]``."""
    columns = np.empty(inputs.shape[::-1], dtype=float)
    for k, column in enumerate(columns):
        inputs[:, k].take(order, out=column)
    return columns


class SegmentedBatchPipeline:
    """Segmented candidate-range + inner-run batch pipeline of one table.

    The engine's one kernel reduces a query batch to per-query sufficient
    statistics with one vectorised candidate-range pass over a fine,
    cell-clustered grid.  Cells certified fully inside a ball arrive as
    *runs* of consecutive occupied cells of one grid line; each run sums
    from two rows of a compensated prefix table over the occupied cells,
    so its cost does not grow with its cells, and for Q2 it is translated
    to the query center once.  Only boundary cells pay row-level exact Lp
    tests.  This class owns everything that pipeline needs about the rows
    it is given — the fine batch grid, the cell-clustered row copies, and
    the Q1 and Q2 prefix tables; :class:`ExactQueryEngine` holds one over
    its whole table.

    The cell-clustered inputs are kept column-wise, as one C-contiguous
    ``(d, n)`` copy (the decomposition storage model of Copeland &
    Khoshafian, SIGMOD 1985): a boundary row test gathers the ``d`` input
    rows of its candidates into ``(d, N)`` deltas, adds the ``d`` rows of
    Lp terms (see :func:`_lp_norms`), and builds the Q2 moments
    column-major, with no narrow ``(N, d)`` array and no per-row
    reduction.

    The grid, the clustered rows and each prefix table are built once, on
    first use, under one build lock; queries read them without locking.

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
        self._prefix_tables: dict[str, np.ndarray] = {}

    @property
    def size(self) -> int:
        return int(self._inputs.shape[0])

    @property
    def dimension(self) -> int:
        return int(self._inputs.shape[1])

    @property
    def grid(self) -> GridIndex:
        """The fine batch grid (lazy: built on the first query).

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
        """Cell-clustered ``(d, n)`` input columns and ``(n,)`` outputs (lazy)."""
        clustered = self._clustered
        if clustered is None:
            order = self.grid.clustered_order
            with self._build_lock:
                if self._clustered is None:
                    self._clustered = (
                        _clustered_columns(self._inputs, order),
                        self._outputs[order],
                    )
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
        # The query was checked once, at the engine; skip the grid's checks.
        qid, starts, ends, _, _, _ = grid._ranges_batch(  # noqa: SLF001
            center[np.newaxis, :], np.array([radius]), p, classify=False
        )
        positions, _ = expand_ranges(qid, starts, ends)
        columns, _ = self._clustered_arrays()
        deltas = columns.take(positions, axis=1) - center[:, np.newaxis]
        inside = _lp_norms(deltas, p) <= radius
        rows = np.sort(grid.clustered_order.take(positions.compress(inside)))
        return rows, int(positions.size)

    def _prefix_table(self, kind: str) -> np.ndarray:
        """The kind's compensated prefix table (lazy, one-time build).

        :func:`_compensated_prefix_table` over the :func:`_cell_values` of
        the occupied cells: a run of inner cells then sums from two table
        rows, whatever its length.
        """
        table = self._prefix_tables.get(kind)
        if table is not None:
            return table
        grid = self.grid
        columns, clustered_outputs = self._clustered_arrays()
        with self._build_lock:
            table = self._prefix_tables.get(kind)
            if table is None:
                table = _compensated_prefix_table(
                    _cell_values(kind, grid, columns, clustered_outputs)
                )
                self._prefix_tables[kind] = table
        return table

    @staticmethod
    def _segment_sums(
        values: np.ndarray, counts: np.ndarray, out: np.ndarray
    ) -> None:
        """Add per-query segment sums of ``values``' columns into ``out``'s rows.

        ``values`` is ``(width, N)``, ``N > 0``, its columns grouped by
        query in ascending query order, ``counts[q]`` of them for query
        ``q``.
        """
        nonempty = counts > 0
        segment_offsets = (counts.cumsum() - counts)[nonempty]
        out[nonempty] += np.add.reduceat(values, segment_offsets, axis=1).T

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
        (:meth:`GridIndex.classified_ranges_batch`, whose range ends are
        reads of the grid's cell directory; the engine's queries are checked
        once per batch, so the pass skips the grid's own checks).  Cells
        certified fully inside the ball come as runs over the occupied-cell
        directory; each run's sums are the difference of two rows of the
        kind's prefix table (:meth:`_prefix_table`), translated to the query
        center once per run for Q2 (:func:`_translate_runs`).  Only the
        boundary cells' rows get the exact Lp membership test: the input
        columns are gathered at the candidate rows and the candidates' query
        centers subtracted, giving ``(d, N)`` deltas whose Lp norms
        (:func:`_lp_norms`) are compared with the radii, and the selected
        columns are compressed once.  Q1 then reduces the selected outputs
        and Q2 the ``(width, N)`` :func:`moment_products` of the selected
        deltas.  There is no per-query Python loop anywhere.

        The batch runs in query chunks of bounded estimated work (see
        :meth:`_chunk_bounds`), one range pass each.  A query's totals are
        segment reductions over its own runs and rows, so neither the
        chunks nor the rest of its batch change them.

        Returns ``(counts, sums, scanned)`` where ``sums`` is ``(m, 1)``
        output sums (``kind="q1"``) or the ``(m, width)``
        :func:`moment_products` column sums (``kind="q2"``).
        """
        bounds = self._chunk_bounds(centers, radii)
        parts = [
            self._chunk_statistics(centers[start:stop], radii[start:stop], p, kind)
            for start, stop in zip(bounds[:-1], bounds[1:])
        ]
        if len(parts) == 1:
            return parts[0]
        counts, sums, scanned = zip(*parts)
        return np.concatenate(counts), np.concatenate(sums), sum(scanned)

    def _chunk_bounds(self, centers: np.ndarray, radii: np.ndarray) -> list[int]:
        """Query offsets ``[0, ..., m]`` cutting a batch into bounded chunks.

        A query's boundary rows are estimated, before any range is built,
        as its :meth:`GridIndex.blocks_per_query` times two boundary cells
        per block times the grid's mean rows per cell.  A new chunk starts
        where the running sum of the estimates crosses a multiple of
        ``_CHUNK_BOUNDARY_ROWS``.  The per-query estimate is skipped when a
        bound over the widest ball fits the whole batch, as it does for the
        small batches that serving coalesces.
        """
        m = centers.shape[0]
        if m <= 1:
            return [0, m]
        grid = self.grid
        cells = grid.cells_per_dimension
        block_rows = 2.0 * grid.size / cells**grid.dimension
        # The widest ball's box has at most this many blocks; Python floats
        # keep the check to a few microseconds.
        span = 2.0 * float(radii.max())
        bound = m * block_rows
        for width in grid.cell_width[:-1].tolist():
            bound *= min(cells, span // width + 2.0)
        if bound <= _CHUNK_BOUNDARY_ROWS:
            return [0, m]
        estimates = grid.blocks_per_query(centers, radii) * block_rows
        chunks = (estimates.cumsum() - estimates) // _CHUNK_BOUNDARY_ROWS
        return [0, *(np.flatnonzero(np.diff(chunks)) + 1).tolist(), m]

    def _chunk_statistics(
        self, centers: np.ndarray, radii: np.ndarray, p: float, kind: str
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """:meth:`segment_statistics` of one chunk, in one range pass."""
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
        ) = grid._ranges_batch(centers, radii, p, classify=True)  # noqa: SLF001
        scanned = 0

        # Boundary cells: the exact membership test.
        if boundary_starts.size:
            positions, candidate_qid = expand_ranges(
                boundary_qid, boundary_starts, boundary_ends
            )
            scanned += positions.size
            columns, clustered_outputs = self._clustered_arrays()
            deltas = columns.take(positions, axis=1)
            np.subtract(deltas, centers.T.take(candidate_qid, axis=1), out=deltas)
            inside = _lp_norms(deltas, p) <= radii.take(candidate_qid)
            boundary_counts = np.bincount(candidate_qid.compress(inside), minlength=m)
            counts += boundary_counts
            selected_positions = positions.compress(inside)
            if selected_positions.size:
                selected_outputs = clustered_outputs.take(selected_positions)
                if kind == "q1":
                    values = selected_outputs[np.newaxis, :]
                else:
                    # The candidate deltas ARE the center-referenced ones;
                    # compressing them avoids a second gather.
                    values = moment_products(
                        deltas.compress(inside, axis=1), selected_outputs
                    )
                self._segment_sums(values, boundary_counts, sums)

        # Fully-inside cells: each run sums from two prefix-table rows, with
        # zero row-level work.
        if inner_cell_starts.size:
            run_sums = _range_sums(
                self._prefix_table(kind), inner_cell_starts, inner_cell_ends
            )
            if kind == "q2":
                references, first_index, step = _cell_references(
                    grid, inner_cell_starts
                )
                run_sums = _translate_runs(
                    run_sums, first_index, references - centers[inner_qid], step
                )
            run_counts = np.bincount(inner_qid, minlength=m)
            inner_totals = np.zeros((m, run_sums.shape[1]), dtype=float)
            self._segment_sums(run_sums.T, run_counts, inner_totals)
            inner_rows = inner_totals[:, 0]
            scanned += int(inner_rows.sum())
            counts += np.rint(inner_rows).astype(np.int64)
            sums += inner_totals[:, 1:]
        return counts, sums, scanned


class ExactQueryEngine:
    """Execute exact Q1 and Q2 queries against a dataset.

    Parameters
    ----------
    dataset:
        The dataset to query.

    A dataset with a non-finite input or output is refused with
    :class:`~repro.exceptions.StorageError` naming its first such row: exact
    answers over NaN or infinite values are undefined.

    The engine holds one :class:`SegmentedBatchPipeline` over the whole
    table and runs every batch through it (the module docstring describes
    its kernel and chunks).  It answers through the batch entry points
    (:meth:`execute_q1_batch` / :meth:`execute_q2_batch`); the single-query
    calls are batches of one.  :meth:`from_store` builds the engine over a
    table of a :class:`~repro.dbms.storage.SQLiteDataStore`.
    """

    def __init__(self, dataset: SyntheticDataset) -> None:
        require_finite_rows(
            dataset.inputs, dataset.outputs, f"dataset {dataset.name!r}"
        )
        self._dataset = dataset
        self._inputs = dataset.inputs
        self._outputs = dataset.outputs
        self._pipeline = SegmentedBatchPipeline(self._inputs, self._outputs)
        self.statistics = ExecutionStatistics()

    @classmethod
    def from_store(
        cls, store: SQLiteDataStore, table_name: str
    ) -> "ExactQueryEngine":
        """Build an engine over a stored table, its rows in rowid order."""
        return cls(store.load_as_dataset(table_name))

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
    # single queries: batches of one
    # ------------------------------------------------------------------ #
    def select_subspace(self, query: Query) -> tuple[np.ndarray, np.ndarray]:
        """Return the ``(inputs, outputs)`` of the rows inside ``D(x, theta)``.

        Rows come in ascending row-id order; an empty subspace gives empty
        arrays.
        """
        self._checked_batch([query], "raise")
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

    # ------------------------------------------------------------------ #
    # batched execution
    # ------------------------------------------------------------------ #
    def execute_q1_batch(
        self, queries: Sequence[Query], *, on_empty: str = "raise"
    ) -> list[QueryAnswer | None]:
        """Execute many exact Q1 queries in one pass, amortising overheads.

        The pipeline reduces the batch to per-query ``(count, sum)``, chunk
        by chunk: one vectorised candidate-range generation, one exact Lp
        membership test over the chunk's boundary candidates and per-query
        segment sums.  There is no per-query Python loop, and a query's
        answer does not depend on the rest of its batch.

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
        batch, centers, radii = self._checked_batch(queries, on_empty)
        if not batch:
            return []
        answers: list[QueryAnswer | None] = [None] * len(batch)
        scanned = 0
        selected = 0
        for order, group, (group_centers, group_radii) in group_by_norm_order(
            batch, centers, radii
        ):
            counts, sums, scanned_group = self._statistics(
                group_centers, group_radii, order, "q1"
            )
            scanned += scanned_group
            selected += int(counts.sum())
            # A query with no rows has sum 0; its mean is never read.
            means = sums / np.maximum(counts, 1)
            for position, count, mean in zip(
                group.tolist(), counts.tolist(), means.tolist()
            ):
                if count:
                    answers[position] = QueryAnswer(mean=mean, cardinality=count)
        self.statistics.record_batch(len(batch), scanned, selected)
        self._raise_on_empty(batch, answers, on_empty, "Q1")
        return answers

    def execute_q2_batch(
        self, queries: Sequence[Query], *, on_empty: str = "raise"
    ) -> list[QueryAnswer | None]:
        """Execute many exact Q2 (regression) queries in one pass.

        The batch is reduced to per-query Q2 sufficient statistics, and
        every well-conditioned query is solved by the
        blocked OLS of :func:`solve_q2_sufficient_statistics` (one batched
        ``(d, d)`` solve for the whole batch).  Queries with rank-deficient
        or near-singular subspaces fall back to the dense per-query
        least-squares solver of :class:`~repro.baselines.ols.OLSRegressor`
        over the query's selected rows, keeping its minimum-norm semantics.

        ``on_empty`` behaves exactly as in :meth:`execute_q1_batch`.
        """
        batch, centers, radii = self._checked_batch(queries, on_empty)
        if not batch:
            return []
        answers: list[QueryAnswer | None] = [None] * len(batch)
        scanned = 0
        selected = 0
        fallback_positions: list[int] = []
        for order, group, (group_centers, group_radii) in group_by_norm_order(
            batch, centers, radii
        ):
            counts, moments, scanned_group = self._statistics(
                group_centers, group_radii, order, "q2"
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
    def _checked_batch(
        self, queries: Sequence[Query], on_empty: str
    ) -> tuple[list[Query], np.ndarray, np.ndarray]:
        """The batch as a list, with its ``(m, d)`` centers and ``(m,)`` radii.

        Each :class:`Query` checked its own center and radius; the batch's
        dimension is checked once, on the stacked centers, and nothing
        downstream checks them again.
        """
        if on_empty not in ("raise", "null"):
            raise ConfigurationError(
                f"on_empty must be 'raise' or 'null', got {on_empty!r}"
            )
        batch = list(queries)
        try:
            centers = np.array([query.center for query in batch], dtype=float)
        except ValueError:  # centers of different lengths
            centers = np.empty((0, 0))
        if batch and centers.shape[1:] != (self.dimension,):
            query = next(q for q in batch if q.dimension != self.dimension)
            raise StorageError(
                f"query has dimension {query.dimension} but the dataset has "
                f"{self.dimension}"
            )
        return batch, centers, np.array([query.radius for query in batch])

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

    def _statistics(
        self, centers: np.ndarray, radii: np.ndarray, p: float, kind: str
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """``(counts, sums, scanned)`` of one (single-norm) batch.

        As :meth:`SegmentedBatchPipeline.segment_statistics` returns them,
        with Q1's ``sums`` flattened to ``(m,)``.
        """
        counts, sums, scanned = self._pipeline.segment_statistics(
            centers, radii, p, kind=kind
        )
        return counts, sums[:, 0] if kind == "q1" else sums, scanned

    def _select(self, query: Query) -> tuple[np.ndarray, int]:
        """``(ascending selected row ids, rows scanned)`` of one query.

        The pipeline selects through its grid's candidate ranges and the
        exact Lp test, the same test the batch kernel runs.
        """
        return self._pipeline.select_rows(
            query.center, query.radius, query.norm_order
        )
