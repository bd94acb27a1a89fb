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
only on boundary cells, gathered from a ``(d + 1, n)`` column copy of the
clustered inputs and outputs.  Served traffic gets its parallelism from
the concurrent front's flush pool
(:class:`~repro.dbms.concurrent.ConcurrencyPolicy` ``max_workers``), which
runs independent batches at once.

The kernel works column-at-a-time, as vectorised engines do (Boncz et al.,
"MonetDB/X100", CIDR 2005): every per-row or per-run quantity is one
contiguous array over the rows or runs of the batch, and a query owns one
segment of each.
* The boundary rows are expanded from their runs as positions only; each
  row's center and radius are its run's, repeated over the run, and each
  query's selected count is read off its candidate segment.  No per-row
  query id exists.
* The inner runs' prefix-table sums are transposed once to ``(k, runs)``,
  so each term of the Q2 translation (:func:`_translate_runs`) is a 1-D
  operation over the runs and the per-query segment sums reduce along a
  contiguous axis.  Each occupied cell's Q2 reference point and
  last-dimension index are tabulated once, beside the Q2 prefix table.
* The blocked solve builds each query's centred system in one row and
  checks, solves and scores every query of the batch in a fixed number of
  calls (:func:`solve_q2_sufficient_statistics`).

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

    Four running totals, so recording a query stream of any length costs
    constant memory: queries executed; rows scanned, every row a query
    accounted for; rows tested, the boundary rows among them that took the
    exact Lp test (the rest are inner-run rows summed from prefix tables);
    and rows selected.
    """

    queries_executed: int = 0
    rows_scanned: int = 0
    rows_selected: int = 0
    rows_tested: int = 0

    def record_batch(
        self, count: int, scanned: int, selected: int, tested: int = 0
    ) -> None:
        """Add one batch's counters (a single-query call is a batch of one)."""
        self.queries_executed += count
        self.rows_scanned += scanned
        self.rows_selected += selected
        self.rows_tested += tested


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
    return _fill_moment_products(products, dimension)


def _fill_moment_products(products: np.ndarray, dimension: int) -> np.ndarray:
    """Fill the moment rows past ``d + 1`` from the deltas and outputs above them."""
    deltas, outputs = products[:dimension], products[dimension]
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
    """Sums of the value rows ``[start, end)`` from a compensated prefix table.

    The run ends come from the grid's cell directory, so they are in range
    by construction: ``mode="clip"`` only skips the per-index range check.
    """
    difference = table.take(ends, axis=0, mode="clip") - table.take(
        starts, axis=0, mode="clip"
    )
    width = table.shape[1] // 2
    return difference[:, :width] + difference[:, width:]


def _cell_references(grid: GridIndex) -> tuple[np.ndarray, float]:
    """Q2 reference points of the occupied cells, their ``j``, and the ``j`` step.

    Returns a ``(d + 1, C)`` table, one column per occupied cell: rows
    ``0..d-1`` its reference point and row ``d`` its last-dimension grid
    index ``j`` (as a float); and the step.  A cell's Q2 moments are taken
    about its grid center along the leading dimensions and about
    ``base + j step`` along the last.  ``base`` and ``step`` are that
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
    centers = grid.cell_centers
    cells = np.empty((centers.shape[1] + 1, centers.shape[0]), dtype=float)
    cells[:-1] = centers.T
    index = cells[-1]
    np.remainder(grid.cell_flats, cells_per_dimension, out=index, casting="unsafe")
    cells[-2] = base + index * step
    return cells, step


def _cell_values(
    kind: str,
    grid: GridIndex,
    columns: np.ndarray,
    outputs: np.ndarray,
    references: np.ndarray | None = None,
) -> np.ndarray:
    """One row of prefix-table values per occupied cell, in directory order.

    ``columns`` (``(d, n)``) and ``outputs`` are the grid's cell-clustered
    rows.  Rows are
    ``[count, sum_y]`` for ``kind="q1"``; for ``kind="q2"`` the cell's
    ``[count, <moment_products about its reference>]`` (``references`` is
    the cell table of :func:`_cell_references`) followed by the ``j``-weighted
    columns ``j count``, ``j sum_y``, ``j m1`` and ``j^2 count`` that
    :func:`_translate_runs` needs (``m1`` the first moments).
    """
    offsets = grid.cell_row_offsets
    cell_counts = np.diff(offsets)
    if kind == "q1":
        values = np.empty((cell_counts.size, 2), dtype=float)
        values[:, 0] = cell_counts
        values[:, 1] = np.add.reduceat(outputs, offsets[:-1])
        return values
    if references is None:
        raise InternalInvariantError("Q2 cell values need the cell references")
    d = columns.shape[0]
    points, index = references[:d], references[d]
    width = moment_column_count(d)
    products = moment_products(
        columns - np.repeat(points, cell_counts, axis=1), outputs
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

    Every array is column-per-run, so each term below is a 1-D operation
    over the runs.  ``sums`` is ``(k, runs)``: column ``r`` holds run
    ``r``'s sums of the Q2 cell values (see :func:`_cell_values`),
    ``[n, m1, sum_y, sum_y^2, m_zy, M2]`` taken about each cell's reference
    ``t``, then ``j n``, ``j sum_y``, ``j m1`` and ``j^2 n`` with ``j`` the
    cell's last-dimension grid index.  ``first_index`` holds ``j0``, the
    run's first ``j``; ``shifts`` (``(d, runs)``) holds ``s0 = t0 - c``,
    its first cell's reference minus the query center.  A run lies in one
    grid line, so cell ``j`` of it sits at ``s = s0 + k step e_d`` with
    ``k = j - j0`` (see :func:`_cell_references`).  Summing the per-cell
    translation identities

    * ``sum (x - c) = m1 + n s``
    * ``sum (x - c) y = m_zy + s sum_y``
    * ``sum (x - c)(x - c)^T = M2 + s m1^T + m1 s^T + n s s^T``

    over the run therefore needs only the run's sums of ``n``, ``m1``,
    ``sum_y`` and of ``k n``, ``k sum_y``, ``k m1`` and ``k^2 n`` (each
    ``sum k f = sum j f - j0 sum f``): one translation per run, not per
    cell, and every term stays at the scale of the query radius.  Returns
    the ``(1 + width, runs)`` ``[n, <moment_products rows>]`` about the
    query centers.
    """
    d, runs = shifts.shape
    width = moment_column_count(d)
    last = d - 1
    m1 = sums[1 : 1 + d]
    # [sum k n, sum k sum_y, sum k m1]; the count row is an exact integer,
    # the others carry one rounding each.
    k_sums = sums[1 + width : 3 + width + d] - first_index * sums.take(
        _j_weighted_columns(d), axis=0
    )
    k_n = k_sums[0]
    # sum k^2 n = sum j^2 n - j0 (sum j n + sum k n), in exact integers.
    k2_n = sums[3 + width + d] - first_index * (sums[1 + width] + k_n)
    # sum n s and sum s sum_y.
    weighted = sums[[0, 1 + d], np.newaxis] * shifts
    weighted[:, last] += step * k_sums[:2]
    out = np.empty((1 + width, runs), dtype=float)
    out[: 3 + d] = sums[: 3 + d]
    out[1 : 1 + d] += weighted[0]
    np.add(sums[3 + d : 3 + 2 * d], weighted[1], out=out[3 + d : 3 + 2 * d])
    # sum s m1^T + m1 s^T + n s s^T = s0 m1^T + (sum z) s0^T plus the step
    # terms along e_d, where sum z = m1 + sum n s is the translated m1.
    outer = shifts[:, np.newaxis] * m1 + out[1 : 1 + d, np.newaxis] * shifts
    step_m1 = step * k_sums[2:]
    outer[last] += step_m1
    outer[:, last] += step_m1 + (step * k_n) * shifts
    outer[last, last] += (step * step) * k2_n
    first, second = _gram_pairs(d)
    np.add(sums[3 + 2 * d : 1 + width], outer[first, second], out=out[3 + 2 * d :])
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


@functools.lru_cache(maxsize=None)
def _gram_columns(dimension: int) -> np.ndarray:
    """Moment column of each entry of the ``(d, d)`` Gram matrix, row-major."""
    first, second = _gram_pairs(dimension)
    pairs = np.empty((dimension, dimension), dtype=np.intp)
    pairs[first, second] = pairs[second, first] = np.arange(first.size)
    return (2 * dimension + 2 + pairs).ravel()


@functools.lru_cache(maxsize=None)
def _centred_columns(dimension: int) -> np.ndarray:
    """Moment columns ``sum z y`` then ``sum y^2``: the centred cross terms."""
    return np.array([*range(dimension + 2, 2 * dimension + 2), dimension + 1])


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
    gram = moments.take(_gram_columns(d), axis=1).reshape(m, d, d)
    weight = np.maximum(counts, 1.0)
    means = moments[:, : d + 1] / weight[:, np.newaxis]
    z_bar, y_bar = means[:, :d], means[:, d]

    # The centred system [gram_c, cross_c, tss] of each query, in one row:
    # gram_c = gram - w z_bar z_bar^T, and [cross_c, tss] =
    # [sum_zy, sum_yy] - w [z_bar, y_bar] y_bar.
    system = np.empty((m, d * d + d + 1), dtype=float)
    gram_c = system[:, : d * d].reshape(m, d, d)
    np.multiply(z_bar[:, :, np.newaxis], z_bar[:, np.newaxis, :], out=gram_c)
    gram_c *= weight[:, np.newaxis, np.newaxis]
    np.subtract(gram, gram_c, out=gram_c)
    centred = system[:, d * d :]
    np.multiply(weight[:, np.newaxis], means, out=centred)
    centred *= y_bar[:, np.newaxis]
    np.subtract(moments.take(_centred_columns(d), axis=1), centred, out=centred)
    cross_c, tss = centred[:, :d], centred[:, d]

    # Under- or exactly-determined systems go to the dense solver: they have
    # no averaging redundancy, so the per-query SVD path's minimum-norm
    # semantics (and its conditioning) must be preserved verbatim.  So do
    # systems with a non-finite entry and ill-conditioned ones.
    solvable = (counts > d + 1) & np.isfinite(system).all(axis=1)
    if solvable.any():
        smallest = np.linalg.eigvalsh(gram_c[solvable])[:, 0]
        # ``sum_a sum z_a^2``: the uncentred moment scale the centred Gram's
        # cancellation error is relative to (see _GRAM_CONDITION_RTOL).
        scale = np.einsum("ijj->i", gram[solvable])
        solvable[solvable] = ~(smallest <= _GRAM_CONDITION_RTOL * scale)

    coefficients = np.zeros((m, d + 1), dtype=float)
    slope = coefficients[:, 1:]
    if solvable.any():
        slope[solvable] = np.linalg.solve(
            gram_c[solvable], cross_c[solvable][:, :, np.newaxis]
        )[:, :, 0]
    np.subtract(y_bar, np.einsum("ij,ij->i", slope, z_bar), out=coefficients[:, 0])
    coefficients[:, 0] -= np.einsum("ij,ij->i", slope, centers)
    # slope^T gram_c slope as a left-to-right sum of its d^2 terms per row,
    # from 0: the three-operand einsum rounds differently with the batch
    # size, so a query's R^2 would depend on the rest of its batch.
    terms = np.zeros((m, 1 + d * d), dtype=float)
    np.multiply(
        slope[:, :, np.newaxis] * gram_c,
        slope[:, np.newaxis, :],
        out=terms[:, 1:].reshape(m, d, d),
    )
    quadratic = np.add.accumulate(terms, axis=1)[:, -1]
    residual = tss - 2.0 * np.einsum("ij,ij->i", slope, cross_c) + quadratic
    # Constant outputs (TSS 0) score 1.0 when the residual is
    # ``np.isclose(residual, 0.0)`` (default atol 1e-8), else 0.0.
    r_squared = np.where(np.abs(residual) <= 1e-8, 1.0, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.subtract(1.0, residual / tss, out=r_squared, where=tss > 0.0)
    return Q2BatchSolution(
        means=y_bar,
        coefficients=coefficients,
        r_squared=r_squared,
        needs_fallback=~solvable,
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


def _clustered_columns(
    inputs: np.ndarray, outputs: np.ndarray, order: np.ndarray
) -> np.ndarray:
    """The ``(d + 1, n)`` C-contiguous column copy of ``[inputs, outputs][order]``.

    Rows ``0..d-1`` are the input columns and row ``d`` the outputs.
    """
    count, d = inputs.shape
    columns = np.empty((d + 1, count), dtype=float)
    for k in range(d):
        inputs[:, k].take(order, out=columns[k])
    outputs.take(order, out=columns[d])
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

    The cell-clustered rows are kept column-wise, as one C-contiguous
    ``(d + 1, n)`` copy of the inputs and then the outputs (the
    decomposition storage model of Copeland & Khoshafian, SIGMOD 1985): a
    boundary row test gathers the ``d + 1`` rows of its candidates in one
    take, subtracts the centers in place to get ``(d, N)`` deltas, adds the
    ``d`` rows of Lp terms (see :func:`_lp_norms`), and gathers the
    selected deltas and outputs straight into the first rows of the Q2
    moments, column-major, with no narrow ``(N, d)`` array and no per-row
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
        self._clustered: np.ndarray | None = None
        self._prefix_tables: dict[str, np.ndarray] = {}
        self._references: tuple[np.ndarray, float] | None = None

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

    def _clustered_arrays(self) -> np.ndarray:
        """Cell-clustered ``(d + 1, n)`` columns: the inputs, then the outputs (lazy)."""
        clustered = self._clustered
        if clustered is None:
            order = self.grid.clustered_order
            with self._build_lock:
                if self._clustered is None:
                    self._clustered = _clustered_columns(
                        self._inputs, self._outputs, order
                    )
                clustered = self._clustered
        return clustered

    def select_rows(
        self, center: np.ndarray, radius: float, p: float
    ) -> tuple[np.ndarray, int]:
        """Ascending ids of the rows inside one ball, plus rows tested.

        A batch of one through the fine grid: the ball's candidate ranges,
        the exact Lp test on the candidates, then a gather back to row ids.
        """
        grid = self.grid
        # The query was checked once, at the engine; skip the grid's checks.
        _, starts, ends, _, _, _ = grid._ranges_batch(  # noqa: SLF001
            center[np.newaxis, :], np.array([radius]), p, classify=False
        )
        positions, _ = expand_ranges(starts, ends - starts)
        columns = self._clustered_arrays()[:-1]
        deltas = columns.take(positions, axis=1) - center[:, np.newaxis]
        inside = _lp_norms(deltas, p) <= radius
        rows = np.sort(grid.clustered_order.take(positions.compress(inside)))
        return rows, int(positions.size)

    def _prefix_table(self, kind: str) -> np.ndarray:
        """The kind's compensated prefix table (lazy, one-time build).

        :func:`_compensated_prefix_table` over the :func:`_cell_values` of
        the occupied cells: a run of inner cells then sums from two table
        columns, whatever its length.  The Q2 build also keeps the cells'
        :func:`_cell_references` (:meth:`_q2_references`), which its values
        are taken about.
        """
        table = self._prefix_tables.get(kind)
        if table is not None:
            return table
        grid = self.grid
        columns = self._clustered_arrays()
        with self._build_lock:
            table = self._prefix_tables.get(kind)
            if table is None:
                references = _cell_references(grid) if kind == "q2" else None
                table = _compensated_prefix_table(
                    _cell_values(
                        kind,
                        grid,
                        columns[:-1],
                        columns[-1],
                        None if references is None else references[0],
                    )
                )
                if references is not None:
                    self._references = references
                # Published last: a reader that sees the Q2 table sees the
                # references it was built about.
                self._prefix_tables[kind] = table
        return table

    def _q2_references(self) -> tuple[np.ndarray, float]:
        """The occupied cells' Q2 references, as built with the Q2 table."""
        self._prefix_table("q2")
        if self._references is None:
            raise InternalInvariantError("Q2 prefix table built without references")
        return self._references

    @staticmethod
    def _segment_sums(
        values: np.ndarray, bounds: np.ndarray, out: np.ndarray
    ) -> None:
        """Add per-query segment sums of ``values``' columns into ``out``'s rows.

        ``values`` is ``(width, N)``, ``N > 0``, its columns grouped by
        query in ascending query order: query ``q``'s are
        ``[bounds[q], bounds[q + 1])``.
        """
        starts = bounds[:-1]
        nonempty = bounds[1:] > starts
        out[nonempty] += np.add.reduceat(values, starts[nonempty], axis=1).T

    def segment_statistics(
        self,
        centers: np.ndarray,
        radii: np.ndarray,
        p: float,
        *,
        kind: str,
    ) -> tuple[np.ndarray, np.ndarray, int, int]:
        """Sufficient statistics of a (single-norm) batch via the fine grid.

        Candidate cells come from one vectorised pass over the batch grid
        (:meth:`GridIndex.classified_ranges_batch`, whose range ends are
        reads of the grid's cell directory; the engine's queries are checked
        once per batch, so the pass skips the grid's own checks).  Cells
        certified fully inside the ball come as runs over the occupied-cell
        directory; each run's sums are the difference of two columns of the
        kind's prefix table (:meth:`_prefix_table`), translated to the query
        center once per run for Q2 (:func:`_translate_runs`).  Only the
        boundary cells' rows get the exact Lp membership test: the input
        columns are gathered at the candidate rows and each run's query
        center, repeated over the run, subtracted, giving ``(d, N)`` deltas
        whose Lp norms (:func:`_lp_norms`) are compared with the run's
        radius; the selected columns are compressed once.  Q1 then reduces
        the selected outputs and Q2 the ``(width, N)``
        :func:`moment_products` of the selected deltas, each query over its
        own segment.  There is no per-query Python loop anywhere, and no
        per-row query id.

        The batch runs in query chunks of bounded estimated work (see
        :meth:`_chunk_bounds`), one range pass each.  A query's totals are
        segment reductions over its own runs and rows, so neither the
        chunks nor the rest of its batch change them.

        Returns ``(counts, sums, scanned, tested)`` where ``sums`` is
        ``(m, 1)`` output sums (``kind="q1"``) or the ``(m, width)``
        :func:`moment_products` column sums (``kind="q2"``), ``tested``
        the boundary rows that took the exact test and ``scanned`` those
        plus the rows of the inner runs summed from the prefix tables.
        """
        bounds = self._chunk_bounds(centers, radii)
        parts = [
            self._chunk_statistics(centers[start:stop], radii[start:stop], p, kind)
            for start, stop in zip(bounds[:-1], bounds[1:])
        ]
        if len(parts) == 1:
            return parts[0]
        counts, sums, scanned, tested = zip(*parts)
        return (
            np.concatenate(counts),
            np.concatenate(sums),
            sum(scanned),
            sum(tested),
        )

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
    ) -> tuple[np.ndarray, np.ndarray, int, int]:
        """:meth:`segment_statistics` of one chunk, in one range pass."""
        m, d = centers.shape
        width = 1 if kind == "q1" else moment_column_count(d)
        # Per query: its selected rows (exact integers), then its sums.
        totals = np.zeros((m, 1 + width), dtype=float)
        grid = self.grid
        (
            boundary_qid,
            boundary_starts,
            boundary_ends,
            inner_qid,
            inner_cell_starts,
            inner_cell_ends,
        ) = grid._ranges_batch(centers, radii, p, classify=True)  # noqa: SLF001
        # Both groups of runs are sorted by query, so searching either for
        # 0..m finds each query's first run, then the end.
        queries = np.arange(m + 1)
        tested = boundary_selected = 0

        # Boundary cells: the exact membership test.  A query's runs are
        # consecutive, so its candidates are one segment of the expanded
        # positions, and each candidate takes its run's center and radius.
        if boundary_starts.size:
            lengths = boundary_ends - boundary_starts
            positions, run_bounds = expand_ranges(boundary_starts, lengths)
            tested = positions.size
            # Positions come from the grid's row directory, so they are in
            # range: "clip" only skips the per-index range check.
            candidates = self._clustered_arrays().take(positions, axis=1, mode="clip")
            deltas = candidates[:-1]
            np.subtract(
                deltas,
                centers.T.take(boundary_qid, axis=1).repeat(lengths, axis=1),
                out=deltas,
            )
            inside = np.less_equal(
                _lp_norms(deltas, p), radii.take(boundary_qid).repeat(lengths)
            ).nonzero()[0]
            boundary_selected = inside.size
            if boundary_selected:
                # Where each query's candidate segment starts among the
                # selected rows.
                bounds = inside.searchsorted(
                    run_bounds.take(boundary_qid.searchsorted(queries))
                )
                totals[:, 0] = bounds[1:] - bounds[:-1]
                if kind == "q1":
                    values = candidates[-1:].take(inside, axis=1)
                else:
                    # The candidate deltas ARE the center-referenced ones:
                    # the selected deltas and outputs are gathered straight
                    # into the moments' first rows ("clip" also lets the
                    # take skip an output buffer).
                    values = np.empty((width, boundary_selected), dtype=float)
                    candidates.take(inside, axis=1, out=values[: d + 1], mode="clip")
                    _fill_moment_products(values, d)
                self._segment_sums(values, bounds, totals[:, 1:])

        # Fully-inside cells: each run sums from two prefix-table rows, with
        # zero row-level work.  The sums go column-per-run, so Q2 translates
        # them with 1-D operations over the runs.
        if inner_cell_starts.size:
            run_sums = _range_sums(
                self._prefix_table(kind), inner_cell_starts, inner_cell_ends
            ).T
            if kind == "q2":
                references, step = self._q2_references()
                firsts = references.take(inner_cell_starts, axis=1, mode="clip")
                shifts = firsts[:-1]
                np.subtract(shifts, centers.T.take(inner_qid, axis=1), out=shifts)
                run_sums = _translate_runs(
                    np.ascontiguousarray(run_sums), firsts[-1], shifts, step
                )
            self._segment_sums(run_sums, inner_qid.searchsorted(queries), totals)
        rows = totals[:, 0]
        summed = int(np.add.reduce(rows)) - boundary_selected
        return np.rint(rows).astype(np.int64), totals[:, 1:], tested + summed, tested


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
        rows, tested = self._select(query)
        self.statistics.record_batch(1, tested, int(rows.size), tested)
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
        scanned = tested = selected = 0
        for order, group, (group_centers, group_radii) in group_by_norm_order(
            batch, centers, radii
        ):
            counts, sums, scanned_group, tested_group = self._statistics(
                group_centers, group_radii, order, "q1"
            )
            scanned += scanned_group
            tested += tested_group
            selected += int(counts.sum())
            # A query with no rows has sum 0; its mean is never read.
            means = sums / np.maximum(counts, 1)
            for position, count, mean in zip(
                group.tolist(), counts.tolist(), means.tolist()
            ):
                if count:
                    answers[position] = QueryAnswer(mean=mean, cardinality=count)
        self.statistics.record_batch(len(batch), scanned, selected, tested)
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
        scanned = tested = selected = 0
        fallback_positions: list[int] = []
        for order, group, (group_centers, group_radii) in group_by_norm_order(
            batch, centers, radii
        ):
            counts, moments, scanned_group, tested_group = self._statistics(
                group_centers, group_radii, order, "q2"
            )
            scanned += scanned_group
            tested += tested_group
            selected += int(counts.sum())
            solution = solve_q2_sufficient_statistics(counts, moments, group_centers)
            for position, count, fallback, mean, coefficients, r_squared in zip(
                group.tolist(),
                counts.tolist(),
                solution.needs_fallback.tolist(),
                solution.means.tolist(),
                solution.coefficients,
                solution.r_squared.tolist(),
            ):
                if not count:
                    continue
                if fallback:
                    fallback_positions.append(position)
                    continue
                answers[position] = QueryAnswer(
                    mean=mean,
                    cardinality=count,
                    coefficients=coefficients,
                    r_squared=r_squared,
                )
        for position in fallback_positions:
            rows, fallback_tested = self._select(batch[position])
            scanned += fallback_tested
            tested += fallback_tested
            inputs, outputs = self._inputs[rows], self._outputs[rows]
            regressor = OLSRegressor().fit(inputs, outputs)
            answers[position] = QueryAnswer(
                mean=float(np.mean(outputs)),
                cardinality=int(outputs.size),
                coefficients=regressor.coefficients,
                r_squared=regressor.r_squared(inputs, outputs),
            )
        self.statistics.record_batch(len(batch), scanned, selected, tested)
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
    ) -> tuple[np.ndarray, np.ndarray, int, int]:
        """``(counts, sums, scanned, tested)`` of one (single-norm) batch.

        As :meth:`SegmentedBatchPipeline.segment_statistics` returns them,
        with Q1's ``sums`` flattened to ``(m,)``.
        """
        counts, sums, scanned, tested = self._pipeline.segment_statistics(
            centers, radii, p, kind=kind
        )
        return counts, sums[:, 0] if kind == "q1" else sums, scanned, tested

    def _select(self, query: Query) -> tuple[np.ndarray, int]:
        """``(ascending selected row ids, rows tested)`` of one query.

        The pipeline selects through its grid's candidate ranges and the
        exact Lp test, the same test the batch kernel runs.
        """
        return self._pipeline.select_rows(
            query.center, query.radius, query.norm_order
        )
