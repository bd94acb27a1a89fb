"""Sharded parallel execution of exact Q1/Q2 query batches.

:class:`ShardedQueryEngine` partitions the stored rows into contiguous row
shards and answers whole query batches by fanning per-shard
sufficient-statistics kernels out across a worker pool, then merging the
per-shard statistics exactly:

* Q1 merges ``(count, sum)`` per query,
* Q2 merges the center-referenced Gram moments (``sum z``, ``sum y``,
  ``sum y^2``, ``sum z y``, ``sum z z^T``) and recovers each query's OLS
  plane with the blocked solve of
  :func:`~repro.dbms.executor.solve_q2_sufficient_statistics`.

Each shard owns two interchangeable kernels producing identical statistics:

* a chunked full **scan** of the shard's rows
  (:func:`~repro.dbms.executor.q1_sufficient_statistics_scan` /
  :func:`~repro.dbms.executor.q2_sufficient_statistics_scan`), and
* an **indexed** segmented pipeline over the shard's own cell-clustered
  fine grid (:class:`~repro.dbms.executor.SegmentedBatchPipeline` over the
  shard's row range, its grid built on the shard's first indexed batch):
  candidate ranges from one vectorised grid pass, materialized per-cell
  aggregates for cells certified inside the ball, row-level exact tests
  only on boundary cells.

Because the moments of disjoint row partitions add exactly — and the
center-referenced moment layout is a property of the query, not of the row
partition or of any grid — the sharded answers equal the single-engine
answers up to summation order regardless of which kernel each shard used
(the differential harness pins 1e-12); rank-deficient or ill-conditioned
subspaces fall back to the dense per-query OLS over the full row set,
keeping the exact minimum-norm semantics.

Routing
-------
``route="auto"`` (default) picks the kernel per shard and the execution
mode per batch from a selectivity estimate
(:func:`~repro.dbms.spatial_index.estimate_boundary_fraction`: query radii
against the shard's extent and batch-grid cell volume).  Batches whose
estimated *boundary* fraction — the rows in cells straddling the ball
surface, the only rows the pipeline tests individually — stays below
``_INDEXED_ROUTE_MAX_BOUNDARY`` go to the indexed pipeline; batches whose
boundary shell approaches the shard size keep the cache-blocked scan,
whose sequential row traffic beats gather-heavy candidate tests at that
point.  Small batches (estimated touched elements
below ``_SERIAL_BATCH_ELEMENTS``) run the shards inline even on a pool
backend — pool dispatch latency dominates sub-millisecond kernels.
``route="scan"`` and ``route="indexed"`` force one kernel on every shard
and always use the configured pool, which is what the benchmark uses to
measure the crossover (``benchmarks/bench_shard_scaling.py`` records
routed-vs-forced numbers in ``BENCH_shard.json``).

Backends
--------
``"threads"`` (default) runs shard kernels on a thread pool: the NumPy
distance/mask/GEMM kernels release the GIL, so shards execute in parallel
on multi-core hosts, and the shard slices (and their lazily-built per-shard
indexes) are shared with the pool for free.  ``"processes"`` runs them on a
process pool (shard arrays are shipped once per worker at pool start-up,
and each worker builds the per-shard pipelines it needs on first indexed
use); it sidesteps the GIL entirely but pays serialisation of the per-batch
query arrays and of the returned statistics.  ``"serial"`` runs shards
in-line, which still benefits from the cache blocking of shard-sized
working sets.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Sequence

import numpy as np

from ..analysis.instrument import make_lock
from ..data.synthetic import SyntheticDataset
from ..exceptions import ConfigurationError, StorageError
from ..queries.geometry import pairwise_lp_distance
from ..queries.query import Query, QueryAnswer
from .executor import (
    ExecutionStatistics,
    SegmentedBatchPipeline,
    SingleQueryMixin,
    _fill_q1_answers,
    _fill_q2_answers,
    _group_by_norm_order,
    _raise_on_empty_answers,
    _validate_batch_queries,
    q1_sufficient_statistics_scan,
    q2_answer_from_rows,
    q2_sufficient_statistics_scan,
    solve_q2_sufficient_statistics,
)
from .spatial_index import (
    batch_grid_cells_per_dimension,
    estimate_boundary_fraction,
)
from .storage import SQLiteDataStore

__all__ = ["ShardedQueryEngine", "shard_bounds"]

#: Shards per worker used when ``num_shards`` is not given.  More shards
#: than workers keeps the pool busy when shard runtimes are uneven and
#: shrinks each shard's working set (cache blocking), which measurably
#: helps even single-core execution.
_SHARDS_PER_WORKER = 4

#: Mean estimated boundary fraction at or below which the adaptive router
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
#: ``m x shard rows`` for scans) below which the adaptive router runs the
#: shard kernels inline instead of dispatching to the pool: pool dispatch
#: and result marshalling cost ~100 us per shard, which dominates kernels
#: that touch fewer than ~a million elements.
_SERIAL_BATCH_ELEMENTS = 1_000_000

_ROUTES = ("scan", "indexed", "auto")


def shard_bounds(row_count: int, num_shards: int) -> np.ndarray:
    """Row boundaries of ``num_shards`` near-equal contiguous shards.

    Returns ``num_shards + 1`` monotonically increasing offsets starting at
    0 and ending at ``row_count``.
    """
    if num_shards < 1:
        raise ConfigurationError(f"num_shards must be >= 1, got {num_shards}")
    return np.linspace(0, row_count, num_shards + 1).astype(np.int64)


def _resolve_pool_shape(
    max_workers: int | None, num_shards: int | None
) -> tuple[int, int]:
    """Resolve ``(workers, shards)`` with the engine's defaulting rules.

    Shared by ``__init__`` and ``from_store`` so the store loader can
    compute the exact shard bounds the engine will use before any rows are
    materialised.
    """
    workers = max_workers if max_workers is not None else (os.cpu_count() or 1)
    workers = max(int(workers), 1)
    shards = num_shards if num_shards is not None else workers * _SHARDS_PER_WORKER
    if shards < 1:
        raise ConfigurationError(f"num_shards must be >= 1, got {shards}")
    return workers, int(shards)


# --------------------------------------------------------------------------- #
# process-pool plumbing: shard arrays are installed once per worker process;
# per-shard indexed pipelines are built lazily in each worker on first use
# --------------------------------------------------------------------------- #
_WORKER_SHARDS: list[tuple[np.ndarray, np.ndarray]] = []
_WORKER_PIPELINES: dict[int, SegmentedBatchPipeline] = {}


def _process_worker_init(inputs: np.ndarray, outputs: np.ndarray, bounds: np.ndarray) -> None:
    _WORKER_SHARDS.clear()
    _WORKER_PIPELINES.clear()
    for start, stop in zip(bounds[:-1], bounds[1:]):
        _WORKER_SHARDS.append((inputs[start:stop], outputs[start:stop]))


def _process_worker_statistics(args: tuple) -> tuple[np.ndarray, np.ndarray, int]:
    shard_index, shard_route, kind, centers, radii, p = args
    inputs, outputs = _WORKER_SHARDS[shard_index]
    if shard_route == "indexed":
        pipeline = _WORKER_PIPELINES.get(shard_index)
        if pipeline is None:
            pipeline = SegmentedBatchPipeline(inputs, outputs)
            _WORKER_PIPELINES[shard_index] = pipeline
        return _pipeline_statistics(pipeline, centers, radii, p, kind)
    return _scan_statistics(inputs, outputs, centers, radii, p, kind)


def _scan_statistics(
    inputs: np.ndarray,
    outputs: np.ndarray,
    centers: np.ndarray,
    radii: np.ndarray,
    p: float,
    kind: str,
) -> tuple[np.ndarray, np.ndarray, int]:
    """One shard's scan-kernel statistics: ``(counts, sums, rows scanned)``."""
    kernel = (
        q1_sufficient_statistics_scan
        if kind == "q1"
        else q2_sufficient_statistics_scan
    )
    counts, sums = kernel(inputs, outputs, centers, radii, p=p)
    return counts, sums, centers.shape[0] * inputs.shape[0]


def _pipeline_statistics(
    pipeline: SegmentedBatchPipeline,
    centers: np.ndarray,
    radii: np.ndarray,
    p: float,
    kind: str,
) -> tuple[np.ndarray, np.ndarray, int]:
    """One shard's indexed statistics, shaped to merge with the scan ones."""
    counts, sums, scanned = pipeline.segment_statistics(
        centers, radii, p, kind=kind
    )
    if kind == "q1":
        sums = sums[:, 0]
    return counts, sums, scanned


class ShardedQueryEngine(SingleQueryMixin):
    """Answer exact Q1/Q2 batches over row shards merged by blocked statistics.

    Parameters
    ----------
    dataset:
        The dataset to shard.
    num_shards:
        Number of contiguous row shards; defaults to
        ``max_workers * 4`` (shard working sets stay cache-friendly and the
        pool stays saturated).
    backend:
        ``"threads"`` (default), ``"processes"`` or ``"serial"``.
    max_workers:
        Pool width; defaults to the machine's CPU count.
    route:
        ``"auto"`` (default) picks scan vs. indexed per shard and serial
        vs. pooled per batch from a selectivity estimate; ``"scan"`` and
        ``"indexed"`` force that kernel on every shard (see the module
        docstring).  Every route returns identical answers.

    The engine mirrors the :class:`~repro.dbms.executor.ExactQueryEngine`
    batch API (``execute_q1_batch`` / ``execute_q2_batch`` with the same
    ``on_empty`` contract, plus the shared batch-of-one conveniences of
    :class:`~repro.dbms.executor.SingleQueryMixin`), so
    :class:`~repro.core.training.StreamingTrainer` can label workloads
    through it unchanged.
    """

    def __init__(
        self,
        dataset: SyntheticDataset,
        *,
        num_shards: int | None = None,
        backend: str = "threads",
        max_workers: int | None = None,
        route: str = "auto",
    ) -> None:
        if backend not in ("threads", "processes", "serial"):
            raise ConfigurationError(
                f"backend must be 'threads', 'processes' or 'serial', got {backend!r}"
            )
        if route not in _ROUTES:
            raise ConfigurationError(f"route must be one of {_ROUTES}, got {route!r}")
        self._dataset = dataset
        self._inputs = dataset.inputs
        self._outputs = dataset.outputs
        self._backend = backend
        self._max_workers, shards = _resolve_pool_shape(max_workers, num_shards)
        self._bounds = shard_bounds(dataset.size, shards)
        self._shards = [
            (self._inputs[start:stop], self._outputs[start:stop])
            for start, stop in zip(self._bounds[:-1], self._bounds[1:])
        ]
        self._route = route
        # Constructing a pipeline only stores its rows; the grid, clustered
        # layout and cell aggregates are built on the shard's first indexed
        # batch, under the pipeline's own build lock.
        self._pipelines = [
            SegmentedBatchPipeline(inputs, outputs) for inputs, outputs in self._shards
        ]
        self._shard_extents: np.ndarray | None = None
        self._shard_grid_cells: list[int] | None = None
        # The pool is built on the first pooled batch; the lock makes that
        # build, and close(), happen once however many threads race them.
        self._pool_lock = make_lock("sharding.pool")
        self._pool: Executor | None = None
        self._closed = False
        self.statistics = ExecutionStatistics()

    # ------------------------------------------------------------------ #
    # construction / lifecycle
    # ------------------------------------------------------------------ #
    @classmethod
    def from_store(
        cls,
        store: SQLiteDataStore,
        table_name: str,
        *,
        num_shards: int | None = None,
        backend: str = "threads",
        max_workers: int | None = None,
        route: str = "auto",
    ) -> "ShardedQueryEngine":
        """Build a sharded engine over a stored table in explicit rowid order.

        The table is materialised with one full-table
        :meth:`~repro.dbms.storage.SQLiteDataStore.load_row_range_as_dataset`
        window, whose explicit ``ORDER BY rowid`` pins the stored row
        order; the engine's contiguous shard slices of that order therefore
        coincide exactly with the :meth:`~repro.dbms.storage.SQLiteDataStore.scan_row_range`
        windows of the same offsets, and each shard's lazily-built grid
        index is a range-restricted build over its window's rows.
        """
        workers, shards = _resolve_pool_shape(max_workers, num_shards)
        row_count = store.row_count(table_name)
        dataset = (
            store.load_row_range_as_dataset(
                table_name, 0, row_count, name=table_name
            )
            if row_count
            else store.load_as_dataset(table_name)
        )
        return cls(
            dataset,
            num_shards=shards,
            backend=backend,
            max_workers=workers,
            route=route,
        )

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
        return len(self._shards)

    @property
    def backend(self) -> str:
        return self._backend

    @property
    def max_workers(self) -> int:
        return self._max_workers

    @property
    def route(self) -> str:
        """The routing policy: ``"scan"``, ``"indexed"`` or ``"auto"``."""
        return self._route

    def close(self) -> None:
        """Shut the worker pool down; further batch calls will fail."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
            self._closed = True
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "ShardedQueryEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _require_open(self) -> None:
        if self._closed:
            raise StorageError("the sharded engine has been closed")

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
    # adaptive routing
    # ------------------------------------------------------------------ #
    def _shard_selectivity_model(self) -> tuple[np.ndarray, list[int]]:
        """Per-shard ``(low, high)`` extents and batch-grid resolutions.

        Cached after the first routed batch: one O(N) min/max pass, plus the
        (closed-form) fine-grid cell counts each shard's pipeline would use
        — no grid is actually built for the estimate.
        """
        if self._shard_extents is None or self._shard_grid_cells is None:
            extents = np.empty((len(self._shards), self.dimension), dtype=float)
            cells: list[int] = []
            for index, (inputs, _) in enumerate(self._shards):
                if inputs.shape[0]:
                    extents[index] = inputs.max(axis=0) - inputs.min(axis=0)
                else:
                    extents[index] = 0.0
                cells.append(
                    batch_grid_cells_per_dimension(
                        inputs.shape[0], self.dimension
                    )
                )
            self._shard_extents = extents
            self._shard_grid_cells = cells
        return self._shard_extents, self._shard_grid_cells

    def _plan_batch(self, radii: np.ndarray) -> tuple[list[str], bool]:
        """Pick each shard's kernel and whether to dispatch to the pool.

        Returns ``(routes, pooled)`` where ``routes[i]`` is ``"scan"`` or
        ``"indexed"`` for shard ``i``.  Forced routes always use the
        configured pool so forced measurements isolate the kernel choice;
        the adaptive route additionally drops to inline execution when the
        estimated touched work is too small to amortise pool dispatch.
        """
        m = int(radii.shape[0])
        if self._route != "auto":
            return [self._route] * self.num_shards, self._backend != "serial"
        extents, grid_cells = self._shard_selectivity_model()
        routes = []
        estimated_elements = 0.0
        for index, (inputs, _) in enumerate(self._shards):
            rows = inputs.shape[0]
            if rows == 0:
                routes.append("scan")
                continue
            fraction = float(
                np.mean(
                    estimate_boundary_fraction(
                        extents[index], radii, grid_cells[index]
                    )
                )
            )
            if fraction <= _INDEXED_ROUTE_MAX_BOUNDARY:
                routes.append("indexed")
                estimated_elements += m * rows * fraction
            else:
                routes.append("scan")
                estimated_elements += m * rows
        pooled = (
            self._backend != "serial"
            and estimated_elements >= _SERIAL_BATCH_ELEMENTS
        )
        return routes, pooled

    # ------------------------------------------------------------------ #
    # fan-out / merge
    # ------------------------------------------------------------------ #
    def _shard_statistics(
        self,
        centers: np.ndarray,
        radii: np.ndarray,
        p: float,
        kind: str,
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Fan one (single-norm) batch out across shards and merge exactly.

        Returns ``(counts, sums, scanned)`` where ``scanned`` counts the
        rows each shard actually touched (full shard for scans, candidate
        rows for indexed shards).
        """
        self._require_open()
        routes, pooled = self._plan_batch(radii)
        # The pool (and, for processes, the per-worker shard shipping) is
        # only instantiated once a batch actually dispatches to it.
        pool = self._ensure_pool() if pooled else None
        if pool is not None and self._backend == "processes":
            tasks = [
                (index, routes[index], kind, centers, radii, p)
                for index in range(self.num_shards)
            ]
            parts = list(pool.map(_process_worker_statistics, tasks))
        else:

            def run(index: int) -> tuple[np.ndarray, np.ndarray, int]:
                if routes[index] == "indexed":
                    return _pipeline_statistics(
                        self._pipelines[index], centers, radii, p, kind
                    )
                inputs, outputs = self._shards[index]
                return _scan_statistics(inputs, outputs, centers, radii, p, kind)

            indices = range(self.num_shards)
            if pool is None:
                parts = [run(index) for index in indices]
            else:
                parts = list(pool.map(run, indices))
        counts = parts[0][0].copy()
        sums = np.array(parts[0][1], dtype=float, copy=True)
        scanned = parts[0][2]
        for shard_counts, shard_sums, shard_scanned in parts[1:]:
            counts += shard_counts
            sums += shard_sums
            scanned += shard_scanned
        return counts, sums, int(scanned)

    # ------------------------------------------------------------------ #
    # batched execution
    # ------------------------------------------------------------------ #
    def _validate_batch(self, queries: Sequence[Query], on_empty: str) -> list[Query]:
        return _validate_batch_queries(queries, on_empty, self.dimension)

    def execute_q1_batch(
        self, queries: Sequence[Query], *, on_empty: str = "raise"
    ) -> list[QueryAnswer | None]:
        """Execute a Q1 batch across all shards and merge ``(count, sum)``."""
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
            counts, sums, scanned_group = self._shard_statistics(
                centers[group], radii[group], order, "q1"
            )
            selected += int(counts.sum())
            scanned += scanned_group
            _fill_q1_answers(answers, group, counts, sums)
        elapsed = time.perf_counter() - start
        self.statistics.record_batch(len(batch), scanned, selected, elapsed)
        self._raise_on_empty(batch, answers, on_empty, "Q1")
        return answers

    def execute_q2_batch(
        self, queries: Sequence[Query], *, on_empty: str = "raise"
    ) -> list[QueryAnswer | None]:
        """Execute a Q2 batch across all shards via blocked OLS.

        Per-shard Gram moments merge by addition; the merged system is
        solved once for the whole batch.  Queries flagged by the solver
        (fewer selected rows than ``d + 1``, or a near-singular merged
        Gram) are re-answered by the dense per-query OLS over the full row
        set, preserving :class:`~repro.baselines.ols.OLSRegressor`
        minimum-norm semantics exactly.
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
            counts, moments, scanned_group = self._shard_statistics(
                group_centers, radii[group], order, "q2"
            )
            selected += int(counts.sum())
            scanned += scanned_group
            solution = solve_q2_sufficient_statistics(counts, moments, group_centers)
            _fill_q2_answers(answers, group, counts, solution, fallback_positions)
        # Each fallback re-selects with one full scan; account it in the
        # rows-scanned statistic alongside the sharded passes.
        scanned += len(fallback_positions) * self.size
        for position in fallback_positions:
            answers[position] = self._execute_q2_dense(batch[position])
        elapsed = time.perf_counter() - start
        self.statistics.record_batch(len(batch), scanned, selected, elapsed)
        self._raise_on_empty(batch, answers, on_empty, "Q2")
        return answers

    def _execute_q2_dense(self, query: Query) -> QueryAnswer:
        """Exact per-query OLS over the full row set (rare fallback path)."""
        distances = pairwise_lp_distance(
            self._inputs, query.center, p=query.norm_order
        )
        selected = np.nonzero(distances <= query.radius)[0]
        return q2_answer_from_rows(self._inputs[selected], self._outputs[selected])

    _raise_on_empty = staticmethod(_raise_on_empty_answers)
