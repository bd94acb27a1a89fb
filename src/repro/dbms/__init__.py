"""In-DBMS substrate.

The paper's system context (Figure 2) places the learning model in front of
an RDBMS that actually stores the data and executes exact Q1/Q2 queries
during the training phase.  This subpackage provides that substrate:

* :class:`~repro.dbms.storage.SQLiteDataStore` — SQLite-backed persistent
  storage of datasets with a catalog of registered tables,
* :class:`~repro.dbms.spatial_index.GridIndex` — a uniform-grid spatial
  index used by the exact executor to prune the dNN selection (the role
  played by the B-tree index in the paper's PostgreSQL setup),
* :class:`~repro.dbms.executor.ExactQueryEngine` — the exact executor of
  Q1 (mean value) and Q2 (in-subspace OLS regression), with batched paths
  built on mergeable sufficient statistics: one kernel over the whole
  table, a lazily-built grid-indexed segmented pipeline run inline over
  query chunks of bounded working set,
* :class:`~repro.dbms.sqlfront.AnalyticsSession` — a small declarative SQL
  front end implementing the Q1/Q2 syntax sketched in the paper's appendix
  (with ``NORM p`` geometry clauses and multi-statement scripts),
* :class:`~repro.dbms.serving.AnalyticsService` — the model-backed batched
  serving layer behind the sessions: per-table engine/model registry,
  batched multi-statement execution through the engines' and models' batch
  paths, and a hybrid mode answering from the trained model with a
  transparent exact fallback on empty ``W(q)``, guarded by per-tier
  circuit breakers, bounded retries and per-statement error answers,
* :mod:`~repro.dbms.stats` — the serving statistics both serving layers
  keep per table (:class:`~repro.dbms.stats.ServingStatistics`: answers by
  source, including the hybrid fallback rate, and a mergeable
  :class:`~repro.dbms.stats.LatencyHistogram`),
* :mod:`~repro.dbms.resilience` — the guarded path's retry policy
  (:class:`~repro.dbms.resilience.DegradationPolicy`) and per-tier
  :class:`~repro.dbms.resilience.CircuitBreaker`,
* :class:`~repro.dbms.concurrent.ConcurrentAnalyticsService` — the
  concurrent serving front over the service: bounded admission, a lone
  session's scripts executed on its own thread, a self-clocked coalescer
  that holds overlapping sessions' statements while a flush is in flight
  and hands them to a thread pool as one round of bigger (cheaper
  per-statement) batches when the last flush ends, and a version-keyed
  answer cache that model hot-swaps invalidate naturally,
* :class:`~repro.dbms.lifecycle.ModelManager` — the self-healing model
  lifecycle: sliding-window drift detection over the serving statistics,
  incremental retraining on the recorded recent query stream, versioned
  persistence (:class:`~repro.dbms.lifecycle.ModelVersionStore`), atomic
  hot-swap under concurrent serving, and probe-gated automatic rollback,
  with events published through :class:`~repro.dbms.observer.ObserverHub`,
* :class:`~repro.dbms.durability.ServiceCheckpointer` /
  :class:`~repro.dbms.durability.RecoveryManager` — durability across
  restarts: atomic checksummed checkpoints of full service state (registry
  manifest, query-log ring buffers, serving statistics, drift windows), an
  append-only state journal of registry events between checkpoints, and
  crash recovery that rebuilds the stack from the newest valid checkpoint
  plus journal replay, falling back checkpoint-by-checkpoint on
  corruption.
"""

from .schema import ColumnSpec, TableSchema, schema_for_dataset
from .catalog import Catalog, TableInfo
from .storage import SQLiteDataStore
from .spatial_index import (
    GridIndex,
    batch_grid_cells_per_dimension,
)
from .executor import (
    ExactQueryEngine,
    ExecutionStatistics,
    SegmentedBatchPipeline,
)
from .sqlfront import AnalyticsSession, ParsedStatement, parse_script, parse_statement
from .stats import LatencyHistogram, ServingStatistics
from .resilience import CircuitBreaker, DegradationPolicy
from .serving import AnalyticsService, StatementResult
from .concurrent import (
    AnswerCache,
    ConcurrencyPolicy,
    ConcurrentAnalyticsService,
    ScriptFuture,
)
from .observer import LifecycleEvent, LifecycleObserver, ObserverHub
from .lifecycle import (
    DriftPolicy,
    LifecycleScheduler,
    ModelManager,
    ModelVersionStore,
)
from .durability import (
    RecoveredService,
    RecoveryManager,
    ServiceCheckpointer,
    StateJournal,
)

__all__ = [
    "ColumnSpec",
    "TableSchema",
    "schema_for_dataset",
    "Catalog",
    "TableInfo",
    "SQLiteDataStore",
    "GridIndex",
    "batch_grid_cells_per_dimension",
    "ExactQueryEngine",
    "ExecutionStatistics",
    "SegmentedBatchPipeline",
    "AnalyticsSession",
    "AnalyticsService",
    "ServingStatistics",
    "StatementResult",
    "LatencyHistogram",
    "DegradationPolicy",
    "CircuitBreaker",
    "ConcurrentAnalyticsService",
    "ConcurrencyPolicy",
    "AnswerCache",
    "ScriptFuture",
    "LifecycleEvent",
    "LifecycleObserver",
    "ObserverHub",
    "DriftPolicy",
    "ModelManager",
    "ModelVersionStore",
    "LifecycleScheduler",
    "ServiceCheckpointer",
    "StateJournal",
    "RecoveryManager",
    "RecoveredService",
    "ParsedStatement",
    "parse_script",
    "parse_statement",
]
