"""In-DBMS substrate.

The paper's system context (Figure 2) places the learning model in front of
an RDBMS that actually stores the data and executes exact Q1/Q2 queries
during the training phase.  This subpackage provides that substrate:

* :class:`~repro.dbms.storage.SQLiteDataStore` — SQLite-backed persistent
  storage of datasets with a catalog of registered tables,
* :class:`~repro.dbms.spatial_index.GridIndex` — a uniform-grid spatial
  index used by the exact executor to prune the dNN selection (the role
  played by the B-tree index in the paper's PostgreSQL setup),
* :class:`~repro.dbms.spatial_index.PrototypeIndex` — the same grid idiom
  generalised to the radius-augmented prototype space, used by the trained
  model's predictor to prune the overlap-set computation,
* :class:`~repro.dbms.executor.ExactQueryEngine` — the exact executor of
  Q1 (mean value) and Q2 (in-subspace OLS regression), with batched paths
  built on mergeable sufficient statistics over contiguous row shards (one
  by default, run inline, or several on a thread or process pool); each
  shard owns a lazily-built grid-indexed segmented pipeline next to its
  scan kernel, forced per engine or picked per shard by an adaptive router,
* :class:`~repro.dbms.sqlfront.AnalyticsSession` — a small declarative SQL
  front end implementing the Q1/Q2 syntax sketched in the paper's appendix
  (with ``NORM p`` geometry clauses and multi-statement scripts),
* :class:`~repro.dbms.serving.AnalyticsService` — the model-backed batched
  serving layer behind the sessions: per-table engine/model registry,
  batched multi-statement execution through the engines' and models' batch
  paths, and a hybrid mode answering from the trained model with a
  transparent exact fallback on empty ``W(q)`` (fallback rate reported via
  :class:`~repro.dbms.serving.ServingStatistics`), guarded by per-tier
  circuit breakers, bounded retries and per-statement error answers,
* :class:`~repro.dbms.concurrent.ConcurrentAnalyticsService` — the
  concurrent serving front over the service: thread-pool fan-out with
  bounded admission, a micro-batching coalescer merging concurrent
  sessions' statements into bigger (cheaper per-statement) batches, and a
  version-keyed answer cache that model hot-swaps invalidate naturally,
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
    PrototypeIndex,
    batch_grid_cells_per_dimension,
    estimate_boundary_fraction,
    estimate_candidate_fraction,
)
from .executor import (
    ExactQueryEngine,
    ExecutionStatistics,
    SegmentedBatchPipeline,
    shard_bounds,
)
from .sqlfront import AnalyticsSession, ParsedStatement, parse_script, parse_statement
from .serving import (
    AnalyticsService,
    CircuitBreaker,
    DegradationPolicy,
    LatencyHistogram,
    ServingStatistics,
    StatementResult,
)
from .concurrent import (
    AnswerCache,
    ConcurrencyPolicy,
    ConcurrentAnalyticsService,
    ScriptFuture,
)
from .observer import (
    LifecycleEvent,
    LifecycleObserver,
    LoggingObserver,
    ObserverHub,
    RecordingObserver,
)
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
    "PrototypeIndex",
    "batch_grid_cells_per_dimension",
    "estimate_boundary_fraction",
    "estimate_candidate_fraction",
    "ExactQueryEngine",
    "ExecutionStatistics",
    "SegmentedBatchPipeline",
    "shard_bounds",
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
    "LoggingObserver",
    "ObserverHub",
    "RecordingObserver",
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
