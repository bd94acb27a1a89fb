"""Query-driven local linear models for in-DBMS regression analytics.

This library reproduces "Efficient Scalable Accurate Regression Queries in
In-DBMS Analytics" (Anagnostopoulos & Triantafillou, ICDE 2017).  It learns
from previously executed mean-value (Q1) and regression (Q2) analytics
queries and then answers new queries with sub-millisecond latency without
accessing the underlying data.

Quickstart
----------
>>> import numpy as np
>>> from repro import (
...     LLMModel, Query, ExactQueryEngine, make_rosenbrock_dataset,
...     QueryWorkloadGenerator, WorkloadSpec, RadiusDistribution,
...     LabelledWorkload,
... )
>>> dataset = make_rosenbrock_dataset(5_000, dimension=2, seed=1)
>>> engine = ExactQueryEngine(dataset)
>>> spec = WorkloadSpec(dimension=2, center_low=-10, center_high=10,
...                     radius=RadiusDistribution(mean=2.0, std=0.5))
>>> workload = QueryWorkloadGenerator(spec, seed=1).generate(500)
>>> labelled = LabelledWorkload.from_engine(workload, engine)
>>> model = LLMModel(dimension=2)
>>> _ = model.fit(labelled)
>>> query = Query(center=np.array([0.0, 0.0]), radius=2.0)
>>> predicted = model.predict_mean(query)      # no data access
>>> exact = engine.execute_q1(query).mean      # full data access

Performance architecture
------------------------
The query-processing engine is built around five fast paths so latency
stays at "trained-model speed" — independent of the data size and, for
localised traffic, sublinear in the number of prototypes ``K``.  Every
query runs through them: the single-query methods (``predict_mean``,
``regression_models``, ``predict_value``, ``execute_q1``, ``execute_q2``,
``select_subspace``, ...) are batches of one.

* **Batched prediction** — :meth:`LLMModel.predict_mean_batch`,
  :meth:`LLMModel.predict_q2_batch` and :meth:`LLMModel.predict_value_batch`
  (and their :class:`~repro.core.prediction.NeighborhoodPredictor`
  counterparts) take an ``(m, d + 1)`` query matrix and compute the full
  ``(m, K)`` overlap-degree matrix
  (:func:`~repro.queries.geometry.overlap_degree_matrix`) plus the weighted
  LLM evaluations as matrix products, with no per-query Python loop.  At
  batch size 1,000 this is an order of magnitude (10x+) faster than the
  per-query loop (see ``benchmarks/bench_batch_throughput.py``, which
  records the measured speedup in ``BENCH_batch.json``).
* **Prototype pruning** — at large ``K`` a
  :class:`~repro.dbms.spatial_index.PrototypeIndex`, a uniform grid over the
  radius-augmented prototype space, yields the candidate *union* of a whole
  batch in one vectorised pass: a query can only overlap prototypes within
  ``theta + max_k theta_k`` of its center.  When the union covers a small
  fraction of ``K`` (localised traffic), the degree/evaluation matrices
  shrink to ``(m, |U|)`` block-sparse form — 20x+ at ``K ~ 8k`` — falling
  back to the dense path automatically for scattered batches.
* **Batched exact execution on sufficient statistics** — the exact
  executor answers whole batches from mergeable per-query sufficient
  statistics (count/sum for Q1; center-referenced Gram moments for Q2,
  solved by blocked OLS in
  :func:`~repro.dbms.executor.solve_q2_sufficient_statistics`).  With an
  index, candidates come as contiguous runs of a cell-clustered row layout
  (one vectorised :meth:`~repro.dbms.spatial_index.GridIndex
  .candidate_ranges_batch` pass over a fine batch grid); cells certifiably
  *inside* the query ball contribute precomputed per-cell aggregates with
  zero row-level work, so batch cost scales with the selection boundary
  rather than its volume.  Rank-deficient or near-singular subspaces fall
  back per query to the dense SVD least-squares solver, so answers keep
  its minimum-norm semantics.
* **Sharded parallel execution** — an
  :class:`~repro.dbms.executor.ExactQueryEngine` built with
  ``num_shards``/``backend`` partitions the rows into contiguous shards
  and fans the per-shard kernels out over a thread pool (GIL-releasing
  NumPy kernels) or a process pool before merging the per-shard
  statistics exactly.  Per-shard moments add, so blocked OLS
  over shards equals single-shot OLS; ``benchmarks/bench_shard_scaling.py``
  records the scaling trajectory in ``BENCH_shard.json``.  Which pool wins
  depends on the host.  On a 1-CPU container threads won: a process pool
  ships queries and statistics across process boundaries with no second
  core to repay it.  On a 2-vCPU host (2 workers, 8 shards, 400-query
  batches over 200k rows) processes beat threads by 4-20% on scan-routed
  batches and on wide or moderate auto-routed ones, and tie on selective
  or 16-query batches.
* **Incremental training state** — the prototypes live in one
  capacity-doubling dense ``(K, d + 1)`` matrix
  (:class:`~repro.core.prototypes.LocalModelParameters`) that SGD updates
  write through to, so the winner search of every training step is pure
  O(dK) arithmetic instead of an O(K) re-stacking allocation.
"""

from .config import ModelConfig, TrainingConfig, vigilance_radius
from .exceptions import (
    CatalogError,
    CircuitOpenError,
    ConfigurationError,
    ConvergenceError,
    DimensionalityMismatchError,
    EmptySubspaceError,
    InjectedFaultError,
    InvalidQueryError,
    LifecycleError,
    ModelPersistenceError,
    NotFittedError,
    ReproError,
    ServiceOverloadedError,
    ServingTimeoutError,
    SQLSyntaxError,
    StorageError,
    TransientEngineError,
    WorkloadError,
)
from .queries import (
    LabelledWorkload,
    Query,
    QueryAnswer,
    QueryAnswerStream,
    QueryLog,
    QueryResultPair,
    QueryWorkloadGenerator,
    RadiusDistribution,
    TrainTestSplit,
    WorkloadSpec,
    split_workload,
)
from .data import (
    DriftingFunction,
    MinMaxScaler,
    SyntheticDataset,
    generate_gas_sensor_dataset,
    get_data_function,
    list_data_functions,
    make_function_dataset,
    make_rosenbrock_dataset,
)
from .dbms import (
    AnalyticsService,
    AnalyticsSession,
    AnswerCache,
    CircuitBreaker,
    ConcurrencyPolicy,
    ConcurrentAnalyticsService,
    DegradationPolicy,
    DriftPolicy,
    ExactQueryEngine,
    GridIndex,
    LatencyHistogram,
    LifecycleEvent,
    LifecycleScheduler,
    ModelManager,
    ModelVersionStore,
    ObserverHub,
    PrototypeIndex,
    RecordingObserver,
    ScriptFuture,
    ServingStatistics,
    SQLiteDataStore,
    parse_script,
    parse_statement,
)
from .core import (
    FixedKQuantizer,
    GrowingQuantizer,
    LLMModel,
    LocalLinearMap,
    RegressionPlane,
    StreamingTrainer,
    TrainingReport,
    load_model,
    save_model,
)
from .baselines import (
    MARSRegressor,
    OLSRegressor,
    SamplingRegressor,
    fit_plr_over_subspace,
    fit_reg_over_subspace,
)
from .bench import (
    BenchmarkRunner,
    BenchmarkSpec,
    ExperimentConfig,
    RegressionDetector,
    RegressionPolicy,
    ResultsStore,
    RunRecord,
)
from .metrics import cod, fvu, rmse

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # configuration
    "ModelConfig",
    "TrainingConfig",
    "vigilance_radius",
    # exceptions
    "ReproError",
    "InvalidQueryError",
    "DimensionalityMismatchError",
    "NotFittedError",
    "EmptySubspaceError",
    "StorageError",
    "CatalogError",
    "SQLSyntaxError",
    "ConfigurationError",
    "ConvergenceError",
    "WorkloadError",
    "ModelPersistenceError",
    "TransientEngineError",
    "ServingTimeoutError",
    "ServiceOverloadedError",
    "CircuitOpenError",
    "LifecycleError",
    "InjectedFaultError",
    # queries
    "Query",
    "QueryAnswer",
    "QueryResultPair",
    "QueryWorkloadGenerator",
    "RadiusDistribution",
    "WorkloadSpec",
    "TrainTestSplit",
    "split_workload",
    "QueryAnswerStream",
    "LabelledWorkload",
    "QueryLog",
    # data
    "SyntheticDataset",
    "DriftingFunction",
    "make_rosenbrock_dataset",
    "make_function_dataset",
    "generate_gas_sensor_dataset",
    "get_data_function",
    "list_data_functions",
    "MinMaxScaler",
    # dbms
    "SQLiteDataStore",
    "GridIndex",
    "PrototypeIndex",
    "ExactQueryEngine",
    "AnalyticsSession",
    "AnalyticsService",
    "ServingStatistics",
    "LatencyHistogram",
    "DegradationPolicy",
    "CircuitBreaker",
    "ConcurrentAnalyticsService",
    "ConcurrencyPolicy",
    "AnswerCache",
    "ScriptFuture",
    "ObserverHub",
    "LifecycleEvent",
    "RecordingObserver",
    "ModelManager",
    "DriftPolicy",
    "ModelVersionStore",
    "LifecycleScheduler",
    "parse_script",
    "parse_statement",
    # core
    "LLMModel",
    "TrainingReport",
    "LocalLinearMap",
    "RegressionPlane",
    "GrowingQuantizer",
    "FixedKQuantizer",
    "StreamingTrainer",
    "save_model",
    "load_model",
    # baselines
    "OLSRegressor",
    "MARSRegressor",
    "SamplingRegressor",
    "fit_reg_over_subspace",
    "fit_plr_over_subspace",
    # bench
    "ExperimentConfig",
    "RunRecord",
    "BenchmarkSpec",
    "BenchmarkRunner",
    "ResultsStore",
    "RegressionDetector",
    "RegressionPolicy",
    # metrics
    "rmse",
    "fvu",
    "cod",
]
