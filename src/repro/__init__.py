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
The query-processing engine is built around three fast paths so latency
stays at "trained-model speed": independent of the data size, and linear in
the number of prototypes ``K`` as in the paper.  Every query runs through
them: the single-query methods (``predict_mean``,
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
* **Batched exact execution on sufficient statistics** — the exact
  executor answers whole batches from mergeable per-query sufficient
  statistics (count/sum for Q1; center-referenced Gram moments for Q2,
  solved by blocked OLS in
  :func:`~repro.dbms.executor.solve_q2_sufficient_statistics`).  There is
  one kernel: candidates come as contiguous runs of a cell-clustered row
  layout (one vectorised :meth:`~repro.dbms.spatial_index.GridIndex
  .candidate_ranges_batch` pass over a fine batch grid); cells certifiably
  *inside* the query ball come as runs of consecutive cells, each summed
  from two rows of a compensated prefix table with zero row-level work,
  so batch cost scales with the selection boundary rather than its
  volume.  A wide batch runs in query chunks of bounded estimated
  boundary rows, so its memory does not grow with the batch.
  Rank-deficient or near-singular subspaces fall back per query to the
  dense SVD least-squares solver, so answers keep its minimum-norm
  semantics.  The engine runs each batch inline over the whole table;
  served traffic gets its parallelism from the flush pool of the
  concurrent front (:class:`~repro.dbms.concurrent.ConcurrentAnalyticsService`),
  which runs independent batches at once.
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
    DimensionalityMismatchError,
    EmptySubspaceError,
    InjectedFaultError,
    InvalidQueryError,
    LifecycleError,
    ModelPersistenceError,
    NotFittedError,
    ReproError,
    ServiceOverloadedError,
    SQLSyntaxError,
    StorageError,
    TransientEngineError,
    WorkloadError,
)
from .queries import (
    LabelledWorkload,
    Query,
    QueryAnswer,
    QueryLog,
    QueryResultPair,
    QueryWorkloadGenerator,
    RadiusDistribution,
    WorkloadSpec,
)
from .data import (
    DriftingFunction,
    MinMaxScaler,
    SyntheticDataset,
    generate_gas_sensor_dataset,
    get_data_function,
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
    ScriptFuture,
    ServingStatistics,
    SQLiteDataStore,
    parse_script,
    parse_statement,
)
from .core import (
    LLMModel,
    LocalLinearMap,
    RegressionPlane,
    StreamingTrainer,
    TrainingReport,
    load_model,
    save_model,
)
from .baselines import MARSRegressor, OLSRegressor
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
    "WorkloadError",
    "ModelPersistenceError",
    "TransientEngineError",
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
    "LabelledWorkload",
    "QueryLog",
    # data
    "SyntheticDataset",
    "DriftingFunction",
    "make_rosenbrock_dataset",
    "make_function_dataset",
    "generate_gas_sensor_dataset",
    "get_data_function",
    "MinMaxScaler",
    # dbms
    "SQLiteDataStore",
    "GridIndex",
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
    "StreamingTrainer",
    "save_model",
    "load_model",
    # baselines
    "OLSRegressor",
    "MARSRegressor",
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
