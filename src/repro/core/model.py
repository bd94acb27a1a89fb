"""The public model: query-driven Local Linear Mapping regression.

:class:`LLMModel` ties the pieces together: it owns the prototypes of the
query space and their LLM coefficients, grows and learns them by SGD from
a stream of ``(query, answer)`` pairs (Algorithm 1), tracks convergence,
and after training answers

* Q1 mean-value queries (:meth:`LLMModel.predict_mean_batch`),
* Q2 regression queries (:meth:`LLMModel.predict_q2_batch`), and
* data-value predictions (:meth:`LLMModel.predict_value_batch`)

without any access to the underlying data store.  The single-query forms
(:meth:`LLMModel.predict_mean`, :meth:`LLMModel.regression_models`,
:meth:`LLMModel.predict_value`) are batches of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ..config import ModelConfig, TrainingConfig
from ..exceptions import (
    DimensionalityMismatchError,
    InternalInvariantError,
    NotFittedError,
)
from ..queries.query import Query, QueryResultPair, group_by_norm_order
from .convergence import ConvergenceRecord, ConvergenceTracker
from .learning_rates import LearningRateSchedule, get_schedule
from .prediction import NeighborhoodPredictor, PredictionDiagnostics
from .prototypes import LocalLinearMap, LocalModelParameters, RegressionPlane
from .sgd import FusedTrainingKernel

__all__ = ["LLMModel", "TrainingReport"]


@dataclass
class TrainingReport:
    """Summary of one training run of :meth:`LLMModel.fit`.

    Attributes
    ----------
    pairs_processed:
        Number of ``(query, answer)`` pairs consumed.
    converged:
        Whether the ``Gamma <= gamma`` criterion fired (as opposed to the
        stream ending or ``max_steps`` being hit).
    final_criterion:
        The last observed value of ``max(Gamma_J, Gamma_H)``.
    prototype_count:
        The number of prototypes ``K`` at the end of training.
    criterion_history:
        The full ``Gamma`` trajectory (empty when history recording is off).
    """

    pairs_processed: int = 0
    converged: bool = False
    final_criterion: float = float("inf")
    prototype_count: int = 0
    criterion_history: list[ConvergenceRecord] = field(default_factory=list)

    def criterion_values(self) -> np.ndarray:
        """Return the trajectory of the termination criterion as an array."""
        return np.array([record.criterion for record in self.criterion_history])


class LLMModel:
    """Query-driven local linear model for Q1/Q2 analytics queries.

    Parameters
    ----------
    dimension:
        Dimensionality ``d`` of the data (and query-center) space.
    config:
        Quantization configuration; defaults to the paper's settings
        (``a = 0.25``, Euclidean norm).
    training:
        Training configuration; defaults to the paper's settings
        (``gamma = 0.01``, hyperbolic learning rate).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.queries import Query
    >>> model = LLMModel(dimension=1)
    >>> rng = np.random.default_rng(0)
    >>> pairs = []
    >>> for _ in range(300):
    ...     center = rng.uniform(0, 1, size=1)
    ...     query = Query(center=center, radius=0.1)
    ...     pairs.append((query, float(center[0] * 2.0)))
    >>> report = model.fit(pairs)
    >>> prediction = model.predict_mean(Query(center=np.array([0.5]), radius=0.1))
    >>> abs(prediction - 1.0) < 0.25
    True
    """

    def __init__(
        self,
        dimension: int,
        config: ModelConfig | None = None,
        training: TrainingConfig | None = None,
    ) -> None:
        if dimension < 1:
            raise DimensionalityMismatchError(f"dimension must be >= 1, got {dimension}")
        self.dimension = int(dimension)
        self.config = config or ModelConfig()
        self.training = training or TrainingConfig()
        self._vigilance = self.config.vigilance(self.dimension)
        self._parameters = LocalModelParameters()
        self._schedule: LearningRateSchedule = get_schedule(
            self.training.learning_rate_schedule, self.training.learning_rate_scale
        )
        self._tracker = ConvergenceTracker(
            threshold=self.training.convergence_threshold,
            min_steps=self.training.min_steps,
            record_history=self.training.record_history,
            window=self.training.convergence_window,
        )
        self._kernel = FusedTrainingKernel(
            self._parameters, self._vigilance, self._schedule, self._tracker
        )
        self._steps = 0
        self._frozen = False
        self._fitted = False
        self._cached_predictor: NeighborhoodPredictor | None = None
        self._cached_predictor_steps = -1
        self.last_report: TrainingReport | None = None

    # ------------------------------------------------------------------ #
    # properties
    # ------------------------------------------------------------------ #
    @property
    def vigilance(self) -> float:
        """The resolved vigilance threshold ``rho``."""
        return self._vigilance

    @property
    def prototype_count(self) -> int:
        """Current number of prototypes ``K``."""
        return len(self._parameters)

    @property
    def local_maps(self) -> Sequence[LocalLinearMap]:
        """The trained local linear maps (cached read-only view)."""
        return self._parameters.maps_view

    @property
    def is_fitted(self) -> bool:
        """Whether the model has processed at least one training pair."""
        return self._fitted

    @property
    def is_frozen(self) -> bool:
        """Whether training has terminated (no further parameter changes)."""
        return self._frozen

    @property
    def steps(self) -> int:
        """Number of training pairs processed so far."""
        return self._steps

    @property
    def convergence_tracker(self) -> ConvergenceTracker:
        """The convergence tracker (exposed for experiments)."""
        return self._tracker

    def _predictor(self) -> NeighborhoodPredictor:
        if not self._fitted:
            raise NotFittedError("the model must be fitted before prediction")
        # Rebuilding the dense parameter snapshot is O(dK); caching it keeps
        # repeated predictions at the vectorised O(dK) arithmetic cost only.
        if self._cached_predictor is None or self._cached_predictor_steps != self._steps:
            self._cached_predictor = NeighborhoodPredictor(self._parameters.maps_view)
            self._cached_predictor_steps = self._steps
        return self._cached_predictor

    # ------------------------------------------------------------------ #
    # training
    # ------------------------------------------------------------------ #
    def partial_fit(self, query: Query, answer: float) -> ConvergenceRecord:
        """Process a single ``(query, answer)`` pair (one step of Algorithm 1).

        After the termination criterion has fired the model is *frozen*:
        further calls return the last convergence record without modifying
        any parameter, matching the paper's "at that time and onwards, the
        algorithm returns the parameter set and no further modification is
        performed".

        The step runs through the fused training kernel
        (:class:`~repro.core.sgd.FusedTrainingKernel`): winner search and
        the Theorem-4 update operate directly on the dense parameter
        stores, the learning-rate schedule is memoised by winner update
        count, and the convergence criterion is maintained incrementally
        from the changed prototype — O(d) per step instead of O(K d).
        """
        if query.dimension != self.dimension:
            raise DimensionalityMismatchError(
                f"query has dimension {query.dimension}, model expects {self.dimension}"
            )
        if self._frozen:
            record = self._tracker.last_record
            if record is None:
                raise InternalInvariantError(
                    "model froze without a convergence record"
                )
            return record

        record = self._kernel.process_pair(query.to_vector(), float(answer))
        self._absorb(record)
        if self._tracker.has_converged():
            self._frozen = True
        return record

    def partial_fit_batch(
        self, queries: Sequence[Query], answers: Sequence[float]
    ) -> list[ConvergenceRecord]:
        """Process a chunk of ``(query, answer)`` pairs in stream order.

        The chunk is handed to the fused kernel as one ``(m, d + 1)``
        matrix.  The result is *bit-for-bit identical* to calling
        :meth:`partial_fit` per pair (same winner sequence, same
        prototypes, same criterion trajectory).

        Consumption stops early when the convergence criterion fires
        mid-chunk — exactly where the sequential loop would have stopped —
        or immediately when the model is already frozen; the records of the
        consumed prefix are returned (so ``len(result)`` is the number of
        pairs actually absorbed).  Dimension validation is eager over the
        whole chunk.
        """
        batch = list(queries)
        values = [float(answer) for answer in answers]
        if len(batch) != len(values):
            raise ValueError(
                f"got {len(batch)} queries but {len(values)} answers"
            )
        for query in batch:
            if query.dimension != self.dimension:
                raise DimensionalityMismatchError(
                    f"query has dimension {query.dimension}, model expects "
                    f"{self.dimension}"
                )
        if self._frozen or not batch:
            return []
        matrix = np.vstack([query.to_vector() for query in batch])
        records = self._kernel.process_chunk(matrix, values)
        for record in records:
            self._absorb(record)
        if self._tracker.has_converged():
            self._frozen = True
        return records

    def _absorb(self, record: ConvergenceRecord) -> None:
        """Fold one kernel step into the model's bookkeeping.

        The changed LLM is identified by the record's ``winner_index`` /
        ``grew`` fields (and by the tracker's history when recording is on).
        """
        del record  # the step itself already mutated the parameter stores
        self._steps += 1
        self._fitted = True

    def fit(
        self,
        pairs: Iterable[tuple[Query, float] | QueryResultPair],
        *,
        reset: bool = False,
    ) -> TrainingReport:
        """Train on a stream of ``(query, answer)`` pairs until convergence.

        Parameters
        ----------
        pairs:
            Either ``(Query, float)`` tuples or
            :class:`~repro.queries.query.QueryResultPair` objects, e.g. a
            :class:`~repro.queries.stream.LabelledWorkload`.
        reset:
            Start from scratch (drop all prototypes) before training.
        """
        if reset:
            self.reset()
        processed = 0
        for pair in pairs:
            if isinstance(pair, QueryResultPair):
                query, answer = pair.query, pair.answer
            else:
                query, answer = pair
            self.partial_fit(query, float(answer))
            processed += 1
            if self._frozen:
                break
            if (
                self.training.max_steps is not None
                and self._steps >= self.training.max_steps
            ):
                break
        report = TrainingReport(
            pairs_processed=processed,
            converged=self._frozen,
            final_criterion=self._tracker.last_criterion,
            prototype_count=self.prototype_count,
            criterion_history=list(self._tracker.history),
        )
        self.last_report = report
        return report

    def reset(self) -> None:
        """Drop every prototype and restart the training state."""
        self._parameters = LocalModelParameters()
        self._tracker.reset()
        self._kernel = FusedTrainingKernel(
            self._parameters, self._vigilance, self._schedule, self._tracker
        )
        self._steps = 0
        self._frozen = False
        self._fitted = False
        self._cached_predictor = None
        self._cached_predictor_steps = -1
        self.last_report = None

    # ------------------------------------------------------------------ #
    # prediction (Section V)
    # ------------------------------------------------------------------ #
    def predict_mean(self, query: Query) -> float:
        """Predict the Q1 answer of an unseen query (Algorithm 2).

        A batch of one: the query's ``(1, d + 1)`` row and its own norm
        order go straight to the batch kernel.
        """
        return self._predictor().predict_mean(query)

    def predict_mean_with_diagnostics(
        self, query: Query
    ) -> tuple[float, PredictionDiagnostics]:
        """Q1 prediction plus the neighbourhood used to produce it."""
        return self._predictor().predict_mean_with_diagnostics(query)

    def predict_mean_batch(
        self,
        queries: Sequence[Query] | np.ndarray,
        norm_order: float | None = None,
    ) -> np.ndarray:
        """Batched Q1 prediction (Algorithm 2 as matrix arithmetic).

        Parameters
        ----------
        queries:
            Either a sequence of :class:`~repro.queries.query.Query` objects
            (their own norm orders are honoured, grouped per order) or a raw
            ``(m, d + 1)`` matrix of ``[x, theta]`` rows.
        norm_order:
            The Lp order used with a raw matrix; defaults to the model's
            configured norm.  Ignored for :class:`Query` sequences.
        """
        predictor = self._predictor()
        if isinstance(queries, np.ndarray):
            order = norm_order if norm_order is not None else self.config.norm_order
            return predictor.predict_mean_batch(queries, norm_order=order)
        out = np.empty(len(queries), dtype=float)
        for order, indices, matrix in self._query_matrix_groups(queries):
            out[indices] = predictor.predict_mean_batch(matrix, norm_order=order)
        return out

    def predict_mean_batch_with_coverage(
        self,
        queries: Sequence[Query] | np.ndarray,
        norm_order: float | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched Q1 prediction plus the per-query coverage mask.

        Returns ``(values, covered)`` where ``covered[i]`` is ``True`` when
        the model holds at least one prototype overlapping query ``i``
        (non-empty ``W(q)``).  Uncovered queries are answered by
        extrapolation from the closest prototype — the low-confidence
        signal the hybrid serving layer uses to fall back to the exact
        engine.
        """
        predictor = self._predictor()
        if isinstance(queries, np.ndarray):
            order = norm_order if norm_order is not None else self.config.norm_order
            return predictor.predict_mean_batch_with_coverage(queries, norm_order=order)
        values = np.empty(len(queries), dtype=float)
        covered = np.empty(len(queries), dtype=bool)
        for order, indices, matrix in self._query_matrix_groups(queries):
            group_values, group_covered = predictor.predict_mean_batch_with_coverage(
                matrix, norm_order=order
            )
            values[indices] = group_values
            covered[indices] = group_covered
        return values, covered

    def coverage_batch(
        self,
        queries: Sequence[Query] | np.ndarray,
        norm_order: float | None = None,
    ) -> np.ndarray:
        """Return the boolean coverage mask of a query batch (``W(q)`` non-empty)."""
        predictor = self._predictor()
        if isinstance(queries, np.ndarray):
            order = norm_order if norm_order is not None else self.config.norm_order
            return predictor.batch_coverage(queries, norm_order=order)
        covered = np.empty(len(queries), dtype=bool)
        for order, indices, matrix in self._query_matrix_groups(queries):
            covered[indices] = predictor.batch_coverage(matrix, norm_order=order)
        return covered

    def regression_models(self, query: Query) -> list[RegressionPlane]:
        """Return the list ``S`` of local regression planes (Algorithm 3)."""
        return self._predictor().regression_models(query)

    def predict_q2_batch(
        self,
        queries: Sequence[Query] | np.ndarray,
        norm_order: float | None = None,
    ) -> list[list[RegressionPlane]]:
        """Batched Q2 prediction: the plane list of every query in one pass."""
        predictor = self._predictor()
        if isinstance(queries, np.ndarray):
            order = norm_order if norm_order is not None else self.config.norm_order
            return predictor.predict_q2_batch(queries, norm_order=order)
        results: list[list[RegressionPlane] | None] = [None] * len(queries)
        for order, indices, matrix in self._query_matrix_groups(queries):
            for position, planes in zip(
                indices, predictor.predict_q2_batch(matrix, norm_order=order)
            ):
                results[int(position)] = planes
        return results  # type: ignore[return-value]

    def predict_q2_batch_with_coverage(
        self,
        queries: Sequence[Query] | np.ndarray,
        norm_order: float | None = None,
    ) -> tuple[list[list[RegressionPlane]], np.ndarray]:
        """Batched Q2 prediction plus the per-query coverage mask.

        See :meth:`predict_mean_batch_with_coverage` for the coverage
        semantics; an uncovered query's plane list holds the single
        extrapolated closest-prototype plane.
        """
        predictor = self._predictor()
        if isinstance(queries, np.ndarray):
            order = norm_order if norm_order is not None else self.config.norm_order
            return predictor.predict_q2_batch_with_coverage(queries, norm_order=order)
        results: list[list[RegressionPlane] | None] = [None] * len(queries)
        covered = np.empty(len(queries), dtype=bool)
        for order, indices, matrix in self._query_matrix_groups(queries):
            group_planes, group_covered = predictor.predict_q2_batch_with_coverage(
                matrix, norm_order=order
            )
            covered[indices] = group_covered
            for position, planes in zip(indices, group_planes):
                results[int(position)] = planes
        return results, covered  # type: ignore[return-value]

    @staticmethod
    def _query_matrix_groups(
        queries: Sequence[Query],
    ) -> list[tuple[float, np.ndarray, np.ndarray]]:
        """Group a query sequence into per-norm-order ``(m, d + 1)`` matrices."""
        if len(queries) == 0:
            return []
        vectors = np.empty((len(queries), queries[0].dimension + 1))
        vectors[:, :-1] = [query.center for query in queries]
        vectors[:, -1] = [query.radius for query in queries]
        return [
            (order, indices, matrix)
            for order, indices, (matrix,) in group_by_norm_order(queries, vectors)
        ]

    def predict_value(self, point: np.ndarray, radius: float | None = None) -> float:
        """Predict the data value ``u ≈ g(x)`` at a point (Equation 14).

        ``radius`` defaults to the average prototype radius, which mirrors
        the evaluation's use of the workload's typical radius for data-value
        probes.
        """
        predictor = self._predictor()
        probe_radius = radius if radius is not None else self.average_prototype_radius()
        return predictor.predict_value(point, probe_radius, self.config.norm_order)

    def predict_value_batch(
        self, points: np.ndarray, radius: float | None = None
    ) -> np.ndarray:
        """Batched data-value prediction (Equation 14 as matrix arithmetic).

        ``radius`` defaults to the average prototype radius, matching
        :meth:`predict_value`.
        """
        predictor = self._predictor()
        probe_radius = radius if radius is not None else self.average_prototype_radius()
        return predictor.predict_value_batch(
            points, probe_radius, self.config.norm_order
        )

    # ------------------------------------------------------------------ #
    # diagnostics
    # ------------------------------------------------------------------ #
    def average_prototype_radius(self) -> float:
        """Mean radius component across the prototypes."""
        if not self._fitted:
            raise NotFittedError("the model must be fitted before inspection")
        return float(np.mean(self._parameters.prototype_view()[:, -1]))

    def prototype_matrix(self) -> np.ndarray:
        """The ``(K, d + 1)`` matrix of prototype vectors."""
        if not self._fitted:
            raise NotFittedError("the model must be fitted before inspection")
        return self._parameters.prototype_matrix()

    def memory_footprint(self) -> int:
        """Approximate number of floats stored by the model: ``K (2d + 3)``.

        Each LLM stores a ``(d + 1)``-prototype, a ``(d + 1)``-slope and a
        scalar intercept — the ``O(dK)`` space cost the paper reports.
        """
        if not self._fitted:
            return 0
        per_map = 2 * (self.dimension + 1) + 1
        return self.prototype_count * per_map

    def describe(self) -> dict:
        """Return a readable summary of the trained model."""
        return {
            "dimension": self.dimension,
            "vigilance": self.vigilance,
            "prototype_count": self.prototype_count,
            "steps": self.steps,
            "frozen": self.is_frozen,
            "memory_floats": self.memory_footprint(),
        }
