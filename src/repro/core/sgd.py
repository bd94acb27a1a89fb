"""Stochastic gradient descent update rules (Theorem 4).

Upon the arrival of a training pair ``(q, y)`` with winning prototype
``w_j`` (the closest prototype under the Euclidean norm), and provided the
winner lies within the vigilance radius ``rho`` of the query, the paper's
Theorem 4 prescribes the updates

* ``Delta w_j  = eta (q - w_j)``                         (prototype move)
* ``Delta b_j  = eta (y - y_j - b_j (q - w_j)^T)(q - w_j)``  (slope)
* ``Delta y_j  = eta (y - y_j - b_j (q - w_j)^T)``           (intercept)

with all other prototypes left untouched.  These are exactly the stochastic
gradient steps of the EQE objective (for ``w_j``) and of the conditional EPE
objective (for ``y_j`` and ``b_j``).

Implementation note (documented deviation): the raw LMS slope step scales
with ``||q - w_j||^2``.  On unit-scaled data with radii around 0.1 that
factor is ~0.01, so the slope would need two orders of magnitude more
winner updates than the intercept to converge — far more pairs than a
query workload provides.  Two standard stabilisations are applied while
keeping the gradient direction of Theorem 4:

* the intercept is updated first and the slope uses the *residual* error
  after that intercept correction, which removes the large intercept
  mismatch from the slope gradient during the first updates, and
* the slope step is normalised by ``m_j + ||q - w_j||^2`` where ``m_j`` is
  the prototype's running mean of ``||q - w_j||^2`` (a scalar second-moment
  estimate), which equalises the convergence rates of intercept and slope
  without the heavy-tailed steps of plain per-sample normalisation.

The step exists twice, with the same floating-point operations in the same
order: :func:`apply_winner_update` updates one
:class:`~repro.core.prototypes.LocalLinearMap` object (the readable
reference), and :class:`FusedTrainingKernel` writes the same update through
the dense parameter stores.  Every training path runs the fused kernel, one
pair at a time in stream order, so a chunk of pairs trains exactly the model
the sequential Algorithm-1 loop would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..exceptions import ConfigurationError
from .prototypes import LocalLinearMap

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..dbms.spatial_index import PrototypeIndex
    from .avq import GrowingQuantizer
    from .convergence import ConvergenceRecord, ConvergenceTracker
    from .learning_rates import LearningRateSchedule

__all__ = ["WinnerUpdate", "apply_winner_update", "FusedTrainingKernel"]


@dataclass(frozen=True)
class WinnerUpdate:
    """The magnitudes of one winner update (returned for diagnostics/tests)."""

    prototype_shift: float
    slope_shift: float
    intercept_shift: float
    prediction_error: float


def apply_winner_update(
    winner: LocalLinearMap,
    query_vector: np.ndarray,
    answer: float,
    learning_rate: float,
) -> WinnerUpdate:
    """Apply the Theorem-4 updates to the winning LLM in place.

    Parameters
    ----------
    winner:
        The winning LLM ``f_j`` (modified in place).
    query_vector:
        The ``(d + 1)``-dimensional query vector ``q = [x, theta]``.
    answer:
        The observed exact answer ``y`` of the query.
    learning_rate:
        The step size ``eta`` in ``(0, 1)``.

    Returns
    -------
    WinnerUpdate
        The magnitudes of the applied changes, used by convergence
        diagnostics and unit tests.

    Notes
    -----
    The order of operations matters: the prediction error and the gradient
    direction ``(q - w_j)`` are computed against the *current* prototype,
    and then all three parameters are shifted, matching the simultaneous
    update of Theorem 4.
    """
    if not 0.0 < learning_rate <= 1.0:
        raise ConfigurationError(
            f"learning rate must be in (0, 1], got {learning_rate}"
        )
    q = np.asarray(query_vector, dtype=float).ravel()
    difference = q - winner.prototype
    prediction_error = float(answer - winner.mean_output - winner.slope @ difference)

    prototype_delta = learning_rate * difference
    intercept_delta = learning_rate * prediction_error

    # Slope step (see the module docstring): residual error after the
    # intercept correction, normalised by the running second moment of the
    # query-prototype differences.
    squared_norm = float(difference @ difference)
    second_moment = winner.update_difference_second_moment(squared_norm)
    residual_error = prediction_error - intercept_delta
    denominator = second_moment + squared_norm
    if denominator > 0.0:
        slope_delta = learning_rate * residual_error * difference / denominator
    else:
        slope_delta = np.zeros_like(difference)

    winner.shift_prototype(prototype_delta)
    winner.shift_slope(slope_delta)
    winner.shift_mean_output(intercept_delta)
    winner.updates += 1

    return WinnerUpdate(
        prototype_shift=float(np.linalg.norm(prototype_delta)),
        slope_shift=float(np.linalg.norm(slope_delta)),
        intercept_shift=float(intercept_delta),
        prediction_error=prediction_error,
    )


#: Prototype count at which the fused kernel starts pruning the winner scan
#: through a :class:`~repro.dbms.spatial_index.PrototypeIndex`.  The dense
#: (K, d + 1) scan is a handful of vectorised operations, so the grid lookup
#: only amortises its per-step Python overhead once K reaches the low
#: thousands — the same crossover the prediction paths measured.
DEFAULT_WINNER_PRUNING_THRESHOLD = 2048

#: Fraction of the vigilance radius the prototypes may accumulate as total
#: movement before the winner-pruning index is rebuilt.  Until then the
#: index is probed with the movement bound added to the reach, which keeps
#: the candidate set an exact superset of every prototype within vigilance.
_INDEX_SLACK_FRACTION = 0.25

#: Number of prototypes grown after an index build before the index is
#: rebuilt (fresh prototypes are scanned densely until then).
_INDEX_FRESH_LIMIT = 64


class FusedTrainingKernel:
    """Chunk-oriented training updates fused over the dense parameter stores.

    One step of Algorithm 1 is a winner search, an optional growth event, a
    Theorem-4 winner update and a convergence observation.  The kernel runs
    all four directly against the capacity-doubling dense arrays of
    :class:`~repro.core.prototypes.LocalModelParameters` — no
    :class:`~repro.core.prototypes.LocalLinearMap` attribute churn, no
    per-step parameter re-stacking, an O(1) incremental ``Gamma`` via
    :meth:`~repro.core.convergence.ConvergenceTracker.observe_step`, and a
    memoised learning-rate schedule — while performing *bit-for-bit* the
    same floating-point operations as the sequential
    ``GrowingQuantizer.observe`` + :func:`apply_winner_update` +
    ``ConvergenceTracker.observe`` step (the training equivalence suite
    pins this).

    :meth:`process_chunk` processes its pairs one at a time in stream order,
    selecting every winner against the *current* prototype matrix, so a
    chunk is bitwise-identical to calling :meth:`process_pair` per pair.

    When ``K`` reaches ``prune_threshold`` the kernel additionally prunes
    the winner scan through a
    :class:`~repro.dbms.spatial_index.PrototypeIndex` over a snapshot of
    the prototype matrix: the index is probed with the vigilance radius
    plus the total prototype movement accumulated since the snapshot (an
    upper bound on any single prototype's displacement), so the candidate
    set provably contains every prototype within vigilance of the query and
    the selected winner — including tie-breaking towards the lowest index —
    is identical to the dense scan's.  Prototypes grown since the snapshot
    are scanned densely; the index is rebuilt once the movement bound or the
    fresh-prototype count exceeds its budget.
    """

    def __init__(
        self,
        quantizer: "GrowingQuantizer",
        schedule: "LearningRateSchedule",
        tracker: "ConvergenceTracker",
        *,
        prune_threshold: int | None = DEFAULT_WINNER_PRUNING_THRESHOLD,
    ) -> None:
        self._quantizer = quantizer
        self._schedule = schedule
        self._tracker = tracker
        self._vigilance = float(quantizer.vigilance)
        self._rates: list[float] = []
        self._prune_threshold = prune_threshold
        self._index: "PrototypeIndex | None" = None
        self._index_size = 0
        self._index_slack = 0.0

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def process_pair(self, vector: np.ndarray, answer: float) -> "ConvergenceRecord":
        """Process one ``(query vector, answer)`` pair (one Algorithm-1 step).

        Returns the convergence record of the step; its ``winner_index`` /
        ``grew`` fields identify the changed LLM.
        """
        parameters = self._quantizer.parameters
        count = len(parameters.maps)
        if count == 0:
            return self._grow(parameters, vector, answer)
        prototypes, slopes, scalars = parameters.training_views()
        if (
            self._prune_threshold is not None
            and count >= self._prune_threshold
        ):
            winner, within = self._pruned_winner(prototypes, vector)
        else:
            # Same operations as GrowingQuantizer.find_winner on the dense
            # store: one broadcast subtraction, one row-norm, one argmin.
            distances = np.linalg.norm(
                prototypes - vector[np.newaxis, :], axis=1
            )
            winner = int(np.argmin(distances))
            within = bool(distances[winner] <= self._vigilance)
        if not within:
            return self._grow(parameters, vector, answer)
        self._apply_update(prototypes, slopes, scalars, winner, vector, answer)
        return self._tracker.observe_step(parameters, winner)

    def process_chunk(
        self, matrix: np.ndarray, answers: "list[float]"
    ) -> "list[ConvergenceRecord]":
        """Process a chunk of pairs, stopping at the convergence criterion.

        ``matrix`` is the ``(m, d + 1)`` stack of query vectors in stream
        order and ``answers`` the matching exact answers.  Processing stops
        *after* the pair whose observation satisfies the tracker's
        termination criterion, exactly as the sequential loop's
        frozen-check-at-loop-top does; the records of the consumed prefix
        are returned.
        """
        records: "list[ConvergenceRecord]" = []
        for position in range(matrix.shape[0]):
            records.append(self.process_pair(matrix[position], answers[position]))
            if self._tracker.has_converged():
                break
        return records

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _rate(self, step: int) -> float:
        """Memoised learning-rate schedule (schedules are pure functions)."""
        rates = self._rates
        while len(rates) <= step:
            rates.append(self._schedule(len(rates)))
        return rates[step]

    def _grow(self, parameters, vector: np.ndarray, answer: float):
        """Append a new prototype at the query position (growth event)."""
        parameters.add(LocalLinearMap(prototype=vector, mean_output=answer))
        self._quantizer.growth_events += 1
        return self._tracker.observe_step(parameters, len(parameters) - 1)

    def _apply_update(
        self,
        prototypes: np.ndarray,
        slopes: np.ndarray,
        scalars: np.ndarray,
        winner: int,
        vector: np.ndarray,
        answer: float,
    ) -> None:
        """The Theorem-4 winner update, written through the dense stores.

        Bit-for-bit the operation sequence of :func:`apply_winner_update`
        (same expressions, same order, same scalar round-trips), minus the
        per-step object and property traffic.
        """
        difference = vector - prototypes[winner]
        mean_output = float(scalars[winner, LocalLinearMap.SCALAR_MEAN])
        prediction_error = float(
            answer - mean_output - slopes[winner] @ difference
        )
        updates = int(scalars[winner, LocalLinearMap.SCALAR_UPDATES])
        learning_rate = self._rate(updates)

        prototype_delta = learning_rate * difference
        intercept_delta = learning_rate * prediction_error

        squared_norm = float(difference @ difference)
        count = updates + 1
        second_moment = float(scalars[winner, LocalLinearMap.SCALAR_SECOND_MOMENT])
        second_moment += (squared_norm - second_moment) / count
        residual_error = prediction_error - intercept_delta
        denominator = second_moment + squared_norm

        prototypes[winner] += prototype_delta
        if denominator > 0.0:
            slopes[winner] += (
                learning_rate * residual_error * difference / denominator
            )
        scalars[winner, LocalLinearMap.SCALAR_MEAN] = mean_output + intercept_delta
        scalars[winner, LocalLinearMap.SCALAR_SECOND_MOMENT] = second_moment
        scalars[winner, LocalLinearMap.SCALAR_UPDATES] = float(count)
        if self._index is not None:
            # Upper-bound on any prototype's displacement since the index
            # snapshot; added to the probe reach until the next rebuild.
            self._index_slack += float(np.linalg.norm(prototype_delta))

    def _pruned_winner(
        self, prototypes: np.ndarray, vector: np.ndarray
    ) -> tuple[int, bool]:
        """Winner search through the pruning index (large-K fast path).

        Returns ``(winner, within_vigilance)``; the winner is only
        meaningful when ``within_vigilance`` is true — and is then provably
        identical to the dense scan's argmin (every prototype within
        vigilance is a candidate, and candidate order is ascending, so ties
        resolve to the same index).
        """
        count = prototypes.shape[0]
        if (
            self._index is None
            or self._index_slack > _INDEX_SLACK_FRACTION * self._vigilance
            or count - self._index_size > _INDEX_FRESH_LIMIT
        ):
            from ..dbms.spatial_index import PrototypeIndex

            self._index = PrototypeIndex(prototypes.copy())
            self._index_size = count
            self._index_slack = 0.0
        # candidates() inflates its probe by the build-time max prototype
        # radius (an overlap-query bound); the winner search only needs the
        # center-space ball of vigilance + slack, so the inflation is
        # subtracted out here (clamped at 0, where the effective reach
        # max_radius still covers vigilance + slack).
        candidates = self._index.candidates(
            vector[:-1],
            max(
                self._vigilance + self._index_slack - self._index.max_radius,
                0.0,
            ),
        )
        if self._index_size < count:
            candidates = np.concatenate(
                [candidates, np.arange(self._index_size, count, dtype=np.int64)]
            )
        if candidates.size == 0:
            return -1, False
        distances = np.linalg.norm(
            prototypes[candidates] - vector[np.newaxis, :], axis=1
        )
        best = int(np.argmin(distances))
        if distances[best] <= self._vigilance:
            return int(candidates[best]), True
        return -1, False
