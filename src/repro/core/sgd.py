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

There is one implementation of the step, :class:`FusedTrainingKernel`,
which writes the update through the dense parameter stores.  Every
training path runs it, one pair at a time in stream order, so a chunk of
pairs trains exactly the model the sequential Algorithm-1 loop would.  The
winner search is one dense scan of the ``K`` prototypes per pair, as in the
paper; there is no prototype index.  The readable object form of the same
step (winner search, growth and update over
:class:`~repro.core.prototypes.LocalLinearMap` records, with the full
``Gamma`` recompute) is :mod:`repro.testing.reference_training`;
``tests/test_reference_training.py::TestFusedKernelMatchesReference`` pins
the kernel to it bit for bit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .prototypes import LocalLinearMap, LocalModelParameters

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .convergence import ConvergenceRecord, ConvergenceTracker
    from .learning_rates import LearningRateSchedule

__all__ = ["FusedTrainingKernel"]


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
    same floating-point operations as the readable object-path step of
    :mod:`repro.testing.reference_training` followed by the full
    ``ConvergenceTracker.observe`` recompute
    (``tests/test_reference_training.py::TestFusedKernelMatchesReference``
    pins this on every training path).

    :meth:`process_chunk` processes its pairs one at a time in stream order,
    selecting every winner against the *current* prototype matrix, so a
    chunk is bitwise-identical to calling :meth:`process_pair` per pair.
    """

    def __init__(
        self,
        parameters: LocalModelParameters,
        vigilance: float,
        schedule: "LearningRateSchedule",
        tracker: "ConvergenceTracker",
    ) -> None:
        self._parameters = parameters
        self._vigilance = float(vigilance)
        self._schedule = schedule
        self._tracker = tracker
        self._rates: list[float] = []

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def process_pair(self, vector: np.ndarray, answer: float) -> "ConvergenceRecord":
        """Process one ``(query vector, answer)`` pair (one Algorithm-1 step).

        Returns the convergence record of the step; its ``winner_index`` /
        ``grew`` fields identify the changed LLM.
        """
        parameters = self._parameters
        if len(parameters.maps) == 0:
            return self._grow(parameters, vector, answer)
        prototypes, slopes, scalars = parameters.training_views()
        # One broadcast subtraction, one row-norm, one argmin over the
        # dense store, as the reference quantizer's winner search.
        distances = np.linalg.norm(prototypes - vector[np.newaxis, :], axis=1)
        winner = int(np.argmin(distances))
        if not distances[winner] <= self._vigilance:
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
        """Append a new prototype at the query position (growth event).

        The paper starts a new LLM with zero coefficients.  Its slope does
        start at zero here, but its intercept starts at the observed answer,
        a strictly better first estimate of the local mean.
        """
        parameters.add(LocalLinearMap(prototype=vector, mean_output=answer))
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

        Bit-for-bit the operation sequence of the reference
        :func:`~repro.testing.reference_training.apply_winner_update` (same
        expressions, same order, same scalar round-trips), minus the
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
