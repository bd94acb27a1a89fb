"""The readable Algorithm-1 step: the reference the fused kernel is pinned to.

Training in :mod:`repro.core` runs one step implementation,
:class:`~repro.core.sgd.FusedTrainingKernel`, over dense parameter stores.
This module keeps the same step in its readable object form, over
:class:`~repro.core.prototypes.LocalLinearMap` records, for differential
testing (McKeeman, "Differential Testing for Software", 1998):
:class:`GrowingQuantizer` is the paper's conditionally growing AVQ
(Section IV), :func:`apply_winner_update` the Theorem-4 update with the
stabilised slope step that :mod:`repro.core.sgd` documents, and
:func:`train_step` one of each, the seed training loop's per-pair work
(the caller adds the full ``Gamma`` recompute,
:meth:`~repro.core.convergence.ConvergenceTracker.observe`).
:class:`FixedKQuantizer` fixes K in advance, the classical alternative the
quantizer ablation compares against.

The kernel performs the same floating-point operations in the same order,
so the two train bit-identical models;
``tests/test_reference_training.py::TestFusedKernelMatchesReference``
checks that on every training path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.prototypes import LocalLinearMap, LocalModelParameters
from ..exceptions import ConfigurationError, DimensionalityMismatchError

__all__ = [
    "GrowingQuantizer",
    "FixedKQuantizer",
    "WinnerUpdate",
    "apply_winner_update",
    "train_step",
]


class _Quantizer:
    """Prototypes over the query space and the winner search shared by both."""

    def __init__(self) -> None:
        self.parameters = LocalModelParameters()

    @property
    def prototype_count(self) -> int:
        """Current number of prototypes ``K``."""
        return len(self.parameters)

    @property
    def maps(self) -> tuple[LocalLinearMap, ...]:
        """The LLMs attached to the prototypes (cached read-only view)."""
        return self.parameters.maps_view

    def prototype_matrix(self) -> np.ndarray:
        """Stack the prototypes into a ``(K, d + 1)`` matrix (copy)."""
        return self.parameters.prototype_matrix()

    def find_winner(self, query_vector: np.ndarray) -> tuple[int, float]:
        """Return ``(index, distance)`` of the closest prototype.

        Raises
        ------
        ConfigurationError
            If the quantizer holds no prototypes yet.
        """
        if not self.parameters.maps:
            raise ConfigurationError("the quantizer holds no prototypes yet")
        vec = np.asarray(query_vector, dtype=float).ravel()
        matrix = self.parameters.prototype_view()
        if vec.shape[0] != matrix.shape[1]:
            raise DimensionalityMismatchError(
                f"query vector has dimension {vec.shape[0]}, prototypes have "
                f"{matrix.shape[1]}"
            )
        distances = np.linalg.norm(matrix - vec[np.newaxis, :], axis=1)
        winner = int(np.argmin(distances))
        return winner, float(distances[winner])

    def _grow(self, vec: np.ndarray, answer: float) -> int:
        self.parameters.add(LocalLinearMap(prototype=vec, mean_output=answer))
        return len(self.parameters) - 1


class GrowingQuantizer(_Quantizer):
    """Conditionally growing AVQ over the query space.

    Parameters
    ----------
    vigilance:
        The threshold ``rho``: a query further than this from every existing
        prototype spawns a new prototype.
    """

    def __init__(self, vigilance: float) -> None:
        if vigilance <= 0:
            raise ConfigurationError(f"vigilance must be positive, got {vigilance}")
        super().__init__()
        self.vigilance = float(vigilance)
        #: Number of times a query spawned a new prototype.
        self.growth_events = 0

    def observe(
        self, query_vector: np.ndarray, answer: float = 0.0
    ) -> tuple[int, bool, float]:
        """Route a query to its winner or grow a new prototype.

        Returns
        -------
        tuple
            ``(winner_index, grew, distance)`` where ``grew`` indicates that
            a new prototype was created at the query position (in which case
            ``winner_index`` points at the new prototype and ``distance`` is
            the distance to the previously closest prototype, or infinity if
            this was the first query).
        """
        vec = np.asarray(query_vector, dtype=float).ravel()
        distance = float("inf")
        if self.parameters.maps:
            winner, distance = self.find_winner(vec)
            if distance <= self.vigilance:
                return winner, False, distance
        self.growth_events += 1
        return self._grow(vec, answer), True, distance


class FixedKQuantizer(_Quantizer):
    """Online quantizer with a fixed number of prototypes (ablation baseline).

    The first ``k`` queries become the prototypes; afterwards every query
    moves its winner by ``eta (q - w_j)`` exactly as the growing quantizer
    does, but no new prototypes are ever created.
    """

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        super().__init__()
        self.k = int(k)

    def observe(
        self, query_vector: np.ndarray, answer: float = 0.0
    ) -> tuple[int, bool, float]:
        """Seed prototypes until ``k`` exist, then always route to the winner."""
        vec = np.asarray(query_vector, dtype=float).ravel()
        if len(self.parameters) < self.k:
            return self._grow(vec, answer), True, float("inf")
        winner, distance = self.find_winner(vec)
        return winner, False, distance


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
        The step size ``eta`` in ``(0, 1]``.

    Returns
    -------
    WinnerUpdate
        The magnitudes of the applied changes.

    Notes
    -----
    The prediction error and the gradient direction ``(q - w_j)`` are
    computed against the *current* prototype, and then all three parameters
    are shifted, matching the simultaneous update of Theorem 4.
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

    # Slope step (see repro.core.sgd): residual error after the intercept
    # correction, normalised by the running second moment of the
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


def train_step(
    quantizer: GrowingQuantizer | FixedKQuantizer,
    query_vector: np.ndarray,
    answer: float,
    schedule: Callable[[int], float],
) -> tuple[int, bool]:
    """Route or grow, then update the winner: one pair of Algorithm 1.

    The learning rate is ``schedule(updates)`` of the winner, as the fused
    kernel draws it.  Returns ``(winner_index, grew)``.
    """
    index, grew, _ = quantizer.observe(query_vector, answer=answer)
    if not grew:
        winner = quantizer.parameters[index]
        apply_winner_update(winner, query_vector, answer, schedule(winner.updates))
    return index, grew
