"""Convergence tracking for the joint EQE/EPE optimization.

Training stops at the first step where ``Gamma = max(Gamma_J, Gamma_H)``
falls below the threshold ``gamma``, where

* ``Gamma_J`` is the total displacement of the prototypes between two
  successive steps (sum of ``||w_{k,t} - w_{k,t-1}||`` over k), and
* ``Gamma_H`` is the total change of the LLM coefficients (sum of
  ``||b_{k,t} - b_{k,t-1}|| + |y_{k,t} - y_{k,t-1}|`` over k).

The tracker keeps the previous snapshot of the parameter set, computes both
components after every processed pair and records the trajectory used by the
Figure-6 experiment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .prototypes import LocalModelParameters

__all__ = ["ConvergenceRecord", "ConvergenceTracker"]


@dataclass(frozen=True)
class ConvergenceRecord:
    """One step of the convergence trajectory.

    ``winner_index`` and ``grew`` identify the LLM changed by the step when
    the record was produced by the incremental :meth:`ConvergenceTracker.
    observe_step` path (``tests/test_training_pipeline.py`` and
    ``tests/test_reference_training.py::TestFusedKernelMatchesReference``
    compare winner sequences across training paths through them); full
    :meth:`ConvergenceTracker.observe` recomputations leave them at their
    defaults.
    """

    step: int
    prototype_change: float
    coefficient_change: float
    prototype_count: int
    winner_index: int = -1
    grew: bool = False

    @property
    def criterion(self) -> float:
        """The combined termination criterion ``max(Gamma_J, Gamma_H)``."""
        return max(self.prototype_change, self.coefficient_change)


class ConvergenceTracker:
    """Track ``Gamma_J`` and ``Gamma_H`` across training steps.

    Parameters
    ----------
    threshold:
        The convergence threshold ``gamma``.
    min_steps:
        Number of initial steps during which :meth:`has_converged` always
        returns ``False`` (protects against trivially small changes before
        the model has seen enough pairs).
    record_history:
        Whether to keep the whole trajectory in :attr:`history`.
    window:
        The criterion is evaluated on the mean of the last ``window``
        per-step values rather than on a single step.  Individual steps can
        produce arbitrarily small changes whenever the winner happens to be
        a well-trained prototype; the windowed mean only drops below the
        threshold once *most* prototypes have stopped moving, which is the
        behaviour the paper describes (convergence after a few thousand
        pairs, once the quantization has stabilised).
    """

    def __init__(
        self,
        threshold: float,
        min_steps: int = 10,
        record_history: bool = True,
        window: int = 32,
    ) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.threshold = float(threshold)
        self.min_steps = int(min_steps)
        self.record_history = bool(record_history)
        self.window = int(window)
        self.history: list[ConvergenceRecord] = []
        self._previous: dict[int, tuple[np.ndarray, np.ndarray, float]] = {}
        self._steps = 0
        self._last_record: ConvergenceRecord | None = None
        self._recent: list[float] = []

    # ------------------------------------------------------------------ #
    # bookkeeping
    # ------------------------------------------------------------------ #
    @property
    def steps(self) -> int:
        """Number of observed steps."""
        return self._steps

    @property
    def last_record(self) -> ConvergenceRecord | None:
        """The most recent convergence record, if any."""
        return self._last_record

    @property
    def last_criterion(self) -> float:
        """The most recent ``max(Gamma_J, Gamma_H)`` (infinity before any step)."""
        if self._last_record is None:
            return float("inf")
        return self._last_record.criterion

    def _snapshot(self, parameters: LocalModelParameters) -> dict[int, tuple[np.ndarray, np.ndarray, float]]:
        return {
            index: (llm.prototype, llm.slope, llm.mean_output)
            for index, llm in enumerate(parameters)
        }

    def observe(self, parameters: LocalModelParameters) -> ConvergenceRecord:
        """Record the parameter state after one training step (full recompute).

        Newly added prototypes (indices not present in the previous
        snapshot) contribute their full norm to the change, which correctly
        keeps the criterion high while the quantizer is still growing.

        This is the O(K) reference path: it walks every LLM and therefore
        notices *any* parameter change since the last observation.  The
        streaming training loop, where exactly one LLM changes per step,
        uses the O(1) :meth:`observe_step` instead; both produce identical
        records (every unchanged LLM contributes an exact ``0.0`` to the
        sums here, and adding ``0.0`` to a float is the identity).
        """
        current = self._snapshot(parameters)
        prototype_change = 0.0
        coefficient_change = 0.0
        for index, (prototype, slope, mean_output) in current.items():
            if index in self._previous:
                prev_prototype, prev_slope, prev_mean = self._previous[index]
                prototype_change += float(np.linalg.norm(prototype - prev_prototype))
                coefficient_change += float(
                    np.linalg.norm(slope - prev_slope) + abs(mean_output - prev_mean)
                )
            else:
                prototype_change += float(np.linalg.norm(prototype))
                coefficient_change += float(
                    np.linalg.norm(slope) + abs(mean_output)
                )
        self._previous = current
        return self._record(prototype_change, coefficient_change, len(parameters))

    def observe_step(
        self, parameters: LocalModelParameters, changed_index: int
    ) -> ConvergenceRecord:
        """Incremental form of :meth:`observe` for single-winner steps.

        One step of the streaming loop changes exactly one LLM: the winner
        moved (SGD update) or a new prototype was appended.  Maintaining
        ``Gamma`` therefore only needs the changed LLM's delta against its
        previous snapshot — O(d) per step instead of the O(K d) full
        recompute — and the result is *identical* to :meth:`observe`
        (unchanged LLMs diff to exactly zero there, and ``x + 0.0 == x``).

        If the tracker's snapshot is not coherent with ``parameters`` (for
        example a freshly reset tracker observing an already-trained model),
        the call transparently falls back to the full recompute, which
        re-establishes coherence.
        """
        count = len(parameters)
        known = changed_index in self._previous
        if len(self._previous) != count - (0 if known else 1):
            # Snapshot does not cover the unchanged LLMs: a full observation
            # is the only correct answer (and rebuilds the snapshot).
            return self.observe(parameters)
        llm = parameters[changed_index]
        prototype = llm.prototype
        slope = llm.slope
        mean_output = llm.mean_output
        if known:
            prev_prototype, prev_slope, prev_mean = self._previous[changed_index]
            prototype_change = float(np.linalg.norm(prototype - prev_prototype))
            coefficient_change = float(
                np.linalg.norm(slope - prev_slope) + abs(mean_output - prev_mean)
            )
        else:
            prototype_change = float(np.linalg.norm(prototype))
            coefficient_change = float(np.linalg.norm(slope) + abs(mean_output))
        self._previous[changed_index] = (prototype, slope, mean_output)
        return self._record(
            prototype_change,
            coefficient_change,
            count,
            winner_index=changed_index,
            grew=not known,
        )

    def _record(
        self,
        prototype_change: float,
        coefficient_change: float,
        prototype_count: int,
        *,
        winner_index: int = -1,
        grew: bool = False,
    ) -> ConvergenceRecord:
        """Shared bookkeeping of both observation paths."""
        self._steps += 1
        record = ConvergenceRecord(
            step=self._steps,
            prototype_change=prototype_change,
            coefficient_change=coefficient_change,
            prototype_count=prototype_count,
            winner_index=winner_index,
            grew=grew,
        )
        self._last_record = record
        self._recent.append(record.criterion)
        if len(self._recent) > self.window:
            self._recent.pop(0)
        if self.record_history:
            self.history.append(record)
        return record

    @property
    def smoothed_criterion(self) -> float:
        """Mean criterion over the last ``window`` steps (infinity before any)."""
        if not self._recent:
            return float("inf")
        return float(np.mean(self._recent))

    def has_converged(self) -> bool:
        """Whether the termination criterion has been met.

        Requires at least ``min_steps`` observed steps, a full smoothing
        window, and a windowed mean criterion at or below the threshold.
        """
        if self._steps < max(self.min_steps, self.window) or self._last_record is None:
            return False
        return self.smoothed_criterion <= self.threshold

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def criterion_trajectory(self) -> np.ndarray:
        """Return the per-step criterion values (empty if history disabled)."""
        return np.array([record.criterion for record in self.history], dtype=float)

    def reset(self) -> None:
        """Forget everything (used when re-training a model from scratch)."""
        self.history.clear()
        self._previous = {}
        self._steps = 0
        self._last_record = None
        self._recent = []
