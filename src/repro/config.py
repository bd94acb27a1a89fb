"""Configuration objects for the query-driven local linear model.

The paper (Section IV and VI-A) exposes a small number of tunables:

* the quantization coefficient ``a`` which determines the vigilance
  ``rho = a * (sqrt(d) + 1)``,
* the convergence threshold ``gamma`` of the training algorithm,
* the learning-rate schedule ``eta_t = 1 / (t + 1)``,
* the norm ``p`` used by the dNN selection operator.

These are collected in :class:`ModelConfig` and :class:`TrainingConfig`
dataclasses so the model constructors stay small and validation lives in one
place.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

from .exceptions import ConfigurationError

#: Default quantization coefficient used throughout the paper's evaluation.
DEFAULT_QUANTIZATION_COEFFICIENT = 0.25

#: Default convergence threshold ``gamma`` (Section VI-A).
DEFAULT_CONVERGENCE_THRESHOLD = 0.01

#: Default norm used for the dNN selection operator (Euclidean).
DEFAULT_NORM_ORDER = 2.0


def require_integer(
    name: str,
    value: object,
    minimum: int,
    error: type[Exception] = ConfigurationError,
) -> None:
    """Raise ``error`` unless ``value`` is an integer of at least ``minimum``.

    Any :class:`numbers.Integral` passes, NumPy integers included; NaN,
    fractions and integral floats such as ``2.0`` do not.  A plain
    ``value < minimum`` check would let NaN through, since every comparison
    with NaN is False.
    """
    if not isinstance(value, numbers.Integral) or value < minimum:
        raise error(f"{name} must be an integer >= {minimum}, got {value!r}")


def vigilance_radius(coefficient: float, dimension: int) -> float:
    """Return the vigilance threshold ``rho = a * (sqrt(d) + 1)``.

    Parameters
    ----------
    coefficient:
        The percentage coefficient ``a`` in ``(0, 1]``.  A value of ``1``
        yields a single prototype (coarse quantization); smaller values give
        progressively finer quantizations.
    dimension:
        The dimensionality ``d`` of the *input* space (not counting the
        radius component of the query vector).
    """
    if not 0.0 < coefficient <= 1.0:
        raise ConfigurationError(
            f"quantization coefficient must be in (0, 1], got {coefficient!r}"
        )
    if dimension < 1:
        raise ConfigurationError(f"dimension must be >= 1, got {dimension!r}")
    return coefficient * (math.sqrt(dimension) + 1.0)


@dataclass(frozen=True)
class ModelConfig:
    """Static configuration of an :class:`~repro.core.model.LLMModel`.

    Attributes
    ----------
    quantization_coefficient:
        The coefficient ``a`` controlling the vigilance ``rho``.
    norm_order:
        Order ``p`` of the Lp norm used by the dNN selection operator and
        by the overlap predicate.  The paper uses the Euclidean norm.
    vigilance_override:
        If set, use this value for ``rho`` directly instead of deriving it
        from ``quantization_coefficient``; useful for experiments that sweep
        the raw vigilance.
    """

    quantization_coefficient: float = DEFAULT_QUANTIZATION_COEFFICIENT
    norm_order: float = DEFAULT_NORM_ORDER
    vigilance_override: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.quantization_coefficient <= 1.0:
            raise ConfigurationError(
                "quantization_coefficient must be in (0, 1], got "
                f"{self.quantization_coefficient!r}"
            )
        if not self.norm_order >= 1.0:
            raise ConfigurationError(
                f"norm_order must be >= 1, got {self.norm_order!r}"
            )
        if self.vigilance_override is not None and not self.vigilance_override > 0:
            raise ConfigurationError(
                "vigilance_override must be positive when provided, got "
                f"{self.vigilance_override!r}"
            )

    def vigilance(self, dimension: int) -> float:
        """Resolve the vigilance ``rho`` for an input space of ``dimension``."""
        if self.vigilance_override is not None:
            return self.vigilance_override
        return vigilance_radius(self.quantization_coefficient, dimension)

    def with_coefficient(self, coefficient: float) -> "ModelConfig":
        """Return a copy with a different quantization coefficient."""
        return replace(self, quantization_coefficient=coefficient, vigilance_override=None)


@dataclass(frozen=True)
class TrainingConfig:
    """Configuration of the streaming training loop (Algorithm 1).

    Attributes
    ----------
    convergence_threshold:
        The threshold ``gamma``: training stops at the first step where
        ``max(Gamma_J, Gamma_H) <= gamma``.
    max_steps:
        Hard cap on the number of processed training pairs.  ``None`` means
        "consume the whole training stream".
    min_steps:
        Minimum number of training pairs to process before the termination
        criterion may fire.  Guards against spuriously small ``Gamma`` on
        the very first updates.
    convergence_window:
        The termination criterion is evaluated on the mean of the last
        ``convergence_window`` per-step ``Gamma`` values instead of a single
        step, so a lone lucky step cannot stop training while most
        prototypes are still moving.
    learning_rate_schedule:
        Name of the learning-rate schedule (see
        :mod:`repro.core.learning_rates`).  The paper uses the hyperbolic
        schedule ``eta_t = 1 / (t + 1)``.
    learning_rate_scale:
        Multiplicative scale applied to the schedule output.
    record_history:
        Whether the trainer records the full ``Gamma`` trajectory (needed by
        the Figure-6 experiment; a small memory cost otherwise).
    """

    convergence_threshold: float = DEFAULT_CONVERGENCE_THRESHOLD
    max_steps: int | None = None
    min_steps: int = 50
    convergence_window: int = 32
    learning_rate_schedule: str = "hyperbolic"
    learning_rate_scale: float = 1.0
    record_history: bool = True

    def __post_init__(self) -> None:
        if not self.convergence_threshold > 0:
            raise ConfigurationError(
                "convergence_threshold must be positive, got "
                f"{self.convergence_threshold!r}"
            )
        if self.max_steps is not None:
            require_integer("max_steps", self.max_steps, 1)
        require_integer("min_steps", self.min_steps, 0)
        require_integer("convergence_window", self.convergence_window, 1)
        if not self.learning_rate_scale > 0:
            raise ConfigurationError(
                "learning_rate_scale must be positive, got "
                f"{self.learning_rate_scale!r}"
            )

    def with_threshold(self, gamma: float) -> "TrainingConfig":
        """Return a copy with a different convergence threshold."""
        return replace(self, convergence_threshold=gamma)
