"""Analytic data functions ``u = g(x)`` used by the examples and experiments.

The paper relies on three kinds of data functions:

* the Rosenbrock benchmark function, which generates the large synthetic
  dataset R2 (Section VI-A) and is strongly non-linear,
* the saddle-like function ``g(x1, x2) = x1 (x2 + 1)`` of Example 2,
* a one-dimensional, visibly piecewise non-linear function like the one of
  Figure 1 (right) / Figure 5, used to illustrate local linear
  approximations against a single global regression line.

Each function is a small callable object exposing its dimensionality, its
natural input domain, and vectorised evaluation, so dataset generators and
experiments can treat them uniformly.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Mapping

import numpy as np

from ..exceptions import ConfigurationError, DimensionalityMismatchError

__all__ = [
    "DataFunction",
    "Rosenbrock",
    "ProductSaddle",
    "SineRidge",
    "PiecewiseNonLinear1D",
    "DriftingFunction",
    "get_data_function",
]


class DataFunction(ABC):
    """A deterministic data function ``g : R^d -> R``."""

    #: Human-readable identifier used by :func:`get_data_function`.
    name: str = "abstract"

    def __init__(self, dimension: int) -> None:
        if dimension < 1:
            raise ConfigurationError(f"dimension must be >= 1, got {dimension}")
        self._dimension = int(dimension)

    @property
    def dimension(self) -> int:
        """Dimensionality ``d`` of the input space."""
        return self._dimension

    @property
    @abstractmethod
    def domain(self) -> tuple[float, float]:
        """The (low, high) bounds of the natural per-dimension input domain."""

    @abstractmethod
    def _evaluate(self, points: np.ndarray) -> np.ndarray:
        """Evaluate on an ``(n, d)`` array, returning an ``(n,)`` array."""

    def __call__(self, points: np.ndarray) -> np.ndarray:
        """Evaluate the function on one point or a batch of points."""
        arr = np.asarray(points, dtype=float)
        squeeze = False
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
            squeeze = True
        if arr.ndim != 2 or arr.shape[1] != self.dimension:
            raise DimensionalityMismatchError(
                f"{self.name} expects points of dimension {self.dimension}, "
                f"got array of shape {np.asarray(points).shape}"
            )
        values = self._evaluate(arr)
        return float(values[0]) if squeeze else values

    def sample_inputs(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``count`` uniform points from the natural domain."""
        low, high = self.domain
        return rng.uniform(low, high, size=(count, self.dimension))


class Rosenbrock(DataFunction):
    """The Rosenbrock benchmark function.

    ``g(x) = sum_{i=1}^{d-1} 100 (x_{i+1} - x_i^2)^2 + (1 - x_i)^2`` with
    the conventional domain ``|x_i| <= 10`` used in the paper.  Its long,
    curved valley makes it a standard stress test for non-linear behaviour;
    there is no useful global linear dependency between the features and the
    output, which is exactly why the paper uses it.
    """

    name = "rosenbrock"

    def __init__(self, dimension: int = 2) -> None:
        if dimension < 2:
            raise ConfigurationError(
                f"the Rosenbrock function needs dimension >= 2, got {dimension}"
            )
        super().__init__(dimension)

    @property
    def domain(self) -> tuple[float, float]:
        return (-10.0, 10.0)

    def _evaluate(self, points: np.ndarray) -> np.ndarray:
        x_i = points[:, :-1]
        x_next = points[:, 1:]
        terms = 100.0 * (x_next - x_i**2) ** 2 + (1.0 - x_i) ** 2
        return np.sum(terms, axis=1)


class ProductSaddle(DataFunction):
    """The Example-2 function ``g(x1, x2) = x1 (x2 + 1)``.

    For dimensions above two the pattern generalises to the sum of adjacent
    products ``sum_i x_i (x_{i+1} + 1)`` which keeps the saddle-like,
    locally-linear-but-globally-curved structure.
    """

    name = "product_saddle"

    @property
    def domain(self) -> tuple[float, float]:
        return (-1.5, 1.5)

    def _evaluate(self, points: np.ndarray) -> np.ndarray:
        if self.dimension == 1:
            return points[:, 0] * (points[:, 0] + 1.0)
        x_i = points[:, :-1]
        x_next = points[:, 1:]
        return np.sum(x_i * (x_next + 1.0), axis=1)


class SineRidge(DataFunction):
    """A smooth but strongly non-linear ridge ``g(x) = sin(2 pi w . x) + ||x||^2 / d``.

    Useful as an additional stress test: the sine ridge changes its local
    slope direction many times across the domain, so the number of local
    linear models required grows quickly as the vigilance shrinks.
    """

    name = "sine_ridge"

    def __init__(self, dimension: int = 2, frequency: float = 1.0) -> None:
        super().__init__(dimension)
        if frequency <= 0:
            raise ConfigurationError(f"frequency must be positive, got {frequency}")
        self.frequency = float(frequency)
        # A fixed, deterministic direction vector keeps the function pure.
        weights = np.arange(1, dimension + 1, dtype=float)
        self._weights = weights / np.linalg.norm(weights)

    @property
    def domain(self) -> tuple[float, float]:
        return (0.0, 1.0)

    def _evaluate(self, points: np.ndarray) -> np.ndarray:
        projection = points @ self._weights
        ridge = np.sin(2.0 * np.pi * self.frequency * projection)
        bowl = np.sum(points**2, axis=1) / self.dimension
        return ridge + bowl


class PiecewiseNonLinear1D(DataFunction):
    """A one-dimensional function with visibly different local linear trends.

    This mirrors the didactic function of Figure 1 (right) / Figure 5: over
    ``[0, 1]`` the function alternates between rising and falling nearly
    linear segments joined by smooth curves, so a single global regression
    line is a poor fit while a handful of local linear models is a very good
    one.
    """

    name = "piecewise_1d"

    def __init__(self) -> None:
        super().__init__(dimension=1)

    @property
    def domain(self) -> tuple[float, float]:
        return (0.0, 1.0)

    def _evaluate(self, points: np.ndarray) -> np.ndarray:
        x = points[:, 0]
        # Sum of a slow trend and two bumps of different widths: four to six
        # clearly distinct local slopes over [0, 1].
        trend = 0.3 * x
        bump_one = 0.45 * np.exp(-((x - 0.25) ** 2) / 0.008)
        bump_two = 0.35 * np.exp(-((x - 0.7) ** 2) / 0.02)
        dip = -0.25 * np.exp(-((x - 0.5) ** 2) / 0.004)
        return trend + bump_one + bump_two + dip + 0.2


class DriftingFunction(DataFunction):
    """A base data function whose surface translates over logical time.

    ``g_t(x) = base(x - velocity * t)``: advancing the clock slides the
    whole response surface along ``velocity``, so rows generated after a
    drift step obey a *different* input→output relation than the rows a
    model was trained on — the concept-drift scenario the model lifecycle
    manager must detect and retrain through.  Time is explicit
    (:meth:`advance` / :attr:`time`), keeping every evaluation
    deterministic and replayable.
    """

    name = "drifting"

    def __init__(
        self, base: DataFunction, velocity: "np.ndarray | float | None" = None
    ) -> None:
        super().__init__(base.dimension)
        self.base = base
        if velocity is None:
            velocity = np.full(base.dimension, 0.1)
        velocity = np.broadcast_to(
            np.asarray(velocity, dtype=float).ravel(), (base.dimension,)
        ).copy()
        self.velocity = velocity
        self._time = 0.0

    @property
    def time(self) -> float:
        """The current logical drift time."""
        return self._time

    def advance(self, delta: float) -> float:
        """Advance the drift clock; returns the new time."""
        self._time += float(delta)
        return self._time

    @property
    def domain(self) -> tuple[float, float]:
        return self.base.domain

    def _evaluate(self, points: np.ndarray) -> np.ndarray:
        return self.base(points - self.velocity * self._time)


_REGISTRY: Mapping[str, type[DataFunction]] = {
    Rosenbrock.name: Rosenbrock,
    ProductSaddle.name: ProductSaddle,
    SineRidge.name: SineRidge,
    PiecewiseNonLinear1D.name: PiecewiseNonLinear1D,
}


def get_data_function(name: str, dimension: int | None = None) -> DataFunction:
    """Instantiate a registered data function by name.

    Parameters
    ----------
    name:
        One of the registered names: ``rosenbrock``, ``product_saddle``,
        ``sine_ridge`` or ``piecewise_1d``.
    dimension:
        Input dimensionality.  Ignored for the intrinsically one-dimensional
        ``piecewise_1d`` function; required (or defaulted to 2) otherwise.
    """
    try:
        cls = _REGISTRY[name]
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown data function {name!r}; known functions: {sorted(_REGISTRY)}"
        ) from exc
    if cls is PiecewiseNonLinear1D:
        return cls()
    return cls(dimension if dimension is not None else 2)
