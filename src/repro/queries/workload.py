"""Random query workload generation.

The evaluation of the paper (Section VI-A) drives both training and testing
with randomly generated dNN queries: centers drawn uniformly from the data
domain and radii drawn from a Gaussian ``N(mu_theta, sigma_theta^2)``
truncated to positive values.  This module provides the generators and a
declarative workload specification used by the experiments and benchmarks
(:meth:`~repro.queries.stream.LabelledWorkload.split` splits a labelled
workload into training and test pairs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from ..config import require_integer
from ..exceptions import WorkloadError
from .query import Query

__all__ = [
    "RadiusDistribution",
    "WorkloadSpec",
    "QueryWorkloadGenerator",
]


@dataclass(frozen=True)
class RadiusDistribution:
    """Distribution of query radii ``theta ~ N(mean, std^2)`` truncated to > 0.

    The paper sets ``theta ~ N(0.1, 0.01)`` for the real dataset (domain
    scaled to ``[0, 1]``) and ``theta ~ N(1, 0.25)`` for the Rosenbrock
    dataset (domain ``[-10, 10]``), each covering roughly 20% of the data
    range per feature.
    """

    mean: float
    std: float
    minimum: float = 1e-6

    def __post_init__(self) -> None:
        if not self.mean > 0:
            raise WorkloadError(f"radius mean must be positive, got {self.mean}")
        if not self.std >= 0:
            raise WorkloadError(f"radius std must be non-negative, got {self.std}")
        if not self.minimum > 0:
            raise WorkloadError(f"radius minimum must be positive, got {self.minimum}")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` radii, clipping at ``minimum`` to keep them positive."""
        if size < 0:
            raise WorkloadError(f"sample size must be non-negative, got {size}")
        if self.std == 0:
            return np.full(size, max(self.mean, self.minimum))
        radii = rng.normal(self.mean, self.std, size=size)
        return np.clip(radii, self.minimum, None)


@dataclass(frozen=True)
class WorkloadSpec:
    """Declarative description of a random query workload.

    Attributes
    ----------
    dimension:
        Dimensionality ``d`` of the query centers.
    center_low / center_high:
        Bounds of the uniform distribution of centers, either scalars
        (applied to every dimension) or per-dimension sequences.
    radius:
        The :class:`RadiusDistribution` of the query radii.
    norm_order:
        Norm order ``p`` attached to every generated query.
    """

    dimension: int
    center_low: float | Sequence[float] = 0.0
    center_high: float | Sequence[float] = 1.0
    radius: RadiusDistribution = field(
        default_factory=lambda: RadiusDistribution(mean=0.1, std=0.1)
    )
    norm_order: float = 2.0

    def __post_init__(self) -> None:
        require_integer("dimension", self.dimension, 1, WorkloadError)
        low = np.broadcast_to(np.asarray(self.center_low, dtype=float), (self.dimension,))
        high = np.broadcast_to(np.asarray(self.center_high, dtype=float), (self.dimension,))
        if not np.all(low < high):
            raise WorkloadError(
                "center_low must be strictly less than center_high in every dimension"
            )
        if not self.norm_order >= 1.0:
            raise WorkloadError(f"norm order must be >= 1, got {self.norm_order}")

    @property
    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Return per-dimension (low, high) bound arrays."""
        low = np.broadcast_to(
            np.asarray(self.center_low, dtype=float), (self.dimension,)
        ).copy()
        high = np.broadcast_to(
            np.asarray(self.center_high, dtype=float), (self.dimension,)
        ).copy()
        return low, high


class QueryWorkloadGenerator:
    """Generate random dNN queries according to a :class:`WorkloadSpec`.

    Examples
    --------
    >>> spec = WorkloadSpec(dimension=2, radius=RadiusDistribution(0.1, 0.01))
    >>> generator = QueryWorkloadGenerator(spec, seed=7)
    >>> queries = generator.generate(100)
    >>> len(queries)
    100
    >>> all(q.dimension == 2 for q in queries)
    True
    """

    def __init__(self, spec: WorkloadSpec, seed: int | None = None) -> None:
        self.spec = spec
        self._rng = np.random.default_rng(seed)

    @property
    def rng(self) -> np.random.Generator:
        """The underlying random generator (exposed for reproducibility tests)."""
        return self._rng

    def generate_centers(self, count: int) -> np.ndarray:
        """Draw ``count`` uniform centers within the spec bounds."""
        if count < 0:
            raise WorkloadError(f"count must be non-negative, got {count}")
        low, high = self.spec.bounds
        return self._rng.uniform(low, high, size=(count, self.spec.dimension))

    def generate(self, count: int) -> list[Query]:
        """Generate ``count`` random queries."""
        centers = self.generate_centers(count)
        radii = self.spec.radius.sample(self._rng, count)
        return [
            Query(center=center, radius=float(radius), norm_order=self.spec.norm_order)
            for center, radius in zip(centers, radii)
        ]

    def iter_queries(self, count: int, batch_size: int = 256) -> Iterator[Query]:
        """Yield ``count`` queries lazily in batches (useful for large workloads)."""
        if batch_size < 1:
            raise WorkloadError(f"batch_size must be >= 1, got {batch_size}")
        remaining = count
        while remaining > 0:
            batch = min(batch_size, remaining)
            yield from self.generate(batch)
            remaining -= batch
