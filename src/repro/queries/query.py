"""Query and answer containers.

A query ``q = [x, theta]`` (Definition 4) is the pair of a center vector
``x`` in the input space and a radius ``theta``; it defines the data
subspace ``D(x, theta)``.  The query *vectorial* space is the
``(d + 1)``-dimensional space obtained by concatenating center and radius,
and the similarity between two queries is the squared Euclidean distance in
that space (Definition 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import DimensionalityMismatchError, InvalidQueryError
from .geometry import balls_overlap, lp_distance, overlap_degree

__all__ = ["Query", "QueryAnswer", "QueryResultPair", "query_distance"]


@dataclass(frozen=True)
class Query:
    """A dNN analytics query ``q = [x, theta]``.

    Attributes
    ----------
    center:
        The center ``x`` of the data subspace, a vector in ``R^d``.
    radius:
        The radius ``theta > 0`` of the hypersphere.
    norm_order:
        The order ``p`` of the Lp norm used by the selection operator.
    """

    center: np.ndarray
    radius: float
    norm_order: float = 2.0

    def __post_init__(self) -> None:
        center = np.asarray(self.center, dtype=float)
        if center.ndim == 0:
            center = center.reshape(1)
        if center.ndim != 1:
            raise InvalidQueryError(
                f"query center must be a 1-D vector, got shape {center.shape}"
            )
        if center.size == 0:
            raise InvalidQueryError("query center must have at least one dimension")
        if not np.isfinite(center).all():
            raise InvalidQueryError("query center must contain only finite values")
        if not np.isfinite(self.radius) or self.radius <= 0:
            raise InvalidQueryError(f"query radius must be positive, got {self.radius}")
        if self.norm_order < 1.0:
            raise InvalidQueryError(
                f"norm order must be >= 1, got {self.norm_order}"
            )
        center.setflags(write=False)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", float(self.radius))
        object.__setattr__(self, "norm_order", float(self.norm_order))

    @property
    def dimension(self) -> int:
        """Dimensionality ``d`` of the input space."""
        return int(self.center.shape[0])

    def to_vector(self) -> np.ndarray:
        """Return the ``(d + 1)``-dimensional query vector ``[x, theta]``."""
        return np.concatenate([self.center, [self.radius]])

    @classmethod
    def from_vector(cls, vector: np.ndarray, norm_order: float = 2.0) -> "Query":
        """Build a query from a ``(d + 1)``-dimensional vector ``[x, theta]``."""
        vec = np.asarray(vector, dtype=float)
        if vec.ndim != 1 or vec.size < 2:
            raise InvalidQueryError(
                "query vector must be 1-D with at least two components "
                f"(center and radius), got shape {vec.shape}"
            )
        return cls(center=vec[:-1].copy(), radius=float(vec[-1]), norm_order=norm_order)

    def with_norm_order(self, norm_order: float) -> "Query":
        """Return the same subspace query under a different Lp norm.

        Convenience for callers comparing one subspace across geometries
        (e.g. pinning how an exact answer changes between the Euclidean
        and Chebyshev ball).  Queries are immutable, so a new instance is
        returned; ``self`` when the order already matches.
        """
        if float(norm_order) == self.norm_order:
            return self
        return Query(
            center=self.center, radius=self.radius, norm_order=float(norm_order)
        )

    def distance_to(self, other: "Query") -> float:
        """Euclidean distance to another query in the query vectorial space."""
        if self.dimension != other.dimension:
            raise DimensionalityMismatchError(
                f"queries have different dimensions: {self.dimension} vs {other.dimension}"
            )
        return float(np.linalg.norm(self.to_vector() - other.to_vector()))

    def overlaps(self, other: "Query") -> bool:
        """Overlap predicate ``A(q, q')`` of Definition 6."""
        return balls_overlap(
            self.center, self.radius, other.center, other.radius, p=self.norm_order
        )

    def overlap_degree(self, other: "Query") -> float:
        """Degree of overlap ``delta(q, q')`` of Equation (9)."""
        return overlap_degree(
            self.center, self.radius, other.center, other.radius, p=self.norm_order
        )

    def contains_point(self, point: np.ndarray) -> bool:
        """Return whether a data point lies inside ``D(x, theta)``."""
        return lp_distance(self.center, point, p=self.norm_order) <= self.radius

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        center = np.array2string(self.center, precision=4, separator=", ")
        return f"Query(center={center}, radius={self.radius:.4g}, p={self.norm_order:g})"


def query_distance(first: Query, second: Query) -> float:
    """Module-level convenience wrapper around :meth:`Query.distance_to`."""
    return first.distance_to(second)


@dataclass(frozen=True)
class QueryAnswer:
    """The exact answer of a query executed against the DBMS substrate.

    Attributes
    ----------
    mean:
        The Q1 answer: average of the output attribute over ``D(x, theta)``.
    cardinality:
        Number of tuples selected by the dNN operator (``n_theta(x)``).
    coefficients:
        Optional Q2 answer: the OLS coefficient vector ``[b0, b1, ..., bd]``
        fitted over the selected subspace; ``None`` when only Q1 was asked.
    r_squared:
        Optional coefficient of determination of the Q2 fit.
    """

    mean: float
    cardinality: int
    coefficients: np.ndarray | None = None
    r_squared: float | None = None

    def __post_init__(self) -> None:
        if self.cardinality < 0:
            raise InvalidQueryError(
                f"cardinality must be non-negative, got {self.cardinality}"
            )
        if self.coefficients is not None:
            coeffs = np.asarray(self.coefficients, dtype=float)
            coeffs.setflags(write=False)
            object.__setattr__(self, "coefficients", coeffs)


@dataclass(frozen=True)
class QueryResultPair:
    """A ``(query, answer)`` training pair as observed on the query stream."""

    query: Query
    answer: float
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not np.isfinite(self.answer):
            raise InvalidQueryError(
                f"query answer must be finite, got {self.answer!r}"
            )
