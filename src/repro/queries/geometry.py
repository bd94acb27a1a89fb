"""Lp geometry helpers for dNN queries.

The dNN selection operator (Definition 3 in the paper) selects the points of
a dataset that lie inside a hypersphere under an Lp norm.  The overlap
predicate (Definition 6) and the degree of overlap (Equation 9) between two
such hyperspheres drive both the neighbourhood construction of the query
processing algorithms and the experiments.  Everything here operates on
plain :class:`numpy.ndarray` objects so the rest of the library can stay
vectorised.
"""

from __future__ import annotations

import math

import numpy as np

from ..exceptions import DimensionalityMismatchError, InvalidQueryError

__all__ = [
    "lp_norm",
    "lp_distance",
    "pairwise_lp_distance",
    "points_within_ball",
    "ball_volume",
    "balls_overlap",
    "overlap_degree",
]

def _as_vector(x: np.ndarray | list | tuple, name: str) -> np.ndarray:
    """Coerce ``x`` into a 1-D float array, validating shape."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise InvalidQueryError(f"{name} must be a 1-D vector, got shape {arr.shape}")
    return arr


def lp_norm(x: np.ndarray, p: float = 2.0) -> float:
    """Return the Lp norm of a vector (Definition 2).

    ``p = inf`` (``numpy.inf``) gives the Chebyshev norm.
    """
    vec = _as_vector(x, "x")
    if p < 1.0:
        raise InvalidQueryError(f"norm order p must be >= 1, got {p}")
    if math.isinf(p):
        return float(np.max(np.abs(vec))) if vec.size else 0.0
    return float(np.linalg.norm(vec, ord=p))


def lp_distance(x: np.ndarray, y: np.ndarray, p: float = 2.0) -> float:
    """Return the Lp distance between two vectors of equal dimension."""
    xv = _as_vector(x, "x")
    yv = _as_vector(y, "y")
    if xv.shape != yv.shape:
        raise DimensionalityMismatchError(
            f"vectors have different dimensions: {xv.shape[0]} vs {yv.shape[0]}"
        )
    return lp_norm(xv - yv, p=p)


def pairwise_lp_distance(points: np.ndarray, center: np.ndarray, p: float = 2.0) -> np.ndarray:
    """Return the Lp distance of every row of ``points`` to ``center``.

    Parameters
    ----------
    points:
        Array of shape ``(n, d)``.
    center:
        Vector of shape ``(d,)``.
    p:
        Norm order; ``numpy.inf`` selects the Chebyshev distance.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    ctr = _as_vector(center, "center")
    if pts.shape[1] != ctr.shape[0]:
        raise DimensionalityMismatchError(
            f"points have dimension {pts.shape[1]} but center has {ctr.shape[0]}"
        )
    diff = pts - ctr[np.newaxis, :]
    if math.isinf(p):
        return np.max(np.abs(diff), axis=1)
    if p == 2.0:
        return np.sqrt(np.sum(diff * diff, axis=1))
    if p == 1.0:
        return np.sum(np.abs(diff), axis=1)
    # A term past float64's range is inf: that row is outside every ball.
    with np.errstate(over="ignore"):
        terms = np.power(np.abs(diff), p)
    return np.power(np.sum(terms, axis=1), 1.0 / p)


def points_within_ball(
    points: np.ndarray, center: np.ndarray, radius: float, p: float = 2.0
) -> np.ndarray:
    """Return a boolean mask of the rows of ``points`` inside ``D(center, radius)``.

    The boundary is inclusive, matching Definition 3
    (``||x_i - x||_p <= theta``).
    """
    if radius < 0:
        raise InvalidQueryError(f"radius must be non-negative, got {radius}")
    distances = pairwise_lp_distance(points, center, p=p)
    return distances <= radius


def ball_volume(radius: float, dimension: int) -> float:
    """Return the volume of a Euclidean ball of the given radius and dimension.

    Used by workload diagnostics to estimate expected selectivity of dNN
    queries under a uniform data distribution.
    """
    if radius < 0:
        raise InvalidQueryError(f"radius must be non-negative, got {radius}")
    if dimension < 1:
        raise InvalidQueryError(f"dimension must be >= 1, got {dimension}")
    unit = math.pi ** (dimension / 2.0) / math.gamma(dimension / 2.0 + 1.0)
    return unit * radius**dimension


def balls_overlap(
    center_a: np.ndarray,
    radius_a: float,
    center_b: np.ndarray,
    radius_b: float,
    p: float = 2.0,
) -> bool:
    """Return the overlap predicate ``A(q, q')`` of Definition 6.

    Two balls overlap when the distance between their centers does not
    exceed the sum of their radii.
    """
    if radius_a < 0 or radius_b < 0:
        raise InvalidQueryError("radii must be non-negative")
    return lp_distance(center_a, center_b, p=p) <= radius_a + radius_b


def overlap_degree(
    center_a: np.ndarray,
    radius_a: float,
    center_b: np.ndarray,
    radius_b: float,
    p: float = 2.0,
) -> float:
    """Return the degree of overlap ``delta(q, q')`` of Equation (9).

    The degree is ``1 - max(||x - x'||, |theta - theta'|) / (theta + theta')``
    when the balls overlap and ``0`` otherwise.  It takes values in
    ``[0, 1]``: it is ``0`` for disjoint or just-touching balls with
    identical radii offset by their radius sum, and approaches ``1`` for
    identical queries.
    """
    if radius_a < 0 or radius_b < 0:
        raise InvalidQueryError("radii must be non-negative")
    total = radius_a + radius_b
    if total <= 0:
        # Two degenerate point queries: they overlap perfectly only if the
        # centers coincide.
        return 1.0 if lp_distance(center_a, center_b, p=p) == 0.0 else 0.0
    center_distance = lp_distance(center_a, center_b, p=p)
    if center_distance > total:
        return 0.0
    numerator = max(center_distance, abs(radius_a - radius_b))
    degree = 1.0 - numerator / total
    # Guard against tiny negative values from floating point noise.
    return float(min(1.0, max(0.0, degree)))
