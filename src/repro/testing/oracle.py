"""Brute-force reference answers for exact and model-side queries.

The production engines answer every query through vectorised batch
kernels (grid candidate ranges, cell aggregates, blocked OLS, ``(m, K)``
overlap matrices).  This module recomputes the same answers the slow,
obvious way, one query at a time, so tests can check each kernel against
an implementation that shares none of its machinery:

* **exact side** — a full Lp scan of the rows, then the mean, the count,
  or ``numpy.linalg.lstsq`` on the design ``[1, x]``;
* **model side** — Algorithms 2 and 3 and Equation (14) from the scalar
  :func:`~repro.queries.geometry.overlap_degree` and each
  :class:`~repro.core.prototypes.LocalLinearMap`'s own ``evaluate``,
  ``evaluate_at_own_radius``, ``distance_to`` and ``regression_plane``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.prototypes import LocalLinearMap, RegressionPlane
from ..exceptions import NotFittedError
from ..queries.geometry import overlap_degree, pairwise_lp_distance
from ..queries.query import Query

__all__ = [
    "ExactOracle",
    "ModelOracle",
    "normalized_overlap_weights",
    "overlapping_prototypes",
]


class ExactOracle:
    """Exact Q1/COUNT/Q2 answers over ``(inputs, outputs)`` by full scan."""

    def __init__(self, inputs: np.ndarray, outputs: np.ndarray) -> None:
        self.inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
        self.outputs = np.asarray(outputs, dtype=float).ravel()

    def select(self, query: Query) -> np.ndarray:
        """Ascending ids of the rows inside ``D(x, theta)``."""
        distances = pairwise_lp_distance(self.inputs, query.center, p=query.norm_order)
        return np.nonzero(distances <= query.radius)[0]

    def count(self, query: Query) -> int:
        return int(self.select(query).size)

    def mean(self, query: Query) -> float | None:
        """The Q1 answer, or ``None`` on an empty subspace."""
        rows = self.select(query)
        return float(np.mean(self.outputs[rows])) if rows.size else None

    def q2(self, query: Query) -> np.ndarray | None:
        """Least-squares ``[b0, b1, ..., bd]``, or ``None`` on an empty subspace."""
        rows = self.select(query)
        if not rows.size:
            return None
        design = self._design(rows)
        solution, *_ = np.linalg.lstsq(design, self.outputs[rows], rcond=None)
        return solution

    def r_squared(self, query: Query) -> float | None:
        """``1 - RSS / TSS`` of the :meth:`q2` fit, or ``None`` when empty.

        Constant outputs (``TSS == 0``) score 1.0 when the residuals are
        numerically zero and 0.0 otherwise, the engines' convention.
        """
        rows = self.select(query)
        if not rows.size:
            return None
        design, outputs = self._design(rows), self.outputs[rows]
        coefficients, *_ = np.linalg.lstsq(design, outputs, rcond=None)
        residuals = outputs - design @ coefficients
        rss = float(np.sum(residuals * residuals))
        tss = float(np.sum((outputs - np.mean(outputs)) ** 2))
        if tss == 0.0:
            return 1.0 if np.isclose(rss, 0.0) else 0.0
        return 1.0 - rss / tss

    def fitted(self, query: Query, coefficients: np.ndarray) -> np.ndarray:
        """Values a plane fits on the query's selected rows.

        Fitted values are unique even where coefficients are not (collinear
        or under-determined subspaces), so Q2 answers compare through them.
        """
        return self._design(self.select(query)) @ np.asarray(coefficients, dtype=float)

    def _design(self, rows: np.ndarray) -> np.ndarray:
        return np.column_stack([np.ones(rows.size), self.inputs[rows]])


def overlapping_prototypes(
    query: Query, maps: Sequence[LocalLinearMap]
) -> list[tuple[int, float]]:
    """``[(index, delta)]`` for every LLM whose prototype overlaps ``query``."""
    result: list[tuple[int, float]] = []
    for index, llm in enumerate(maps):
        degree = overlap_degree(
            query.center, query.radius, llm.center, llm.radius, p=query.norm_order
        )
        if degree > 0.0:
            result.append((index, degree))
    return result


def normalized_overlap_weights(
    overlaps: list[tuple[int, float]]
) -> list[tuple[int, float]]:
    """Normalise overlap degrees into weights summing to one.

    If every degree is zero (the just-touching case) the weights are uniform
    so the prediction stays defined.
    """
    if not overlaps:
        return []
    total = sum(degree for _, degree in overlaps)
    if total <= 0.0:
        return [(index, 1.0 / len(overlaps)) for index, _ in overlaps]
    return [(index, degree / total) for index, degree in overlaps]


class ModelOracle:
    """Algorithms 2 and 3 and Equation (14) computed map by map."""

    def __init__(self, maps: Sequence[LocalLinearMap]) -> None:
        if not maps:
            raise NotFittedError("the oracle needs at least one local linear map")
        self.maps = list(maps)

    def neighborhood(self, query: Query) -> tuple[list[int], list[float], bool]:
        """``(indices, weights, extrapolated)`` of the overlap set ``W(q)``.

        With an empty ``W(q)`` the single closest prototype in the query
        vectorial space answers alone (extrapolation).
        """
        weighted = normalized_overlap_weights(overlapping_prototypes(query, self.maps))
        if weighted:
            return [k for k, _ in weighted], [w for _, w in weighted], False
        vector = query.to_vector()
        distances = [llm.distance_to(vector) for llm in self.maps]
        return [int(np.argmin(distances))], [1.0], True

    def predict_mean(self, query: Query) -> float:
        indices, weights, _ = self.neighborhood(query)
        vector = query.to_vector()
        return sum(w * self.maps[k].evaluate(vector) for k, w in zip(indices, weights))

    def regression_models(self, query: Query) -> list[RegressionPlane]:
        indices, weights, _ = self.neighborhood(query)
        return [
            self.maps[k].regression_plane(weight=w) for k, w in zip(indices, weights)
        ]

    def predict_value(
        self, point: np.ndarray, radius: float, norm_order: float = 2.0
    ) -> float:
        point = np.asarray(point, dtype=float).ravel()
        probe = Query(center=point, radius=radius, norm_order=norm_order)
        indices, weights, _ = self.neighborhood(probe)
        return sum(
            w * self.maps[k].evaluate_at_own_radius(point)
            for k, w in zip(indices, weights)
        )
