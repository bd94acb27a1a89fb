"""Query processing over trained LLMs (Section V).

Prediction for an unseen query ``q = [x, theta]`` is a weighted
nearest-neighbour regression over the *overlapping prototype set*

``W(q) = { w_k : delta(q, w_k) > 0 }``

where ``delta`` is the degree of overlap of Equation (9).  For Q1 the
prediction is the ``delta``-weighted average of the LLM evaluations
(Algorithm 2); for Q2 the answer is the list of regression planes of the
overlapping LLMs (Algorithm 3, Theorem 3); for data-value prediction the
LLMs are evaluated at their own radii and combined with the same weights
(Equation 14).  When no prototype overlaps the query, the single closest
prototype is used (extrapolation).

The predictor snapshots the LLM parameters into dense arrays at
construction time, and every prediction runs through one batch kernel: an
``(m, d + 1)`` query matrix is turned into the full ``(m, K)`` overlap-degree
matrix and the weighted LLM evaluations as matrix operations, with no
per-query Python loop (:meth:`NeighborhoodPredictor.predict_mean_batch`,
:meth:`NeighborhoodPredictor.predict_q2_batch`,
:meth:`NeighborhoodPredictor.predict_value_batch`).  The single-query
methods are batches of one over the same kernel.  As in the paper, finding
``W(q)`` is a scan of the ``K`` prototypes at ``O(dK)`` cost per query; there
is no prototype index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..exceptions import DimensionalityMismatchError, InvalidQueryError, NotFittedError
from ..queries.geometry import overlap_degree_matrix
from ..queries.query import Query
from .prototypes import LocalLinearMap, RegressionPlane

__all__ = [
    "normalized_weight_rows",
    "NeighborhoodPredictor",
    "PredictionDiagnostics",
]

def normalized_weight_rows(
    degree_matrix: np.ndarray, overlap_mask: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Normalise each row of overlap degrees into weights summing to one.

    Parameters
    ----------
    degree_matrix:
        The ``(m, K)`` overlap-degree matrix of a query batch.
    overlap_mask:
        Optional ``(m, K)`` boolean mask marking which pairs count as
        overlapping; defaults to ``degree_matrix > 0``.  Passing an explicit
        mask reproduces the just-touching convention: a row whose flagged
        degrees all sum to zero gets uniform weights over the flagged
        entries, so the prediction stays defined.

    Returns
    -------
    tuple
        ``(weights, needs_extrapolation)`` where ``weights`` is an ``(m, K)``
        matrix whose rows sum to one (or are all zero for rows with no
        overlap at all) and ``needs_extrapolation`` is the ``(m,)`` boolean
        vector of rows with an empty overlap set.
    """
    degrees = np.atleast_2d(np.asarray(degree_matrix, dtype=float))
    mask = degrees > 0.0 if overlap_mask is None else np.asarray(overlap_mask, bool)
    if mask.shape != degrees.shape:
        raise DimensionalityMismatchError(
            f"overlap mask shape {mask.shape} does not match the degree "
            f"matrix shape {degrees.shape}"
        )
    flagged = np.where(mask, degrees, 0.0)
    totals = flagged.sum(axis=1)
    needs_extrapolation = ~mask.any(axis=1)
    positive_rows = totals > 0.0
    weights = flagged / np.where(positive_rows, totals, 1.0)[:, np.newaxis]
    if not positive_rows.all():
        weights[~positive_rows] = 0.0
        # Defensive just-touching branch: overlap is flagged but every
        # degree is zero, so fall back to uniform weights over the flagged
        # prototypes.
        uniform_rows = (~positive_rows) & (~needs_extrapolation)
        if uniform_rows.any():
            uniform = mask[uniform_rows]
            weights[uniform_rows] = uniform / uniform.sum(axis=1)[:, np.newaxis]
    return weights, needs_extrapolation


@dataclass(frozen=True)
class PredictionDiagnostics:
    """Bookkeeping of one prediction: which prototypes were used and how."""

    used_indices: tuple[int, ...]
    weights: tuple[float, ...]
    extrapolated: bool

    @property
    def neighborhood_size(self) -> int:
        """Number of LLMs that contributed to the prediction."""
        return len(self.used_indices)


class NeighborhoodPredictor:
    """Implements Algorithms 2 and 3 and Equation (14) over a set of LLMs.

    Parameters
    ----------
    maps:
        The trained local linear maps.
    """

    def __init__(self, maps: Sequence[LocalLinearMap]) -> None:
        self._maps = maps
        if maps:
            prototypes = np.vstack([llm.prototype for llm in maps])
            self._centers = prototypes[:, :-1]
            self._radii = prototypes[:, -1]
            self._prototypes = prototypes
            self._means = np.array([llm.mean_output for llm in maps])
            self._slopes = np.vstack([llm.slope for llm in maps])
            self._center_slopes = self._slopes[:, :-1]
        else:
            self._centers = np.empty((0, 0))
            self._radii = np.empty(0)
            self._prototypes = np.empty((0, 0))
            self._means = np.empty(0)
            self._slopes = np.empty((0, 0))
            self._center_slopes = np.empty((0, 0))
        # Intercepts of the LLMs written as ``offset + slope . q``: at the
        # query vector (Algorithm 2) and at the own radius (Equation 14).
        self._offsets = self._means - np.sum(self._slopes * self._prototypes, axis=1)
        self._own_radius_offsets = self._means - np.sum(
            self._center_slopes * self._centers, axis=1
        )

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    @property
    def prototype_count(self) -> int:
        """Number of LLMs the predictor snapshots."""
        return len(self._maps)

    def _require_maps(self) -> None:
        if not self._maps:
            raise NotFittedError("the model holds no local linear maps yet")

    # ------------------------------------------------------------------ #
    # batch internals
    # ------------------------------------------------------------------ #
    def _as_query_matrix(self, query_matrix: np.ndarray) -> np.ndarray:
        """Validate a raw ``(m, d + 1)`` query matrix."""
        self._require_maps()
        matrix = np.atleast_2d(np.asarray(query_matrix, dtype=float))
        if matrix.shape[1] != self._prototypes.shape[1]:
            raise DimensionalityMismatchError(
                f"query matrix has width {matrix.shape[1]}, model expects "
                f"{self._prototypes.shape[1]} (center plus radius)"
            )
        if not np.isfinite(matrix).all():
            raise InvalidQueryError("query matrix must contain only finite values")
        if (matrix[:, -1] <= 0.0).any():
            raise InvalidQueryError("query radii must all be positive")
        return matrix

    def _batch_neighborhood(
        self, matrix: np.ndarray, norm_order: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Dense ``(m, K)`` weight matrix plus the extrapolated-row mask.

        Each row holds the normalised overlap weights of one query; rows
        with an empty overlap set carry a single ``1`` at the closest
        prototype in the query vectorial space (the extrapolation rule).
        """
        degrees = overlap_degree_matrix(
            matrix[:, :-1], matrix[:, -1], self._centers, self._radii, p=norm_order
        )
        weights, extrapolated = normalized_weight_rows(degrees)
        if extrapolated.any():
            rows = np.nonzero(extrapolated)[0]
            weights[rows, self._closest_prototypes(matrix[rows])] = 1.0
        return weights, extrapolated

    def _closest_prototypes(self, query_vectors: np.ndarray) -> np.ndarray:
        """Index of the closest prototype (query vectorial space) per row."""
        distances = np.linalg.norm(
            query_vectors[:, np.newaxis, :] - self._prototypes[np.newaxis, :, :],
            axis=2,
        )
        return np.argmin(distances, axis=1)

    def _evaluate_all_maps(self, matrix: np.ndarray) -> np.ndarray:
        """``(m, K)`` matrix of ``f_k(q_i)``."""
        return self._offsets + matrix @ self._slopes.T

    def _evaluate_all_maps_at_own_radius(self, points: np.ndarray) -> np.ndarray:
        """``(m, K)`` matrix of ``f_k(x_i, theta_k)`` (Equation 14)."""
        return self._own_radius_offsets + points @ self._center_slopes.T

    def _weighted_means(
        self, query_matrix: np.ndarray, norm_order: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Q1 values plus the batch weights and extrapolation mask."""
        matrix = self._as_query_matrix(query_matrix)
        weights, extrapolated = self._batch_neighborhood(matrix, norm_order)
        values = (weights * self._evaluate_all_maps(matrix)).sum(axis=1)
        return values, weights, extrapolated

    # ------------------------------------------------------------------ #
    # Q1: average-value prediction (Algorithm 2)
    # ------------------------------------------------------------------ #
    def predict_mean(self, query: Query) -> float:
        """Predict the Q1 answer of an unseen query (a batch of one)."""
        return float(self.predict_mean_batch(_query_row(query), query.norm_order)[0])

    def predict_mean_with_diagnostics(
        self, query: Query
    ) -> tuple[float, PredictionDiagnostics]:
        """Predict the Q1 answer and report which LLMs contributed."""
        values, weights, extrapolated = self._weighted_means(
            _query_row(query), query.norm_order
        )
        local = np.nonzero(weights[0])[0]
        diagnostics = PredictionDiagnostics(
            used_indices=tuple(int(index) for index in local),
            weights=tuple(float(weight) for weight in weights[0, local]),
            extrapolated=bool(extrapolated[0]),
        )
        return float(values[0]), diagnostics

    def predict_mean_batch(
        self, query_matrix: np.ndarray, norm_order: float = 2.0
    ) -> np.ndarray:
        """Predict the Q1 answers of an ``(m, d + 1)`` query matrix at once.

        The whole batch is processed as matrix arithmetic: one ``(m, K)``
        overlap-degree computation, one ``(m, K)`` LLM evaluation via a
        single matrix product, and a row-wise weighted sum — no per-query
        Python loop.
        """
        return self.predict_mean_batch_with_coverage(query_matrix, norm_order)[0]

    def predict_mean_batch_with_coverage(
        self, query_matrix: np.ndarray, norm_order: float = 2.0
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched Q1 prediction plus the per-query coverage mask.

        Returns ``(values, covered)`` where ``covered`` is the ``(m,)``
        boolean vector marking queries whose overlap set ``W(q)`` is
        non-empty.  Uncovered queries are *extrapolated* (answered by the
        closest prototype alone), which is the confidence signal a hybrid
        serving layer uses to fall back to exact execution.
        """
        values, _, extrapolated = self._weighted_means(query_matrix, norm_order)
        return values, ~extrapolated

    def batch_coverage(
        self, query_matrix: np.ndarray, norm_order: float = 2.0
    ) -> np.ndarray:
        """Return the ``(m,)`` boolean mask of queries with non-empty ``W(q)``."""
        matrix = self._as_query_matrix(query_matrix)
        _, extrapolated = self._batch_neighborhood(matrix, norm_order)
        return ~extrapolated

    # ------------------------------------------------------------------ #
    # Q2: local regression planes (Algorithm 3)
    # ------------------------------------------------------------------ #
    def regression_models(self, query: Query) -> list[RegressionPlane]:
        """Return the list ``S`` of local linear models explaining ``g`` over ``D(x, theta)``."""
        return self.predict_q2_batch(_query_row(query), query.norm_order)[0]

    def predict_q2_batch(
        self, query_matrix: np.ndarray, norm_order: float = 2.0
    ) -> list[list[RegressionPlane]]:
        """Return the Q2 answer (list of regression planes) for each query.

        The neighbourhood weights of the whole batch are computed with the
        same dense matrix pass as :meth:`predict_mean_batch`; only the final
        materialisation of the per-query plane lists walks Python objects.
        """
        return self.predict_q2_batch_with_coverage(query_matrix, norm_order)[0]

    def predict_q2_batch_with_coverage(
        self, query_matrix: np.ndarray, norm_order: float = 2.0
    ) -> tuple[list[list[RegressionPlane]], np.ndarray]:
        """Batched Q2 prediction plus the per-query coverage mask.

        Returns ``(plane_lists, covered)``; an uncovered query's plane list
        holds the single extrapolated closest-prototype plane.
        """
        matrix = self._as_query_matrix(query_matrix)
        weights, extrapolated = self._batch_neighborhood(matrix, norm_order)
        results: list[list[RegressionPlane]] = []
        for row in weights:
            local = np.flatnonzero(row)
            results.append(
                [
                    self._maps[index].regression_plane(weight=weight)
                    for index, weight in zip(local.tolist(), row[local].tolist())
                ]
            )
        return results, ~extrapolated

    # ------------------------------------------------------------------ #
    # A2: data-value prediction (Equation 14)
    # ------------------------------------------------------------------ #
    def predict_value(self, point: np.ndarray, radius: float, norm_order: float = 2.0) -> float:
        """Predict the data value ``u = g(x)`` at a point (a batch of one).

        The point together with a radius forms a probe query; each
        overlapping LLM is evaluated at its *own* radius (Equation 14) and
        the evaluations are combined with the normalised overlap weights.
        """
        row = np.asarray(point, dtype=float).ravel()[np.newaxis, :]
        return float(self.predict_value_batch(row, radius, norm_order)[0])

    def predict_value_batch(
        self, points: np.ndarray, radius: float, norm_order: float = 2.0
    ) -> np.ndarray:
        """Batched :meth:`predict_value` over the rows of ``points``.

        Every probe shares the given radius; the overlap weights and the
        own-radius LLM evaluations of the whole batch are matrix operations.
        """
        self._require_maps()
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self._centers.shape[1]:
            raise DimensionalityMismatchError(
                f"points have dimension {pts.shape[1]}, model expects "
                f"{self._centers.shape[1]}"
            )
        radii = np.full((pts.shape[0], 1), float(radius))
        matrix = self._as_query_matrix(np.hstack([pts, radii]))
        weights, _ = self._batch_neighborhood(matrix, norm_order)
        values = self._evaluate_all_maps_at_own_radius(pts)
        return (weights * values).sum(axis=1)


def _query_row(query: Query) -> np.ndarray:
    """The ``(1, d + 1)`` query matrix of one query."""
    return query.to_vector()[np.newaxis, :]
