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

:class:`NeighborhoodPredictor` holds the three computations as matrix
kernels over one immutable snapshot of a model's dense parameter arrays.
Each kernel turns an ``(m, d + 1)`` query matrix of one norm order into the
full ``(m, K)`` overlap-degree matrix and the weighted LLM evaluations, with
no per-query Python loop.  :class:`~repro.core.model.LLMModel` is the
prediction surface: it checks a batch, groups it by norm order and calls
one kernel per group.  As in the paper, finding ``W(q)`` is a scan of the
``K`` prototypes at ``O(dK)`` cost per query; there is no prototype index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import DimensionalityMismatchError
from ..queries.geometry import overlap_degree_matrix
from .prototypes import RegressionPlane

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


def _frozen_copy(array: np.ndarray) -> np.ndarray:
    copy = np.array(array, dtype=float, order="C")
    copy.setflags(write=False)
    return copy


def _evaluate(
    offsets: np.ndarray, points: np.ndarray, slope_columns: np.ndarray
) -> np.ndarray:
    """``(m, K)`` matrix of ``offsets + points @ slope_columns``, batch-invariant.

    A BLAS product sums each entry's terms in an order that depends on the
    batch (gemv for one row, gemm for more).  Adding the column products
    one after another, in column order, makes every entry a function of
    its own row alone.
    """
    values = points[:, :1] * slope_columns[0]
    term = np.empty_like(values)
    for column in range(1, slope_columns.shape[0]):
        np.multiply(points[:, column : column + 1], slope_columns[column], out=term)
        values += term
    values += offsets
    return values


class NeighborhoodPredictor:
    """The kernels of Algorithms 2 and 3 and Equation (14) over one snapshot.

    Parameters
    ----------
    prototypes, slopes:
        The ``(K, d + 1)`` prototype and slope matrices, ``K >= 1``.
    means:
        The ``(K,)`` local intercepts ``y_k``.

    The arrays are copied and made read-only, so later training steps never
    reach the snapshot's answers.  Every kernel takes a checked ``(m, d + 1)``
    matrix of ``[x, theta]`` rows (finite, positive radii, the snapshot's
    width) and one norm order; :class:`~repro.core.model.LLMModel` does the
    checking.
    """

    def __init__(
        self, prototypes: np.ndarray, slopes: np.ndarray, means: np.ndarray
    ) -> None:
        self._prototypes = _frozen_copy(prototypes)
        self._slopes = _frozen_copy(slopes)
        self._means = _frozen_copy(means)
        self._centers = self._prototypes[:, :-1]
        self._radii = self._prototypes[:, -1]
        self._center_slopes = self._slopes[:, :-1]
        # ``(d + 1, K)``: one contiguous row per query component.
        self._slope_columns = _frozen_copy(self._slopes.T)
        # Intercepts of the LLMs written as ``offset + slope . q``: at the
        # query vector (Algorithm 2) and at the own radius (Equation 14).
        self._offsets = self._means - np.sum(self._slopes * self._prototypes, axis=1)
        self._own_radius_offsets = self._means - np.sum(
            self._center_slopes * self._centers, axis=1
        )

    def q1(
        self, matrix: np.ndarray, norm_order: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Q1 answers (Algorithm 2): ``(values, weights, covered)``.

        ``weights`` is the ``(m, K)`` matrix of normalised overlap weights
        and ``covered`` the ``(m,)`` mask of queries with a non-empty
        ``W(q)``; an uncovered query is answered by the closest prototype
        alone, the signal a hybrid serving layer falls back on.
        """
        weights, covered = self._neighborhood(matrix, norm_order)
        values = _evaluate(self._offsets, matrix, self._slope_columns)
        values *= weights
        return values.sum(axis=1), weights, covered

    def q2(
        self, matrix: np.ndarray, norm_order: float
    ) -> tuple[list[list[RegressionPlane]], np.ndarray]:
        """Q2 answers (Algorithm 3): ``(plane_lists, covered)``.

        Each query's list holds the Theorem-3 plane of every prototype it
        weighs, ``u = (y_k - b_{X,k} . x_k) + b_{X,k} . x``; an uncovered
        query's list holds the closest prototype's plane alone.
        """
        weights, covered = self._neighborhood(matrix, norm_order)
        means, centers, slopes = self._means, self._centers, self._center_slopes
        plane_lists = []
        for row in weights:
            local = np.flatnonzero(row)
            plane_lists.append(
                [
                    RegressionPlane(
                        intercept=float(means[k]) - float(slopes[k] @ centers[k]),
                        slope=slopes[k].copy(),
                        prototype_center=centers[k].copy(),
                        prototype_radius=float(self._radii[k]),
                        weight=weight,
                    )
                    for k, weight in zip(local.tolist(), row[local].tolist())
                ]
            )
        return plane_lists, covered

    def data_values(self, matrix: np.ndarray, norm_order: float) -> np.ndarray:
        """Data values ``u = g(x)`` at the probe centers (Equation 14).

        Each row is a probe ball ``[x, theta]``: the LLMs it overlaps are
        evaluated at ``x`` and at their *own* radius, and combined with the
        probe's overlap weights.
        """
        weights, _ = self._neighborhood(matrix, norm_order)
        values = _evaluate(
            self._own_radius_offsets, matrix[:, :-1], self._slope_columns[:-1]
        )
        values *= weights
        return values.sum(axis=1)

    def _neighborhood(
        self, matrix: np.ndarray, norm_order: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Dense ``(m, K)`` weight matrix plus the covered-row mask.

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
            distances = np.linalg.norm(
                matrix[rows, np.newaxis, :] - self._prototypes[np.newaxis, :, :],
                axis=2,
            )
            weights[rows, np.argmin(distances, axis=1)] = 1.0
        return weights, ~extrapolated
