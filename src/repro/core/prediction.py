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
``(m, K)`` matrix of normalised overlap weights, in one pass that computes
the Eq. 9 degrees, the covered rows and the weights in place, then into the
weighted LLM evaluations, with no per-query Python loop.  A batch of one
pays each NumPy call's fixed cost, so the pass makes 17 NumPy calls at
``p = 2`` where the separate distance, degree and normalisation helpers it
replaced made about 38.
:class:`~repro.core.model.LLMModel` is the prediction surface: it checks a
batch, groups it by norm order and calls one kernel per group.  As in the
paper, finding ``W(q)`` is a scan of the ``K`` prototypes at ``O(dK)`` cost
per query; there is no prototype index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .prototypes import RegressionPlane

__all__ = [
    "NeighborhoodPredictor",
    "PredictionDiagnostics",
]

#: Cap on the float64 elements of one row chunk of the ``(rows, K, d)``
#: query-to-prototype difference tensor (~128 MiB).
_DIFFERENCE_CHUNK_ELEMENTS = 16_777_216


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
        np.add(values, term, out=values)
    return np.add(values, offsets, out=values)


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
        # Eq. 9's prototype radii, ``[theta_k, -theta_k]``: one addition
        # gives ``theta + theta_k`` and ``theta - theta_k``.  A prototype
        # with a negative radius overlaps no query (its degree is never
        # positive), as one of radius 0; with every radius >= 0,
        # ``theta + theta_k >= theta > 0``, so the degree needs no separate
        # overlap mask.
        overlap_radii = np.maximum(self._radii, 0.0)
        self._signed_radii = _frozen_copy(
            np.stack([overlap_radii, -overlap_radii])[:, np.newaxis, :]
        )
        self._chunk_rows = max(_DIFFERENCE_CHUNK_ELEMENTS // self._centers.size, 1)

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
        np.multiply(values, weights, out=values)
        return np.add.reduce(values, axis=1), weights, covered

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
        np.multiply(values, weights, out=values)
        return np.add.reduce(values, axis=1)

    def _neighborhood(
        self, matrix: np.ndarray, norm_order: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Dense ``(m, K)`` weight matrix plus the covered-row mask.

        Each row holds the normalised overlap weights of one query; rows
        with an empty overlap set carry a single ``1`` at the closest
        prototype in the query vectorial space (the extrapolation rule).

        One pass, in place: the Eq. 9 degree
        ``max(0, 1 - max(||x - x_k||, |theta - theta_k|) / (theta + theta_k))``
        is 0 for disjoint balls (the ratio is at least 1 there), so it needs
        no overlap mask, and a row is covered exactly when its degree sum is
        positive.
        """
        weights = self._center_distances(matrix[:, :-1], norm_order)
        totals, gaps = np.add(self._signed_radii, matrix[:, -1:])
        np.abs(gaps, out=gaps)
        np.maximum(weights, gaps, out=weights)
        np.divide(weights, totals, out=weights)
        np.subtract(1.0, weights, out=weights)
        # fmax, not maximum: a NaN degree (an infinite prototype radius)
        # counts as no overlap.
        np.fmax(weights, 0.0, out=weights)
        row_totals = np.add.reduce(weights, axis=1, keepdims=True)
        uncovered = np.equal(row_totals, 0.0)
        # An uncovered row divides its zeros by 1.
        np.add(row_totals, uncovered, out=row_totals)
        np.divide(weights, row_totals, out=weights)
        rows = uncovered.nonzero()[0]
        if rows.size:
            offsets = matrix[rows, np.newaxis, :] - self._prototypes
            np.multiply(offsets, offsets, out=offsets)
            distances = np.sqrt(np.add.reduce(offsets, axis=2))
            weights[rows, distances.argmin(axis=1)] = 1.0
        return weights, np.logical_not(uncovered[:, 0])

    def _center_distances(self, centers: np.ndarray, p: float) -> np.ndarray:
        """``(m, K)`` Lp distances from the query centers to the prototype centers.

        The ``(rows, K, d)`` difference tensor runs in row chunks of at most
        ``_DIFFERENCE_CHUNK_ELEMENTS`` elements; each distance sums its own
        ``d`` terms, so the chunks change no bit.
        """
        distances = np.empty((centers.shape[0], self._centers.shape[0]))
        chunk = self._chunk_rows
        for start in range(0, centers.shape[0], chunk):
            terms = centers[start : start + chunk, np.newaxis, :] - self._centers
            target = distances[start : start + chunk]
            if p == 2.0:
                np.multiply(terms, terms, out=terms)
                np.sqrt(np.add.reduce(terms, axis=2, out=target), out=target)
                continue
            np.abs(terms, out=terms)
            if math.isinf(p):
                np.maximum.reduce(terms, axis=2, out=target)
            elif p == 1.0:
                np.add.reduce(terms, axis=2, out=target)
            else:
                np.power(terms, p, out=terms)
                np.power(np.add.reduce(terms, axis=2, out=target), 1.0 / p, out=target)
        return distances
