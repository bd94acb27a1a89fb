"""Piecewise linear regression via a MARS-style procedure (the PLR baseline).

The paper's PLR baseline is built with the ARESLab toolbox, an
implementation of Friedman's Multivariate Adaptive Regression Splines
(MARS) restricted to piecewise-*linear* basis functions.  This module
implements the same two-phase procedure:

1. **Forward pass** — greedily add pairs of hinge basis functions
   ``max(0, x_j - t)`` / ``max(0, t - x_j)`` (plus the constant term) that
   most reduce the residual sum of squares, until a maximum number of basis
   functions is reached or the improvement becomes negligible.
2. **Backward pruning pass** — remove basis functions one at a time,
   keeping the subset that minimises the Generalised Cross-Validation (GCV)
   criterion with a configurable knot penalty (the paper uses 3, following
   Friedman's recommendation).

Only degree-1 (no interaction) terms are used, matching how the paper
employs PLR as "multiple local linear models" over a subspace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import (
    ConfigurationError,
    DimensionalityMismatchError,
    EmptySubspaceError,
    NotFittedError,
)

__all__ = ["BasisFunction", "MARSRegressor"]


@dataclass(frozen=True)
class BasisFunction:
    """A single hinge basis function ``max(0, sign * (x[variable] - knot))``.

    ``sign = +1`` gives the right hinge ``max(0, x - t)``, ``sign = -1``
    gives the mirrored left hinge ``max(0, t - x)``.
    """

    variable: int
    knot: float
    sign: int

    def __post_init__(self) -> None:
        if self.sign not in (-1, 1):
            raise ConfigurationError(f"hinge sign must be +1 or -1, got {self.sign}")
        if self.variable < 0:
            raise ConfigurationError(
                f"variable index must be non-negative, got {self.variable}"
            )

    def evaluate(self, inputs: np.ndarray) -> np.ndarray:
        """Evaluate the hinge on an ``(n, d)`` input array."""
        values = self.sign * (inputs[:, self.variable] - self.knot)
        return np.maximum(values, 0.0)

    def describe(self) -> str:
        """Human-readable form, e.g. ``max(0, x3 - 0.25)``."""
        if self.sign > 0:
            return f"max(0, x{self.variable + 1} - {self.knot:.4g})"
        return f"max(0, {self.knot:.4g} - x{self.variable + 1})"


class MARSRegressor:
    """Piecewise-linear MARS model with forward selection and GCV pruning.

    Parameters
    ----------
    max_basis_functions:
        Upper bound on the number of hinge basis functions added in the
        forward pass (the constant term is not counted).  The paper sets
        this to the number of LLM prototypes ``K`` for a fair comparison.
    gcv_penalty:
        The GCV penalty per knot (``3`` per Friedman's recommendation and
        the paper's setting).
    max_candidate_knots:
        Number of candidate knots examined per variable in the forward
        pass; candidates are quantiles of the observed values.
    min_improvement:
        Relative residual-sum-of-squares improvement below which the
        forward pass stops early.
    """

    def __init__(
        self,
        max_basis_functions: int = 20,
        gcv_penalty: float = 3.0,
        max_candidate_knots: int = 32,
        min_improvement: float = 1e-8,
    ) -> None:
        if max_basis_functions < 1:
            raise ConfigurationError(
                f"max_basis_functions must be >= 1, got {max_basis_functions}"
            )
        if gcv_penalty < 0:
            raise ConfigurationError(f"gcv_penalty must be >= 0, got {gcv_penalty}")
        if max_candidate_knots < 1:
            raise ConfigurationError(
                f"max_candidate_knots must be >= 1, got {max_candidate_knots}"
            )
        if min_improvement < 0:
            raise ConfigurationError(
                f"min_improvement must be >= 0, got {min_improvement}"
            )
        self.max_basis_functions = int(max_basis_functions)
        self.gcv_penalty = float(gcv_penalty)
        self.max_candidate_knots = int(max_candidate_knots)
        self.min_improvement = float(min_improvement)

        self._basis: list[BasisFunction] = []
        self._coefficients: np.ndarray | None = None
        self._dimension: int | None = None

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    @property
    def is_fitted(self) -> bool:
        return self._coefficients is not None

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise NotFittedError("MARSRegressor must be fitted before use")

    def _fitted_coefficients(self) -> np.ndarray:
        """The coefficient vector, or ``NotFittedError`` before ``fit``."""
        coefficients = self._coefficients
        if coefficients is None:
            raise NotFittedError("MARSRegressor must be fitted before use")
        return coefficients

    @property
    def coefficients(self) -> np.ndarray:
        """Coefficients ``[c0, c1, ...]`` aligned with constant + basis terms."""
        return self._fitted_coefficients().copy()

    @property
    def dimension(self) -> int:
        dimension = self._dimension
        if dimension is None:
            raise NotFittedError("MARSRegressor must be fitted before use")
        return dimension

    @property
    def knot_count(self) -> int:
        """Number of retained hinge basis functions."""
        self._require_fitted()
        return len(self._basis)

    def _design_matrix(
        self, inputs: np.ndarray, basis: list[BasisFunction]
    ) -> np.ndarray:
        columns = [np.ones(inputs.shape[0])]
        columns.extend(b.evaluate(inputs) for b in basis)
        return np.column_stack(columns)

    @staticmethod
    def _least_squares(design: np.ndarray, outputs: np.ndarray) -> tuple[np.ndarray, float]:
        solution, *_ = np.linalg.lstsq(design, outputs, rcond=None)
        residuals = outputs - design @ solution
        return solution, float(np.sum(residuals * residuals))

    def _gcv(self, rss: float, n_rows: int, basis_count: int) -> float:
        """Generalised cross-validation score for a model with ``basis_count`` hinges."""
        # Effective number of parameters: 1 (constant) + basis_count terms
        # + penalty * number of knots (each hinge contributes one knot).
        effective = 1.0 + basis_count + self.gcv_penalty * basis_count / 2.0
        denominator = (1.0 - effective / n_rows) ** 2
        if denominator <= 0:
            return float("inf")
        return (rss / n_rows) / denominator

    def _candidate_knots(self, values: np.ndarray) -> np.ndarray:
        unique = np.unique(values)
        if unique.size <= self.max_candidate_knots:
            # Knots at data values themselves (excluding the extremes which
            # would create an all-zero hinge on one side).
            return unique[1:-1] if unique.size > 2 else unique
        quantiles = np.linspace(0.0, 1.0, self.max_candidate_knots + 2)[1:-1]
        return np.unique(np.quantile(values, quantiles))

    # ------------------------------------------------------------------ #
    # fitting
    # ------------------------------------------------------------------ #
    def fit(self, inputs: np.ndarray, outputs: np.ndarray) -> "MARSRegressor":
        """Fit the MARS model with a forward pass followed by GCV pruning."""
        x = np.atleast_2d(np.asarray(inputs, dtype=float))
        u = np.asarray(outputs, dtype=float).ravel()
        if x.shape[0] == 0:
            raise EmptySubspaceError("cannot fit PLR on an empty subspace")
        if x.shape[0] != u.shape[0]:
            raise DimensionalityMismatchError(
                f"inputs have {x.shape[0]} rows but outputs have {u.shape[0]}"
            )
        self._dimension = x.shape[1]

        basis = self._forward_pass(x, u)
        basis = self._backward_pass(x, u, basis)
        design = self._design_matrix(x, basis)
        coefficients, _ = self._least_squares(design, u)
        self._basis = basis
        self._coefficients = coefficients
        return self

    def _forward_pass(self, x: np.ndarray, u: np.ndarray) -> list[BasisFunction]:
        basis: list[BasisFunction] = []
        design = self._design_matrix(x, basis)
        _, current_rss = self._least_squares(design, u)
        baseline_rss = max(current_rss, np.finfo(float).tiny)

        while len(basis) < self.max_basis_functions:
            best: tuple[float, list[BasisFunction]] | None = None
            for variable in range(x.shape[1]):
                knots = self._candidate_knots(x[:, variable])
                for knot in knots:
                    pair = [
                        BasisFunction(variable=variable, knot=float(knot), sign=+1),
                        BasisFunction(variable=variable, knot=float(knot), sign=-1),
                    ]
                    # Adding both hinges may exceed the budget; trim to fit.
                    allowed = pair[: self.max_basis_functions - len(basis)]
                    trial_basis = basis + allowed
                    trial_design = self._design_matrix(x, trial_basis)
                    _, rss = self._least_squares(trial_design, u)
                    if best is None or rss < best[0]:
                        best = (rss, allowed)
            if best is None:
                break
            best_rss, best_addition = best
            improvement = (current_rss - best_rss) / baseline_rss
            if improvement < self.min_improvement:
                break
            basis.extend(best_addition)
            current_rss = best_rss
            if current_rss <= np.finfo(float).tiny:
                break
        return basis

    def _backward_pass(
        self, x: np.ndarray, u: np.ndarray, basis: list[BasisFunction]
    ) -> list[BasisFunction]:
        n_rows = x.shape[0]
        best_basis = list(basis)
        design = self._design_matrix(x, best_basis)
        _, rss = self._least_squares(design, u)
        best_gcv = self._gcv(rss, n_rows, len(best_basis))

        current = list(basis)
        while current:
            # Try removing each remaining basis function; keep the removal
            # that yields the lowest GCV for this size.
            best_removal: tuple[float, list[BasisFunction]] | None = None
            for index in range(len(current)):
                trial = current[:index] + current[index + 1 :]
                trial_design = self._design_matrix(x, trial)
                _, trial_rss = self._least_squares(trial_design, u)
                trial_gcv = self._gcv(trial_rss, n_rows, len(trial))
                if best_removal is None or trial_gcv < best_removal[0]:
                    best_removal = (trial_gcv, trial)
            if best_removal is None:
                break  # unreachable: ``current`` is non-empty
            current = best_removal[1]
            if best_removal[0] <= best_gcv:
                best_gcv = best_removal[0]
                best_basis = list(current)
        return best_basis

    # ------------------------------------------------------------------ #
    # prediction and diagnostics
    # ------------------------------------------------------------------ #
    def predict(self, inputs: np.ndarray) -> np.ndarray:
        """Predict outputs for a batch of input vectors."""
        self._require_fitted()
        x = np.atleast_2d(np.asarray(inputs, dtype=float))
        if x.shape[1] != self.dimension:
            raise DimensionalityMismatchError(
                f"model expects dimension {self.dimension}, got {x.shape[1]}"
            )
        design = self._design_matrix(x, self._basis)
        return design @ self._fitted_coefficients()

    def r_squared(self, inputs: np.ndarray, outputs: np.ndarray) -> float:
        """Coefficient of determination over a dataset."""
        u = np.asarray(outputs, dtype=float).ravel()
        predictions = self.predict(inputs)
        ssr = float(np.sum((u - predictions) ** 2))
        tss = float(np.sum((u - np.mean(u)) ** 2))
        if tss == 0.0:
            return 1.0 if np.isclose(ssr, 0.0) else 0.0
        return 1.0 - ssr / tss

    def linear_segments_1d(self, grid: np.ndarray) -> list[tuple[float, float, float, float]]:
        """For 1-D models, return the linear segments over a grid.

        Each segment is reported as ``(x_low, x_high, intercept, slope)``.
        Useful for reproducing the Figure-5 style comparison of the local
        models returned by PLR against the LLMs.
        """
        self._require_fitted()
        if self.dimension != 1:
            raise ConfigurationError("linear_segments_1d requires a 1-D model")
        knots = sorted({b.knot for b in self._basis})
        grid = np.asarray(grid, dtype=float).ravel()
        boundaries = [float(grid.min())] + [k for k in knots if grid.min() < k < grid.max()]
        boundaries.append(float(grid.max()))
        segments = []
        for low, high in zip(boundaries[:-1], boundaries[1:]):
            midpoint = np.array([[(low + high) / 2.0]])
            width = max(high - low, 1e-9)
            probe = np.array([[low + 0.25 * width], [low + 0.75 * width]])
            values = self.predict(probe)
            slope = float((values[1] - values[0]) / (probe[1, 0] - probe[0, 0]))
            intercept = float(self.predict(midpoint)[0] - slope * midpoint[0, 0])
            segments.append((low, high, intercept, slope))
        return segments
