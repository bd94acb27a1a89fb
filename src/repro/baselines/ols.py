"""Multivariate ordinary least squares regression (the REG baseline).

``REG`` fits a single global hyperplane ``u ≈ b0 + b · x`` over the data
subspace selected by a query.  The implementation uses the numerically
stable least-squares solver of NumPy (SVD-based) and exposes the summary
statistics the evaluation needs: coefficients, residuals, R², FVU and
standard errors of the coefficients.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import DimensionalityMismatchError, EmptySubspaceError, NotFittedError

__all__ = ["OLSRegressor"]


class OLSRegressor:
    """Ordinary least squares regression with an intercept.

    Examples
    --------
    >>> import numpy as np
    >>> x = np.array([[0.0], [1.0], [2.0], [3.0]])
    >>> u = np.array([1.0, 3.0, 5.0, 7.0])
    >>> model = OLSRegressor().fit(x, u)
    >>> round(model.intercept, 6)
    1.0
    >>> np.round(model.slope, 6).tolist()
    [2.0]
    """

    def __init__(self) -> None:
        self._coefficients: np.ndarray | None = None
        self._dimension: int | None = None
        self._training_rows = 0

    # ------------------------------------------------------------------ #
    # fitting
    # ------------------------------------------------------------------ #
    def fit(self, inputs: np.ndarray, outputs: np.ndarray) -> "OLSRegressor":
        """Fit the model by least squares.

        Degenerate subspaces (fewer rows than unknowns, or collinear
        columns) are handled by the minimum-norm least squares solution, so
        the fit never fails once at least one row is provided.
        """
        x = np.atleast_2d(np.asarray(inputs, dtype=float))
        u = np.asarray(outputs, dtype=float).ravel()
        if x.shape[0] == 0:
            raise EmptySubspaceError("cannot fit a regression on an empty subspace")
        if x.shape[0] != u.shape[0]:
            raise DimensionalityMismatchError(
                f"inputs have {x.shape[0]} rows but outputs have {u.shape[0]}"
            )
        design = np.column_stack([np.ones(x.shape[0]), x])
        solution, *_ = np.linalg.lstsq(design, u, rcond=None)
        self._coefficients = solution
        self._dimension = x.shape[1]
        self._training_rows = x.shape[0]
        return self

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def is_fitted(self) -> bool:
        return self._coefficients is not None

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise NotFittedError("OLSRegressor must be fitted before use")

    def _fitted_coefficients(self) -> np.ndarray:
        """The coefficient vector, or ``NotFittedError`` before ``fit``."""
        coefficients = self._coefficients
        if coefficients is None:
            raise NotFittedError("OLSRegressor must be fitted before use")
        return coefficients

    @property
    def coefficients(self) -> np.ndarray:
        """The full coefficient vector ``[b0, b1, ..., bd]``."""
        return self._fitted_coefficients().copy()

    @property
    def intercept(self) -> float:
        """The intercept ``b0``."""
        return float(self._fitted_coefficients()[0])

    @property
    def slope(self) -> np.ndarray:
        """The slope vector ``[b1, ..., bd]``."""
        return self._fitted_coefficients()[1:].copy()

    @property
    def dimension(self) -> int:
        """Input dimensionality the model was fitted on."""
        dimension = self._dimension
        if dimension is None:
            raise NotFittedError("OLSRegressor must be fitted before use")
        return dimension

    @property
    def training_rows(self) -> int:
        """Number of rows used during fitting."""
        return self._training_rows

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
        return self.intercept + x @ self.slope

    def residuals(self, inputs: np.ndarray, outputs: np.ndarray) -> np.ndarray:
        """Return the residual vector ``u - u_hat``."""
        u = np.asarray(outputs, dtype=float).ravel()
        return u - self.predict(inputs)

    def sum_of_squared_residuals(self, inputs: np.ndarray, outputs: np.ndarray) -> float:
        """Return SSR over a dataset."""
        res = self.residuals(inputs, outputs)
        return float(np.sum(res * res))

    def r_squared(self, inputs: np.ndarray, outputs: np.ndarray) -> float:
        """Return the coefficient of determination over a dataset.

        When the outputs have zero variance the fit is perfect iff the
        residuals are all (numerically) zero; we return 1.0 in that case and
        0.0 otherwise, matching the usual convention.
        """
        u = np.asarray(outputs, dtype=float).ravel()
        ssr = self.sum_of_squared_residuals(inputs, u)
        tss = float(np.sum((u - np.mean(u)) ** 2))
        if tss == 0.0:
            return 1.0 if np.isclose(ssr, 0.0) else 0.0
        return 1.0 - ssr / tss

    def coefficient_standard_errors(
        self, inputs: np.ndarray, outputs: np.ndarray
    ) -> np.ndarray:
        """Return standard errors of ``[b0, b1, ..., bd]``.

        Uses the classical formula ``sigma^2 (X'X)^{-1}`` with a pseudo
        inverse to survive collinear designs; entries may be large when the
        design is ill-conditioned, which is itself useful information for
        the analyst.
        """
        self._require_fitted()
        x = np.atleast_2d(np.asarray(inputs, dtype=float))
        u = np.asarray(outputs, dtype=float).ravel()
        design = np.column_stack([np.ones(x.shape[0]), x])
        dof = max(x.shape[0] - design.shape[1], 1)
        sigma_squared = self.sum_of_squared_residuals(x, u) / dof
        covariance = sigma_squared * np.linalg.pinv(design.T @ design)
        return np.sqrt(np.clip(np.diag(covariance), 0.0, None))
