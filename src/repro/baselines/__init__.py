"""Baseline regression models the paper compares against.

* ``REG`` — exact multivariate ordinary least squares regression fitted
  over the data subspace selected by a query (what PostgreSQL / Matlab
  ``regress`` computes in the paper's evaluation).
* ``PLR`` — piecewise linear regression via a MARS-style forward/backward
  procedure with a generalised cross-validation penalty (the role played by
  the ARESLab toolbox in the paper).
"""

from .ols import OLSRegressor
from .plr import MARSRegressor, BasisFunction

__all__ = [
    "OLSRegressor",
    "MARSRegressor",
    "BasisFunction",
]
