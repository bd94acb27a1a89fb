"""Evaluation helpers comparing the model against the exact baselines.

These functions implement the measurement procedures of Section VI:

* :func:`evaluate_q1_accuracy` — RMSE of the predicted mean value over a
  set of unseen queries (metric A1),
* :func:`evaluate_q2_goodness_of_fit` — per-query FVU / CoD of the LLM
  answer, of REG and of PLR over the same data subspaces,
* :func:`evaluate_value_prediction` — RMSE of predicted data values
  (metric A2) for LLM, REG and PLR.

They operate on an exact engine (which supplies both the subspaces and the
ground-truth answers) and any trained model exposing the
``predict_mean_batch`` / ``regression_models`` / ``predict_value_batch``
interface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..baselines.ols import OLSRegressor
from ..baselines.plr import MARSRegressor
from ..dbms.executor import ExactQueryEngine
from ..queries.query import Query
from .regression import cod, fvu, rmse

__all__ = [
    "QueryAccuracyReport",
    "SubspaceFitReport",
    "evaluate_q1_accuracy",
    "evaluate_q2_goodness_of_fit",
    "evaluate_value_prediction",
]

#: Minimum number of rows for a subspace to be used in goodness-of-fit
#: comparisons (fitting REG/PLR on a couple of points is meaningless).
_MIN_SUBSPACE_ROWS = 8

#: Minimum output standard deviation for a subspace to be included in FVU /
#: CoD comparisons.  In regions where the data function is essentially
#: constant the total sum of squares is dominated by numerical noise and the
#: FVU ratio of any approximator that does not touch the data blows up
#: without conveying information about fit quality.
_MIN_OUTPUT_STD = 1e-3


@dataclass
class QueryAccuracyReport:
    """Result of a Q1 accuracy evaluation over a query set."""

    rmse: float
    evaluated_queries: int
    skipped_queries: int
    actual: np.ndarray = field(repr=False, default_factory=lambda: np.empty(0))
    predicted: np.ndarray = field(repr=False, default_factory=lambda: np.empty(0))


@dataclass
class SubspaceFitReport:
    """Per-method goodness-of-fit averages over a set of query subspaces."""

    llm_fvu: float
    reg_fvu: float
    plr_fvu: float
    llm_cod: float
    reg_cod: float
    plr_cod: float
    evaluated_queries: int
    skipped_queries: int
    mean_local_models: float


def evaluate_q1_accuracy(
    model,
    engine: ExactQueryEngine,
    queries: Sequence[Query],
) -> QueryAccuracyReport:
    """Compute the RMSE of the model's Q1 predictions against exact answers.

    The exact answers come from one engine batch and the predictions from
    one model batch; queries selecting no rows are skipped.
    """
    batch = list(queries)
    answers = engine.execute_q1_batch(batch, on_empty="null")
    answered = [query for query, answer in zip(batch, answers) if answer is not None]
    skipped = len(batch) - len(answered)
    if not answered:
        return QueryAccuracyReport(
            rmse=float("nan"), evaluated_queries=0, skipped_queries=skipped
        )
    actual_arr = np.array([answer.mean for answer in answers if answer is not None])
    predicted_arr = np.asarray(model.predict_mean_batch(answered), dtype=float)
    return QueryAccuracyReport(
        rmse=rmse(actual_arr, predicted_arr),
        evaluated_queries=len(answered),
        skipped_queries=skipped,
        actual=actual_arr,
        predicted=predicted_arr,
    )


def _llm_subspace_predictions(planes: list, inputs: np.ndarray) -> np.ndarray:
    """Predict data values inside a subspace with a Q2 answer's planes.

    The Q2 answer is a *piecewise* approximation (Equation 13): each point
    ``x`` in the subspace is predicted by the plane whose prototype center
    is closest to it, i.e. the plane responsible for the local region
    ``D_k`` the point falls into.
    """
    centers = np.vstack([plane.prototype_center for plane in planes])
    points = np.atleast_2d(np.asarray(inputs, dtype=float))
    # (n, K) distances from every point to every plane's prototype center.
    distances = np.linalg.norm(
        points[:, np.newaxis, :] - centers[np.newaxis, :, :], axis=2
    )
    assignments = np.argmin(distances, axis=1)
    predictions = np.empty(points.shape[0], dtype=float)
    for index, plane in enumerate(planes):
        mask = assignments == index
        if np.any(mask):
            predictions[mask] = plane.predict(points[mask])
    return predictions


def evaluate_q2_goodness_of_fit(
    model,
    engine: ExactQueryEngine,
    queries: Sequence[Query],
    *,
    plr_max_basis_functions: int = 20,
    min_subspace_rows: int = _MIN_SUBSPACE_ROWS,
    min_output_std: float = _MIN_OUTPUT_STD,
    include_baselines: bool = True,
) -> SubspaceFitReport:
    """Compare LLM / REG / PLR goodness of fit over the same query subspaces.

    ``include_baselines=False`` skips the REG and PLR fits (their fields are
    reported as NaN); useful for sweeps that only track the LLM's fit, such
    as the radius trade-off experiment, where fitting PLR over every large
    subspace would dominate the runtime without being reported.
    """
    llm_fvus: list[float] = []
    reg_fvus: list[float] = []
    plr_fvus: list[float] = []
    llm_cods: list[float] = []
    reg_cods: list[float] = []
    plr_cods: list[float] = []
    local_model_counts: list[int] = []
    skipped = 0

    for query in queries:
        inputs, outputs = engine.select_subspace(query)
        if outputs.size < min_subspace_rows or np.std(outputs) < min_output_std:
            skipped += 1
            continue

        planes = model.regression_models(query)
        llm_predictions = _llm_subspace_predictions(planes, inputs)
        local_model_counts.append(len(planes))
        llm_fvus.append(fvu(outputs, llm_predictions))
        llm_cods.append(cod(outputs, llm_predictions))

        if include_baselines:
            reg = OLSRegressor().fit(inputs, outputs)
            reg_predictions = reg.predict(inputs)
            plr = MARSRegressor(max_basis_functions=plr_max_basis_functions).fit(
                inputs, outputs
            )
            plr_predictions = plr.predict(inputs)
            reg_fvus.append(fvu(outputs, reg_predictions))
            plr_fvus.append(fvu(outputs, plr_predictions))
            reg_cods.append(cod(outputs, reg_predictions))
            plr_cods.append(cod(outputs, plr_predictions))

    if not llm_fvus:
        nan = float("nan")
        return SubspaceFitReport(
            llm_fvu=nan, reg_fvu=nan, plr_fvu=nan,
            llm_cod=nan, reg_cod=nan, plr_cod=nan,
            evaluated_queries=0, skipped_queries=skipped, mean_local_models=nan,
        )

    nan = float("nan")
    return SubspaceFitReport(
        llm_fvu=float(np.mean(llm_fvus)),
        reg_fvu=float(np.mean(reg_fvus)) if reg_fvus else nan,
        plr_fvu=float(np.mean(plr_fvus)) if plr_fvus else nan,
        llm_cod=float(np.mean(llm_cods)),
        reg_cod=float(np.mean(reg_cods)) if reg_cods else nan,
        plr_cod=float(np.mean(plr_cods)) if plr_cods else nan,
        evaluated_queries=len(llm_fvus),
        skipped_queries=skipped,
        mean_local_models=float(np.mean(local_model_counts)),
    )


def evaluate_value_prediction(
    model,
    engine: ExactQueryEngine,
    queries: Sequence[Query],
    *,
    points_per_query: int = 16,
    plr_max_basis_functions: int = 20,
    min_subspace_rows: int = _MIN_SUBSPACE_ROWS,
    seed: int | None = 0,
) -> dict[str, float]:
    """Compare data-value prediction RMSE (A2) of LLM, REG and PLR.

    For each query a handful of points inside its subspace are held out and
    predicted by each method; REG and PLR are fitted over the subspace (with
    data access), the LLM answers from its trained parameters only.
    """
    rng = np.random.default_rng(seed)
    llm_actual: list[float] = []
    llm_predicted: list[float] = []
    reg_predicted: list[float] = []
    plr_predicted: list[float] = []

    for query in queries:
        inputs, outputs = engine.select_subspace(query)
        if outputs.size < min_subspace_rows:
            continue
        probe_count = min(points_per_query, outputs.size)
        probe_indices = rng.choice(outputs.size, size=probe_count, replace=False)
        probes = inputs[probe_indices]
        truths = outputs[probe_indices]

        reg = OLSRegressor().fit(inputs, outputs)
        plr = MARSRegressor(max_basis_functions=plr_max_basis_functions).fit(
            inputs, outputs
        )

        llm_values = model.predict_value_batch(probes, query.radius)
        reg_values = reg.predict(probes)
        plr_values = plr.predict(probes)

        llm_actual.extend(truths.tolist())
        llm_predicted.extend(np.asarray(llm_values).tolist())
        reg_predicted.extend(np.asarray(reg_values).tolist())
        plr_predicted.extend(np.asarray(plr_values).tolist())

    if not llm_actual:
        nan = float("nan")
        return {"llm": nan, "reg": nan, "plr": nan, "points": 0}

    actual_arr = np.asarray(llm_actual)
    return {
        "llm": rmse(actual_arr, np.asarray(llm_predicted)),
        "reg": rmse(actual_arr, np.asarray(reg_predicted)),
        "plr": rmse(actual_arr, np.asarray(plr_predicted)),
        "points": len(llm_actual),
    }
