"""Micro-benchmarks of the query-processing paths.

These measure the raw per-call latency of the operations the paper's
efficiency claims rest on:

* Q1 prediction from the trained model (Algorithm 2),
* Q2 local-model retrieval from the trained model (Algorithm 3),
* data-value prediction (Equation 14),
* exact Q1 execution over the engine (indexed and full-scan),
* exact Q2 execution (selection + OLS) over the engine.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dbms.executor import ExactQueryEngine
from repro.eval.experiments import build_context


@pytest.fixture(scope="module")
def setup():
    context = build_context(
        "R2",
        dimension=2,
        dataset_size=60_000,
        training_queries=1_000,
        testing_queries=50,
        seed=3,
    )
    model, _ = context.train_model()
    query = context.testing.queries[0]
    return context, model, query


def test_model_q1_prediction_latency(setup, benchmark):
    _, model, query = setup
    result = benchmark(model.predict_mean, query)
    assert np.isfinite(result)


def test_model_q2_local_models_latency(setup, benchmark):
    _, model, query = setup
    planes = benchmark(model.regression_models, query)
    assert len(planes) >= 1


def test_model_value_prediction_latency(setup, benchmark):
    context, model, query = setup
    point = query.center
    value = benchmark(model.predict_value, point, query.radius)
    assert np.isfinite(value)


def test_exact_q1_latency_indexed(setup, benchmark):
    context, _, query = setup
    answer = benchmark(context.engine.execute_q1, query)
    assert answer.cardinality > 0


def test_exact_q1_latency_full_scan(setup, benchmark):
    context, _, query = setup
    scan_engine = ExactQueryEngine(context.dataset, route="scan")
    answer = benchmark(scan_engine.execute_q1, query)
    assert answer.cardinality > 0


def test_exact_q2_latency(setup, benchmark):
    context, _, query = setup
    answer = benchmark(context.engine.execute_q2, query)
    assert answer.coefficients is not None
