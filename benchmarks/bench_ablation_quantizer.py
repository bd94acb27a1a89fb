"""Ablation: vigilance-driven growing AVQ vs a fixed-K online quantizer.

The paper's quantizer grows prototypes on demand (governed by the vigilance
``rho``) instead of fixing K in advance.  This ablation trains two models on
the same workload — the growing quantizer and a fixed-K variant seeded with
the first K queries — and compares Q1 accuracy for matched prototype
budgets.
"""

from __future__ import annotations

import numpy as np

from repro.core.learning_rates import HyperbolicRate
from repro.core.prediction import NeighborhoodPredictor
from repro.eval.experiments import build_context
from repro.eval.reporting import format_table
from repro.metrics.evaluation import evaluate_q1_accuracy
from repro.metrics.regression import rmse
from repro.testing.reference_training import FixedKQuantizer, train_step


class _FixedKModel:
    """Minimal fixed-K counterpart of LLMModel used only by this ablation."""

    def __init__(self, k: int):
        self._quantizer = FixedKQuantizer(k)
        self._schedule = HyperbolicRate()

    def fit(self, pairs) -> None:
        for pair in pairs:
            train_step(
                self._quantizer, pair.query.to_vector(), pair.answer, self._schedule
            )

    def predict_mean(self, query) -> float:
        return NeighborhoodPredictor(self._quantizer.maps).predict_mean(query)


def _run_ablation() -> dict:
    context = build_context(
        "R1",
        dimension=2,
        dataset_size=12_000,
        training_queries=1_500,
        testing_queries=200,
        seed=7,
    )
    growing_model, _ = context.train_model(coefficient=0.05)
    k = growing_model.prototype_count

    fixed_model = _FixedKModel(k)
    fixed_model.fit(context.training.pairs)

    growing_report = evaluate_q1_accuracy(
        growing_model, context.engine, context.testing.queries
    )
    actual, predicted = [], []
    for query in context.testing.queries:
        try:
            truth = context.engine.execute_q1(query).mean
        except Exception:
            continue
        actual.append(truth)
        predicted.append(fixed_model.predict_mean(query))
    fixed_rmse = rmse(np.asarray(actual), np.asarray(predicted))
    return {
        "k": k,
        "growing_rmse": growing_report.rmse,
        "fixed_rmse": fixed_rmse,
    }


def test_ablation_growing_vs_fixed_k(benchmark, record_table):
    result = benchmark.pedantic(_run_ablation, rounds=1, iterations=1)
    record_table(
        "ablation_quantizer",
        format_table(
            ["quantizer", "prototypes K", "Q1 RMSE"],
            [
                ["growing AVQ (paper)", result["k"], result["growing_rmse"]],
                ["fixed-K (first-K seeding)", result["k"], result["fixed_rmse"]],
            ],
            title="Ablation — growing AVQ vs fixed-K quantizer (R1, d=2)",
        ),
    )
    assert np.isfinite(result["growing_rmse"])
    assert np.isfinite(result["fixed_rmse"])
    # The growing quantizer should not be substantially worse than the
    # fixed-K variant at the same prototype budget.
    assert result["growing_rmse"] <= result["fixed_rmse"] * 1.5 + 0.02
