"""Experiment harness reproducing the paper's evaluation.

Each public function in :mod:`repro.eval.experiments` corresponds to one
figure of the evaluation section and returns the plotted series as plain
Python data structures.  :mod:`repro.eval.timing` provides the wall-clock
measurement helpers used by the scalability experiment, and
:mod:`repro.eval.reporting` turns the series into aligned text tables for
benchmark output; ``docs/REPRODUCTION.md`` quotes them next to the paper's
claims.
"""

from .timing import Stopwatch, measure_mean_latency
from .reporting import format_series_table, format_table
from .experiments import (
    ExperimentContext,
    build_context,
    run_convergence_experiment,
    run_prototype_example,
    run_local_approximation_example,
    run_q1_accuracy_vs_coefficient,
    run_q1_accuracy_vs_test_size,
    run_q2_fvu_vs_coefficient,
    run_cod_vs_prototypes,
    run_value_prediction_vs_test_size,
    run_scalability_experiment,
    run_radius_tradeoff_experiment,
)

__all__ = [
    "Stopwatch",
    "measure_mean_latency",
    "format_table",
    "format_series_table",
    "ExperimentContext",
    "build_context",
    "run_convergence_experiment",
    "run_prototype_example",
    "run_local_approximation_example",
    "run_q1_accuracy_vs_coefficient",
    "run_q1_accuracy_vs_test_size",
    "run_q2_fvu_vs_coefficient",
    "run_cod_vs_prototypes",
    "run_value_prediction_vs_test_size",
    "run_scalability_experiment",
    "run_radius_tradeoff_experiment",
]
