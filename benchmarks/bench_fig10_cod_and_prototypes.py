"""Figure 10: coefficient of determination vs K, and K vs coefficient a.

Left plot of the paper: with enough prototypes the LLM reaches a high,
positive R² over random analyst subspaces, better than the single REG plane
(which can even go negative), approaching PLR.  Right plot: the number of
prototypes K grows as the quantization coefficient a shrinks.
"""

from __future__ import annotations

import numpy as np

from repro.eval.experiments import run_cod_vs_prototypes
from repro.eval.reporting import format_series_table

COEFFICIENTS = (0.9, 0.5, 0.25, 0.1, 0.05)


def test_fig10_cod_and_prototype_counts(benchmark, record_table):
    result = benchmark.pedantic(
        run_cod_vs_prototypes,
        kwargs={
            "dataset_name": "R1",
            "dimensions": (2, 5),
            "coefficients": COEFFICIENTS,
            "dataset_size": 12_000,
            "training_queries": 1_500,
            "testing_queries": 12,
            "seed": 7,
        },
        rounds=1,
        iterations=1,
    )

    tables = []
    for dimension, series in result["by_dimension"].items():
        tables.append(
            format_series_table(
                "a",
                series["coefficients"],
                {
                    "K": series["prototypes"],
                    "LLM R2": series["llm_cod"],
                    "REG R2": series["reg_cod"],
                    "PLR R2": series["plr_cod"],
                },
                title=f"Figure 10 — K and R² vs a (R1, {dimension})",
            )
        )
    record_table("fig10_cod_and_prototypes", "\n\n".join(tables))

    for dimension, series in result["by_dimension"].items():
        prototypes = np.asarray(series["prototypes"])
        llm_cod = np.asarray(series["llm_cod"])
        reg_cod = np.asarray(series["reg_cod"])
        # Right plot shape: K is non-increasing in a, i.e. increasing along
        # our (decreasing-a) sweep order.
        assert np.all(np.diff(prototypes) >= 0)
        # Left plot shape: with the largest K the LLM achieves a positive R²,
        # and its R² improves as K grows.
        assert llm_cod[-1] > 0.0
        assert llm_cod[-1] > llm_cod[0]
        if dimension == "d=2":
            # The paper's ordering (LLM R² above REG's over the same
            # subspaces) appears at d = 2 at laptop scale; see
            # docs/REPRODUCTION.md for the d = 5 discussion.
            assert llm_cod[-1] > reg_cod[-1]
