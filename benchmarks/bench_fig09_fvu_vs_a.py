"""Figure 9: Q2 goodness of fit (FVU) of LLM vs REG vs PLR vs coefficient a.

The paper's claims: (i) for fine quantizations the LLM's piecewise answer
explains the analyst subspaces far better than the single REG plane and
approaches PLR, and (ii) as ``a -> 1`` (one prototype) the LLM degrades to
REG-like quality.  PLR, which fits with full data access, has the lowest
FVU throughout.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.eval.experiments import run_q2_fvu_vs_coefficient
from repro.eval.reporting import format_series_table

COEFFICIENTS = (0.05, 0.1, 0.25, 0.9)


@pytest.mark.parametrize("dataset", ["R1", "R2"])
def test_fig09_fvu_vs_coefficient(dataset, benchmark, record_table):
    result = benchmark.pedantic(
        run_q2_fvu_vs_coefficient,
        kwargs={
            "dataset_name": dataset,
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
                list(result["coefficients"]),
                {
                    "LLM FVU": series["llm_fvu"],
                    "REG FVU": series["reg_fvu"],
                    "PLR FVU": series["plr_fvu"],
                    "|S| per query": series["mean_local_models"],
                },
                title=f"Figure 9 — FVU vs a ({dataset}, {dimension})",
            )
        )
    record_table(f"fig09_fvu_vs_a_{dataset}", "\n\n".join(tables))

    for dimension, series in result["by_dimension"].items():
        llm = np.asarray(series["llm_fvu"])
        reg = np.asarray(series["reg_fvu"])
        plr = np.asarray(series["plr_fvu"])
        # PLR (full data access, knot budget tied to K as in the paper) is at
        # least as good as the single REG plane when given a reasonable
        # budget, i.e. at the finest quantization.
        assert plr[0] <= reg[0] + 1e-6
        # Degradation towards REG-like quality as a -> 1: the coarsest LLM is
        # worse than the finest one, and the finest LLM explains most of the
        # variance (FVU < 1).
        assert llm[-1] > llm[0]
        assert llm[0] < 1.0
        if dimension == "d=2":
            # At d = 2 the laptop-scale training workload is dense enough for
            # the paper's headline ordering to appear: the LLM's piecewise
            # answer beats the single exact plane over the same subspaces.
            # (At d = 5 this needs the paper's much larger workload; see
            # docs/REPRODUCTION.md.)
            assert llm[0] < reg[0]
