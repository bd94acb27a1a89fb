"""Figures 13 & 14: impact of the mean query radius on training and quality.

The paper sweeps the mean radius ``mu_theta`` of the training queries and
shows a three-way trade-off:

* large radii -> answers approach the global mean, so very few training
  pairs are needed and the Q1 RMSE is low, but the goodness of fit (CoD)
  collapses because every LLM degenerates to a constant;
* small radii -> many training pairs are needed and the RMSE is higher,
  but the local models actually explain the data (high CoD).

Figure 13 plots RMSE vs ``mu_theta`` and |T| vs CoD; Figure 14 shows the
trajectory of (|T|, RMSE, CoD) as ``mu_theta`` varies.  Both are generated
from the same sweep, so this module records both result files.
"""

from __future__ import annotations

import numpy as np

from repro.eval.experiments import run_radius_tradeoff_experiment
from repro.eval.reporting import format_series_table

RADIUS_MEANS = (0.05, 0.1, 0.2, 0.4, 0.8)


def test_fig13_fig14_radius_tradeoff(benchmark, record_table):
    result = benchmark.pedantic(
        run_radius_tradeoff_experiment,
        kwargs={
            "radius_means": RADIUS_MEANS,
            "dimensions": (2, 5),
            "dataset_name": "R1",
            "dataset_size": 12_000,
            "training_queries": 2_000,
            "testing_queries": 40,
            "seed": 7,
        },
        rounds=1,
        iterations=1,
    )

    fig13_tables = []
    fig14_tables = []
    for dimension, series in result["by_dimension"].items():
        fig13_tables.append(
            format_series_table(
                "mu_theta",
                series["radius_means"],
                {"RMSE": series["rmse"], "|T| to convergence": series["training_pairs"]},
                title=f"Figure 13 — RMSE and |T| vs mu_theta (R1, {dimension})",
            )
        )
        fig14_tables.append(
            format_series_table(
                "mu_theta",
                series["radius_means"],
                {
                    "|T|": series["training_pairs"],
                    "RMSE": series["rmse"],
                    "CoD": series["cod"],
                    "K": series["prototypes"],
                },
                title=f"Figure 14 — (|T|, RMSE, CoD) trajectory (R1, {dimension})",
            )
        )
    record_table("fig13_radius_tradeoff", "\n\n".join(fig13_tables))
    record_table("fig14_radius_trajectory", "\n\n".join(fig14_tables))

    for dimension, series in result["by_dimension"].items():
        rmse_values = np.asarray(series["rmse"])
        cods = np.asarray(series["cod"])
        # Shape of the trade-off: the largest radius gives the lowest Q1 RMSE
        # (answers collapse towards the global mean) but a collapsed CoD,
        # while some smaller radius achieves a clearly positive CoD.
        assert rmse_values[-1] <= rmse_values[0]
        assert np.max(cods) > 0.0
        assert cods[-1] < np.max(cods) - 0.3
        # Note: the paper also reports that large radii converge with fewer
        # training pairs.  With the windowed criterion and laptop-scale
        # workloads the |T|-to-convergence direction does not reproduce
        # cleanly (see docs/REPRODUCTION.md), so it is reported but not
        # asserted.
