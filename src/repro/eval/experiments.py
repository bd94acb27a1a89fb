"""Experiment runners, one per figure of the paper's evaluation section.

Every runner is a plain function returning dictionaries of series (x values
plus one list per plotted curve) so benchmarks, examples and tests can share
them.  The runners default to laptop-scale dataset and workload sizes;
``docs/REPRODUCTION.md`` records how they and the results depart from the
paper's.

A shared :class:`ExperimentContext` bundles the pieces every experiment
needs: a dataset, an exact engine, a radius distribution, and labelled
training / testing workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..baselines.ols import OLSRegressor
from ..baselines.plr import MARSRegressor
from ..config import ModelConfig, TrainingConfig
from ..core.model import LLMModel, TrainingReport
from ..data.functions import PiecewiseNonLinear1D
from ..data.gas_sensor import generate_gas_sensor_dataset
from ..data.synthetic import (
    SyntheticDataset,
    make_function_dataset,
    make_rosenbrock_dataset,
    normalize_dataset,
)
from ..dbms.executor import ExactQueryEngine
from ..exceptions import ConfigurationError
from ..metrics.evaluation import (
    evaluate_q1_accuracy,
    evaluate_q2_goodness_of_fit,
    evaluate_value_prediction,
)
from ..queries.query import Query
from ..queries.stream import LabelledWorkload
from ..queries.workload import QueryWorkloadGenerator, RadiusDistribution, WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..dbms.serving import AnalyticsService
from .timing import measure_amortized_latency, measure_mean_latency

__all__ = [
    "ExperimentContext",
    "build_context",
    "default_radius_distribution",
    "analyst_queries",
    "run_prototype_example",
    "run_local_approximation_example",
    "run_convergence_experiment",
    "run_q1_accuracy_vs_coefficient",
    "run_q1_accuracy_vs_test_size",
    "run_q2_fvu_vs_coefficient",
    "run_cod_vs_prototypes",
    "run_value_prediction_vs_test_size",
    "run_scalability_experiment",
    "run_radius_tradeoff_experiment",
]

#: Default quantization coefficient used by the experiment harness.  The
#: paper's default is ``a = 0.25``; at laptop-scale training workloads the
#: same vigilance formula yields far fewer prototypes than the paper's
#: server-scale runs, so the harness operates at ``a = 0.05``, which puts the
#: prototype count in the same regime (tens to a few hundred) as the paper.
DEFAULT_COEFFICIENT = 0.05

#: Convergence threshold used by the experiment harness.  The magnitude of
#: the per-step criterion depends on the data scale and learning-rate
#: indexing, so the harness uses a tighter ``gamma`` than the paper's 0.01
#: to reach a comparable number of training pairs before termination.
DEFAULT_GAMMA = 0.002

#: Radius multiplier applied to the unseen workload when evaluating Q2
#: goodness of fit.  Training queries are small exploration subspaces;
#: regression (Q2) queries in the paper's motivation are issued over broader
#: analyst regions within which the data function is visibly non-linear, so
#: the FVU / CoD experiments evaluate over subspaces a few times wider than
#: the training radii.
ANALYST_RADIUS_SCALE = 4.0

#: Datasets the experiments know how to build, keyed by the paper's names.
#: Both are scaled to the unit cube (the paper scales all attributes to
#: [0, 1]), which keeps the vigilance formula and the RMSE magnitudes
#: comparable across datasets and dimensions.
_DATASET_BUILDERS = {
    "R1": lambda size, dimension, seed: generate_gas_sensor_dataset(
        size, dimension=dimension, seed=seed
    ),
    "R2": lambda size, dimension, seed: normalize_dataset(
        make_rosenbrock_dataset(size, dimension=dimension, seed=seed)
    ),
}

def default_radius_distribution(
    dimension: int, *, target_selectivity: float = 0.02
) -> RadiusDistribution:
    """Choose a radius distribution with a sensible expected selectivity.

    The paper's radii cover ~20% of each feature's range over datasets of
    ``1.5e7``–``1e10`` rows, so every subspace holds plenty of tuples.  At
    laptop-scale dataset sizes a fixed radius would leave high-dimensional
    subspaces empty, so the mean radius is chosen so a ball captures roughly
    ``target_selectivity`` of a uniform unit cube:

    ``radius = (target_selectivity / V_d)^(1/d)`` with ``V_d`` the unit-ball
    volume.  For ``d = 2`` this lands on ~0.08–0.1, matching the paper's
    setting for the unit-scaled real dataset.
    """
    from ..queries.geometry import ball_volume

    unit_ball = ball_volume(1.0, dimension)
    mean_radius = float((target_selectivity / unit_ball) ** (1.0 / dimension))
    mean_radius = min(max(mean_radius, 0.02), 0.45)
    return RadiusDistribution(mean=mean_radius, std=mean_radius / 4.0)


@dataclass
class ExperimentContext:
    """Everything one accuracy experiment needs, built once and reused."""

    dataset: SyntheticDataset
    engine: ExactQueryEngine
    dataset_name: str
    dimension: int
    radius: RadiusDistribution
    training: LabelledWorkload
    testing: LabelledWorkload
    seed: int

    def train_model(
        self,
        coefficient: float = DEFAULT_COEFFICIENT,
        *,
        gamma: float = DEFAULT_GAMMA,
        max_steps: int | None = None,
        training_pairs: int | None = None,
    ) -> tuple[LLMModel, TrainingReport]:
        """Train a fresh model on (a prefix of) the training workload."""
        model = LLMModel(
            dimension=self.dimension,
            config=ModelConfig(quantization_coefficient=coefficient),
            training=TrainingConfig(convergence_threshold=gamma, max_steps=max_steps),
        )
        pairs = self.training.pairs
        if training_pairs is not None:
            pairs = pairs[: training_pairs]
        report = model.fit(pairs)
        return model, report

    def train_model_streaming(
        self,
        coefficient: float = DEFAULT_COEFFICIENT,
        *,
        gamma: float = DEFAULT_GAMMA,
        batch_size: int = 256,
    ) -> tuple[LLMModel, "TrainingCostBreakdown"]:
        """Train a fresh model through the pipelined streaming trainer.

        Unlike :meth:`train_model` (which fits from the pre-labelled
        pairs), this re-executes the training queries against the exact
        engine through :meth:`~repro.core.training.StreamingTrainer.train`
        — chunked batched labelling plus the fused update kernel — and
        returns the model together with the engine/model cost breakdown
        the paper's Section VI-B reports.
        """
        from ..core.training import StreamingTrainer

        model = LLMModel(
            dimension=self.dimension,
            config=ModelConfig(quantization_coefficient=coefficient),
            training=TrainingConfig(convergence_threshold=gamma),
        )
        breakdown = StreamingTrainer(model, self.engine).train(
            self.training.queries, batch_size=batch_size
        )
        return model, breakdown

    def serving_service(
        self, model: LLMModel | None = None, *, table: str | None = None
    ) -> "AnalyticsService":
        """Build an :class:`~repro.dbms.serving.AnalyticsService` over this context.

        The context's exact engine is registered under ``table``
        (defaulting to the dataset name), together with an optional trained
        model — the standard setup of the serving benchmark and the hybrid
        serving experiments.
        """
        from ..dbms.serving import AnalyticsService

        name = table or self.dataset_name
        service = AnalyticsService()
        service.register_engine(name, self.engine)
        if model is not None:
            service.register_model(name, model)
        return service


#: Upper bound on the radius of analyst-scale Q2 evaluation subspaces (unit
#: cube coordinates); keeps high-dimensional analyst regions from covering
#: the entire dataset.
ANALYST_RADIUS_CAP = 0.5


def analyst_queries(queries, scale: float = ANALYST_RADIUS_SCALE) -> list[Query]:
    """Widen exploration queries into analyst-scale Q2 evaluation regions.

    Each radius is multiplied by ``scale`` and capped at
    :data:`ANALYST_RADIUS_CAP`.
    """
    return [
        Query(
            center=query.center,
            radius=min(query.radius * scale, ANALYST_RADIUS_CAP),
            norm_order=query.norm_order,
        )
        for query in queries
    ]


def _workload_spec(dataset: SyntheticDataset, radius: RadiusDistribution) -> WorkloadSpec:
    low, high = dataset.domain
    return WorkloadSpec(
        dimension=dataset.dimension,
        center_low=low,
        center_high=high,
        radius=radius,
    )


def build_context(
    dataset_name: str = "R1",
    *,
    dimension: int = 2,
    dataset_size: int = 20_000,
    training_queries: int = 1_500,
    testing_queries: int = 500,
    radius: RadiusDistribution | None = None,
    seed: int = 7,
) -> ExperimentContext:
    """Build the standard experiment context for a dataset/dimension pair.

    Parameters mirror Section VI-A at laptop scale: the dataset is generated,
    loaded into an exact engine, and a random query workload is labelled
    with exact Q1 answers and split into training (``T``) and testing
    (``V``) parts.
    """
    if dataset_name not in _DATASET_BUILDERS:
        raise ConfigurationError(
            f"unknown dataset {dataset_name!r}; known: {sorted(_DATASET_BUILDERS)}"
        )
    dataset = _DATASET_BUILDERS[dataset_name](dataset_size, dimension, seed)
    engine = ExactQueryEngine(dataset)
    radius_distribution = radius or default_radius_distribution(dimension)
    spec = _workload_spec(dataset, radius_distribution)
    generator = QueryWorkloadGenerator(spec, seed=seed)
    total = training_queries + testing_queries
    queries = generator.generate(total)
    labelled = LabelledWorkload.from_engine(queries, engine)
    fraction = training_queries / total
    training, testing = labelled.split(fraction, seed=seed)
    return ExperimentContext(
        dataset=dataset,
        engine=engine,
        dataset_name=dataset_name,
        dimension=dimension,
        radius=radius_distribution,
        training=training,
        testing=testing,
        seed=seed,
    )


# --------------------------------------------------------------------------- #
# Figure 3 — Example 1: query prototypes over a 2-D input space
# --------------------------------------------------------------------------- #
def run_prototype_example(
    query_count: int = 1_000,
    coefficient: float = 0.9,
    *,
    seed: int = 3,
) -> dict:
    """Quantize 1,000 random 2-D queries and report the resulting prototypes.

    With a coarse coefficient the quantizer settles on a handful of
    prototypes (the paper's Example 1 shows five).
    """
    spec = WorkloadSpec(
        dimension=2,
        center_low=-1.5,
        center_high=1.5,
        radius=RadiusDistribution(mean=0.3, std=0.1),
    )
    generator = QueryWorkloadGenerator(spec, seed=seed)
    queries = generator.generate(query_count)
    model = LLMModel(
        dimension=2,
        config=ModelConfig(quantization_coefficient=coefficient),
        training=TrainingConfig(max_steps=query_count, min_steps=query_count),
    )
    for query in queries:
        # Example 1 only exercises the quantization; the answer is irrelevant.
        model.partial_fit(query, answer=0.0)
    prototypes = model.prototype_matrix()
    return {
        "query_count": query_count,
        "coefficient": coefficient,
        "prototype_count": model.prototype_count,
        "prototype_centers": prototypes[:, :-1].tolist(),
        "prototype_radii": prototypes[:, -1].tolist(),
    }


# --------------------------------------------------------------------------- #
# Figure 5 — local linear approximations of a 1-D non-linear function
# --------------------------------------------------------------------------- #
def run_local_approximation_example(
    dataset_size: int = 4_000,
    training_queries: int = 1_200,
    coefficient: float = 0.08,
    *,
    seed: int = 11,
) -> dict:
    """Compare LLM vs REG vs PLR on the didactic 1-D non-linear function.

    Returns the FVU of each method over the central subspace ``D(0.5, 0.5)``
    along with the number of local models each piecewise method produced.
    """
    from ..metrics.evaluation import _llm_subspace_predictions
    from ..metrics.regression import fvu

    dataset = make_function_dataset(
        PiecewiseNonLinear1D(), dataset_size, noise_std=0.01, seed=seed
    )
    engine = ExactQueryEngine(dataset)
    radius = RadiusDistribution(mean=0.08, std=0.03)
    generator = QueryWorkloadGenerator(_workload_spec(dataset, radius), seed=seed)
    labelled = LabelledWorkload.from_engine(generator.generate(training_queries), engine)
    model = LLMModel(
        dimension=1,
        config=ModelConfig(quantization_coefficient=coefficient),
        training=TrainingConfig(max_steps=training_queries),
    )
    model.fit(labelled)

    target = Query(center=np.array([0.5]), radius=0.5)
    inputs, outputs = engine.select_subspace(target)

    planes = model.regression_models(target)
    llm_predictions = _llm_subspace_predictions(planes, inputs)

    reg = OLSRegressor().fit(inputs, outputs)
    plr = MARSRegressor(max_basis_functions=max(model.prototype_count, 6)).fit(
        inputs, outputs
    )

    return {
        "prototype_count": model.prototype_count,
        "llm_local_models": len(planes),
        "plr_knots": plr.knot_count,
        "llm_fvu": fvu(outputs, llm_predictions),
        "reg_fvu": fvu(outputs, reg.predict(inputs)),
        "plr_fvu": fvu(outputs, plr.predict(inputs)),
        "subspace_rows": int(outputs.size),
    }


# --------------------------------------------------------------------------- #
# Figure 6 — convergence of the termination criterion
# --------------------------------------------------------------------------- #
def run_convergence_experiment(
    dataset_name: str = "R1",
    dimensions: tuple[int, ...] = (2, 5),
    *,
    dataset_size: int = 15_000,
    training_queries: int = 2_000,
    coefficient: float = DEFAULT_COEFFICIENT,
    gamma: float = DEFAULT_GAMMA,
    seed: int = 7,
) -> dict:
    """Track ``Gamma = max(Gamma_J, Gamma_H)`` against the number of training pairs."""
    results: dict[int, dict] = {}
    for dimension in dimensions:
        context = build_context(
            dataset_name,
            dimension=dimension,
            dataset_size=dataset_size,
            training_queries=training_queries,
            testing_queries=max(training_queries // 4, 100),
            seed=seed,
        )
        model, report = context.train_model(coefficient=coefficient, gamma=gamma)
        trajectory = report.criterion_values()
        results[dimension] = {
            "criterion_trajectory": trajectory.tolist(),
            "pairs_to_convergence": report.pairs_processed,
            "converged": report.converged,
            "final_criterion": report.final_criterion,
            "prototype_count": report.prototype_count,
        }
    return {"dataset": dataset_name, "gamma": gamma, "by_dimension": results}


# --------------------------------------------------------------------------- #
# Figure 7 — Q1 RMSE vs quantization coefficient a
# --------------------------------------------------------------------------- #
def run_q1_accuracy_vs_coefficient(
    dataset_name: str = "R1",
    dimensions: tuple[int, ...] = (2, 3, 5),
    coefficients: tuple[float, ...] = (0.05, 0.1, 0.25, 0.5, 0.9),
    *,
    dataset_size: int = 15_000,
    training_queries: int = 1_500,
    testing_queries: int = 400,
    seed: int = 7,
) -> dict:
    """Sweep the coefficient ``a`` and report the Q1 RMSE per dimension."""
    series: dict[str, list[float]] = {}
    prototype_series: dict[str, list[int]] = {}
    for dimension in dimensions:
        context = build_context(
            dataset_name,
            dimension=dimension,
            dataset_size=dataset_size,
            training_queries=training_queries,
            testing_queries=testing_queries,
            seed=seed,
        )
        rmses: list[float] = []
        prototypes: list[int] = []
        for coefficient in coefficients:
            model, _ = context.train_model(coefficient=coefficient)
            report = evaluate_q1_accuracy(model, context.engine, context.testing.queries)
            rmses.append(report.rmse)
            prototypes.append(model.prototype_count)
        series[f"d={dimension}"] = rmses
        prototype_series[f"d={dimension}"] = prototypes
    return {
        "dataset": dataset_name,
        "coefficients": list(coefficients),
        "rmse": series,
        "prototypes": prototype_series,
    }


# --------------------------------------------------------------------------- #
# Figure 8 — Q1 RMSE vs number of testing pairs
# --------------------------------------------------------------------------- #
def run_q1_accuracy_vs_test_size(
    dataset_name: str = "R1",
    dimensions: tuple[int, ...] = (2, 3, 5),
    test_sizes: tuple[int, ...] = (100, 200, 400, 800),
    *,
    dataset_size: int = 15_000,
    training_queries: int = 1_500,
    coefficient: float = DEFAULT_COEFFICIENT,
    seed: int = 7,
) -> dict:
    """Report Q1 RMSE as the size of the unseen query set ``V`` grows."""
    max_test = max(test_sizes)
    series: dict[str, list[float]] = {}
    for dimension in dimensions:
        context = build_context(
            dataset_name,
            dimension=dimension,
            dataset_size=dataset_size,
            training_queries=training_queries,
            testing_queries=max_test,
            seed=seed,
        )
        model, _ = context.train_model(coefficient=coefficient)
        rmses: list[float] = []
        for size in test_sizes:
            subset = context.testing.queries[:size]
            report = evaluate_q1_accuracy(model, context.engine, subset)
            rmses.append(report.rmse)
        series[f"d={dimension}"] = rmses
    return {"dataset": dataset_name, "test_sizes": list(test_sizes), "rmse": series}


# --------------------------------------------------------------------------- #
# Figure 9 — Q2 FVU of LLM / REG / PLR vs coefficient a
# --------------------------------------------------------------------------- #
def run_q2_fvu_vs_coefficient(
    dataset_name: str = "R1",
    dimensions: tuple[int, ...] = (2, 5),
    coefficients: tuple[float, ...] = (0.05, 0.1, 0.25, 0.5, 0.9),
    *,
    dataset_size: int = 15_000,
    training_queries: int = 1_500,
    testing_queries: int = 60,
    seed: int = 7,
) -> dict:
    """Sweep ``a`` and compare the per-subspace FVU of LLM, REG and PLR."""
    results: dict[str, dict[str, list[float]]] = {}
    for dimension in dimensions:
        context = build_context(
            dataset_name,
            dimension=dimension,
            dataset_size=dataset_size,
            training_queries=training_queries,
            testing_queries=testing_queries,
            seed=seed,
        )
        analyst = analyst_queries(context.testing.queries)
        llm_series: list[float] = []
        reg_series: list[float] = []
        plr_series: list[float] = []
        mean_models: list[float] = []
        for coefficient in coefficients:
            model, _ = context.train_model(coefficient=coefficient)
            report = evaluate_q2_goodness_of_fit(
                model,
                context.engine,
                analyst,
                plr_max_basis_functions=min(max(model.prototype_count, 4), 12),
            )
            llm_series.append(report.llm_fvu)
            reg_series.append(report.reg_fvu)
            plr_series.append(report.plr_fvu)
            mean_models.append(report.mean_local_models)
        results[f"d={dimension}"] = {
            "llm_fvu": llm_series,
            "reg_fvu": reg_series,
            "plr_fvu": plr_series,
            "mean_local_models": mean_models,
        }
    return {
        "dataset": dataset_name,
        "coefficients": list(coefficients),
        "by_dimension": results,
    }


# --------------------------------------------------------------------------- #
# Figure 10 — CoD vs number of prototypes K, and K vs a
# --------------------------------------------------------------------------- #
def run_cod_vs_prototypes(
    dataset_name: str = "R1",
    dimensions: tuple[int, ...] = (2, 5),
    coefficients: tuple[float, ...] = (0.9, 0.5, 0.25, 0.1, 0.05),
    *,
    dataset_size: int = 15_000,
    training_queries: int = 1_500,
    testing_queries: int = 60,
    seed: int = 7,
) -> dict:
    """Sweep ``a``, recording both ``K`` and the CoD of LLM / REG / PLR."""
    results: dict[str, dict[str, list[float]]] = {}
    for dimension in dimensions:
        context = build_context(
            dataset_name,
            dimension=dimension,
            dataset_size=dataset_size,
            training_queries=training_queries,
            testing_queries=testing_queries,
            seed=seed,
        )
        analyst = analyst_queries(context.testing.queries)
        prototypes: list[int] = []
        llm_cods: list[float] = []
        reg_cods: list[float] = []
        plr_cods: list[float] = []
        for coefficient in coefficients:
            model, _ = context.train_model(coefficient=coefficient)
            report = evaluate_q2_goodness_of_fit(
                model,
                context.engine,
                analyst,
                plr_max_basis_functions=min(max(model.prototype_count, 4), 12),
            )
            prototypes.append(model.prototype_count)
            llm_cods.append(report.llm_cod)
            reg_cods.append(report.reg_cod)
            plr_cods.append(report.plr_cod)
        results[f"d={dimension}"] = {
            "coefficients": list(coefficients),
            "prototypes": prototypes,
            "llm_cod": llm_cods,
            "reg_cod": reg_cods,
            "plr_cod": plr_cods,
        }
    return {"dataset": dataset_name, "by_dimension": results}


# --------------------------------------------------------------------------- #
# Figure 11 — data-value prediction RMSE (A2) vs test size
# --------------------------------------------------------------------------- #
def run_value_prediction_vs_test_size(
    dataset_name: str = "R1",
    dimensions: tuple[int, ...] = (2, 5),
    test_sizes: tuple[int, ...] = (20, 40, 80),
    *,
    dataset_size: int = 15_000,
    training_queries: int = 1_500,
    coefficient: float = DEFAULT_COEFFICIENT,
    seed: int = 7,
) -> dict:
    """Report the data-value RMSE of LLM, REG and PLR over growing test sets."""
    max_test = max(test_sizes)
    results: dict[str, dict[str, list[float]]] = {}
    for dimension in dimensions:
        context = build_context(
            dataset_name,
            dimension=dimension,
            dataset_size=dataset_size,
            training_queries=training_queries,
            testing_queries=max_test,
            seed=seed,
        )
        model, _ = context.train_model(coefficient=coefficient)
        llm_series: list[float] = []
        reg_series: list[float] = []
        plr_series: list[float] = []
        for size in test_sizes:
            subset = context.testing.queries[:size]
            report = evaluate_value_prediction(
                model, context.engine, subset, seed=seed
            )
            llm_series.append(report["llm"])
            reg_series.append(report["reg"])
            plr_series.append(report["plr"])
        results[f"d={dimension}"] = {
            "llm_rmse": llm_series,
            "reg_rmse": reg_series,
            "plr_rmse": plr_series,
        }
    return {
        "dataset": dataset_name,
        "test_sizes": list(test_sizes),
        "by_dimension": results,
    }


# --------------------------------------------------------------------------- #
# Figure 12 — query execution time vs dataset size (scalability)
# --------------------------------------------------------------------------- #
def run_scalability_experiment(
    dataset_sizes: tuple[int, ...] = (10_000, 40_000, 160_000),
    dimension: int = 2,
    *,
    dataset_name: str = "R2",
    training_queries: int = 800,
    measured_queries: int = 30,
    coefficient: float = DEFAULT_COEFFICIENT,
    plr_max_basis_functions: int = 10,
    training_batch_size: int = 256,
    seed: int = 7,
) -> dict:
    """Measure per-query latency of LLM vs exact REG (and PLR for Q2) vs N.

    The LLM latency should be flat across dataset sizes (it never touches
    the data) while the exact engines' latencies grow with N — the shape of
    Figure 12.  Batched engines are measured alongside the per-query loops:
    ``llm_batch`` / ``llm_q2_batch`` / ``llm_value_batch`` for the model
    side and ``exact_batch`` (Q1 and Q2) for the segmented exact executor.

    The model at each dataset size is trained through the *pipelined*
    streaming trainer (chunked batched exact labelling plus the fused
    update kernel), and the run reports the training side of the story
    too: per-size training throughput (labelled pairs per second through
    the full engine-plus-update loop) and the fraction of training time
    spent executing queries — the paper's ~99.6% observation.
    """
    training_qps: list[float] = []
    training_engine_share: list[float] = []
    llm_q1: list[float] = []
    llm_q1_batch: list[float] = []
    exact_q1: list[float] = []
    exact_q1_batch: list[float] = []
    llm_q2: list[float] = []
    llm_q2_batch: list[float] = []
    llm_value_batch: list[float] = []
    exact_q2: list[float] = []
    exact_q2_batch: list[float] = []
    plr_q2: list[float] = []

    for size in dataset_sizes:
        context = build_context(
            dataset_name,
            dimension=dimension,
            dataset_size=size,
            training_queries=training_queries,
            testing_queries=measured_queries,
            seed=seed,
        )
        model, breakdown = context.train_model_streaming(
            coefficient=coefficient, batch_size=training_batch_size
        )
        consumed = breakdown.pairs_processed + breakdown.pairs_skipped
        training_qps.append(
            consumed / breakdown.total_seconds if breakdown.total_seconds else 0.0
        )
        training_engine_share.append(breakdown.query_execution_share)
        queries = list(context.testing.queries[:measured_queries])

        llm_q1.append(
            measure_mean_latency(model.predict_mean, queries)["mean_ms"]
        )
        # Same methodology as the per-query series: a mean over repeated
        # runs (not best-of-N), divided down to the amortised per-query
        # latency, so the batch and loop series are directly comparable.
        llm_q1_batch.append(
            measure_amortized_latency(
                lambda: model.predict_mean_batch(queries), len(queries)
            )["mean_ms"]
        )
        llm_q2_batch.append(
            measure_amortized_latency(
                lambda: model.predict_q2_batch(queries), len(queries)
            )["mean_ms"]
        )
        value_points = np.vstack([query.center for query in queries])
        llm_value_batch.append(
            measure_amortized_latency(
                lambda: model.predict_value_batch(value_points), len(queries)
            )["mean_ms"]
        )
        exact_q1.append(
            measure_mean_latency(context.engine.execute_q1, queries)["mean_ms"]
        )
        exact_q1_batch.append(
            measure_amortized_latency(
                lambda: context.engine.execute_q1_batch(queries, on_empty="null"),
                len(queries),
            )["mean_ms"]
        )
        llm_q2.append(
            measure_mean_latency(model.regression_models, queries)["mean_ms"]
        )
        exact_q2.append(
            measure_mean_latency(context.engine.execute_q2, queries)["mean_ms"]
        )
        exact_q2_batch.append(
            measure_amortized_latency(
                lambda: context.engine.execute_q2_batch(queries, on_empty="null"),
                len(queries),
            )["mean_ms"]
        )

        def _plr_over_subspace(query: Query, _engine=context.engine) -> None:
            inputs, outputs = _engine.select_subspace(query)
            if outputs.size >= 8:
                MARSRegressor(max_basis_functions=plr_max_basis_functions).fit(
                    inputs, outputs
                )

        plr_q2.append(
            measure_mean_latency(_plr_over_subspace, queries)["mean_ms"]
        )

    return {
        "dataset_sizes": list(dataset_sizes),
        "dimension": dimension,
        "training": {
            "batch_size": training_batch_size,
            "pipelined_qps": training_qps,
            "query_execution_share": training_engine_share,
        },
        "q1_latency_ms": {
            "llm": llm_q1,
            "llm_batch": llm_q1_batch,
            "exact_reg": exact_q1,
            "exact_batch": exact_q1_batch,
        },
        "q2_latency_ms": {
            "llm": llm_q2,
            "llm_batch": llm_q2_batch,
            "llm_value_batch": llm_value_batch,
            "exact_reg": exact_q2,
            "exact_batch": exact_q2_batch,
            "plr": plr_q2,
        },
    }


# --------------------------------------------------------------------------- #
# Figures 13 & 14 — impact of the query radius mean
# --------------------------------------------------------------------------- #
def run_radius_tradeoff_experiment(
    radius_means: tuple[float, ...] = (0.05, 0.1, 0.2, 0.4, 0.8),
    dimensions: tuple[int, ...] = (2, 5),
    *,
    dataset_name: str = "R1",
    dataset_size: int = 15_000,
    training_queries: int = 2_000,
    testing_queries: int = 60,
    coefficient: float = DEFAULT_COEFFICIENT,
    gamma: float = DEFAULT_GAMMA,
    seed: int = 7,
) -> dict:
    """Sweep the mean query radius and record |T| to convergence, RMSE and CoD.

    Reproduces the trade-off of Figures 13 and 14: large radii converge with
    few training pairs and very low RMSE but poor CoD (every LLM collapses
    towards the global mean); small radii need many pairs, give higher RMSE
    but much better goodness of fit.
    """
    results: dict[str, dict[str, list[float]]] = {}
    for dimension in dimensions:
        pairs_needed: list[int] = []
        rmses: list[float] = []
        cods: list[float] = []
        prototype_counts: list[int] = []
        for mean_radius in radius_means:
            std = max(mean_radius / 4.0, 0.01)
            context = build_context(
                dataset_name,
                dimension=dimension,
                dataset_size=dataset_size,
                training_queries=training_queries,
                testing_queries=testing_queries,
                radius=RadiusDistribution(mean=mean_radius, std=std),
                seed=seed,
            )
            model, report = context.train_model(coefficient=coefficient, gamma=gamma)
            accuracy = evaluate_q1_accuracy(
                model, context.engine, context.testing.queries
            )
            fit = evaluate_q2_goodness_of_fit(
                model,
                context.engine,
                analyst_queries(context.testing.queries),
                plr_max_basis_functions=8,
                include_baselines=False,
            )
            pairs_needed.append(report.pairs_processed)
            rmses.append(accuracy.rmse)
            cods.append(fit.llm_cod)
            prototype_counts.append(model.prototype_count)
        results[f"d={dimension}"] = {
            "radius_means": list(radius_means),
            "training_pairs": pairs_needed,
            "rmse": rmses,
            "cod": cods,
            "prototypes": prototype_counts,
        }
    return {"dataset": dataset_name, "by_dimension": results}
