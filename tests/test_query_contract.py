"""Contract of the single-query entry points: each is a batch of one.

Every single-query method of the model (``predict_mean``,
``predict_mean_with_diagnostics``, ``regression_models``, ``predict_value``)
and of the exact engine in every shard configuration (``execute_q1``,
``execute_q2``, ``mean_value``, ``cardinality``, ``select_subspace``) must

* equal its batch-of-one call bit for bit, and
* match the brute-force oracle of :mod:`repro.testing.oracle` within
  1e-12 (Q2 through fitted values on the selected rows, coefficients and
  R^2 to 1e-9 relative).

Cases cover d in {1, 2, 6} and p in {1, 2, 3, inf}, empty overlap sets
(extrapolation), empty subspaces, duplicate rows, a collinear subspace and
a pruned model with K >= 2048.  ``REPRO_DIFFERENTIAL_SOAK=<n>`` appends
``n`` randomly drawn model configurations to the model-side oracle test.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.model import LLMModel
from repro.core.persistence import model_from_dict
from repro.core.prototypes import LocalLinearMap
from repro.data.synthetic import SyntheticDataset
from repro.dbms.executor import ExactQueryEngine
from repro.exceptions import EmptySubspaceError
from repro.queries.query import Query
from repro.testing.oracle import ExactOracle, ModelOracle

DIMENSIONS = (1, 2, 6)
NORMS = (1.0, 2.0, 3.0, np.inf)
TOLERANCE = 1e-12


def _model_cases() -> list[tuple[int, float, int]]:
    cases = [(d, p, 0) for d in DIMENSIONS for p in NORMS]
    soak = int(os.environ.get("REPRO_DIFFERENTIAL_SOAK", "0"))
    rng = np.random.default_rng(0xC0DE)
    for _ in range(max(soak, 0)):
        dimension, norm_order = int(rng.choice(DIMENSIONS)), float(rng.choice(NORMS))
        cases.append((dimension, norm_order, int(rng.integers(1, 10**6))))
    return cases


def _maps(dimension: int, count: int, seed: int, radii=(0.05, 0.3)) -> list:
    rng = np.random.default_rng(seed)
    return [
        LocalLinearMap(
            prototype=np.append(rng.uniform(0, 1, dimension), rng.uniform(*radii)),
            mean_output=float(rng.normal(0.0, 2.0)),
            slope=rng.normal(0.0, 1.0, dimension + 1),
        )
        for _ in range(count)
    ]


def _model(maps: list[LocalLinearMap], norm_order: float) -> LLMModel:
    """A fitted model holding exactly ``maps`` (built through persistence)."""
    payload = {
        "format_version": 2,
        "dimension": maps[0].dimension,
        "config": {
            "quantization_coefficient": 0.25,
            "norm_order": norm_order,
            "vigilance_override": None,
        },
        "training": {
            "convergence_threshold": 0.01,
            "min_steps": 10,
            "learning_rate_schedule": "hyperbolic",
            "learning_rate_scale": 1.0,
        },
        "state": {"steps": len(maps), "frozen": True},
        "use_pruning_index": None,
        "maps": [llm.to_dict() for llm in maps],
    }
    return model_from_dict(payload)


def _model_queries(dimension, norm_order, seed, count=12) -> list[Query]:
    rng = np.random.default_rng(seed + 17)
    queries = []
    for index in range(count):
        if index % 6 == 0:
            # Far from every prototype: empty W(q), answered by extrapolation.
            center, radius = rng.uniform(8.0, 9.0, dimension), 0.01
        else:
            center = rng.uniform(0.0, 1.0, dimension)
            radius = float(rng.uniform(0.02, 0.4))
        queries.append(Query(center=center, radius=radius, norm_order=norm_order))
    return queries


def _assert_planes_equal(planes, expected, *, atol: float) -> None:
    assert len(planes) == len(expected)
    for plane, reference in zip(planes, expected):
        for field in ("weight", "intercept", "slope"):
            np.testing.assert_allclose(
                getattr(plane, field), getattr(reference, field), rtol=0.0, atol=atol
            )
        np.testing.assert_array_equal(
            plane.prototype_center, reference.prototype_center
        )


def _assert_model_contract(model: LLMModel, queries: list[Query]) -> None:
    oracle = ModelOracle(model.local_maps)
    for query in queries:
        value = model.predict_mean(query)
        assert value == model.predict_mean_batch([query])[0]
        expected = oracle.predict_mean(query)
        assert value == pytest.approx(expected, rel=0.0, abs=TOLERANCE)

        diagnosed, diagnostics = model.predict_mean_with_diagnostics(query)
        assert diagnosed == value
        indices, weights, extrapolated = oracle.neighborhood(query)
        assert diagnostics.used_indices == tuple(indices)
        assert diagnostics.extrapolated == extrapolated
        np.testing.assert_allclose(
            diagnostics.weights, weights, rtol=0.0, atol=TOLERANCE
        )

        planes = model.regression_models(query)
        _assert_planes_equal(planes, model.predict_q2_batch([query])[0], atol=0.0)
        _assert_planes_equal(planes, oracle.regression_models(query), atol=TOLERANCE)

        point, radius = query.center, query.radius
        value = model.predict_value(point, radius)
        assert value == model.predict_value_batch(point[np.newaxis, :], radius)[0]
        expected = oracle.predict_value(point, radius, model.config.norm_order)
        assert value == pytest.approx(expected, rel=0.0, abs=TOLERANCE)


@pytest.mark.parametrize("dimension,norm_order,seed", _model_cases())
def test_model_single_queries_are_batches_of_one(dimension, norm_order, seed):
    model = _model(_maps(dimension, 40, seed), norm_order)
    queries = _model_queries(dimension, norm_order, seed)
    assert any(ModelOracle(model.local_maps).neighborhood(q)[2] for q in queries)
    _assert_model_contract(model, queries)


@pytest.mark.parametrize("norm_order", (2.0, np.inf))
def test_pruned_model_single_queries_are_batches_of_one(norm_order):
    # Tight radii keep each query's candidate union small, so the
    # block-sparse pruned path answers.
    model = _model(_maps(2, 2_100, 3, radii=(0.005, 0.02)), norm_order)
    assert model.describe()["uses_pruning_index"]
    queries = _model_queries(2, norm_order, 5, count=7)
    row = queries[1].to_vector()[np.newaxis, :]
    _, _, columns = model._predictor()._batch_weight_matrix(row, norm_order)
    assert columns is not None and columns.size < model.prototype_count
    _assert_model_contract(model, queries)


# --------------------------------------------------------------------------- #
# exact engines
# --------------------------------------------------------------------------- #
def _dataset(dimension: int, layout: str) -> SyntheticDataset:
    rng = np.random.default_rng(dimension * 13 + len(layout))
    if layout == "duplicate":
        inputs = np.repeat(rng.uniform(0.0, 1.0, (150, dimension)), 4, axis=0)
    elif layout == "collinear":
        # Rows on a line: every subspace's Gram system is rank deficient.
        t = rng.uniform(0.0, 1.0, 600)
        inputs = 0.5 + np.outer(t - 0.5, rng.normal(size=dimension)) * 0.4
    else:
        inputs = rng.uniform(0.0, 1.0, (600, dimension))
    noise = 0.05 * rng.normal(size=len(inputs))
    outputs = 1.0 + inputs @ rng.normal(size=dimension) + noise
    return SyntheticDataset(
        inputs=inputs, outputs=outputs, name=layout, domain=(0.0, 1.0)
    )


def _exact_queries(dataset: SyntheticDataset, norm_order: float) -> list[Query]:
    rng = np.random.default_rng(29)
    d = dataset.dimension
    anchor = dataset.inputs[int(rng.integers(dataset.size))]
    queries = [
        Query(center=rng.uniform(40.0, 50.0, d), radius=0.05, norm_order=norm_order),
        Query(center=anchor.copy(), radius=1e-9, norm_order=norm_order),
        Query(center=np.full(d, 0.5), radius=4.0, norm_order=norm_order),
    ]
    for _ in range(5):
        queries.append(
            Query(
                center=rng.uniform(0.0, 1.0, d),
                radius=float(rng.uniform(0.05, 0.45)),
                norm_order=norm_order,
            )
        )
    return queries


def _assert_same_answer(answer, batch_answer) -> None:
    assert answer.mean == batch_answer.mean
    assert answer.cardinality == batch_answer.cardinality
    if batch_answer.coefficients is not None:
        np.testing.assert_array_equal(answer.coefficients, batch_answer.coefficients)
        assert answer.r_squared == batch_answer.r_squared


def _assert_exact_contract(engine, dataset, queries: list[Query]) -> None:
    oracle = ExactOracle(dataset.inputs, dataset.outputs)
    for query in queries:
        rows = oracle.select(query)
        before = engine.statistics.queries_executed
        inputs, outputs = engine.select_subspace(query)
        np.testing.assert_array_equal(inputs, dataset.inputs[rows])
        np.testing.assert_array_equal(outputs, dataset.outputs[rows])
        assert engine.cardinality(query) == rows.size
        assert engine.statistics.queries_executed == before + 2
        if not rows.size:
            for execute in (engine.execute_q1, engine.execute_q2, engine.mean_value):
                with pytest.raises(EmptySubspaceError):
                    execute(query)
            continue
        before = engine.statistics.queries_executed
        q1 = engine.execute_q1(query)
        q2 = engine.execute_q2(query)
        assert engine.statistics.queries_executed == before + 2
        _assert_same_answer(q1, engine.execute_q1_batch([query])[0])
        _assert_same_answer(q2, engine.execute_q2_batch([query])[0])
        assert engine.mean_value(query) == q1.mean

        assert q1.cardinality == q2.cardinality == rows.size
        np.testing.assert_allclose(
            q1.mean, oracle.mean(query), rtol=TOLERANCE, atol=TOLERANCE
        )
        expected = oracle.q2(query)
        np.testing.assert_allclose(
            oracle.fitted(query, q2.coefficients),
            oracle.fitted(query, expected),
            rtol=TOLERANCE,
            atol=TOLERANCE,
        )
        np.testing.assert_allclose(q2.coefficients, expected, rtol=1e-9, atol=TOLERANCE)
        np.testing.assert_allclose(
            q2.r_squared, oracle.r_squared(query), rtol=1e-9, atol=1e-9
        )


@pytest.mark.parametrize("layout", ("uniform", "duplicate", "collinear"))
@pytest.mark.parametrize("norm_order", NORMS)
@pytest.mark.parametrize("dimension", DIMENSIONS)
def test_exact_single_queries_are_batches_of_one(dimension, norm_order, layout):
    dataset = _dataset(dimension, layout)
    queries = _exact_queries(dataset, norm_order)
    for engine in (
        ExactQueryEngine(dataset),
        ExactQueryEngine(dataset, route="scan"),
        ExactQueryEngine(dataset, num_shards=3, route="indexed"),
        ExactQueryEngine(dataset, num_shards=3, route="auto"),
    ):
        _assert_exact_contract(engine, dataset, queries)


@pytest.mark.parametrize("norm_order", NORMS)
def test_default_engine_is_one_inline_indexed_shard(norm_order):
    dataset = _dataset(2, "uniform")
    queries = _exact_queries(dataset, norm_order)
    default = ExactQueryEngine(dataset)
    explicit = ExactQueryEngine(
        dataset, num_shards=1, backend="serial", route="indexed"
    )
    assert (default.num_shards, default.backend, default.route) == (
        1,
        "serial",
        "indexed",
    )
    for query in queries:
        for got, want in zip(
            default.select_subspace(query), explicit.select_subspace(query)
        ):
            np.testing.assert_array_equal(got, want)
        assert default.cardinality(query) == explicit.cardinality(query)
    for execute in ("execute_q1_batch", "execute_q2_batch"):
        answers = getattr(default, execute)(queries, on_empty="null")
        expected = getattr(explicit, execute)(queries, on_empty="null")
        for answer, reference in zip(answers, expected):
            assert (answer is None) == (reference is None)
            if reference is not None:
                _assert_same_answer(answer, reference)
    assert vars(default.statistics) == vars(explicit.statistics)
