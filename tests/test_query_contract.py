"""Contract of the single-query entry points: each is a batch of one.

Every single-query method of the model (``predict_mean``,
``predict_mean_with_diagnostics``, ``regression_models``, ``predict_value``)
and of the exact engine (``execute_q1``, ``execute_q2``, ``cardinality``,
``select_subspace``) must

* equal its batch-of-one call bit for bit, and
* match the brute-force oracle of :mod:`repro.testing.oracle` within
  1e-12 (Q2 through fitted values on the selected rows, coefficients and
  R^2 to 1e-9 relative).

Cases cover d in {1, 2, 6} and p in {1, 2, 3, inf}, d = 8 as well on the
exact engine (from d = 8 its Lp norms sum their terms pairwise), empty
overlap sets (extrapolation), empty subspaces, duplicate rows, a collinear
subspace and a model with K = 2,100 prototypes.  ``REPRO_DIFFERENTIAL_SOAK=<n>`` appends
``n`` randomly drawn model configurations to the model-side oracle test.

An answer also depends on its query alone, not on its batch: seeded
workloads split into random batch partitions must give bit-identical
answers.  On the exact engine that is Q1 and Q2 (d in {1, 2, 3, 6, 8}, p in
{1, 2, 3, inf}) and the engine's own query chunks; on the model it is Q1
values, Q2 planes and value predictions (d in {1, 2, 6}, p in {1, 2, inf}).
``REPRO_DIFFERENTIAL_SOAK=<n>`` draws ``n // 10`` more partitions per case.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.model import LLMModel
from repro.core.persistence import model_from_dict
from repro.core.prototypes import LocalLinearMap
from repro.data.synthetic import SyntheticDataset
from repro.dbms import executor
from repro.dbms.executor import ExactQueryEngine
from repro.exceptions import EmptySubspaceError
from repro.queries.query import Query
from repro.testing.oracle import ExactOracle, ModelOracle

DIMENSIONS = (1, 2, 6)
EXACT_DIMENSIONS = (*DIMENSIONS, 8)
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
def test_large_model_single_queries_are_batches_of_one(norm_order):
    # More prototypes than any served model grows, with tight radii so most
    # queries overlap only a few of them.
    model = _model(_maps(2, 2_100, 3, radii=(0.005, 0.02)), norm_order)
    queries = _model_queries(2, norm_order, 5, count=7)
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
    # Radii grow as d ** (1 / p), so the balls select rows at every d.
    for _ in range(5):
        queries.append(
            Query(
                center=rng.uniform(0.0, 1.0, d),
                radius=float(rng.uniform(0.05, 0.45)) * d ** (1.0 / norm_order),
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
            for execute in (engine.execute_q1, engine.execute_q2):
                with pytest.raises(EmptySubspaceError):
                    execute(query)
            continue
        before = engine.statistics.queries_executed
        q1 = engine.execute_q1(query)
        q2 = engine.execute_q2(query)
        assert engine.statistics.queries_executed == before + 2
        _assert_same_answer(q1, engine.execute_q1_batch([query])[0])
        _assert_same_answer(q2, engine.execute_q2_batch([query])[0])

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
@pytest.mark.parametrize("dimension", EXACT_DIMENSIONS)
def test_exact_single_queries_are_batches_of_one(dimension, norm_order, layout):
    dataset = _dataset(dimension, layout)
    queries = _exact_queries(dataset, norm_order)
    _assert_exact_contract(ExactQueryEngine(dataset), dataset, queries)


# --------------------------------------------------------------------------- #
# answers do not depend on their batch
# --------------------------------------------------------------------------- #
PARTITION_DIMENSIONS = (1, 2, 3, 6, 8)
PARTITION_NORMS = NORMS
MODEL_PARTITION_NORMS = (1.0, 2.0, np.inf)


def _random_partitions(count: int, seed: int) -> list[list[np.ndarray]]:
    """Batches of one, then random splits of a shuffled ``range(count)``."""
    rng = np.random.default_rng(seed)
    soak = int(os.environ.get("REPRO_DIFFERENTIAL_SOAK", "0"))
    partitions = [[np.array([position]) for position in range(count)]]
    for _ in range(2 + max(soak, 0) // 10):
        order = rng.permutation(count)
        cuts = rng.choice(np.arange(1, count), size=rng.integers(1, 12), replace=False)
        partitions.append(np.split(order, np.sort(cuts)))
    return partitions


def _answer_key(answer) -> tuple:
    if answer is None:
        return (None,)
    coefficients = () if answer.coefficients is None else tuple(answer.coefficients)
    return answer.cardinality, answer.mean, coefficients, answer.r_squared


def _assert_partitions_agree(answer_keys, queries, partitions) -> None:
    """``answer_keys`` keys every batch partition as it keys the whole batch.

    ``answer_keys`` maps a list of queries to one key per query.
    """
    expected = answer_keys(queries)
    for partition in partitions:
        got: list = [None] * len(queries)
        for batch in partition:
            keys = answer_keys([queries[i] for i in batch])
            for position, key in zip(batch, keys):
                got[position] = key
        differing = [i for i, key in enumerate(got) if key != expected[i]]
        assert differing == [], (len(partition), differing)


def _exact_answer_keys(execute):
    return lambda batch: [_answer_key(a) for a in execute(batch, on_empty="null")]


def _partition_case(dimension: int, norm_order: float):
    """A seeded 5,000-row table and 120 queries of radius 0.05-0.4 times
    ``d ** (1 / p)``, so the balls select rows at every d."""
    rng = np.random.default_rng(dimension * 101 + int(min(norm_order, 9)))
    inputs = rng.uniform(0.0, 1.0, (5_000, dimension))
    noise = 0.05 * rng.normal(size=5_000)
    outputs = 1.0 + inputs @ rng.normal(size=dimension) + noise
    dataset = SyntheticDataset(
        inputs=inputs, outputs=outputs, name="partitions", domain=(0.0, 1.0)
    )
    queries = [
        Query(
            center=rng.uniform(0.0, 1.0, dimension),
            radius=float(rng.uniform(0.05, 0.4)) * dimension ** (1.0 / norm_order),
            norm_order=norm_order,
        )
        for _ in range(120)
    ]
    return dataset, queries


@pytest.mark.parametrize("norm_order", PARTITION_NORMS)
@pytest.mark.parametrize("dimension", PARTITION_DIMENSIONS)
def test_exact_answers_do_not_depend_on_the_batch(dimension, norm_order):
    dataset, queries = _partition_case(dimension, norm_order)
    partitions = _random_partitions(len(queries), seed=dimension)
    engine = ExactQueryEngine(dataset)
    for execute in (engine.execute_q1_batch, engine.execute_q2_batch):
        _assert_partitions_agree(_exact_answer_keys(execute), queries, partitions)


def _model_answer_keys(model: LLMModel):
    """The bits of each query's Q1 value, coverage, Q2 planes and value."""

    def keys(batch: list[Query]) -> list[tuple]:
        values, covered = model.predict_mean_batch_with_coverage(batch)
        plane_lists = model.predict_q2_batch(batch)
        centers = np.array([query.center for query in batch])
        data_values = model.predict_value_batch(centers, 0.15)
        return [
            (
                np.array([value, data_value]).tobytes(),
                bool(is_covered),
                tuple(
                    np.append([plane.intercept, plane.weight], plane.slope).tobytes()
                    for plane in planes
                ),
            )
            for value, data_value, is_covered, planes in zip(
                values, data_values, covered, plane_lists
            )
        ]

    return keys


@pytest.mark.parametrize("norm_order", MODEL_PARTITION_NORMS)
@pytest.mark.parametrize("dimension", DIMENSIONS)
def test_model_answers_do_not_depend_on_the_batch(dimension, norm_order):
    """50 prototypes and 400 queries, every sixth far enough to extrapolate."""
    seed = dimension * 31 + int(min(norm_order, 9))
    model = _model(_maps(dimension, 50, seed), norm_order)
    queries = _model_queries(dimension, norm_order, seed, count=400)
    partitions = _random_partitions(len(queries), seed=seed)
    _assert_partitions_agree(_model_answer_keys(model), queries, partitions)


@pytest.mark.parametrize("norm_order", PARTITION_NORMS)
@pytest.mark.parametrize("dimension", PARTITION_DIMENSIONS)
def test_chunked_batch_is_a_partition(dimension, norm_order, monkeypatch):
    """The engine's query chunks change no answer and no counter.

    With the chunk budget at one estimated row every query runs in its own
    chunk (each estimate is at least two cells' mean rows); with an
    unbounded one every batch runs whole.  Answers and
    ``ExecutionStatistics`` must be bit-identical.
    """
    dataset, queries = _partition_case(dimension, norm_order)
    pipeline = executor.SegmentedBatchPipeline
    chunk_bounds = pipeline._chunk_bounds
    chunks: list[tuple[int, int]] = []

    def recorded(self, centers, radii):
        bounds = chunk_bounds(self, centers, radii)
        chunks.append((centers.shape[0], len(bounds) - 1))
        return bounds

    monkeypatch.setattr(pipeline, "_chunk_bounds", recorded)
    results = {}
    for budget, whole in ((2**62, True), (1, False)):
        monkeypatch.setattr(executor, "_CHUNK_BOUNDARY_ROWS", budget)
        chunks.clear()
        runs = []
        engine = ExactQueryEngine(dataset)
        for kind in ("execute_q1_batch", "execute_q2_batch"):
            answers = getattr(engine, kind)(queries, on_empty="null")
            runs.append(
                (
                    [_answer_key(answer) for answer in answers],
                    vars(engine.statistics).copy(),
                )
            )
        assert chunks and all(
            count == (1 if whole else batch) for batch, count in chunks
        ), (budget, chunks)
        results[budget] = runs
    assert results[1] == results[2**62]
