"""Randomized differential harness pinning the exact engine to the oracle.

The exact engine, built over a dataset or through a SQLite store's
``from_store``, is checked against the brute-force oracle of
:mod:`repro.testing.oracle` (full Lp scan, ``lstsq`` on ``[1, x]``):
counts equal, means and Q2 fitted values on the selected rows to 1e-12,
coefficients to the documented 1e-9 relative contract (the oracle solves
by SVD rather than the blocked normal equations).  This harness generates
seeded stores and workloads across dimensions, data layouts (uniform,
clustered, duplicate rows, degenerate manifolds, tiny tables,
near-collinear slabs), all norm-order families, empty and rank-deficient
subspaces, and asserts the full equality chain case by case — the growing
layouts x norms x grids matrix is exactly where silent drift creeps in,
and this is the tripwire.  The near-collinear slabs put
the centred Gram condition numbers of their selections on both sides of
1e3 (``1 / _GRAM_CONDITION_RTOL``) and send selections down both sides of
the blocked solve's fallback test, so both are held to the oracle.  The
long-line layout puts inner-cell runs behind long prefixes of the
pipeline's run tables.  On the far-origin layout the oracle's ``lstsq``
fit is itself off (its design ``[1, x]`` is ill-conditioned at
``|x| ~ 1000``), so Q2 is held there to brute-force sums of the
center-referenced moments instead.  Balls whose radius is one row's Lp
distance, rounded the other way by the other summation order, hold the
engine to the oracle's selection at d = 6, 8 and 9 (the ulp-tie cases).

Case matrix: 4 dimensions x 8 layouts x 5 seeds x {q1, q2} = 320 seeded
cases in CI.  Set ``REPRO_DIFFERENTIAL_SOAK=<n>`` to append ``n`` extra
randomly drawn configurations, and ``n`` extra tie centers (soak mode)::

    REPRO_DIFFERENTIAL_SOAK=500 PYTHONPATH=src python -m pytest -q \
        tests/test_engine_differential.py
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.data.synthetic import SyntheticDataset
from repro.dbms.executor import (
    _GRAM_CONDITION_RTOL,
    ExactQueryEngine,
    SegmentedBatchPipeline,
    moment_products,
)
from repro.dbms.storage import SQLiteDataStore
from repro.queries.query import Query
from repro.testing.oracle import ExactOracle

DIMENSIONS = (1, 2, 3, 6)
LAYOUTS = (
    "uniform",
    "clustered",
    "duplicate",
    "degenerate",
    "tiny",
    "near_collinear",
    "long_line",
    "far_origin",
)
SEEDS = (0, 1, 2, 3, 4)

#: The engine and the oracle add the same selected rows in different
#: orders, so counts, means and fitted values agree to summation-order
#: rounding.
FAMILY_ATOL = 1e-12
FAMILY_RTOL = 1e-12
#: The oracle solves by SVD instead of the blocked normal equations; the
#: engine documents 1e-12 absolute / 1e-9 relative there.
REFERENCE_RTOL = 1e-9


def _configurations() -> list[tuple[int, str, int]]:
    cases = [
        (dimension, layout, seed)
        for dimension in DIMENSIONS
        for layout in LAYOUTS
        for seed in SEEDS
    ]
    soak = int(os.environ.get("REPRO_DIFFERENTIAL_SOAK", "0"))
    if soak > 0:
        rng = np.random.default_rng(0xD1FF)
        for _ in range(soak):
            cases.append(
                (
                    int(rng.choice(DIMENSIONS)),
                    str(rng.choice(LAYOUTS)),
                    int(rng.integers(100, 1_000_000)),
                )
            )
    return cases


CONFIGURATIONS = _configurations()

#: Lower corner of the ``far_origin`` layout's domain.
FAR_ORIGIN = 1000.0


def near_collinear_ratio(seed: int) -> float:
    """Minor-to-major spread ratio of a near-collinear slab: 0.01 to 0.1."""
    return 0.01 * 10.0 ** ((seed % 5) / 4)


def _make_dataset(dimension: int, layout: str, seed: int) -> SyntheticDataset:
    rng = np.random.default_rng((seed * 7919 + dimension * 31) % (2**32))
    base_size = 400 if dimension <= 3 else 220
    if layout == "uniform":
        inputs = rng.uniform(0.0, 1.0, size=(base_size, dimension))
    elif layout == "clustered":
        anchors = rng.uniform(0.2, 0.8, size=(3, dimension))
        assignments = rng.integers(0, 3, size=base_size)
        inputs = anchors[assignments] + 0.04 * rng.normal(
            size=(base_size, dimension)
        )
        # A sprinkle of outliers keeps some cells sparse.
        inputs[: base_size // 20] = rng.uniform(
            0.0, 1.0, size=(base_size // 20, dimension)
        )
    elif layout == "duplicate":
        unique = rng.uniform(0.0, 1.0, size=(base_size // 4, dimension))
        inputs = np.repeat(unique, 4, axis=0)
    elif layout == "degenerate":
        # All rows on a 1-D affine manifold: collinear input columns force
        # rank-deficient Gram systems; one coordinate is held constant so a
        # data extent is exactly zero.
        t = rng.uniform(0.0, 1.0, size=base_size)
        directions = rng.normal(size=dimension)
        inputs = 0.5 + np.outer(t - 0.5, directions) * 0.4
        inputs[:, -1] = 0.25
    elif layout == "tiny":
        # Fewer rows than d + 2: every non-empty selection is under- or
        # exactly-determined, exercising the dense minimum-norm fallback.
        inputs = rng.uniform(0.0, 1.0, size=(dimension + 2, dimension))
    elif layout == "near_collinear":
        # A thin slab in a random orientation: unit spread along d - 1
        # major axes, and a minor-to-major spread ratio of 0.01-0.1 (set
        # by the seed) along the last.  Selections' centred Gram condition
        # numbers then run from ~1e1 to ~1e4, across 1e3.
        basis, _ = np.linalg.qr(rng.normal(size=(dimension, dimension)))
        offsets = rng.uniform(-0.5, 0.5, size=(base_size, dimension))
        offsets[:, -1] *= near_collinear_ratio(seed)
        inputs = 0.5 + offsets @ basis.T
    elif layout == "long_line":
        # Five times the rows: at d = 1 one grid line of 250 cells, at
        # d >= 2 a longer occupied-cell directory, so inner-cell runs sit
        # behind long prefixes of the run tables.
        inputs = rng.uniform(0.0, 1.0, size=(5 * base_size, dimension))
    elif layout == "far_origin":
        # Uniform rows in [1000, 1001]^d: far from the origin against
        # their spread, so an ulp of a coordinate is ~1e-13.
        inputs = FAR_ORIGIN + rng.uniform(0.0, 1.0, size=(base_size, dimension))
    else:  # pragma: no cover - guarded by the parametrisation
        raise AssertionError(layout)
    low = FAR_ORIGIN if layout == "far_origin" else 0.0
    slope = rng.normal(0.0, 1.0, size=dimension)
    noise = 0.05 * rng.normal(size=inputs.shape[0])
    outputs = 1.0 + (inputs - low) @ slope + noise
    return SyntheticDataset(
        inputs=inputs,
        outputs=outputs,
        name=f"diff_{dimension}_{layout}_{seed}",
        domain=(low, low + 1.0),
    )


def _make_workload(
    dataset: SyntheticDataset, seed: int, count: int = 18
) -> list[Query]:
    rng = np.random.default_rng((seed * 104729 + dataset.dimension) % (2**32))
    dimension = dataset.dimension
    low = dataset.domain[0]
    orders = (1.0, 2.0, 3.0, np.inf)
    queries: list[Query] = []
    for index in range(count):
        order = orders[index % len(orders)]
        if index % 6 == 0:
            # Certifiably empty: far outside the data domain.
            queries.append(
                Query(
                    center=low + rng.uniform(40.0, 50.0, size=dimension),
                    radius=0.05,
                    norm_order=order,
                )
            )
        elif index % 6 == 1:
            # A single stored row (or a duplicate cluster): tiny radius on
            # an exact data point — rank-deficient, dense-fallback path.
            anchor = dataset.inputs[int(rng.integers(dataset.size))]
            queries.append(
                Query(center=anchor.copy(), radius=1e-9, norm_order=order)
            )
        elif index % 6 == 2:
            # Covers every row: the inner-cell runs dominate.
            queries.append(
                Query(
                    center=np.full(dimension, low + 0.5),
                    radius=4.0,
                    norm_order=order,
                )
            )
        else:
            queries.append(
                Query(
                    center=low + rng.uniform(0.0, 1.0, size=dimension),
                    radius=float(rng.uniform(0.02, 0.45)),
                    norm_order=order,
                )
            )
    return queries


def _assert_moments_match_brute_force(
    dataset: SyntheticDataset, queries, *, rtol: float
) -> None:
    """The pipeline's Q2 moment sums vs brute-force ``moment_products`` sums.

    Counts must be equal; each moment column within ``rtol`` of the sum of
    its brute-force products' magnitudes.
    """
    inputs, outputs = dataset.inputs, dataset.outputs
    oracle = ExactOracle(inputs, outputs)
    pipeline = SegmentedBatchPipeline(inputs, outputs)
    for position, query in enumerate(queries):
        context = f"moments[{position}]"
        rows = oracle.select(query)
        products = moment_products((inputs[rows] - query.center).T, outputs[rows])
        expected = products.sum(axis=1)
        bound = rtol * np.abs(products).sum(axis=1)
        center, radius = query.center[np.newaxis, :], np.array([query.radius])
        counts, sums, _, _ = pipeline.segment_statistics(
            center, radius, query.norm_order, kind="q2"
        )
        assert counts[0] == rows.size, context
        assert (np.abs(sums[0] - expected) <= bound).all(), context


def _batch_answers(engine, queries, kind: str):
    if kind == "q1":
        return engine.execute_q1_batch(queries, on_empty="null")
    return engine.execute_q2_batch(queries, on_empty="null")


def _assert_oracle_equal(
    label: str, kind: str, answers, queries, oracle: ExactOracle
) -> None:
    """Engine answers vs the brute-force oracle (Q2 checks on ``kind="q2"``)."""
    for position, (answer, query) in enumerate(zip(answers, queries)):
        context = f"{label}[{position}]"
        expected_mean = oracle.mean(query)
        if expected_mean is None:
            assert answer is None, context
            continue
        assert answer is not None, context
        assert answer.cardinality == oracle.count(query), context
        np.testing.assert_allclose(
            answer.mean,
            expected_mean,
            rtol=FAMILY_RTOL,
            atol=FAMILY_ATOL,
            err_msg=context,
        )
        if kind == "q2":
            assert answer.coefficients is not None, context
            expected = oracle.q2(query)
            np.testing.assert_allclose(
                oracle.fitted(query, answer.coefficients),
                oracle.fitted(query, expected),
                rtol=FAMILY_RTOL,
                atol=FAMILY_ATOL,
                err_msg=context,
            )
            np.testing.assert_allclose(
                answer.coefficients,
                expected,
                rtol=REFERENCE_RTOL,
                atol=FAMILY_ATOL,
                err_msg=context,
            )
            np.testing.assert_allclose(
                answer.r_squared,
                oracle.r_squared(query),
                rtol=1e-9,
                atol=1e-9,
                err_msg=context,
            )


@pytest.mark.parametrize("kind", ("q1", "q2"))
@pytest.mark.parametrize("dimension,layout,seed", CONFIGURATIONS)
def test_engine_paths_agree(dimension: int, layout: str, seed: int, kind: str):
    dataset = _make_dataset(dimension, layout, seed)
    queries = _make_workload(dataset, seed)

    # Odd seeds build the engine through the SQLite store, so the chain also
    # covers the rowid-ordered table load behind ``from_store``.
    if seed % 2 == 1:
        with SQLiteDataStore(":memory:") as store:
            store.load_dataset(dataset)
            dataset = store.load_as_dataset(dataset.name)
            engine = ExactQueryEngine.from_store(store, dataset.name)
    else:
        engine = ExactQueryEngine(dataset)

    oracle = ExactOracle(dataset.inputs, dataset.outputs)
    # Far from the origin the oracle's own Q2 fit is off, so its counts and
    # means are checked, and the Q2 moments against brute-force sums.
    oracle_kind = "q1" if layout == "far_origin" else kind
    if layout == "far_origin" and kind == "q2":
        _assert_moments_match_brute_force(dataset, queries, rtol=FAMILY_RTOL)

    answers = _batch_answers(engine, queries, kind)
    _assert_oracle_equal("engine", oracle_kind, answers, queries, oracle)


def _gram_spectra(dataset: SyntheticDataset, queries) -> list[tuple[float, float]]:
    """``(condition number, scale / smallest)`` of each over-determined selection.

    Both come from the oracle's selected rows: the centred Gram's
    ``largest / smallest`` eigenvalue, and the trace of the query-centred
    second moments over the smallest eigenvalue — the ratio the blocked
    solve caps before falling back to the dense SVD path.
    """
    oracle = ExactOracle(dataset.inputs, dataset.outputs)
    spectra = []
    for query in queries:
        rows = oracle.select(query)
        if rows.size <= dataset.dimension + 1:
            continue
        inputs = dataset.inputs[rows]
        centred = inputs - inputs.mean(axis=0)
        eigenvalues = np.linalg.eigvalsh(centred.T @ centred)
        scale = float(np.sum((inputs - query.center) ** 2))
        spectra.append(
            (
                float(eigenvalues[-1] / eigenvalues[0]),
                scale / float(eigenvalues[0]),
            )
        )
    return spectra


@pytest.mark.parametrize("dimension", [d for d in DIMENSIONS if d >= 2])
def test_near_collinear_selections_straddle_the_condition_cap(dimension: int):
    """The near-collinear cases test both sides of the blocked solve's floor.

    The seeded workloads must hold selections whose centred Gram condition
    number is on each side of ``1 / _GRAM_CONDITION_RTOL``, and selections
    on each side of the solver's own fallback test, so the 1e-12 oracle
    checks of ``test_engine_paths_agree`` cover both the blocked normal
    equations and the dense SVD fallback on ill-conditioned data.
    """
    cap = 1.0 / _GRAM_CONDITION_RTOL
    spectra = []
    for seed in SEEDS:
        dataset = _make_dataset(dimension, "near_collinear", seed)
        spectra += _gram_spectra(dataset, _make_workload(dataset, seed))
    conditions, ratios = zip(*spectra)
    assert min(conditions) < cap < max(conditions)
    assert min(ratios) < cap < max(ratios)


# --------------------------------------------------------------------------- #
# inner-cell run sums at their worst case
# --------------------------------------------------------------------------- #
#: An inner-cell run sums as the difference of two rows of a compensated
#: prefix table over the occupied cells; a long prefix in front of a short
#: run is its worst case.  Dropping the tables' rounding-error columns puts
#: Q2 fitted values ~1e-11 from the oracle on the long-prefix layout below;
#: with them every case here stays within ~1e-14.
RUN_SUM_TOLERANCE = 1e-13


def _uniform_table(
    dimension: int, rows: int, seed: int, low: float = 0.0
) -> SyntheticDataset:
    rng = np.random.default_rng(seed)
    inputs = low + rng.uniform(0.0, 1.0, size=(rows, dimension))
    noise = 0.05 * rng.normal(size=rows)
    outputs = 1.0 + (inputs - low) @ rng.normal(size=dimension) + noise
    return SyntheticDataset(
        inputs=inputs, outputs=outputs, name="runs", domain=(low, low + 1.0)
    )


def _ball_queries(
    dataset: SyntheticDataset, norm_order: float, radii, count: int = 40
) -> list[Query]:
    rng = np.random.default_rng(dataset.dimension * 7 + int(min(norm_order, 9)))
    low = dataset.domain[0]
    return [
        Query(
            center=low + rng.uniform(0.0, 1.0, dataset.dimension),
            radius=float(rng.uniform(*radii)),
            norm_order=norm_order,
        )
        for _ in range(count)
    ]


def _assert_inner_runs(dataset: SyntheticDataset, queries) -> None:
    """The workload reaches the inner-cell path: some ball holds whole cells."""
    grid = SegmentedBatchPipeline(dataset.inputs, dataset.outputs).grid
    for norm_order in {query.norm_order for query in queries}:
        batch = [query for query in queries if query.norm_order == norm_order]
        ranges = grid.classified_ranges_batch(
            np.array([query.center for query in batch]),
            np.array([query.radius for query in batch]),
            p=norm_order,
        )
        assert ranges[4].size > 0


def _assert_run_sums_match_oracle(engine, dataset, queries, *, q2: bool = True):
    oracle = ExactOracle(dataset.inputs, dataset.outputs)
    means = engine.execute_q1_batch(queries, on_empty="null")
    planes = engine.execute_q2_batch(queries, on_empty="null")
    for position, (query, mean, plane) in enumerate(zip(queries, means, planes)):
        context = f"query[{position}]"
        rows = oracle.select(query)
        if not rows.size:
            assert mean is None and plane is None, context
            continue
        assert mean.cardinality == plane.cardinality == rows.size, context
        np.testing.assert_allclose(
            mean.mean,
            oracle.mean(query),
            rtol=RUN_SUM_TOLERANCE,
            atol=RUN_SUM_TOLERANCE,
            err_msg=context,
        )
        if q2:
            np.testing.assert_allclose(
                oracle.fitted(query, plane.coefficients),
                oracle.fitted(query, oracle.q2(query)),
                rtol=RUN_SUM_TOLERANCE,
                atol=RUN_SUM_TOLERANCE,
                err_msg=context,
            )


@pytest.mark.parametrize(
    "dimension,rows,norm_order,radii",
    [(1, 50_000, 2.0, (0.05, 0.3)), (2, 200_000, 1.0, (0.02, 0.05))],
    ids=["one_line", "long_prefix"],
)
def test_inner_run_sums_at_their_worst_case(dimension, rows, norm_order, radii):
    """One grid line of 256 cells at d = 1; ~25k cells before short runs at d = 2."""
    dataset = _uniform_table(dimension, rows, seed=rows + dimension)
    queries = _ball_queries(dataset, norm_order, radii)
    _assert_inner_runs(dataset, queries)
    engine = ExactQueryEngine(dataset)
    _assert_run_sums_match_oracle(engine, dataset, queries)
    if dimension == 1:
        assert engine._pipeline.grid.cell_flats.size == 256


def _run_sum_radii(dimension: int, norm_order: float) -> tuple[float, float]:
    # Wide enough that some ball holds whole cells of the coarse d = 6 grid
    # (a quarter of the domain wide), which an L1 ball needs most.
    if dimension <= 3:
        return (0.05, 0.4)
    return (0.8, 1.2) if norm_order == 1.0 else (0.3, 0.6)


@pytest.mark.parametrize("norm_order", (1.0, 2.0, np.inf))
@pytest.mark.parametrize("dimension", DIMENSIONS)
def test_inner_run_sums_on_every_norm_and_dimension(dimension, norm_order):
    dataset = _uniform_table(dimension, 20_000, seed=dimension)
    radii = _run_sum_radii(dimension, norm_order)
    queries = _ball_queries(dataset, norm_order, radii)
    _assert_inner_runs(dataset, queries)
    _assert_run_sums_match_oracle(ExactQueryEngine(dataset), dataset, queries)


@pytest.mark.parametrize("norm_order", (1.0, 2.0, np.inf))
@pytest.mark.parametrize("dimension", DIMENSIONS)
def test_inner_run_sums_far_from_the_origin(dimension, norm_order):
    """Inputs in [1000, 1001]^d: counts, means and Q2 moment sums.

    The oracle's ``lstsq`` fit is itself off here, so Q2 is checked
    through the pipeline's center-referenced moment sums.
    """
    dataset = _uniform_table(dimension, 20_000, seed=dimension, low=FAR_ORIGIN)
    radii = _run_sum_radii(dimension, norm_order)
    queries = _ball_queries(dataset, norm_order, radii)
    _assert_inner_runs(dataset, queries)
    _assert_run_sums_match_oracle(
        ExactQueryEngine(dataset), dataset, queries, q2=False
    )
    _assert_moments_match_brute_force(dataset, queries, rtol=RUN_SUM_TOLERANCE)


# --------------------------------------------------------------------------- #
# ulp ties: a row exactly on the sphere is in or out as the oracle decides
# --------------------------------------------------------------------------- #
#: NumPy adds a row of fewer than 8 terms left to right and a longer one
#: pairwise, so from d = 8 on the two orders round some rows' Lp sums
#: differently.  At d = 6 they never do: that dimension is the control.
TIE_DIMENSIONS = (6, 8, 9)
TIE_CENTERS = 40 + int(os.environ.get("REPRO_DIFFERENTIAL_SOAK", "0"))


def _lp_terms(deltas: np.ndarray, norm_order: float) -> np.ndarray:
    if norm_order == 2.0:
        return deltas * deltas
    return np.power(np.abs(deltas), norm_order)


def _lp_root(total: np.ndarray, norm_order: float) -> np.ndarray:
    if norm_order == 2.0:
        return np.sqrt(total)
    return np.power(total, 1.0 / norm_order)


def _tie_queries(
    inputs: np.ndarray, norm_order: float, count: int, seed: int
) -> tuple[list[Query], int]:
    """Balls whose radius is one row's Lp distance, rounded the lower way.

    For each center the row is one whose sum of terms rounds differently
    when added left to right than by NumPy's row sum (when any row does),
    and the radius is the smaller of the two rooted sums.  An engine that
    sums in the other order than the oracle then decides that row the other
    way.  Returns the queries and how many of them hold such a row.
    """
    rng = np.random.default_rng(seed)
    queries, ties = [], 0
    for _ in range(count):
        center = rng.uniform(0.0, 1.0, inputs.shape[1])
        terms = _lp_terms(inputs - center, norm_order)
        left_to_right = terms[:, 0].copy()
        for column in terms.T[1:]:
            left_to_right += column
        by_rows = _lp_root(terms.sum(axis=1), norm_order)
        left_to_right = _lp_root(left_to_right, norm_order)
        differ = np.flatnonzero(by_rows != left_to_right)
        ties += bool(differ.size)
        row = differ[0] if differ.size else int(rng.integers(inputs.shape[0]))
        radius = min(by_rows[row], left_to_right[row])
        queries.append(
            Query(center=center, radius=float(radius), norm_order=norm_order)
        )
    return queries, ties


@pytest.mark.parametrize("norm_order", (1.0, 2.0, 3.0))
@pytest.mark.parametrize("dimension", TIE_DIMENSIONS)
def test_ulp_ties_select_as_the_oracle_does(dimension, norm_order):
    """The engine's counts equal the oracle's exactly.

    The engine's Lp norms add their terms in the order of the oracle's
    :func:`~repro.queries.geometry.pairwise_lp_distance`.  Means are held
    to the family tolerance: the engine and the oracle add the same
    selected outputs in different orders.
    """
    dataset = _uniform_table(dimension, 2_000, seed=dimension)
    queries, ties = _tie_queries(
        dataset.inputs, norm_order, TIE_CENTERS, seed=dimension * 10 + int(norm_order)
    )
    if dimension >= 8:
        assert ties == len(queries)
    oracle = ExactOracle(dataset.inputs, dataset.outputs)
    answers = ExactQueryEngine(dataset).execute_q1_batch(queries, on_empty="null")
    for position, (answer, query) in enumerate(zip(answers, queries)):
        context = f"tie[{position}]"
        assert answer.cardinality == oracle.count(query), context
        np.testing.assert_allclose(
            answer.mean,
            oracle.mean(query),
            rtol=FAMILY_RTOL,
            atol=FAMILY_ATOL,
            err_msg=context,
        )


# --------------------------------------------------------------------------- #
# training-loop case family: the pipelined trainer across chunk sizes
# --------------------------------------------------------------------------- #
TRAINING_DIMENSIONS = (1, 2, 3)
TRAINING_LAYOUTS = ("uniform", "clustered", "duplicate")
TRAINING_SEEDS = (0, 1)

TRAINING_CONFIGURATIONS = [
    (dimension, layout, seed)
    for dimension in TRAINING_DIMENSIONS
    for layout in TRAINING_LAYOUTS
    for seed in TRAINING_SEEDS
]


def _train_model(engine, queries, *, batch_size: int):
    from repro.config import ModelConfig, TrainingConfig
    from repro.core.model import LLMModel
    from repro.core.training import StreamingTrainer

    model = LLMModel(
        dimension=queries[0].dimension,
        config=ModelConfig(quantization_coefficient=0.15),
        training=TrainingConfig(convergence_threshold=1e-9),
    )
    breakdown = StreamingTrainer(model, engine).train(queries, batch_size=batch_size)
    return model, breakdown


@pytest.mark.parametrize("dimension,layout,seed", TRAINING_CONFIGURATIONS)
def test_training_loop_paths_agree(dimension: int, layout: str, seed: int):
    """Chunked training equals the sequential loop bit for bit.

    The chunked loop must equal the sequential ``batch_size=1`` loop
    bit-for-bit (batched Q1 statistics are batch-composition independent).
    """
    dataset = _make_dataset(dimension, layout, seed)
    queries = _make_workload(dataset, seed, count=40)

    indexed_engine = ExactQueryEngine(dataset)
    sequential, seq_breakdown = _train_model(
        indexed_engine, queries, batch_size=1
    )
    chunked, chunk_breakdown = _train_model(indexed_engine, queries, batch_size=8)

    assert chunk_breakdown.pairs_processed == seq_breakdown.pairs_processed
    assert chunk_breakdown.pairs_skipped == seq_breakdown.pairs_skipped
    assert (
        chunk_breakdown.criterion_trajectory == seq_breakdown.criterion_trajectory
    )
    assert np.array_equal(
        chunked.prototype_matrix(), sequential.prototype_matrix()
    )
    seq_trace = [
        (record.winner_index, record.grew)
        for record in sequential.convergence_tracker.history
    ]
    chunk_trace = [
        (record.winner_index, record.grew)
        for record in chunked.convergence_tracker.history
    ]
    assert seq_trace == chunk_trace
