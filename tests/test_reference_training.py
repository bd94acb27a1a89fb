"""The object-path training reference, and the fused kernel pinned to it.

:mod:`repro.testing.reference_training` is the readable form of one
Algorithm-1 step (winner search, growth, Theorem-4 update); the unit tests
check its behaviour.  :class:`TestFusedKernelMatchesReference` trains the
same streams through every path of :class:`~repro.core.model.LLMModel` and
through the reference, and requires bit-identical models.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ModelConfig, TrainingConfig
from repro.core.convergence import ConvergenceTracker
from repro.core.learning_rates import get_schedule
from repro.core.model import LLMModel
from repro.core.prototypes import LocalLinearMap
from repro.exceptions import ConfigurationError, DimensionalityMismatchError
from repro.queries.query import Query
from repro.testing.reference_training import (
    FixedKQuantizer,
    GrowingQuantizer,
    apply_winner_update,
    train_step,
)


class TestGrowingQuantizer:
    def test_first_query_becomes_prototype(self):
        quantizer = GrowingQuantizer(vigilance=0.5)
        index, grew, distance = quantizer.observe(np.array([0.1, 0.2, 0.1]), answer=0.7)
        assert index == 0 and grew
        assert np.isinf(distance)
        assert quantizer.prototype_count == 1
        assert quantizer.maps[0].mean_output == pytest.approx(0.7)

    def test_nearby_query_routes_to_winner(self):
        quantizer = GrowingQuantizer(vigilance=0.5)
        quantizer.observe(np.array([0.0, 0.0, 0.1]))
        index, grew, distance = quantizer.observe(np.array([0.1, 0.0, 0.1]))
        assert index == 0 and not grew
        assert distance == pytest.approx(0.1)
        assert quantizer.prototype_count == 1

    def test_distant_query_grows_new_prototype(self):
        quantizer = GrowingQuantizer(vigilance=0.2)
        quantizer.observe(np.array([0.0, 0.0, 0.1]))
        index, grew, _ = quantizer.observe(np.array([1.0, 1.0, 0.1]))
        assert grew and index == 1
        assert quantizer.prototype_count == 2
        assert quantizer.growth_events == 2

    def test_vigilance_controls_prototype_count(self):
        rng = np.random.default_rng(0)
        queries = np.column_stack(
            [rng.uniform(0, 1, size=(300, 2)), np.full(300, 0.1)]
        )
        coarse = GrowingQuantizer(vigilance=0.8)
        fine = GrowingQuantizer(vigilance=0.1)
        for row in queries:
            coarse.observe(row)
            fine.observe(row)
        assert fine.prototype_count > coarse.prototype_count

    def test_find_winner_is_closest(self):
        quantizer = GrowingQuantizer(vigilance=0.1)
        quantizer.observe(np.array([0.0, 0.0, 0.1]))
        quantizer.observe(np.array([1.0, 1.0, 0.1]))
        winner, distance = quantizer.find_winner(np.array([0.9, 0.9, 0.1]))
        assert winner == 1
        assert distance == pytest.approx(np.sqrt(2 * 0.01))

    def test_find_winner_without_prototypes(self):
        with pytest.raises(ConfigurationError):
            GrowingQuantizer(vigilance=0.5).find_winner(np.array([0.0, 0.1]))

    def test_dimension_mismatch(self):
        quantizer = GrowingQuantizer(vigilance=0.5)
        quantizer.observe(np.array([0.0, 0.0, 0.1]))
        with pytest.raises(DimensionalityMismatchError):
            quantizer.find_winner(np.array([0.0, 0.1]))

    def test_rejects_non_positive_vigilance(self):
        with pytest.raises(ConfigurationError):
            GrowingQuantizer(vigilance=0.0)


class TestFixedKQuantizer:
    def test_seeds_first_k_queries(self):
        quantizer = FixedKQuantizer(k=3)
        for value in (0.0, 0.5, 1.0, 0.75):
            quantizer.observe(np.array([value, 0.1]))
        assert quantizer.prototype_count == 3

    def test_never_grows_beyond_k(self):
        quantizer = FixedKQuantizer(k=2)
        rng = np.random.default_rng(0)
        for _ in range(100):
            quantizer.observe(np.append(rng.uniform(0, 1, 2), 0.1))
        assert quantizer.prototype_count == 2

    def test_rejects_bad_k(self):
        with pytest.raises(ConfigurationError):
            FixedKQuantizer(k=0)

    def test_find_winner_requires_prototypes(self):
        with pytest.raises(ConfigurationError):
            FixedKQuantizer(k=2).find_winner(np.array([0.0, 0.1]))


class TestWinnerUpdate:
    def test_prototype_moves_towards_query(self):
        llm = LocalLinearMap(prototype=np.array([0.0, 0.0, 0.1]))
        apply_winner_update(llm, np.array([1.0, 0.0, 0.1]), answer=0.5, learning_rate=0.5)
        assert np.allclose(llm.prototype, [0.5, 0.0, 0.1])

    def test_learning_rate_one_moves_prototype_onto_query(self):
        llm = LocalLinearMap(prototype=np.array([0.2, 0.2, 0.1]))
        apply_winner_update(llm, np.array([0.6, 0.4, 0.2]), answer=1.0, learning_rate=1.0)
        assert np.allclose(llm.prototype, [0.6, 0.4, 0.2])

    def test_intercept_moves_towards_answer(self):
        llm = LocalLinearMap(prototype=np.array([0.0, 0.0, 0.1]), mean_output=0.0)
        update = apply_winner_update(
            llm, np.array([0.0, 0.0, 0.1]), answer=1.0, learning_rate=0.5
        )
        assert llm.mean_output == pytest.approx(0.5)
        assert update.prediction_error == pytest.approx(1.0)

    def test_zero_error_leaves_coefficients_unchanged(self):
        llm = LocalLinearMap(
            prototype=np.array([0.0, 0.0, 0.1]), mean_output=2.0, slope=np.zeros(3)
        )
        update = apply_winner_update(
            llm, np.array([0.0, 0.0, 0.1]), answer=2.0, learning_rate=0.5
        )
        assert update.prediction_error == pytest.approx(0.0)
        assert llm.mean_output == pytest.approx(2.0)
        assert np.allclose(llm.slope, 0.0)

    def test_update_counts_increment(self):
        llm = LocalLinearMap(prototype=np.array([0.0, 0.0, 0.1]))
        for _ in range(3):
            apply_winner_update(llm, np.array([0.1, 0.0, 0.1]), 0.2, 0.1)
        assert llm.updates == 3

    def test_repeated_updates_converge_to_local_mean(self):
        llm = LocalLinearMap(prototype=np.array([0.5, 0.5, 0.1]), mean_output=0.0)
        # Feeding the same (query at the prototype, answer) pair with the
        # hyperbolic schedule computes a running average, converging to 0.8.
        for step in range(200):
            apply_winner_update(
                llm,
                np.array([0.5, 0.5, 0.1]),
                answer=0.8,
                learning_rate=1.0 / (step + 1.0),
            )
        assert llm.mean_output == pytest.approx(0.8, abs=1e-6)

    def test_slope_learns_linear_relationship(self):
        rng = np.random.default_rng(0)
        llm = LocalLinearMap(prototype=np.array([0.5, 0.1]), mean_output=0.0)
        # y = 2 * (x - 0.5) + 1 around the prototype; the slope should head
        # towards 2 and the intercept towards 1.
        for step in range(4_000):
            x = 0.5 + rng.uniform(-0.2, 0.2)
            query = np.array([x, 0.1])
            answer = 2.0 * (x - 0.5) + 1.0
            # Freeze the prototype by re-centering it so only coefficients learn.
            llm._prototype[:] = [0.5, 0.1]  # noqa: SLF001 - test-only access
            apply_winner_update(llm, query, answer, learning_rate=1.0 / (step + 1.0))
        assert llm.mean_output == pytest.approx(1.0, abs=0.05)
        assert llm.center_slope[0] == pytest.approx(2.0, abs=0.3)

    def test_second_moment_tracks_difference_norm(self):
        llm = LocalLinearMap(prototype=np.array([0.0, 0.0, 0.1]))
        apply_winner_update(llm, np.array([0.1, 0.0, 0.1]), 0.0, 1.0)
        assert llm.difference_second_moment == pytest.approx(0.01)

    @pytest.mark.parametrize("rate", [0.0, -0.5, 1.5])
    def test_rejects_bad_learning_rate(self, rate):
        llm = LocalLinearMap(prototype=np.array([0.0, 0.1]))
        with pytest.raises(ConfigurationError):
            apply_winner_update(llm, np.array([0.0, 0.1]), 0.0, rate)


# --------------------------------------------------------------------------- #
# the fused kernel against the reference
# --------------------------------------------------------------------------- #
STREAM_LENGTH = 400

#: Model training paths: ``None`` is one ``partial_fit`` per pair, an int is
#: ``partial_fit_batch`` over chunks of that size.
MODEL_PATHS = (None, 1, 7, 256)


def _stream(dimension: int, seed: int) -> tuple[list[Query], list[float]]:
    """Queries over the unit cube, answered by a smooth non-linear function.

    The answer depends on every center coordinate and on the radius, so
    every slope component is trained.
    """
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.0, 1.0, size=(STREAM_LENGTH, dimension))
    radii = rng.uniform(0.05, 0.15, size=STREAM_LENGTH)
    answers = (
        np.sin(3.0 * centers[:, 0])
        + (centers**2).sum(axis=1)
        + 2.0 * radii
        + 0.05 * rng.normal(size=STREAM_LENGTH)
    )
    queries = [Query(center=c, radius=r) for c, r in zip(centers, radii)]
    return queries, [float(answer) for answer in answers]


def _train_reference(dimension, config, training, queries, answers):
    """Algorithm 1 on the object path, with the full ``Gamma`` recompute."""
    quantizer = GrowingQuantizer(vigilance=config.vigilance(dimension))
    schedule = get_schedule(
        training.learning_rate_schedule, training.learning_rate_scale
    )
    tracker = ConvergenceTracker(
        threshold=training.convergence_threshold,
        min_steps=training.min_steps,
        window=training.convergence_window,
    )
    trace = []
    for query, answer in zip(queries, answers):
        if tracker.has_converged():
            break
        winner, grew = train_step(quantizer, query.to_vector(), answer, schedule)
        record = tracker.observe(quantizer.parameters)
        trace.append(
            (winner, grew, record.prototype_change, record.coefficient_change)
        )
    return quantizer.maps, trace


def _train_model(dimension, config, training, queries, answers, chunk):
    model = LLMModel(dimension=dimension, config=config, training=training)
    if chunk is None:
        for query, answer in zip(queries, answers):
            model.partial_fit(query, answer)
    else:
        for start in range(0, len(queries), chunk):
            model.partial_fit_batch(
                queries[start : start + chunk], answers[start : start + chunk]
            )
    trace = [
        (r.winner_index, r.grew, r.prototype_change, r.coefficient_change)
        for r in model.convergence_tracker.history
    ]
    return model, trace


def _parameters(maps) -> dict[str, np.ndarray]:
    return {
        "prototypes": np.array([llm.prototype for llm in maps]),
        "slopes": np.array([llm.slope for llm in maps]),
        "scalars (intercept, second moment, updates)": np.array(
            [
                [llm.mean_output, llm.difference_second_moment, llm.updates]
                for llm in maps
            ]
        ),
    }


def _assert_same_training(dimension, config, training, queries, answers):
    """Every model path trains the reference's model, bit for bit.

    Returns the reference's ``(maps, trace)`` for case-specific checks.
    """
    maps, trace = _train_reference(dimension, config, training, queries, answers)
    expected = _parameters(maps)
    for chunk in MODEL_PATHS:
        path = "partial_fit" if chunk is None else f"partial_fit_batch({chunk})"
        model, model_trace = _train_model(
            dimension, config, training, queries, answers, chunk
        )
        assert model.steps == len(trace), path
        assert [step[:2] for step in model_trace] == [
            step[:2] for step in trace
        ], f"{path}: winner/grew sequence diverges"
        assert [step[2:] for step in model_trace] == [
            step[2:] for step in trace
        ], f"{path}: Gamma trajectory diverges"
        for name, actual in _parameters(model.local_maps).items():
            assert actual.shape == expected[name].shape, f"{path}: {name}"
            assert actual.tobytes() == expected[name].tobytes(), (
                f"{path}: {name} differ by up to "
                f"{np.max(np.abs(actual - expected[name])):.3e}"
            )
    return maps, trace


class TestFusedKernelMatchesReference:
    """``FusedTrainingKernel`` is the reference step, bit for bit.

    Streams at d in {1, 2, 3, 6} and two vigilances; at a = 0.05 the d = 3
    and d = 6 streams grow past several capacity doublings of the dense
    stores (K well over 64), and the d = 6 one grows on almost every pair.
    """

    @pytest.mark.parametrize("dimension", [1, 2, 3, 6])
    @pytest.mark.parametrize("coefficient", [0.05, 0.15])
    def test_stream(self, dimension, coefficient):
        queries, answers = _stream(dimension, seed=10 * dimension)
        maps, trace = _assert_same_training(
            dimension,
            ModelConfig(quantization_coefficient=coefficient),
            TrainingConfig(convergence_threshold=1e-9),
            queries,
            answers,
        )
        assert len(trace) == STREAM_LENGTH
        assert any(not grew for _, grew, _, _ in trace)
        if coefficient == 0.05 and dimension >= 3:
            assert len(maps) > 128

    @pytest.mark.parametrize(
        "dimension,coefficient", [(1, 0.05), (2, 0.15), (6, 0.4)]
    )
    def test_stream_that_converges_mid_way(self, dimension, coefficient):
        queries, answers = _stream(dimension, seed=10 * dimension)
        training = TrainingConfig(
            convergence_threshold=0.02, min_steps=20, convergence_window=16
        )
        _, trace = _assert_same_training(
            dimension,
            ModelConfig(quantization_coefficient=coefficient),
            training,
            queries,
            answers,
        )
        assert training.min_steps < len(trace) < STREAM_LENGTH
