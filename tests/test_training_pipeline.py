"""Equivalence and behaviour tests of the pipelined training loop.

The chunked :meth:`~repro.core.training.StreamingTrainer.train` must be
*bit-for-bit* identical to the sequential per-query loop: same winner
sequence, same prototype matrix, same criterion trajectory, same
``TrainingCostBreakdown.pairs_*`` counts.  The sequential reference labels
through ``execute_q1_batch([q])`` per query (batched Q1 statistics are
batch-composition independent, so this is the same numerics at every chunk
size); the suite sweeps seeds x data layouts x chunk sizes, convergence
mid-chunk, the trainer's argument checks and the skipped-query
engine-time attribution bugfix.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.config import ModelConfig, TrainingConfig
from repro.core.model import LLMModel
from repro.core.training import StreamingTrainer
from repro.data.synthetic import SyntheticDataset
from repro.dbms.executor import ExactQueryEngine
from repro.queries.query import Query
from repro.queries.workload import (
    QueryWorkloadGenerator,
    RadiusDistribution,
    WorkloadSpec,
)

SEEDS = (0, 1, 2)
LAYOUTS = ("uniform", "clustered", "wave")


def _make_dataset(layout: str, seed: int, size: int = 3_000) -> SyntheticDataset:
    rng = np.random.default_rng(seed * 7919 + 13)
    if layout == "uniform":
        inputs = rng.uniform(0.0, 1.0, size=(size, 2))
        outputs = inputs @ np.array([1.5, -0.5]) + 0.05 * rng.normal(size=size)
    elif layout == "clustered":
        anchors = rng.uniform(0.2, 0.8, size=(3, 2))
        inputs = anchors[rng.integers(0, 3, size=size)] + 0.05 * rng.normal(
            size=(size, 2)
        )
        outputs = np.cos(3.0 * inputs[:, 0]) + inputs[:, 1] ** 2
    else:
        inputs = rng.uniform(0.0, 1.0, size=(size, 2))
        outputs = np.sin(2 * np.pi * inputs[:, 0]) + inputs[:, 1]
    return SyntheticDataset(
        inputs=inputs, outputs=outputs, name=f"tp_{layout}_{seed}", domain=(0.0, 1.0)
    )


def _make_queries(seed: int, count: int = 220) -> list[Query]:
    spec = WorkloadSpec(dimension=2, radius=RadiusDistribution(mean=0.12, std=0.03))
    queries = QueryWorkloadGenerator(spec, seed=seed).generate(count)
    # Sprinkle empty subspaces so skip accounting is part of every case.
    for position in (5, count // 2, count - 3):
        if 0 <= position < count:
            queries[position] = Query(
                center=np.array([6.0 + position, 6.0]), radius=0.01
            )
    return queries


def _fresh_model(coefficient: float = 0.1, gamma: float = 1e-9) -> LLMModel:
    return LLMModel(
        dimension=2,
        config=ModelConfig(quantization_coefficient=coefficient),
        training=TrainingConfig(convergence_threshold=gamma),
    )


def _state(model: LLMModel) -> tuple:
    """Full trainable state: prototypes, slopes, scalars, winner trace."""
    prototypes, slopes, scalars = model._quantizer.parameters.training_views()
    trace = [
        (record.winner_index, record.grew, record.criterion)
        for record in model.convergence_tracker.history
    ]
    return (
        prototypes.copy(),
        slopes.copy(),
        scalars.copy(),
        trace,
    )


def _assert_same_state(a: tuple, b: tuple, context: str) -> None:
    assert np.array_equal(a[0], b[0]), f"{context}: prototypes diverge"
    assert np.array_equal(a[1], b[1]), f"{context}: slopes diverge"
    assert np.array_equal(a[2], b[2]), f"{context}: scalars diverge"
    assert a[3] == b[3], f"{context}: winner/criterion trace diverges"


class TestChunkedEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_chunked_matches_sequential(self, layout: str, seed: int):
        engine = ExactQueryEngine(_make_dataset(layout, seed))
        queries = _make_queries(seed)

        reference_model = _fresh_model()
        reference = StreamingTrainer(reference_model, engine).train(
            queries, batch_size=1
        )
        reference_state = _state(reference_model)

        for batch_size in (16, 64, 1_000):
            model = _fresh_model()
            breakdown = StreamingTrainer(model, engine).train(
                queries, batch_size=batch_size
            )
            context = f"{layout}/seed{seed}/batch_size={batch_size}"
            _assert_same_state(_state(model), reference_state, context)
            assert breakdown.pairs_processed == reference.pairs_processed, context
            assert breakdown.pairs_skipped == reference.pairs_skipped, context
            assert (
                breakdown.criterion_trajectory == reference.criterion_trajectory
            ), context

    def test_convergence_mid_chunk_stops_without_consuming_rest(self):
        engine = ExactQueryEngine(_make_dataset("wave", 0))
        queries = _make_queries(3, count=300)
        # A coarse quantizer with a permissive threshold converges quickly.
        config = ModelConfig(quantization_coefficient=0.9)
        training = TrainingConfig(
            convergence_threshold=0.5, min_steps=5, convergence_window=5
        )
        sequential = LLMModel(dimension=2, config=config, training=training)
        ref = StreamingTrainer(sequential, engine).train(queries, batch_size=1)
        assert ref.converged

        chunked = LLMModel(dimension=2, config=config, training=training)
        breakdown = StreamingTrainer(chunked, engine).train(queries, batch_size=64)
        assert breakdown.converged
        assert breakdown.pairs_processed == ref.pairs_processed
        assert breakdown.pairs_skipped == ref.pairs_skipped
        assert breakdown.criterion_trajectory == ref.criterion_trajectory
        assert np.array_equal(
            chunked.prototype_matrix(), sequential.prototype_matrix()
        )
        # The chunked loop never pulled past the in-flight chunk.
        assert breakdown.chunks_executed <= (ref.pairs_processed // 64) + 1

    def test_empty_query_after_mid_chunk_convergence_is_not_skipped(self):
        # The converging chunk also holds an empty query *after* the pair
        # that froze the model; the sequential loop never reached it, so it
        # must not count as skipped.
        engine = ExactQueryEngine(_make_dataset("wave", 0))
        queries = _make_queries(3, count=300)
        queries[20] = Query(center=np.array([30.0, 6.0]), radius=0.01)
        config = ModelConfig(quantization_coefficient=0.9)
        training = TrainingConfig(
            convergence_threshold=0.5, min_steps=5, convergence_window=5
        )
        sequential = LLMModel(dimension=2, config=config, training=training)
        ref = StreamingTrainer(sequential, engine).train(queries, batch_size=1)
        assert ref.converged and ref.pairs_processed + ref.pairs_skipped < 20

        chunked = LLMModel(dimension=2, config=config, training=training)
        breakdown = StreamingTrainer(chunked, engine).train(queries, batch_size=64)
        assert breakdown.chunks_executed == 1
        assert breakdown.pairs_processed == ref.pairs_processed
        assert breakdown.pairs_skipped == ref.pairs_skipped

    def test_frozen_model_consumes_no_input(self):
        engine = ExactQueryEngine(_make_dataset("uniform", 1))
        queries = _make_queries(2, count=60)
        model = _fresh_model()
        model._frozen = True
        stream = iter(queries)
        breakdown = StreamingTrainer(model, engine).train(stream, batch_size=16)
        assert breakdown.pairs_processed == 0
        assert breakdown.chunks_executed == 0
        # The shared iterator was not advanced by a single query.
        assert next(stream) is queries[0]
        with pytest.raises(ValueError):
            StreamingTrainer(model, engine).train(stream, batch_size=0)


class TestTrainerArguments:
    """The retry count and the chunk size are integers, the backoff a
    finite number >= 0: anything else is refused when it is given, not
    mid-run (``time.sleep`` raises on NaN and on infinity)."""

    @staticmethod
    def _engine() -> ExactQueryEngine:
        return ExactQueryEngine(_make_dataset("uniform", 0, size=200))

    @pytest.mark.parametrize("value", [math.nan, 1.5, 2.0, -1])
    def test_retry_count_must_be_an_integer(self, value):
        with pytest.raises(ValueError, match="max_engine_retries"):
            StreamingTrainer(_fresh_model(), self._engine(), max_engine_retries=value)

    @pytest.mark.parametrize("value", [math.nan, -0.01, math.inf])
    def test_backoff_must_be_finite_and_at_least_zero(self, value):
        with pytest.raises(ValueError, match="retry_backoff_seconds"):
            StreamingTrainer(
                _fresh_model(), self._engine(), retry_backoff_seconds=value
            )

    @pytest.mark.parametrize("value", [math.nan, 2.0, 0.5, 0])
    def test_batch_size_must_be_an_integer(self, value):
        queries = _make_queries(0, count=8)
        stream = iter(queries)
        trainer = StreamingTrainer(_fresh_model(), self._engine())
        with pytest.raises(ValueError, match="batch_size"):
            trainer.train(stream, batch_size=value)
        assert next(stream) is queries[0]

    def test_numpy_integers_pass(self):
        trainer = StreamingTrainer(
            _fresh_model(), self._engine(), max_engine_retries=np.int64(2)
        )
        assert trainer.max_engine_retries == 2
        breakdown = trainer.train(_make_queries(0, count=8), batch_size=np.int32(4))
        assert breakdown.chunks_executed == 2


class TestCostAccounting:
    def test_skipped_queries_engine_time_is_attributed(self):
        # Seed bug: queries raising EmptySubspaceError contributed engine
        # time that was dropped before the `continue`, undercounting
        # query_execution_seconds by exactly the skipped queries' cost.
        engine = ExactQueryEngine(_make_dataset("uniform", 1))
        outside = [
            Query(center=np.array([9.0 + i, 9.0]), radius=0.01) for i in range(5)
        ]
        breakdown = StreamingTrainer(_fresh_model(), engine).train(outside)
        assert breakdown.pairs_skipped == 5
        assert breakdown.pairs_processed == 0
        assert breakdown.query_execution_seconds > 0.0
        assert breakdown.chunks_executed == 1


class TestPartialFitBatch:
    def test_matches_partial_fit_loop_bitwise(self):
        rng = np.random.default_rng(11)
        pairs = []
        for _ in range(200):
            center = rng.uniform(0, 1, size=2)
            pairs.append(
                (
                    Query(center=center, radius=float(rng.uniform(0.05, 0.2))),
                    float(center.sum()),
                )
            )
        sequential = _fresh_model()
        for query, answer in pairs:
            sequential.partial_fit(query, answer)
        batched = _fresh_model()
        records = batched.partial_fit_batch(
            [query for query, _ in pairs], [answer for _, answer in pairs]
        )
        assert len(records) == len(pairs)
        _assert_same_state(_state(batched), _state(sequential), "partial_fit_batch")
        assert batched.steps == sequential.steps

    def test_validates_lengths_and_dimensions(self):
        model = _fresh_model()
        queries = _make_queries(1, count=4)
        with pytest.raises(ValueError):
            model.partial_fit_batch(queries, [0.0] * 3)
        bad = [Query(center=np.array([0.1, 0.2, 0.3]), radius=0.1)]
        with pytest.raises(Exception):
            model.partial_fit_batch(bad, [0.0])

    def test_frozen_model_consumes_nothing(self):
        model = _fresh_model()
        model._frozen = True
        queries = _make_queries(2, count=4)
        assert model.partial_fit_batch(queries, [0.0] * 4) == []
