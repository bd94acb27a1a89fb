"""Streaming trainer: connect an exact engine to a model (the Figure-2 loop).

During the training phase of the system context, every analyst query is
executed exactly against the DBMS (paying the usual cost) while the model
observes the ``(query, answer)`` pair and updates itself.  Once the model
converges, query processing switches to the trained model and stops touching
the data.  :class:`StreamingTrainer` drives that loop and keeps the cost
accounting (how much time was spent executing queries vs. updating the
model) that Section VI-B reports.

The paper measures ~99.6% of training wall-clock going to executing the
training queries against the DBMS, which makes the training loop the
system's dominant cost.  :meth:`StreamingTrainer.train` therefore pulls the
query stream in chunks and labels each chunk with one call to the engine's
batched exact path (``execute_q1_batch``, fanned out over the engine's
shards when it has several); the model then absorbs the chunk's pairs one
at a time, in stream order, through the fused update kernel
(:class:`~repro.core.sgd.FusedTrainingKernel`).  There is one loop and no
mode: the produced model is *bit-for-bit* identical to the sequential
per-query loop over the same labelled answers (same winner sequence,
prototypes and criterion trajectory — the training equivalence suite pins
this), whatever the chunk size.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Iterable

from ..dbms.executor import ExactQueryEngine
from ..exceptions import TransientEngineError
from ..queries.query import Query, QueryAnswer
from .model import LLMModel

__all__ = ["StreamingTrainer", "TrainingCostBreakdown"]

#: Default training chunk size: amortises the engine's per-batch overheads
#: without growing the documented read-ahead beyond a few hundred queries.
DEFAULT_TRAIN_BATCH_SIZE = 256


@dataclass
class TrainingCostBreakdown:
    """Wall-clock accounting of the training phase.

    The paper observes that ~99.6% of training time goes to executing the
    queries against the DBMS (a cost any system would pay) rather than to
    model updates.  This breakdown lets the benchmarks report the same
    split.

    ``query_execution_seconds`` counts the engine time of *every executed
    chunk*, including queries that turned out to select no rows (skipped
    pairs pay the same engine cost as processed ones) and the tail of a
    chunk that convergence stopped mid-way — engine time the run actually
    spent.
    """

    query_execution_seconds: float = 0.0
    model_update_seconds: float = 0.0
    pairs_processed: int = 0
    pairs_skipped: int = 0
    converged: bool = False
    final_prototype_count: int = 0
    criterion_trajectory: list[float] = field(default_factory=list)
    chunks_executed: int = 0

    @property
    def total_seconds(self) -> float:
        """Total accounted training time."""
        return self.query_execution_seconds + self.model_update_seconds

    @property
    def query_execution_share(self) -> float:
        """Fraction of the time spent executing queries against the engine."""
        total = self.total_seconds
        if total <= 0.0:
            return 0.0
        return self.query_execution_seconds / total


class StreamingTrainer:
    """Train a model online by executing queries against an exact engine.

    Parameters
    ----------
    model:
        The model being trained.
    engine:
        The :class:`~repro.dbms.executor.ExactQueryEngine` answering the
        training queries; :meth:`train` goes through its batched exact
        path, so an engine with a pool backend fans every chunk out across
        its shard workers.
    max_engine_retries:
        Retries of a chunk whose engine call raised a
        :class:`~repro.exceptions.TransientEngineError` (flaky storage, a
        shard worker hiccup, an injected fault).  ``0`` (default)
        preserves the fail-fast behaviour; the lifecycle manager trains
        with a small retry budget so a single transient blip does not
        abort a whole retraining run.  Deterministic errors never retry.
    retry_backoff_seconds:
        Sleep before retry ``k`` of a chunk is ``retry_backoff_seconds *
        2**(k - 1)``.
    """

    def __init__(
        self,
        model: LLMModel,
        engine: ExactQueryEngine,
        *,
        max_engine_retries: int = 0,
        retry_backoff_seconds: float = 0.05,
    ) -> None:
        if max_engine_retries < 0:
            raise ValueError(
                f"max_engine_retries must be >= 0, got {max_engine_retries}"
            )
        if retry_backoff_seconds < 0.0:
            raise ValueError(
                f"retry_backoff_seconds must be >= 0, got {retry_backoff_seconds}"
            )
        self.model = model
        self.engine = engine
        self.max_engine_retries = int(max_engine_retries)
        self.retry_backoff_seconds = float(retry_backoff_seconds)

    def train(
        self,
        queries: Iterable[Query],
        *,
        batch_size: int = DEFAULT_TRAIN_BATCH_SIZE,
    ) -> TrainingCostBreakdown:
        """Consume queries until the model converges or the stream ends.

        The stream is pulled in chunks of ``batch_size`` and labelled
        through the engine's ``execute_q1_batch``; the model absorbs each
        chunk through :meth:`~repro.core.model.LLMModel.partial_fit_batch`.
        The trained model is bit-for-bit identical to the sequential
        per-query loop (one ``execute_q1_batch([q])`` call per query
        followed by ``partial_fit``) over the same stream — chunking changes
        only the cost profile, never the result.  Queries that select no
        rows have no defined answer and are skipped.

        Parameters
        ----------
        queries:
            The training query stream.
        batch_size:
            Queries labelled per engine call.  ``1`` recovers the strictly
            lazy per-query loop.

        Read-ahead
        ----------
        The loop pulls up to ``batch_size`` queries from the source
        iterable and executes them *before* the first pair is consumed, so
        convergence mid-chunk stops the stream without consuming further
        input but the in-flight chunk has already been drawn (and
        executed).  A shared source iterator is therefore advanced by whole
        chunks; pass ``batch_size=1`` to recover one-query-per-step
        consumption.
        """
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        breakdown = TrainingCostBreakdown()
        iterator = iter(queries)
        while not self.model.is_frozen:
            chunk = list(itertools.islice(iterator, batch_size))
            if not chunk:
                break
            answers, elapsed = self._execute_chunk(chunk)
            breakdown.query_execution_seconds += elapsed
            breakdown.chunks_executed += 1
            self._consume_chunk(chunk, answers, breakdown)
        breakdown.converged = self.model.is_frozen
        breakdown.final_prototype_count = self.model.prototype_count
        return breakdown

    def _execute_chunk(
        self, chunk: list[Query]
    ) -> tuple[list[QueryAnswer | None], float]:
        """Execute one chunk through the batched exact path, timing it.

        Empty subspaces come back as ``None`` slots.  Transient engine
        failures are retried up to ``max_engine_retries`` times with
        exponential backoff (the whole loop is timed: a retried chunk
        really did cost that much engine time); any other exception, or a
        transient one past the retry budget, propagates.
        """
        started = time.perf_counter()
        attempt = 0
        delay = self.retry_backoff_seconds
        while True:
            try:
                answers = self.engine.execute_q1_batch(chunk, on_empty="null")
            except TransientEngineError:
                if attempt >= self.max_engine_retries:
                    raise
                attempt += 1
                if delay > 0.0:
                    time.sleep(delay)
                delay *= 2.0
            else:
                return answers, time.perf_counter() - started

    def _consume_chunk(
        self,
        chunk: list[Query],
        answers: list[QueryAnswer | None],
        breakdown: TrainingCostBreakdown,
    ) -> None:
        """Feed one labelled chunk to the model, in stream order.

        The non-empty pairs go through
        :meth:`~repro.core.model.LLMModel.partial_fit_batch`, which stops
        at the pair that converges the model.  An empty slot counts as
        skipped only if the sequential loop would have reached it, i.e. if
        it precedes that converging pair.
        """
        started = time.perf_counter()
        live = [
            (position, answer.mean)
            for position, answer in enumerate(answers)
            if answer is not None
        ]
        records = self.model.partial_fit_batch(
            [chunk[position] for position, _ in live], [mean for _, mean in live]
        )
        reached = len(chunk)
        if self.model.is_frozen and records:
            reached = live[len(records) - 1][0] + 1
        breakdown.pairs_processed += len(records)
        breakdown.pairs_skipped += sum(answer is None for answer in answers[:reached])
        breakdown.criterion_trajectory.extend(record.criterion for record in records)
        breakdown.model_update_seconds += time.perf_counter() - started
