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
batched exact path (``execute_q1_batch``); the model then absorbs the
chunk's pairs one at a time, in stream order, through the fused update kernel
(:class:`~repro.core.sgd.FusedTrainingKernel`).  There is one loop and no
mode: the produced model is *bit-for-bit* identical to the sequential
per-query loop over the same labelled answers (same winner sequence,
prototypes and criterion trajectory — the training equivalence suite pins
this), whatever the chunk size.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Iterable

from ..config import require_integer
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
        training queries; :meth:`train` labels each chunk through its
        batched exact path.
    max_engine_retries:
        Retries of a chunk whose engine call raised a
        :class:`~repro.exceptions.TransientEngineError` (flaky storage, an
        injected fault), an integer >= 0.  ``0`` (default)
        preserves the fail-fast behaviour; the lifecycle manager trains
        with a small retry budget so a single transient blip does not
        abort a whole retraining run.  Deterministic errors never retry.
    retry_backoff_seconds:
        Sleep before retry ``k`` of a chunk is ``retry_backoff_seconds *
        2**(k - 1)``; finite and at least 0 (NaN and infinity are
        refused).
    """

    def __init__(
        self,
        model: LLMModel,
        engine: ExactQueryEngine,
        *,
        max_engine_retries: int = 0,
        retry_backoff_seconds: float = 0.05,
    ) -> None:
        require_integer("max_engine_retries", max_engine_retries, 0, error=ValueError)
        if not 0.0 <= retry_backoff_seconds < math.inf:
            raise ValueError(
                "retry_backoff_seconds must be finite and >= 0, got "
                f"{retry_backoff_seconds}"
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

        Training also stops once the model has taken
        ``model.training.max_steps`` steps, as
        :meth:`~repro.core.model.LLMModel.fit` does.  The stream is pulled
        in chunks of ``batch_size`` and labelled through the engine's
        ``execute_q1_batch``; the model absorbs each chunk through
        :meth:`~repro.core.model.LLMModel.partial_fit_batch`.  The trained
        model is bit-for-bit identical to the sequential per-query loop (one
        ``execute_q1_batch([q])`` call per query followed by
        ``partial_fit``) over the same stream — chunking changes only the
        cost profile, never the result.  Queries that select no
        rows have no defined answer and are skipped.

        Parameters
        ----------
        queries:
            The training query stream.
        batch_size:
            Queries labelled per engine call, an integer >= 1.  ``1``
            recovers the strictly lazy per-query loop.

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
        require_integer("batch_size", batch_size, 1, error=ValueError)
        breakdown = TrainingCostBreakdown()
        iterator = iter(queries)
        while not self.model.is_frozen and self._remaining_steps() != 0:
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

    def _remaining_steps(self) -> int | None:
        """Steps left under ``TrainingConfig.max_steps`` (``None``: no cap)."""
        cap = self.model.training.max_steps
        return None if cap is None else max(cap - self.model.steps, 0)

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

        The non-empty pairs, at most the remaining ``max_steps`` budget of
        them, go through
        :meth:`~repro.core.model.LLMModel.partial_fit_batch`, which stops
        at the pair that converges the model.  An empty slot counts as
        skipped only if the sequential loop would have reached it, i.e. if
        it precedes the pair that converged the model or used up the
        budget.
        """
        started = time.perf_counter()
        live = [
            (position, answer.mean)
            for position, answer in enumerate(answers)
            if answer is not None
        ]
        budget = self._remaining_steps()
        if budget is not None:
            del live[budget:]
        records = self.model.partial_fit_batch(
            [chunk[position] for position, _ in live], [mean for _, mean in live]
        )
        reached = len(chunk)
        if records and (self.model.is_frozen or self._remaining_steps() == 0):
            reached = live[len(records) - 1][0] + 1
        breakdown.pairs_processed += len(records)
        breakdown.pairs_skipped += sum(answer is None for answer in answers[:reached])
        breakdown.criterion_trajectory.extend(record.criterion for record in records)
        breakdown.model_update_seconds += time.perf_counter() - started
