"""Model-backed batched serving layer: hybrid SQL sessions with exact fallback.

The paper's whole point (Figure 2 system context) is that after training,
analytics queries are answered *from the model* without touching the data.
:class:`AnalyticsService` is that serving tier: it owns the per-table
registry of exact engines and trained models, parses multi-statement
scripts, groups statements by table and kind, and routes every group
through the batched fast paths built in earlier PRs —
``execute_q1_batch`` / ``execute_q2_batch`` on the exact side (one shard
or many) and ``predict_mean_batch`` / ``predict_q2_batch`` on the model
side.

Three execution modes are offered:

* ``"exact"`` — every statement is answered by the table's exact engine
  (batched sufficient-statistics execution);
* ``"model"`` — every Q1/Q2 statement is answered by the table's trained
  model (COUNT is rejected: the model does not estimate cardinalities);
* ``"hybrid"`` — statements are answered from the model, with a
  transparent per-query fallback to the exact engine whenever the model
  has no overlapping prototypes for the query (empty ``W(q)``, the
  coverage signal of
  :meth:`~repro.core.model.LLMModel.predict_mean_batch_with_coverage`).
  COUNT statements always go to the exact engine.  The observed fallback
  rate is reported through :class:`ServingStatistics`.

Resilience (the serving tier survives its dependencies failing)
---------------------------------------------------------------
Statement groups execute through a guarded path: transient tier failures
(:class:`~repro.exceptions.TransientEngineError`, including per-group
timeouts) are retried with exponential backoff up to
:attr:`DegradationPolicy.max_attempts`; repeated failures open a
per-``(table, tier)`` :class:`CircuitBreaker` that sheds the failing tier
— a hybrid group keeps serving from the surviving tier (model-only when
the exact engine is down, exact-only when the model is down, marked
``degraded``) — and a group whose every tier failed produces
*per-statement error answers* (``source="error"``, the exception attached)
instead of aborting the script.  Registry/configuration mistakes
(:class:`~repro.exceptions.SQLSyntaxError`,
:class:`~repro.exceptions.ConfigurationError`) still raise: they are
caller bugs, not runtime faults.  Model hot-swaps
(:meth:`AnalyticsService.swap_model`) are atomic under concurrent
serving: a group captures one model reference, so it never observes a
half-registered model.  Lifecycle events (retries, breaker transitions,
degradations, swaps) are published to an
:class:`~repro.dbms.observer.ObserverHub`.

Serving statistics mirror the engines'
:class:`~repro.dbms.executor.ExecutionStatistics` idiom: O(1) running
aggregates per table (statement counts by answer source, wall-clock
totals and extrema), mergeable into a service-wide view.
"""

from __future__ import annotations

import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Literal, Mapping, Sequence

import numpy as np

from ..analysis.instrument import make_lock, make_rlock, note_access
from ..exceptions import (
    CircuitOpenError,
    ConfigurationError,
    EmptySubspaceError,
    ServingTimeoutError,
    SQLSyntaxError,
    TransientEngineError,
)
from ..queries.query import Query
from ..queries.stream import QueryLog
from .executor import ExactQueryEngine
from .observer import ObserverHub
from .sqlfront import ParsedStatement, parse_script, parse_statement

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..queries.query import QueryAnswer
    from .storage import SQLiteDataStore

__all__ = [
    "AnalyticsService",
    "LatencyHistogram",
    "ServingStatistics",
    "StatementResult",
    "DegradationPolicy",
    "CircuitBreaker",
    "DEFAULT_NORM_ORDER",
]

#: Norm order assumed for tables without a registered model (Euclidean).
DEFAULT_NORM_ORDER = 2.0

_MODES = ("exact", "model", "hybrid")
_ON_ERROR = ("attach", "raise")

#: Errors that signal caller/configuration mistakes rather than runtime
#: faults: they abort the script (the seed contract) and never trip a
#: circuit breaker.
_CALLER_ERRORS = (SQLSyntaxError, ConfigurationError)


@dataclass(frozen=True)
class DegradationPolicy:
    """Retry / timeout / circuit-breaker policy of the guarded serving path.

    Attributes
    ----------
    max_attempts:
        Total tries per tier call for *transient* failures
        (:class:`~repro.exceptions.TransientEngineError`, which includes
        per-group timeouts).  Non-transient exceptions never retry.
    backoff_seconds / backoff_multiplier:
        Sleep before retry ``k`` is ``backoff_seconds *
        backoff_multiplier**(k - 1)``.
    timeout_seconds:
        Per-group execution timeout; ``None`` (default) disables the
        timeout thread dispatch entirely, keeping the hot path free of
        thread overhead.  A timed-out call keeps running on its worker
        thread (Python cannot kill it) but the group is answered — by a
        retry, a degraded tier, or an error answer.
    breaker_failure_threshold:
        Consecutive failures after which a ``(table, tier)`` breaker
        opens.
    breaker_reset_seconds:
        Open time before the breaker half-opens and lets a probe call
        through; a successful probe closes it, a failing probe re-opens
        it.
    """

    max_attempts: int = 3
    backoff_seconds: float = 0.02
    backoff_multiplier: float = 2.0
    timeout_seconds: float | None = None
    breaker_failure_threshold: int = 3
    breaker_reset_seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_seconds < 0.0 or self.backoff_multiplier < 1.0:
            raise ConfigurationError(
                "backoff_seconds must be >= 0 and backoff_multiplier >= 1"
            )
        if self.timeout_seconds is not None and self.timeout_seconds <= 0.0:
            raise ConfigurationError(
                f"timeout_seconds must be positive or None, got "
                f"{self.timeout_seconds}"
            )
        if self.breaker_failure_threshold < 1 or self.breaker_reset_seconds < 0.0:
            raise ConfigurationError(
                "breaker_failure_threshold must be >= 1 and "
                "breaker_reset_seconds >= 0"
            )


class CircuitBreaker:
    """A minimal three-state circuit breaker (closed / open / half-open).

    ``closed`` passes calls and counts consecutive failures; at
    ``failure_threshold`` it opens.  ``open`` rejects calls until
    ``reset_seconds`` elapse, then half-opens.  ``half_open`` passes calls
    as probes: one success closes the breaker, one failure re-opens it.
    The clock is injectable so tests drive the state machine
    deterministically.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        failure_threshold: int,
        reset_seconds: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._threshold = int(failure_threshold)
        self._reset_seconds = float(reset_seconds)
        self._clock = clock
        self._state = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._lock = make_lock("serving.CircuitBreaker")

    @property
    def state(self) -> str:
        with self._lock:
            return self._peek_state()

    def _peek_state(self) -> str:
        if (
            self._state == self.OPEN
            and self._clock() - self._opened_at >= self._reset_seconds
        ):
            return self.HALF_OPEN
        return self._state

    def allow(self) -> bool:
        """Whether a call may proceed now (open → half-open on reset lapse)."""
        with self._lock:
            state = self._peek_state()
            if state == self.OPEN:
                return False
            self._state = state
            return True

    def record_success(self) -> None:
        with self._lock:
            self._state = self.CLOSED
            self._consecutive_failures = 0

    def record_failure(self) -> None:
        with self._lock:
            self._consecutive_failures += 1
            if (
                self._state == self.HALF_OPEN
                or self._consecutive_failures >= self._threshold
            ):
                self._state = self.OPEN
                self._opened_at = self._clock()


#: Fixed bucket edges of :class:`LatencyHistogram`: eight log-spaced
#: buckets per decade from 100 ns to 100 s.  The edges are a module-level
#: constant, so every histogram shares the same bucketing and
#: :meth:`LatencyHistogram.merge` is exact — merging two histograms gives
#: byte-identical counts to recording both streams into one histogram.
_LATENCY_EDGES = np.logspace(-7.0, 2.0, num=9 * 8 + 1)


class LatencyHistogram:
    """Fixed-bucket log-scale latency histogram with exact merge.

    Latency *percentiles* cannot be kept as O(1) running aggregates the
    way means and extrema can, and retaining raw per-statement latencies
    grows without bound.  The standard compromise is a histogram over
    *fixed* bucket boundaries (:data:`_LATENCY_EDGES`): recording is O(1),
    memory is constant, a percentile is resolved to its bucket (relative
    error bounded by the bucket ratio, ~33% with 8 buckets per decade) and
    — because every histogram shares the same edges — merging per-table
    histograms into a service-wide one is exact, never approximate.
    """

    __slots__ = ("counts",)

    def __init__(self, counts: np.ndarray | None = None) -> None:
        if counts is None:
            counts = np.zeros(_LATENCY_EDGES.size + 1, dtype=np.int64)
        else:
            counts = np.asarray(counts, dtype=np.int64).copy()
            if counts.shape != (_LATENCY_EDGES.size + 1,):
                raise ConfigurationError(
                    f"latency histogram needs {_LATENCY_EDGES.size + 1} bucket "
                    f"counts, got shape {counts.shape}"
                )
        self.counts = counts

    def record(self, seconds: float, count: int = 1) -> None:
        """Add ``count`` observations of one latency value."""
        if count <= 0:
            return
        index = int(np.searchsorted(_LATENCY_EDGES, seconds, side="left"))
        self.counts[index] += count

    def record_many(self, seconds: Sequence[float]) -> None:
        """Add one observation per entry of a latency sequence."""
        values = np.asarray(seconds, dtype=float)
        if values.size == 0:
            return
        indices = np.searchsorted(_LATENCY_EDGES, values, side="left")
        np.add.at(self.counts, indices, 1)

    @property
    def total_count(self) -> int:
        """Number of recorded observations."""
        return int(self.counts.sum())

    def percentile(self, q: float) -> float:
        """The latency at percentile ``q`` (0..100), 0.0 when empty.

        Resolved to the recording bucket's geometric midpoint (edge value
        for the underflow/overflow buckets), so the answer is within one
        bucket ratio of the true order statistic.
        """
        if not 0.0 <= q <= 100.0:
            raise ConfigurationError(f"percentile must be in [0, 100], got {q}")
        total = self.total_count
        if total == 0:
            return 0.0
        rank = max(1, int(math.ceil(q / 100.0 * total)))
        cumulative = np.cumsum(self.counts)
        index = int(np.searchsorted(cumulative, rank, side="left"))
        if index == 0:
            return float(_LATENCY_EDGES[0])
        if index >= _LATENCY_EDGES.size:
            return float(_LATENCY_EDGES[-1])
        return float(
            math.sqrt(_LATENCY_EDGES[index - 1] * _LATENCY_EDGES[index])
        )

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold another histogram in (exact: shared fixed bucket edges)."""
        self.counts += other.counts

    def copy(self) -> "LatencyHistogram":
        """An independent copy (snapshots must not alias the counts)."""
        return LatencyHistogram(self.counts)

    def reset(self) -> None:
        self.counts[:] = 0


@dataclass
class ServingStatistics:
    """Cumulative serving statistics of one table (or of the whole service).

    Mirrors :class:`~repro.dbms.executor.ExecutionStatistics`: only O(1)
    running aggregates are kept, so recording a statement stream of any
    length costs constant memory.  ``model_answered`` / ``exact_answered``
    / ``fallback_count`` / ``error_count`` partition the executed
    statements by answer source (a fallback is a hybrid statement the
    model could not cover, so it was re-routed to the exact engine; an
    error is a statement whose every tier failed, answered with the
    exception attached).  ``degraded_count`` counts statements served by a
    surviving tier after their preferred tier failed, and ``retry_count``
    counts transient-failure retries spent serving the stream.

    The concurrent serving front adds three signals: ``cache_hits``
    (statements answered from the version-keyed answer cache without
    executing), the coalescing counters (``coalesced_batches`` — batches
    merged from more than one submission, ``coalesce_width_sum`` /
    ``max_coalesce_width`` — how many submissions each batch merged) and a
    fixed-bucket :class:`LatencyHistogram` behind :attr:`p50_seconds` /
    :attr:`p99_seconds` — fixed buckets keep :meth:`merge` exact.
    """

    statements_executed: int = 0
    batches_executed: int = 0
    model_answered: int = 0
    exact_answered: int = 0
    fallback_count: int = 0
    empty_count: int = 0
    error_count: int = 0
    degraded_count: int = 0
    retry_count: int = 0
    cache_hits: int = 0
    coalesced_batches: int = 0
    coalesce_width_sum: int = 0
    max_coalesce_width: int = 0
    total_seconds: float = 0.0
    min_statement_seconds: float = math.inf
    max_statement_seconds: float = 0.0
    latency: LatencyHistogram = field(default_factory=LatencyHistogram)

    def record_batch(
        self,
        count: int,
        *,
        model_answered: int = 0,
        exact_answered: int = 0,
        fallbacks: int = 0,
        empties: int = 0,
        errors: int = 0,
        degraded: int = 0,
        retries: int = 0,
        cache_hits: int = 0,
        coalesce_width: int = 1,
        seconds: float = 0.0,
        latency_seconds: "Sequence[float] | None" = None,
    ) -> None:
        """Add one statement group's counters.

        Per-statement latency extrema are the amortised share of the group
        wall-clock time, matching the engines' batched accounting.
        ``coalesce_width`` is the number of separate submissions the group
        merged (1 for an uncoalesced batch).  ``latency_seconds``
        optionally supplies true per-statement latencies (the concurrent
        front's enqueue-to-answer times) for the percentile histogram;
        without it the amortised share is recorded ``count`` times.
        """
        if count <= 0:
            return
        note_access(self, "counters")
        amortised = seconds / count
        self.statements_executed += count
        self.batches_executed += 1
        self.model_answered += model_answered
        self.exact_answered += exact_answered
        self.fallback_count += fallbacks
        self.empty_count += empties
        self.error_count += errors
        self.degraded_count += degraded
        self.retry_count += retries
        self.cache_hits += cache_hits
        if coalesce_width > 1:
            self.coalesced_batches += 1
        self.coalesce_width_sum += coalesce_width
        self.max_coalesce_width = max(self.max_coalesce_width, coalesce_width)
        self.total_seconds += seconds
        self.min_statement_seconds = min(self.min_statement_seconds, amortised)
        self.max_statement_seconds = max(self.max_statement_seconds, amortised)
        if latency_seconds is not None:
            self.latency.record_many(latency_seconds)
        else:
            self.latency.record(amortised, count)

    @property
    def fallback_rate(self) -> float:
        """Fraction of executed statements answered by the hybrid fallback."""
        if self.statements_executed == 0:
            return 0.0
        return self.fallback_count / self.statements_executed

    @property
    def error_rate(self) -> float:
        """Fraction of executed statements answered with an attached error."""
        if self.statements_executed == 0:
            return 0.0
        return self.error_count / self.statements_executed

    @property
    def mean_seconds(self) -> float:
        """Average per-statement serving time in seconds (0 when unused)."""
        if self.statements_executed == 0:
            return 0.0
        return self.total_seconds / self.statements_executed

    @property
    def min_seconds(self) -> float:
        """Smallest amortised per-statement latency seen (0 when unused)."""
        if self.statements_executed == 0:
            return 0.0
        return self.min_statement_seconds

    @property
    def max_seconds(self) -> float:
        """Largest amortised per-statement latency seen (0 when unused)."""
        return self.max_statement_seconds

    @property
    def p50_seconds(self) -> float:
        """Median per-statement latency from the histogram (0 when unused)."""
        return self.latency.percentile(50.0)

    @property
    def p99_seconds(self) -> float:
        """99th-percentile per-statement latency (0 when unused)."""
        return self.latency.percentile(99.0)

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of executed statements answered from the answer cache."""
        if self.statements_executed == 0:
            return 0.0
        return self.cache_hits / self.statements_executed

    @property
    def mean_coalesce_width(self) -> float:
        """Average submissions merged per batch (1.0 = no coalescing)."""
        if self.batches_executed == 0:
            return 0.0
        return self.coalesce_width_sum / self.batches_executed

    def export_metrics(self, prefix: str = "") -> "dict[str, float]":
        """Flatten all counters and derived rates into a metrics mapping.

        The benchmark harness's store hook: every counter plus the derived
        rate/latency properties as plain floats (``prefix`` namespaces the
        keys, e.g. ``"serving."``), so cache-hit rate, coalesce widths and
        the p50/p99 latency series become first-class stored metrics
        without callers reaching into individual fields.
        """
        metrics = {
            "statements_executed": float(self.statements_executed),
            "batches_executed": float(self.batches_executed),
            "model_answered": float(self.model_answered),
            "exact_answered": float(self.exact_answered),
            "fallback_count": float(self.fallback_count),
            "empty_count": float(self.empty_count),
            "error_count": float(self.error_count),
            "degraded_count": float(self.degraded_count),
            "retry_count": float(self.retry_count),
            "cache_hits": float(self.cache_hits),
            "coalesced_batches": float(self.coalesced_batches),
            "coalesce_width_sum": float(self.coalesce_width_sum),
            "max_coalesce_width": float(self.max_coalesce_width),
            "total_seconds": self.total_seconds,
            "fallback_rate": self.fallback_rate,
            "error_rate": self.error_rate,
            "cache_hit_rate": self.cache_hit_rate,
            "mean_coalesce_width": self.mean_coalesce_width,
            "mean_seconds": self.mean_seconds,
            "min_seconds": self.min_seconds,
            "max_seconds": self.max_seconds,
            "p50_seconds": self.p50_seconds,
            "p99_seconds": self.p99_seconds,
        }
        return {f"{prefix}{name}": value for name, value in metrics.items()}

    def to_dict(self) -> dict:
        """Serialise every counter (JSON-safe) for the durability checkpoint.

        The unused-sentinel ``min_statement_seconds = inf`` is mapped to
        ``None`` (JSON has no infinity); :meth:`from_dict` restores it.
        """
        return {
            "statements_executed": self.statements_executed,
            "batches_executed": self.batches_executed,
            "model_answered": self.model_answered,
            "exact_answered": self.exact_answered,
            "fallback_count": self.fallback_count,
            "empty_count": self.empty_count,
            "error_count": self.error_count,
            "degraded_count": self.degraded_count,
            "retry_count": self.retry_count,
            "cache_hits": self.cache_hits,
            "coalesced_batches": self.coalesced_batches,
            "coalesce_width_sum": self.coalesce_width_sum,
            "max_coalesce_width": self.max_coalesce_width,
            "total_seconds": self.total_seconds,
            "min_statement_seconds": (
                None
                if math.isinf(self.min_statement_seconds)
                else self.min_statement_seconds
            ),
            "max_statement_seconds": self.max_statement_seconds,
            "latency_counts": [int(c) for c in self.latency.counts],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ServingStatistics":
        """Rebuild statistics serialised by :meth:`to_dict`."""
        minimum = payload.get("min_statement_seconds")
        counts = payload.get("latency_counts")
        return cls(
            statements_executed=int(payload.get("statements_executed", 0)),
            batches_executed=int(payload.get("batches_executed", 0)),
            model_answered=int(payload.get("model_answered", 0)),
            exact_answered=int(payload.get("exact_answered", 0)),
            fallback_count=int(payload.get("fallback_count", 0)),
            empty_count=int(payload.get("empty_count", 0)),
            error_count=int(payload.get("error_count", 0)),
            degraded_count=int(payload.get("degraded_count", 0)),
            retry_count=int(payload.get("retry_count", 0)),
            cache_hits=int(payload.get("cache_hits", 0)),
            coalesced_batches=int(payload.get("coalesced_batches", 0)),
            coalesce_width_sum=int(payload.get("coalesce_width_sum", 0)),
            max_coalesce_width=int(payload.get("max_coalesce_width", 0)),
            total_seconds=float(payload.get("total_seconds", 0.0)),
            min_statement_seconds=(
                math.inf if minimum is None else float(minimum)
            ),
            max_statement_seconds=float(payload.get("max_statement_seconds", 0.0)),
            latency=(
                LatencyHistogram()
                if counts is None
                else LatencyHistogram(np.asarray(counts, dtype=np.int64))
            ),
        )

    def merge(self, other: "ServingStatistics") -> None:
        """Fold another statistics object into this one (counters add)."""
        note_access(self, "counters")
        self.statements_executed += other.statements_executed
        self.batches_executed += other.batches_executed
        self.model_answered += other.model_answered
        self.exact_answered += other.exact_answered
        self.fallback_count += other.fallback_count
        self.empty_count += other.empty_count
        self.error_count += other.error_count
        self.degraded_count += other.degraded_count
        self.retry_count += other.retry_count
        self.cache_hits += other.cache_hits
        self.coalesced_batches += other.coalesced_batches
        self.coalesce_width_sum += other.coalesce_width_sum
        self.max_coalesce_width = max(
            self.max_coalesce_width, other.max_coalesce_width
        )
        self.total_seconds += other.total_seconds
        self.min_statement_seconds = min(
            self.min_statement_seconds, other.min_statement_seconds
        )
        self.max_statement_seconds = max(
            self.max_statement_seconds, other.max_statement_seconds
        )
        self.latency.merge(other.latency)

    def snapshot(self) -> "ServingStatistics":
        """A point-in-time copy (drift windows diff successive snapshots)."""
        return replace(self, latency=self.latency.copy())

    def reset(self) -> None:
        """Clear all counters."""
        note_access(self, "counters")
        self.statements_executed = 0
        self.batches_executed = 0
        self.model_answered = 0
        self.exact_answered = 0
        self.fallback_count = 0
        self.empty_count = 0
        self.error_count = 0
        self.degraded_count = 0
        self.retry_count = 0
        self.cache_hits = 0
        self.coalesced_batches = 0
        self.coalesce_width_sum = 0
        self.max_coalesce_width = 0
        self.total_seconds = 0.0
        self.min_statement_seconds = math.inf
        self.max_statement_seconds = 0.0
        self.latency.reset()


@dataclass(frozen=True)
class StatementResult:
    """The served answer of one statement of a script.

    Attributes
    ----------
    statement:
        The parsed statement this result answers.
    value:
        * Q1 — the (exact or predicted) mean value, ``None`` when the
          exact subspace was empty;
        * Q2 — a list of ``(intercept, slope)`` pairs (one exact pair, or
          the model's local planes), ``None`` when the exact subspace was
          empty;
        * COUNT — the exact subspace cardinality (0 for an empty
          subspace; counts are always defined).
    source:
        ``"model"`` (answered from the trained model), ``"exact"``
        (answered by the exact engine because the mode asked for it, the
        statement was a COUNT, or the table has no model), ``"fallback"``
        (hybrid statement the model had no coverage for, re-routed to the
        exact engine), or ``"error"`` (every tier failed — the exception
        is attached as :attr:`error` and ``value`` is ``None``).
    empty:
        ``True`` when an exact execution selected no rows, leaving a
        Q1/Q2 ``value`` of ``None`` (the documented empty answer of the
        batched ``on_empty="null"`` contract).
    degraded:
        ``True`` when the statement was answered by a surviving tier
        after its preferred tier failed or was shed by a circuit breaker
        (hybrid groups only) — the answer is real, but produced under
        degradation.
    error:
        The exception that exhausted the statement's tiers (``None`` for
        successful answers).
    cached:
        ``True`` when the answer was served from the concurrent front's
        version-keyed answer cache instead of executing (``source`` keeps
        the source the cached execution originally answered from).
    """

    statement: ParsedStatement
    value: float | int | list | None
    source: Literal["model", "exact", "fallback", "error"]
    empty: bool = False
    degraded: bool = False
    error: BaseException | None = None
    cached: bool = False

    @property
    def ok(self) -> bool:
        """Whether the statement produced an answer (no attached error)."""
        return self.error is None

    @property
    def kind(self) -> str:
        """The statement kind (``"q1"``, ``"q2"`` or ``"count"``)."""
        return self.statement.kind

    @property
    def table(self) -> str:
        """The table the statement ran against."""
        return self.statement.table


class AnalyticsService:
    """Batched multi-statement serving over exact engines and trained models.

    Parameters
    ----------
    engines:
        Optional initial mapping of table name to exact engine
        (:class:`~repro.dbms.executor.ExactQueryEngine` in any shard
        configuration — anything with the ``execute_q1_batch`` /
        ``execute_q2_batch`` contract).
    models:
        Optional initial mapping of table name to trained model
        (:class:`~repro.core.model.LLMModel` interface).
    degradation:
        The :class:`DegradationPolicy` of the guarded execution path
        (retries, timeouts, circuit breakers); defaults are retry-3 with
        20 ms backoff, no timeout, breaker at 3 consecutive failures.
    observers:
        An :class:`~repro.dbms.observer.ObserverHub` to publish lifecycle
        events into; a private hub is created when omitted.
    query_log_size:
        Capacity of the per-table :class:`~repro.queries.stream.QueryLog`
        recording recent statement queries (the lifecycle manager's
        retraining stream).  ``0`` disables recording.
    clock:
        Monotonic clock used by the circuit breakers (injectable for
        deterministic tests).
    """

    def __init__(
        self,
        engines: Mapping[str, object] | None = None,
        models: Mapping[str, object] | None = None,
        *,
        degradation: DegradationPolicy | None = None,
        observers: ObserverHub | None = None,
        query_log_size: int = 512,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if query_log_size < 0:
            raise ConfigurationError(
                f"query_log_size must be >= 0, got {query_log_size}"
            )
        self._engines: dict[str, object] = dict(engines or {})
        self._models: dict[str, object] = dict(models or {})
        self._model_versions: dict[str, object] = {}
        self._registry_epochs: dict[str, int] = {}
        self._engine_bindings: dict[str, tuple[str, str]] = {}
        self._policy = degradation or DegradationPolicy()
        self._hub = observers or ObserverHub()
        self._clock = clock
        self._query_log_size = int(query_log_size)
        self._query_logs: dict[str, QueryLog] = {}
        self._statistics: dict[str, ServingStatistics] = {}
        self._breakers: dict[tuple[str, str], CircuitBreaker] = {}
        self._registry_lock = make_rlock("serving.AnalyticsService.registry")
        self._stats_lock = make_lock("serving.AnalyticsService.stats")
        self._timeout_pool: ThreadPoolExecutor | None = None

    # ------------------------------------------------------------------ #
    # registry / model lifecycle
    # ------------------------------------------------------------------ #
    def register_engine(self, table: str, engine: object) -> None:
        """Attach an exact engine under a table name.

        A direct registration has no store provenance, so any previously
        recorded store binding for the table is dropped (the engine can no
        longer be rebuilt from a path by the recovery manager).  The
        ``engine.registered`` event carries the binding (or its absence)
        so the durability journal records registry changes between
        checkpoints.
        """
        with self._registry_lock:
            self._engines[table] = engine
            self._engine_bindings.pop(table, None)
            self._registry_epochs[table] = self._registry_epochs.get(table, 0) + 1
        self._hub.publish("engine.registered", table, store_path=None, store_table=None)

    def register_model(self, table: str, model: object) -> None:
        """Attach a trained model under a table name (unversioned swap)."""
        self.swap_model(table, model)

    def swap_model(
        self, table: str, model: object, *, version: object = None
    ) -> object | None:
        """Atomically replace the model serving ``table``; returns the old one.

        The swap is one reference assignment under the registry lock, and
        statement groups capture their model reference once at group
        start, so concurrent scripts observe either the old model or the
        new one — never a half-registered state.  ``version`` is an opaque
        version marker (the lifecycle manager passes the persisted version
        number) readable back via :meth:`model_version_for`.
        """
        with self._registry_lock:
            previous = self._models.get(table)
            self._models[table] = model
            self._model_versions[table] = version
            self._registry_epochs[table] = self._registry_epochs.get(table, 0) + 1
        self._hub.publish(
            "model.swapped",
            table,
            version=version,
            had_previous=previous is not None,
        )
        return previous

    def model_version_for(self, table: str) -> object:
        """The version marker of the serving model (``None`` if unversioned)."""
        with self._registry_lock:
            return self._model_versions.get(table)

    def registry_epoch_for(self, table: str) -> int:
        """A monotonic per-table counter bumped on *every* registry change.

        Both :meth:`swap_model` (including unversioned swaps and rollbacks
        that restore a previously-seen version marker) and
        :meth:`register_engine` advance the epoch, so ``epoch unchanged``
        is a sound "no engine or model changed in between" witness — the
        concurrent front's answer cache keys on it, which is what makes a
        cached answer provably never stale across hot-swap / rollback
        races (a version marker alone can repeat; the epoch cannot).
        """
        with self._registry_lock:
            return self._registry_epochs.get(table, 0)

    def register_model_from_file(self, table: str, path: object) -> object:
        """Load a persisted model (:func:`~repro.core.persistence.load_model`)
        and register it under ``table``; returns the loaded model.

        A truncated/corrupt/unreadable file raises
        :class:`~repro.exceptions.ModelPersistenceError` *before* the
        registry is touched: a failed load never unregisters or replaces
        the model currently serving the table.
        """
        from ..core.persistence import load_model

        model = load_model(path)  # type: ignore[arg-type]
        self.register_model(table, model)
        return model

    def register_table_from_store(
        self,
        store: "SQLiteDataStore",
        table_name: str,
        *,
        table: str | None = None,
    ) -> ExactQueryEngine:
        """Build an exact engine over a catalogued store table and register it.

        ``table`` overrides the serving name (defaults to the store table
        name); returns the constructed engine.
        """
        serving_name = table or table_name
        engine = ExactQueryEngine.from_store(store, table_name)
        with self._registry_lock:
            self._engines[serving_name] = engine
            self._engine_bindings[serving_name] = (store.path, table_name)
            self._registry_epochs[serving_name] = (
                self._registry_epochs.get(serving_name, 0) + 1
            )
        self._hub.publish(
            "engine.registered",
            serving_name,
            store_path=store.path,
            store_table=table_name,
        )
        return engine

    def engine_binding_for(self, table: str) -> tuple[str, str] | None:
        """The ``(store_path, store_table)`` an engine was built from.

        Recorded by :meth:`register_table_from_store` and consumed by the
        durability checkpoint so a restarted process can rebuild the exact
        engine from the same store table.  ``None`` for engines registered
        directly (no rebuildable provenance) — including in-memory stores,
        whose path ``":memory:"`` is recorded but cannot be reopened.
        """
        with self._registry_lock:
            return self._engine_bindings.get(table)

    def restore_registry_epoch(self, table: str, epoch: int) -> None:
        """Fast-forward a table's registry epoch to at least ``epoch``.

        Used by recovery so epochs stay monotonic *across* restarts: a
        concurrent front's answer-cache key minted before the crash can
        never collide with a post-restart registry state.
        """
        with self._registry_lock:
            if epoch > self._registry_epochs.get(table, 0):
                self._registry_epochs[table] = int(epoch)

    @property
    def tables(self) -> list[str]:
        """All table names known to the service."""
        with self._registry_lock:
            return sorted(set(self._engines) | set(self._models))

    @property
    def degradation(self) -> DegradationPolicy:
        """The guarded execution policy in force."""
        return self._policy

    @property
    def observers(self) -> ObserverHub:
        """The hub lifecycle events are published to."""
        return self._hub

    def engine_for(self, table: str) -> object:
        """The exact engine of a table (raises when none is registered)."""
        try:
            return self._engines[table]
        except KeyError as exc:
            raise SQLSyntaxError(
                f"no exact engine registered for table {table!r}"
            ) from exc

    def model_for(self, table: str) -> object:
        """The trained model of a table (raises when none is registered)."""
        try:
            return self._models[table]
        except KeyError as exc:
            raise SQLSyntaxError(
                f"no trained model registered for table {table!r}"
            ) from exc

    def close(self, *, drain_seconds: float | None = None) -> None:
        """Release the timeout worker pool (if one was ever started).

        ``drain_seconds`` requests a graceful drain: in-flight timeout
        dispatches are waited for (bounded by the caller's patience — the
        synchronous service has no queue of its own, so waiting for the
        pool is the whole drain) instead of being cancelled outright.
        """
        if self._timeout_pool is not None:
            wait = drain_seconds is not None and drain_seconds > 0.0
            self._timeout_pool.shutdown(wait=wait, cancel_futures=not wait)
            self._timeout_pool = None

    # ------------------------------------------------------------------ #
    # query log (recent traffic per table)
    # ------------------------------------------------------------------ #
    def query_log_for(self, table: str) -> QueryLog:
        """The per-table recent-query log (created on first access)."""
        with self._stats_lock:
            if table not in self._query_logs:
                self._query_logs[table] = QueryLog(max(self._query_log_size, 1))
            return self._query_logs[table]

    def recent_queries(self, table: str) -> list[Query]:
        """A snapshot of the recently served queries of a table (oldest first)."""
        if self._query_log_size == 0 or table not in self._query_logs:
            return []
        return self.query_log_for(table).snapshot()

    def restore_query_log(self, table: str, log: QueryLog) -> None:
        """Install a rebuilt recent-query log (recovery path).

        Replaces the table's log wholesale so a restarted service resumes
        with the same sliding window (entries *and* lifetime count) the
        checkpoint captured, instead of re-recording the restored queries
        as new traffic.
        """
        with self._stats_lock:
            self._query_logs[table] = log

    # ------------------------------------------------------------------ #
    # statistics / breakers
    # ------------------------------------------------------------------ #
    def statistics_for(self, table: str) -> ServingStatistics:
        """The per-table serving statistics (created on first access)."""
        with self._stats_lock:
            if table not in self._statistics:
                self._statistics[table] = ServingStatistics()
            return self._statistics[table]

    @property
    def per_table_statistics(self) -> Mapping[str, ServingStatistics]:
        """Read-only view of the per-table statistics recorded so far."""
        with self._stats_lock:
            return dict(self._statistics)

    @property
    def statistics(self) -> ServingStatistics:
        """Service-wide aggregate of every table's serving statistics."""
        total = ServingStatistics()
        for stats in self.per_table_statistics.values():
            total.merge(stats)
        return total

    def reset_statistics(self) -> None:
        """Clear the serving statistics of every table."""
        with self._stats_lock:
            self._statistics.clear()

    def _breaker(self, table: str, tier: str) -> CircuitBreaker:
        key = (table, tier)
        with self._stats_lock:
            if key not in self._breakers:
                self._breakers[key] = CircuitBreaker(
                    self._policy.breaker_failure_threshold,
                    self._policy.breaker_reset_seconds,
                    self._clock,
                )
            return self._breakers[key]

    def breaker_state(self, table: str, tier: str) -> str:
        """The circuit-breaker state of a ``(table, tier)`` pair.

        ``tier`` is ``"exact"`` or ``"model"``; the state is one of
        ``"closed"``, ``"open"``, ``"half_open"``.
        """
        return self._breaker(table, tier).state

    # ------------------------------------------------------------------ #
    # norm resolution (per-table geometry)
    # ------------------------------------------------------------------ #
    def resolve_norm_order(self, table: str) -> float:
        """The Lp order statements against ``table`` default to.

        A registered model pins the geometry it was trained with
        (``model.config.norm_order``); tables without a model default to
        the Euclidean norm.  An explicit ``NORM p`` clause on a statement
        always wins over this default.
        """
        model = self._models.get(table)
        order = getattr(getattr(model, "config", None), "norm_order", None)
        if order is not None:
            return float(order)
        return DEFAULT_NORM_ORDER

    def _statement_query(self, statement: ParsedStatement) -> Query:
        return statement.to_query(self.resolve_norm_order(statement.table))

    def query_for(self, statement: ParsedStatement) -> Query:
        """The fully-resolved :class:`~repro.queries.query.Query` of a statement.

        Applies the per-table norm resolution (an explicit ``NORM p``
        clause wins, then the registered model's geometry, then Euclidean)
        — the canonical query the statement is executed and cached under.
        """
        return self._statement_query(statement)

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def execute(self, sql: str | ParsedStatement, *, mode: str = "hybrid"):
        """Parse and serve one statement, returning its bare value.

        Raises
        ------
        EmptySubspaceError
            When the exact subspace of a Q1/Q2 statement is empty (its
            answer is undefined) — the clean, always-on replacement for
            the seed front end's ``assert`` on the Q2 coefficients.
        Exception
            The original tier failure, when every tier of the statement's
            group failed (the script path attaches the same exception to
            the result instead of raising).
        """
        statement = (
            sql if isinstance(sql, ParsedStatement) else parse_statement(sql)
        )
        result = self.execute_script([statement], mode=mode)[0]
        if result.error is not None:
            raise result.error
        if result.empty and result.kind != "count":
            raise EmptySubspaceError(
                f"statement over table {result.table!r} selected no rows; its "
                f"exact {result.kind.upper()} answer is undefined"
            )
        return result.value

    def execute_script(
        self,
        script: str | Sequence[str | ParsedStatement],
        *,
        mode: str = "hybrid",
        on_error: str = "attach",
    ) -> list[StatementResult]:
        """Serve a multi-statement script through the batched fast paths.

        The script (a ``;``-separated string, or a sequence of statement
        strings / :class:`~repro.dbms.sqlfront.ParsedStatement` objects)
        is parsed, grouped by ``(table, kind)``, and every group is served
        in one batch: exact groups through ``execute_q1_batch`` /
        ``execute_q2_batch``, model groups through ``predict_mean_batch``
        / ``predict_q2_batch``, hybrid groups through the
        coverage-reporting model paths with a single batched exact
        fallback for the uncovered queries.  Results come back in
        statement order; empty exact subspaces follow the documented
        ``on_empty="null"`` contract (``value=None``, ``empty=True``)
        instead of raising mid-script.

        Fault containment: a runtime failure of one ``(table, kind)``
        group — an engine exception, a model exception, a timeout, an
        open circuit breaker with no surviving tier — is caught *per
        group*: with ``on_error="attach"`` (default) the affected
        statements come back as ``source="error"`` results carrying the
        exception, and every other group keeps serving; with
        ``on_error="raise"`` the first group failure propagates.  Parse
        and registry/configuration errors
        (:class:`~repro.exceptions.SQLSyntaxError`,
        :class:`~repro.exceptions.ConfigurationError`) always raise —
        they are caller bugs, not runtime faults.
        """
        if mode not in _MODES:
            raise SQLSyntaxError(
                f"unknown execution mode {mode!r} (expected one of {_MODES})"
            )
        if on_error not in _ON_ERROR:
            raise ConfigurationError(
                f"on_error must be one of {_ON_ERROR}, got {on_error!r}"
            )
        statements = self._parse_input(script)
        results: list[StatementResult | None] = [None] * len(statements)
        groups: dict[tuple[str, str], list[int]] = {}
        for position, statement in enumerate(statements):
            groups.setdefault((statement.table, statement.kind), []).append(position)
        for (table, kind), positions in groups.items():
            group_statements = [statements[i] for i in positions]
            queries = [self._statement_query(s) for s in group_statements]
            if self._query_log_size > 0:
                self.query_log_for(table).record_many(queries)
            counters = {"retries": 0}
            start = time.perf_counter()
            try:
                group_results = self._execute_group(
                    table, kind, group_statements, queries, mode, counters
                )
            except _CALLER_ERRORS:
                raise
            except Exception as exc:
                if on_error == "raise":
                    raise
                self._hub.publish(
                    "group.error", table, statement_kind=kind, error=repr(exc),
                    statements=len(group_statements),
                )
                group_results = [
                    StatementResult(
                        statement=statement, value=None, source="error", error=exc
                    )
                    for statement in group_statements
                ]
            elapsed = time.perf_counter() - start
            stats = self.statistics_for(table)
            with self._stats_lock:
                stats.record_batch(
                    len(group_results),
                    model_answered=sum(r.source == "model" for r in group_results),
                    exact_answered=sum(r.source == "exact" for r in group_results),
                    fallbacks=sum(r.source == "fallback" for r in group_results),
                    empties=sum(r.empty for r in group_results),
                    errors=sum(r.source == "error" for r in group_results),
                    degraded=sum(r.degraded for r in group_results),
                    retries=counters["retries"],
                    seconds=elapsed,
                )
            for position, result in zip(positions, group_results):
                results[position] = result
        return results  # type: ignore[return-value]

    @staticmethod
    def _parse_input(
        script: str | Sequence[str | ParsedStatement],
    ) -> list[ParsedStatement]:
        if isinstance(script, str):
            return parse_script(script)
        return [
            item if isinstance(item, ParsedStatement) else parse_statement(item)
            for item in script
        ]

    # ------------------------------------------------------------------ #
    # guarded tier invocation (retry + timeout + circuit breaker)
    # ------------------------------------------------------------------ #
    def _call_with_timeout(self, fn: Callable[[], object]) -> object:
        timeout = self._policy.timeout_seconds
        if timeout is None:
            return fn()
        if self._timeout_pool is None:
            self._timeout_pool = ThreadPoolExecutor(
                max_workers=4, thread_name_prefix="repro-serving-timeout"
            )
        future = self._timeout_pool.submit(fn)
        try:
            return future.result(timeout)
        except FuturesTimeoutError as exc:
            future.cancel()  # a running call keeps its worker; queued ones drop
            raise ServingTimeoutError(
                f"statement group exceeded the {timeout}s execution timeout"
            ) from exc

    def _call_tier(
        self,
        table: str,
        tier: str,
        fn: Callable[[], object],
        counters: dict,
    ) -> object:
        """Run one tier call under the breaker / retry / timeout policy.

        Transient failures (:class:`~repro.exceptions.TransientEngineError`
        and timeouts) retry with exponential backoff up to
        ``max_attempts``; every failure (transient or not) counts against
        the tier's circuit breaker, so a deterministic engine bug opens it
        just like a flaky one.  Caller errors pass through untouched.
        """
        breaker = self._breaker(table, tier)
        before = breaker.state
        if not breaker.allow():
            raise CircuitOpenError(
                f"the {tier} tier of table {table!r} is shedding load "
                f"(circuit open)",
                table=table,
                tier=tier,
            )
        if before == CircuitBreaker.OPEN and breaker.state == CircuitBreaker.HALF_OPEN:
            self._hub.publish("breaker.half_open", table, tier=tier)
        delay = self._policy.backoff_seconds
        attempt = 1
        while True:
            try:
                result = self._call_with_timeout(fn)
            except _CALLER_ERRORS:
                raise
            except TransientEngineError as exc:
                self._record_tier_failure(breaker, table, tier, exc)
                if attempt >= self._policy.max_attempts:
                    raise
                counters["retries"] += 1
                self._hub.publish(
                    "group.retry", table, tier=tier, attempt=attempt,
                    error=repr(exc),
                )
                if delay > 0.0:
                    time.sleep(delay)
                delay *= self._policy.backoff_multiplier
                attempt += 1
            except Exception as exc:
                self._record_tier_failure(breaker, table, tier, exc)
                raise
            else:
                before_state = breaker.state
                breaker.record_success()
                if before_state != CircuitBreaker.CLOSED:
                    self._hub.publish("breaker.closed", table, tier=tier)
                return result

    def _record_tier_failure(
        self,
        breaker: CircuitBreaker,
        table: str,
        tier: str,
        error: BaseException,
    ) -> None:
        before = breaker.state
        breaker.record_failure()
        if breaker.state == CircuitBreaker.OPEN and before != CircuitBreaker.OPEN:
            self._hub.publish("breaker.opened", table, tier=tier, error=repr(error))

    # ------------------------------------------------------------------ #
    # group execution paths
    # ------------------------------------------------------------------ #
    def _execute_group(
        self,
        table: str,
        kind: str,
        statements: list[ParsedStatement],
        queries: list[Query],
        mode: str,
        counters: dict,
    ) -> list[StatementResult]:
        if kind == "count":
            if mode == "model":
                raise SQLSyntaxError(
                    "COUNT(*) requires exact execution; the model does not "
                    "estimate cardinalities"
                )
            return self._execute_exact_group(
                table, kind, statements, queries, "exact", counters
            )
        if mode == "exact":
            return self._execute_exact_group(
                table, kind, statements, queries, "exact", counters
            )
        if mode == "model":
            return self._execute_model_group(
                table, kind, statements, queries, counters
            )
        # hybrid — capture the model reference once: a concurrent hot-swap
        # must never give one group two different models.
        model = self._models.get(table)
        if model is None:
            # No model to serve from: the whole group is exact (this is
            # deliberate registry state, not a coverage miss, so it does
            # not count toward the fallback rate).
            return self._execute_exact_group(
                table, kind, statements, queries, "exact", counters
            )
        if not getattr(model, "is_fitted", True):
            # A registered-but-untrained model covers nothing.
            return self._execute_exact_group(
                table, kind, statements, queries, "fallback", counters
            )
        return self._execute_hybrid_group(
            table, kind, statements, queries, model, counters
        )

    def _execute_exact_group(
        self,
        table: str,
        kind: str,
        statements: list[ParsedStatement],
        queries: list[Query],
        source: str,
        counters: dict,
    ) -> list[StatementResult]:
        engine = self.engine_for(table)
        results: list[StatementResult] = []
        if kind == "q2":
            answers = self._call_tier(
                table,
                "exact",
                lambda: engine.execute_q2_batch(queries, on_empty="null"),  # type: ignore[attr-defined]
                counters,
            )
            for statement, answer in zip(statements, answers):
                results.append(self._exact_q2_result(statement, answer, source))
            return results
        answers = self._call_tier(
            table,
            "exact",
            lambda: engine.execute_q1_batch(queries, on_empty="null"),  # type: ignore[attr-defined]
            counters,
        )
        if kind == "count":
            for statement, answer in zip(statements, answers):
                # The count of an empty subspace is a defined answer: 0.
                results.append(
                    StatementResult(
                        statement=statement,
                        value=0 if answer is None else int(answer.cardinality),
                        source=source,  # type: ignore[arg-type]
                    )
                )
            return results
        for statement, answer in zip(statements, answers):
            results.append(
                StatementResult(
                    statement=statement,
                    value=None if answer is None else float(answer.mean),
                    source=source,  # type: ignore[arg-type]
                    empty=answer is None,
                )
            )
        return results

    @staticmethod
    def _exact_q2_result(
        statement: ParsedStatement, answer: "QueryAnswer | None", source: str
    ) -> StatementResult:
        """Build the Q2 result of one exact answer.

        An empty subspace — or a (custom) engine handing back an answer
        without coefficients — is the documented empty answer, never an
        ``assert``: ``value=None`` with ``empty=True``, which the
        single-statement path converts into a clean
        :class:`~repro.exceptions.EmptySubspaceError`.
        """
        if answer is None or answer.coefficients is None:
            return StatementResult(
                statement=statement, value=None, source=source, empty=True  # type: ignore[arg-type]
            )
        intercept = float(answer.coefficients[0])
        slope = np.asarray(answer.coefficients[1:], dtype=float)
        return StatementResult(
            statement=statement, value=[(intercept, slope)], source=source  # type: ignore[arg-type]
        )

    def _execute_model_group(
        self,
        table: str,
        kind: str,
        statements: list[ParsedStatement],
        queries: list[Query],
        counters: dict,
    ) -> list[StatementResult]:
        model = self.model_for(table)
        if kind == "q1":
            values = self._call_tier(
                table,
                "model",
                lambda: model.predict_mean_batch(queries),  # type: ignore[attr-defined]
                counters,
            )
            return [
                StatementResult(statement=s, value=float(v), source="model")
                for s, v in zip(statements, values)
            ]
        plane_lists = self._call_tier(
            table,
            "model",
            lambda: model.predict_q2_batch(queries),  # type: ignore[attr-defined]
            counters,
        )
        return [
            StatementResult(
                statement=s,
                value=[(plane.intercept, plane.slope) for plane in planes],
                source="model",
            )
            for s, planes in zip(statements, plane_lists)
        ]

    def _execute_hybrid_group(
        self,
        table: str,
        kind: str,
        statements: list[ParsedStatement],
        queries: list[Query],
        model: object,
        counters: dict,
    ) -> list[StatementResult]:
        """Answer from the model; batch-fallback uncovered queries to exact.

        Coverage is the model's own confidence signal: a query whose
        overlap set ``W(q)`` is empty would be answered by extrapolation
        from the closest prototype, so the hybrid mode re-routes exactly
        those queries to the exact engine (when one is registered).

        Degradation: when the model tier fails (or its breaker is open)
        the whole group is served exact-only; when the exact fallback tier
        fails, uncovered queries are served from the model's extrapolated
        answers.  Either way the group answers — marked ``degraded`` —
        instead of erroring, as long as one tier survives.
        """
        try:
            if kind == "q1":
                values, covered = self._call_tier(
                    table,
                    "model",
                    lambda: model.predict_mean_batch_with_coverage(queries),  # type: ignore[attr-defined]
                    counters,
                )
                model_values: list = [float(v) for v in values]
            else:
                plane_lists, covered = self._call_tier(
                    table,
                    "model",
                    lambda: model.predict_q2_batch_with_coverage(queries),  # type: ignore[attr-defined]
                    counters,
                )
                model_values = [
                    [(plane.intercept, plane.slope) for plane in planes]
                    for planes in plane_lists
                ]
        except _CALLER_ERRORS:
            raise
        except Exception as exc:
            if table not in self._engines:
                raise
            # Model tier down: degrade the whole group to the exact tier.
            self._hub.publish(
                "group.degraded", table, statement_kind=kind, tier="model",
                reason=repr(exc), statements=len(statements),
            )
            exact_results = self._execute_exact_group(
                table, kind, statements, queries, "fallback", counters
            )
            return [replace(result, degraded=True) for result in exact_results]
        covered = np.asarray(covered, dtype=bool)
        if table not in self._engines:
            # No exact tier to fall back to: serve everything from the
            # model (uncovered queries get the extrapolated answer).
            return [
                StatementResult(statement=s, value=v, source="model")
                for s, v in zip(statements, model_values)
            ]
        results: list[StatementResult | None] = [None] * len(statements)
        uncovered = np.nonzero(~covered)[0]
        if uncovered.size:
            uncovered_statements = [statements[int(i)] for i in uncovered]
            uncovered_queries = [queries[int(i)] for i in uncovered]
            try:
                fallback_results = self._execute_exact_group(
                    table, kind, uncovered_statements, uncovered_queries,
                    "fallback", counters,
                )
            except _CALLER_ERRORS:
                raise
            except Exception as exc:
                # Exact tier down: serve the uncovered queries from the
                # model's extrapolated answers instead of failing them.
                self._hub.publish(
                    "group.degraded", table, statement_kind=kind, tier="exact",
                    reason=repr(exc), statements=len(uncovered_statements),
                )
                fallback_results = [
                    StatementResult(
                        statement=statements[int(i)],
                        value=model_values[int(i)],
                        source="model",
                        degraded=True,
                    )
                    for i in uncovered
                ]
            for position, result in zip(uncovered, fallback_results):
                results[int(position)] = result
        for position in np.nonzero(covered)[0]:
            index = int(position)
            results[index] = StatementResult(
                statement=statements[index],
                value=model_values[index],
                source="model",
            )
        return results  # type: ignore[return-value]
