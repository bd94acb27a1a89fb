"""Serving statistics: latency histograms, per-table counters and their views.

Both serving layers keep one :class:`ServingStatistics` per table:
:class:`~repro.dbms.serving.AnalyticsService` counts executed statement
groups, :class:`~repro.dbms.concurrent.ConcurrentAnalyticsService` counts
what its callers saw end to end (cache hits included).
:class:`PerTableStatistics` is that bookkeeping, shared by both.

The statistics mirror the engines'
:class:`~repro.dbms.executor.ExecutionStatistics` idiom: O(1) running
aggregates per table, mergeable into a service-wide view.  Each
:class:`ServingStatistics` guards its own counters, so a reader (the
lifecycle manager's drift tick, a checkpoint, a merged view) always copies a
whole record, never one half-updated by a concurrent flush.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from ..analysis.instrument import LockLike, make_lock, note_access
from ..exceptions import ConfigurationError

__all__ = ["LatencyHistogram", "ServingStatistics", "PerTableStatistics"]

#: Fixed bucket edges of :class:`LatencyHistogram`: eight log-spaced
#: buckets per decade from 100 ns to 100 s.  The edges are a module-level
#: constant, so every histogram shares the same bucketing and
#: :meth:`LatencyHistogram.merge` is exact — merging two histograms gives
#: byte-identical counts to recording both streams into one histogram.
_LATENCY_EDGES = np.logspace(-7.0, 2.0, num=9 * 8 + 1)
#: The same edges as Python floats, for bisecting one value without NumPy.
_LATENCY_EDGE_LIST = _LATENCY_EDGES.tolist()


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
        # bisect_left picks the bucket np.searchsorted(side="left") would.
        self.counts[bisect.bisect_left(_LATENCY_EDGE_LIST, seconds)] += count

    def record_many(self, seconds: Sequence[float]) -> None:
        """Add one observation per entry of a latency sequence.

        A single latency (a lone flush's) takes :meth:`record`'s bisect,
        which costs a fraction of a NumPy round trip; longer sequences
        take one vectorised search.
        """
        if len(seconds) == 1:
            self.counts[bisect.bisect_left(_LATENCY_EDGE_LIST, seconds[0])] += 1
            return
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


#: The counters :meth:`ServingStatistics.merge` adds (``max_coalesce_width``
#: merges by maximum, the histogram by bucket).
_ADDITIVE_COUNTERS = (
    "statements_executed",
    "batches_executed",
    "model_answered",
    "exact_answered",
    "fallback_count",
    "empty_count",
    "error_count",
    "degraded_count",
    "retry_count",
    "cache_hits",
    "coalesced_batches",
    "coalesce_width_sum",
)


@dataclass
class ServingStatistics:
    """Cumulative serving statistics of one table (or of the whole service).

    Only O(1) running aggregates are kept, so recording a statement stream
    of any length costs constant memory.  ``model_answered`` /
    ``exact_answered`` / ``fallback_count`` / ``error_count`` /
    ``cache_hits`` partition the recorded statements by answer source (a
    fallback is a hybrid statement the model could not cover, so it was
    re-routed to the exact engine; an error is a statement whose every tier
    failed, answered with the exception attached; a cache hit is a
    statement the concurrent front answered from its answer cache without
    executing).  ``degraded_count`` counts statements served by a
    surviving tier after their preferred tier failed, and ``retry_count``
    counts transient-failure retries spent serving the stream.

    The concurrent front adds the coalescing counters
    (``coalesced_batches`` — batches merged from more than one submission,
    ``coalesce_width_sum`` / ``max_coalesce_width`` — how many submissions
    each batch merged).  Per-statement latency goes to a fixed-bucket
    :class:`LatencyHistogram` behind :attr:`p50_seconds` /
    :attr:`p99_seconds` — fixed buckets keep :meth:`merge` exact.

    Thread-safe: recording, merging, snapshots and serialisation all hold
    the object's own lock, so every copy is a whole record.
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
    latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    _lock: LockLike = field(
        default_factory=lambda: make_lock("stats.ServingStatistics"),
        init=False,
        repr=False,
        compare=False,
    )

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

        ``coalesce_width`` is the number of separate submissions the group
        merged (1 for an uncoalesced batch).  ``latency_seconds``
        optionally supplies true per-statement latencies (the concurrent
        front's enqueue-to-answer times) for the percentile histogram;
        without it the amortised share ``seconds / count`` of the group
        wall-clock time is recorded ``count`` times, matching the engines'
        batched accounting.
        """
        if count <= 0:
            return
        with self._lock:
            note_access(self, "counters")
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
            if latency_seconds is not None:
                self.latency.record_many(latency_seconds)
            else:
                self.latency.record(seconds / count, count)

    def record_results(
        self,
        results: Sequence,
        *,
        seconds: float,
        retries: int = 0,
        coalesce_width: int = 1,
        latency_seconds: "Sequence[float] | None" = None,
    ) -> None:
        """Record one executed group of :class:`~repro.dbms.serving.StatementResult`.

        The one place executed results are partitioned by ``source``.  The
        concurrent front records its cache hits as ``cache_hits``, so the
        five partition counters always sum to ``statements_executed``.
        """
        sources = [r.source for r in results]
        self.record_batch(
            len(sources),
            model_answered=sources.count("model"),
            exact_answered=sources.count("exact"),
            fallbacks=sources.count("fallback"),
            errors=sources.count("error"),
            empties=sum(r.empty for r in results),
            degraded=sum(r.degraded for r in results),
            retries=retries,
            coalesce_width=coalesce_width,
            seconds=seconds,
            latency_seconds=latency_seconds,
        )

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
        stats = self.snapshot()
        metrics = {
            name: float(getattr(stats, name))
            for name in (*_ADDITIVE_COUNTERS, "max_coalesce_width")
        }
        metrics.update(
            fallback_rate=stats.fallback_rate,
            error_rate=stats.error_rate,
            cache_hit_rate=stats.cache_hit_rate,
            mean_coalesce_width=stats.mean_coalesce_width,
            p50_seconds=stats.p50_seconds,
            p99_seconds=stats.p99_seconds,
        )
        return {f"{prefix}{name}": value for name, value in metrics.items()}

    def to_dict(self) -> dict:
        """Serialise every counter (JSON-safe) for the durability checkpoint."""
        with self._lock:
            note_access(self, "counters", write=False)
            payload: dict = {
                name: getattr(self, name)
                for name in (*_ADDITIVE_COUNTERS, "max_coalesce_width")
            }
            payload["latency_counts"] = [int(c) for c in self.latency.counts]
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ServingStatistics":
        """Rebuild statistics serialised by :meth:`to_dict`.

        Keys this version does not keep (older checkpoints carried
        wall-clock totals and extrema) are ignored.
        """
        counts = payload.get("latency_counts")
        return cls(
            **{
                name: int(payload.get(name, 0))
                for name in (*_ADDITIVE_COUNTERS, "max_coalesce_width")
            },
            latency=(
                LatencyHistogram()
                if counts is None
                else LatencyHistogram(np.asarray(counts, dtype=np.int64))
            ),
        )

    def merge(self, other: "ServingStatistics") -> None:
        """Fold another statistics object into this one (counters add).

        The donor is copied under its own lock first, so a live donor never
        contributes a half-updated record and no two locks are ever nested.
        """
        donor = other.snapshot()
        with self._lock:
            note_access(self, "counters")
            for name in _ADDITIVE_COUNTERS:
                setattr(self, name, getattr(self, name) + getattr(donor, name))
            self.max_coalesce_width = max(
                self.max_coalesce_width, donor.max_coalesce_width
            )
            self.latency.merge(donor.latency)

    def snapshot(self) -> "ServingStatistics":
        """A point-in-time copy (drift windows diff successive snapshots)."""
        with self._lock:
            note_access(self, "counters", write=False)
            return replace(self, latency=self.latency.copy())


class PerTableStatistics:
    """The per-table :class:`ServingStatistics` of a service, and their views.

    A mixin: :class:`~repro.dbms.serving.AnalyticsService` and
    :class:`~repro.dbms.concurrent.ConcurrentAnalyticsService` both call
    :meth:`_init_statistics` from their constructors and inherit the four
    public views below.
    """

    def _init_statistics(self, lock_name: str) -> None:
        self._statistics: dict[str, ServingStatistics] = {}
        self._statistics_lock = make_lock(lock_name)

    def statistics_for(self, table: str) -> ServingStatistics:
        """The per-table statistics (created on first access)."""
        with self._statistics_lock:
            stats = self._statistics.get(table)
            if stats is None:
                stats = self._statistics[table] = ServingStatistics()
            return stats

    @property
    def per_table_statistics(self) -> Mapping[str, ServingStatistics]:
        """Read-only view of the per-table statistics recorded so far."""
        with self._statistics_lock:
            return dict(self._statistics)

    @property
    def statistics(self) -> ServingStatistics:
        """Aggregate of every table's statistics (exact merge, histograms too)."""
        total = ServingStatistics()
        for stats in self.per_table_statistics.values():
            total.merge(stats)
        return total

    def reset_statistics(self) -> None:
        """Drop the statistics of every table."""
        with self._statistics_lock:
            self._statistics.clear()
