"""Concurrent serving front: fan-out, self-clocked coalescer, answer cache.

The batched serving layer (:class:`~repro.dbms.serving.AnalyticsService`)
is synchronous and single-caller: one script at a time, one batch per
``(table, kind)`` group of *that script*.  The paper's pitch — analytics
at interactive latency for many users — needs the opposite shape: many
concurrent sessions, whose statements are *merged* rather than serialised,
because every batch path in this codebase gets cheaper per statement as
batches grow.  :class:`ConcurrentAnalyticsService` is that front.  It adds
three mechanisms on top of an ordinary service, all transparent to the
statement semantics:

**Admission control.**  Submissions are accepted onto a bounded queue of
pending statements (:attr:`ConcurrencyPolicy.max_pending_statements`).
When the bound would be exceeded the submission is rejected with a typed
:class:`~repro.exceptions.ServiceOverloadedError` instead of queueing
without bound — bounded queues trade a clean, retryable rejection for the
unbounded latency collapse of an overloaded server.

**Self-clocked coalescer.**  Admitted statements are grouped by
``(table, kind, mode)``.  Each admitted script decides once whether the
front is busy: whether any flush is in flight.  A script admitted to an
*idle* front flushes all of its groups at once, since no other session is
active to join them, and it flushes them on the submitting thread, one
after another, before :meth:`~ConcurrentAnalyticsService.submit_script`
returns: like a group-commit leader, the first arrival does the work
itself instead of paying a hand-off to a worker.  On a busy front its
statements wait in their groups, and the flush that leaves nothing in
flight hands every waiting group to the worker pool at once, as one
round: each group executes as **one** batch through the inner service's
``execute_*_batch`` / ``predict_*_batch`` paths.  No timer decides when a
batch is full.  The flushes in flight clock it, so a batch grows with the
arrival rate times the flush time, as a group-commit leader flushes the
queue that formed during the previous flush (Helland et al., HPTS 1987;
MySQL's binary-log group commit, whose extra delay defaults to 0).  The
clock is front-wide: a round waits for every flush in flight, not only
its own group's.  A flush on a client's thread hands its round to the
pool; it never runs it.  A flush stops counting as in flight before it
answers its callers, so a lone client woken by its answer finds the front
idle.  Results are demultiplexed back to each caller in submission order
with per-statement ``degraded`` / ``error`` flags preserved — fault
containment stays per group, so a mid-batch tier failure errors only the
statements of the affected ``(table, kind)`` group, never co-batched
statements of other groups.  A round splits a group larger than
:attr:`~ConcurrencyPolicy.max_batch_statements` into runs of at most that
size, which bounds a batch's memory.  A script's statements join their
groups under one lock hold, so a flush takes all of a script's statements
of its group or none (short of the batch cap).

**Version-keyed answer cache.**  Repeated dashboard traffic is
short-circuited by an :class:`AnswerCache` keyed on the canonicalised
query (vector + norm order), the statement kind, the execution mode and
the table's ``(model_version, registry_epoch)`` pair.  A repeated hit
allocates no result and takes one cache lock per script: a statement text
seen before skips the parser (:func:`~repro.dbms.sqlfront.parse_statement`
is memoized) and brings its key bytes packed once, a script reads all its
tables' registry snapshots under one registry lock
(:meth:`~repro.dbms.serving.AnalyticsService.registry_snapshots`, which
keeps a table's snapshot until its registry changes), and
:meth:`AnswerCache.lookup` finds all of the script's keys under one lock.
An entry holds the ``cached=True`` result of its answer, built once when
the flush caches it, and a hit's :class:`ScriptFuture` slot holds that
very object (a copy carrying the caller's statement when another text has
the same key).  Only misses get a future and count as pending.  The epoch
(:meth:`~repro.dbms.serving.AnalyticsService.registry_epoch_for`) advances
on every model hot-swap and engine registration, so a swap — or a
rollback restoring an older version marker — invalidates naturally: a key
minted under an earlier epoch can never match a later lookup.  Entries are
additionally dropped eagerly when the service publishes ``model.swapped``
through its :class:`~repro.dbms.observer.ObserverHub` (the lifecycle
manager's hot-swap event), bounding the dead-entry footprint.  Only clean
answers are cached (no errors, nothing degraded), and a flush that raced a
swap (epoch moved while it executed) skips cache population entirely.

Statistics: the front keeps its own per-table
:class:`~repro.dbms.stats.ServingStatistics` — end-to-end
(enqueue-to-answer) latency percentiles via the fixed-bucket histogram,
cache hits and coalesce widths — while the inner service's statistics keep
measuring pure execution, which is what the lifecycle manager's drift
windows must see (cache hits never mask drift: they bypass the inner
statistics entirely, and a swap empties the cache).
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future, InvalidStateError, ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Sequence

from ..analysis.instrument import make_lock, note_access
from ..config import require_integer
from ..exceptions import ServiceClosedError, ServiceOverloadedError
from .serving import (
    CALLER_ERRORS,
    AnalyticsService,
    RegistrySnapshot,
    StatementResult,
    prepare_script,
)
from .sqlfront import ParsedStatement
from .stats import PerTableStatistics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..testing.faults import FaultInjector

__all__ = [
    "ConcurrencyPolicy",
    "AnswerCache",
    "ScriptFuture",
    "ConcurrentAnalyticsService",
]


@dataclass(frozen=True)
class ConcurrencyPolicy:
    """Tuning of the concurrent serving front.

    Attributes
    ----------
    max_workers:
        Worker threads executing a busy front's rounds: a round's groups
        run up to this many at a time.  The numpy batch kernels release
        the GIL, so on multi-core hosts groups genuinely overlap.  A script
        admitted to an idle front flushes on its submitting thread, so a
        lone client uses no worker.
    max_pending_statements:
        Admission bound: statements admitted but not yet answered.  A
        submission that would exceed it raises
        :class:`~repro.exceptions.ServiceOverloadedError`.
    max_batch_statements:
        The most statements one flush executes: a round splits a larger
        group into runs of at most this size (bounds per-batch memory).
        It never makes a group flush sooner.
    cache_capacity:
        Answer-cache entries retained (LRU eviction); ``0`` disables the
        cache entirely.
    """

    max_workers: int = 4
    max_pending_statements: int = 4096
    max_batch_statements: int = 1024
    cache_capacity: int = 4096

    def __post_init__(self) -> None:
        require_integer("max_workers", self.max_workers, 1)
        require_integer("max_pending_statements", self.max_pending_statements, 1)
        require_integer("max_batch_statements", self.max_batch_statements, 1)
        require_integer("cache_capacity", self.cache_capacity, 0)


class AnswerCache:
    """A thread-safe LRU answer cache.

    Keys are opaque hashable tuples whose first component is the table
    name (so :meth:`invalidate` can drop one table's entries); values are
    the ``cached=True`` :class:`~repro.dbms.serving.StatementResult` of a
    clean execution, built once when the flush caches it.  Capacity is
    enforced by least-recently-*used* eviction.  Entries need no expiry:
    an engine answers from the rows it loaded, and every registration that
    could change an answer bumps the registry epoch in the key.
    """

    def __init__(self, capacity: int = 4096) -> None:
        require_integer("capacity", capacity, 1)
        self._capacity = int(capacity)
        self._entries: OrderedDict[tuple, StatementResult] = OrderedDict()
        self._lock = make_lock("concurrent.AnswerCache")
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def lookup(self, keys: Sequence[tuple | None]) -> list[StatementResult | None]:
        """The cached result under each key, ``None`` on a miss.

        One lock acquisition serves a whole script.  A ``None`` key (an
        uncacheable statement) is answered ``None`` and counts as neither
        a hit nor a miss.
        """
        found: list[StatementResult | None] = []
        with self._lock:
            note_access(self, "entries")
            entries = self._entries
            for key in keys:
                result = None if key is None else entries.get(key)
                if result is not None:
                    entries.move_to_end(key)
                    self.hits += 1
                elif key is not None:
                    self.misses += 1
                found.append(result)
        return found

    def put(self, key: tuple, result: StatementResult) -> None:
        """Insert (or refresh) an entry, evicting the LRU tail at capacity."""
        with self._lock:
            note_access(self, "entries")
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = result
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def invalidate(self, table: str | None = None) -> int:
        """Drop one table's entries (or everything); returns the count."""
        with self._lock:
            note_access(self, "entries")
            if table is None:
                dropped = len(self._entries)
                self._entries.clear()
            else:
                stale = [k for k in self._entries if k[0] == table]
                for key in stale:
                    del self._entries[key]
                dropped = len(stale)
            self.invalidations += dropped
            return dropped


class ScriptFuture:
    """The results of one submitted script (statement order kept).

    Each slot holds a ready :class:`~repro.dbms.serving.StatementResult`
    (a cache hit) or the future of an admitted statement.
    """

    def __init__(
        self,
        slots: "list[StatementResult | Future[StatementResult]]",
        on_error: str,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._slots = slots
        self._on_error = on_error
        self._clock = clock

    def __len__(self) -> int:
        return len(self._slots)

    def done(self) -> bool:
        """Whether every statement of the script has been answered."""
        return all(
            not isinstance(slot, Future) or slot.done() for slot in self._slots
        )

    def result(self, timeout: float | None = None) -> list[StatementResult]:
        """Block until every statement is answered; results in order.

        With ``on_error="raise"`` the first attached statement error is
        re-raised (mirroring the inner service's script contract); caller
        errors (syntax / configuration) always raise.  ``timeout`` bounds
        the *total* wait across the script, measured on the service's
        injected clock so fault/timeout tests stay deterministic.
        """
        deadline = None if timeout is None else self._clock() + timeout
        results: list[StatementResult] = []
        for slot in self._slots:
            if isinstance(slot, Future):
                remaining = (
                    None if deadline is None else max(0.0, deadline - self._clock())
                )
                slot = slot.result(remaining)
            results.append(slot)
        if self._on_error == "raise":
            for result in results:
                if result.error is not None:
                    raise result.error
        return results


class _PendingEntry:
    """One admitted statement waiting in (or flushing from) the coalescer."""

    __slots__ = ("statement", "key", "future", "origin", "enqueued_at")

    def __init__(
        self,
        statement: ParsedStatement,
        key: tuple | None,
        future: "Future[StatementResult]",
        origin: int,
        enqueued_at: float,
    ) -> None:
        self.statement = statement
        self.key = key
        self.future = future
        self.origin = origin
        self.enqueued_at = enqueued_at


class ConcurrentAnalyticsService(PerTableStatistics):
    """Concurrent, coalescing, caching front over an :class:`AnalyticsService`.

    Parameters
    ----------
    service:
        The inner (synchronous) serving layer; registry, guarded tier
        execution, degradation and statistics all stay its job.  An
        omitted service gets a private empty one (register tables through
        the delegating ``register_*`` methods).
    policy:
        The :class:`ConcurrencyPolicy` (workers, admission bound, batch
        cap, cache sizing).
    injector:
        Optional :class:`~repro.testing.faults.FaultInjector` fired at
        ``"concurrent.flush"`` and ``"concurrent.flush.{table}"`` before
        each batch executes — the fault-matrix surface proving a mid-batch
        failure stays contained to its group.
    clock:
        Monotonic clock used for latency accounting and script-result
        deadlines (injectable for deterministic tests).

    The front is itself a valid session backend: it exposes the same
    ``execute`` / ``execute_script`` / registry surface as the inner
    service, so an :class:`~repro.dbms.sqlfront.AnalyticsSession` attaches
    to either interchangeably.
    """

    #: Fault points fired inside the coalescer's flush path.
    FAULT_POINTS = ("concurrent.flush",)

    def __init__(
        self,
        service: AnalyticsService | None = None,
        *,
        policy: ConcurrencyPolicy | None = None,
        injector: "FaultInjector | None" = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._service = service if service is not None else AnalyticsService()
        self._policy = policy or ConcurrencyPolicy()
        self._injector = injector
        self._clock = clock
        self._pool = ThreadPoolExecutor(
            max_workers=self._policy.max_workers,
            thread_name_prefix="repro-concurrent",
        )
        # Statements waiting for the next round, by group (guarded by the
        # groups lock).  They wait only while a flush is in flight, so the
        # flush that leaves nothing in flight finds them all here.
        self._groups: dict[tuple[str, str, str], list[_PendingEntry]] = {}
        self._groups_lock = make_lock(
            "concurrent.ConcurrentAnalyticsService.groups"
        )
        # Flushes running or queued on the pool (guarded by the groups
        # lock): the front is busy while this is nonzero.
        self._in_flight = 0
        # Admitted statements whose future has not resolved yet: the one
        # pending count (admission bound, drain wait, ``pending_statements``).
        self._outstanding: set[Future] = set()
        self._outstanding_cond = threading.Condition(
            make_lock("concurrent.ConcurrentAnalyticsService.outstanding")
        )
        self._origins = itertools.count()
        self._closed = False
        self._init_statistics("concurrent.ConcurrentAnalyticsService.stats")
        self._cache: AnswerCache | None = None
        self._swap_observer = None
        if self._policy.cache_capacity > 0:
            self._cache = AnswerCache(self._policy.cache_capacity)
            # Eager invalidation on hot-swap: the epoch in the key already
            # guarantees correctness, this just reclaims dead entries.
            cache = self._cache

            class _SwapInvalidator:
                def notify(self, event) -> None:
                    if event.kind == "model.swapped":
                        cache.invalidate(event.table)

            self._swap_observer = _SwapInvalidator()
            self._service.observers.subscribe(self._swap_observer)

    # ------------------------------------------------------------------ #
    # lifecycle / registry delegation (session-façade compatibility)
    # ------------------------------------------------------------------ #
    @property
    def service(self) -> AnalyticsService:
        """The inner synchronous serving layer."""
        return self._service

    @property
    def cache(self) -> AnswerCache | None:
        """The answer cache (``None`` when disabled)."""
        return self._cache

    @property
    def observers(self):
        """The inner service's observer hub."""
        return self._service.observers

    @property
    def tables(self) -> list[str]:
        """All table names known to the inner service."""
        return self._service.tables

    @property
    def pending_statements(self) -> int:
        """Statements admitted but not yet answered."""
        with self._outstanding_cond:
            return len(self._outstanding)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def register_engine(self, table: str, engine: object) -> None:
        """Attach an exact engine (delegates; bumps the registry epoch)."""
        self._service.register_engine(table, engine)

    def register_model(self, table: str, model: object) -> None:
        """Attach a trained model (delegates; bumps the registry epoch)."""
        self._service.register_model(table, model)

    def swap_model(
        self, table: str, model: object, *, version: object = None
    ) -> object | None:
        """Atomically swap a table's model (delegates to the inner service)."""
        return self._service.swap_model(table, model, version=version)

    def close(self, *, drain_seconds: float | None = None) -> None:
        """Stop accepting work, drain admitted statements, shut the pool down.

        New submissions fail synchronously with
        :class:`~repro.exceptions.ServiceClosedError` from the moment this
        is called.  Statements already admitted are *drained*: every
        coalescer group still waiting goes to the pool at once, as a round
        (nothing new can join it), and the close blocks until they answer,
        bounded by ``drain_seconds`` when given (no bound waits them out).
        Any future still unresolved when the drain window ends gets
        :class:`~repro.exceptions.ServiceClosedError` attached — a
        :class:`ScriptFuture` therefore always resolves across a shutdown,
        never hangs.  A flush running on its submitter's thread (an idle
        front's) keeps that thread until it finishes: the close answers its
        statements with the error, but cannot return their
        :meth:`submit_script` call early.  Idempotent.
        """
        first_close = not self._closed
        self._closed = True
        if first_close:
            with self._groups_lock:
                note_access(self, "groups")
                runs = self._take_runs(self._groups)
            self._submit_round(runs)
        deadline = None if drain_seconds is None else self._clock() + drain_seconds
        with self._outstanding_cond:
            while self._outstanding:
                if deadline is None:
                    self._outstanding_cond.wait(0.05)
                    continue
                remaining = deadline - self._clock()
                if remaining <= 0.0:
                    break
                self._outstanding_cond.wait(min(remaining, 0.05))
        # No queued flush runs after this.  Whatever is still pending —
        # a flush outliving the drain window, a cancelled queued flush —
        # resolves with a typed error instead of hanging its caller
        # forever; resolving a future is what stops it counting as pending.
        self._pool.shutdown(wait=False, cancel_futures=True)
        with self._outstanding_cond:
            note_access(self, "outstanding", write=False)
            stragglers = list(self._outstanding)
        if stragglers:
            exc = ServiceClosedError(
                f"{len(stragglers)} statements were still pending when the "
                f"concurrent serving front closed"
            )
            for future in stragglers:
                try:
                    future.set_exception(exc)
                except InvalidStateError:  # lost a benign race to a flush
                    pass
        else:
            self._pool.shutdown(wait=True)  # join the idle workers
        if self._swap_observer is not None:
            self._service.observers.unsubscribe(self._swap_observer)
            self._swap_observer = None

    def __enter__(self) -> "ConcurrentAnalyticsService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #
    def submit_script(
        self,
        script: str | Sequence[str | ParsedStatement],
        *,
        mode: str = "hybrid",
        on_error: str = "attach",
    ) -> ScriptFuture:
        """Admit a script and return its :class:`ScriptFuture`.

        Statements are parsed on the calling thread, a text seen before
        from the parse memo (parse errors raise here, synchronously),
        answered from the cache where possible, and otherwise enqueued into
        the coalescer.  The whole script takes one registry lock and one
        cache lock, and a hit of a repeated text allocates no result: it
        is the entry's stored one.  The returned future yields the same
        per-statement :class:`~repro.dbms.serving.StatementResult` list as
        the inner service's ``execute_script`` — cache hits carry the
        caller's statement and ``cached=True``.

        When the script's misses reach a busy front (a flush in flight),
        this returns at once: they wait in their groups for the round that
        the last flush in flight hands to the pool.  On an idle front the
        calling thread executes the script's groups itself before
        returning, so the future is already done: a lone client pays no
        hand-off, and neither :meth:`ScriptFuture.result`'s ``timeout``
        nor :meth:`close`'s ``drain_seconds`` can cut that execution
        short.  Statement errors and caller errors of an executed group
        are attached to the future either way, never raised from here.

        Raises
        ------
        SQLSyntaxError
            When a statement's dimension differs from its table's, or a
            statement without ``NORM`` has a ``radius ** p`` that is not a
            normal positive float64 under its table's default order.
        ServiceOverloadedError
            When admitting the script's uncached statements would exceed
            :attr:`ConcurrencyPolicy.max_pending_statements`.
        Nothing of the script is admitted when either is raised.
        """
        if self._closed:
            raise ServiceClosedError(
                "the concurrent serving front has been closed"
            )
        statements = prepare_script(script, mode=mode, on_error=on_error)
        lookup_start = self._clock()
        snapshots = self._service.registry_snapshots(statements)
        cache = self._cache
        keys: list[tuple | None]
        found: list[StatementResult | None]
        if cache is None:
            keys = found = [None] * len(statements)
        else:
            keys = [
                self._cache_key(statement, mode, snapshots[statement.table])
                for statement in statements
            ]
            found = cache.lookup(keys)
        slots: list[StatementResult | Future[StatementResult]] = []
        hits: list[StatementResult] = []
        misses: list[tuple[ParsedStatement, tuple | None, Future]] = []
        for statement, key, cached in zip(statements, keys, found):
            if cached is not None:
                # The entry carries the statement that first missed; the
                # memo hands a repeated text that very object.
                if cached.statement is not statement:
                    cached = replace(cached, statement=statement)
                slots.append(cached)
                hits.append(cached)
            else:
                future: Future[StatementResult] = Future()
                slots.append(future)
                misses.append((statement, key, future))
        # Admission control happens before anything is recorded or
        # enqueued, so a rejected script is rejected whole.
        if misses:
            self._admit([future for _, _, future in misses])
        if hits:
            elapsed = self._clock() - lookup_start
            by_table: dict[str, list[StatementResult]] = {}
            for result in hits:
                by_table.setdefault(result.table, []).append(result)
            for table, results in by_table.items():
                self.statistics_for(table).record_batch(
                    len(results),
                    cache_hits=len(results),
                    empties=sum(r.empty for r in results),
                    seconds=elapsed * len(results) / len(hits),
                )
        if misses:
            origin = next(self._origins)
            now = self._clock()
            groups: dict[tuple[str, str, str], list[_PendingEntry]] = {}
            for statement, key, future in misses:
                groups.setdefault((statement.table, statement.kind, mode), []).append(
                    _PendingEntry(statement, key, future, origin, now)
                )
            self._enqueue(groups)
        return ScriptFuture(slots, on_error, clock=self._clock)

    def execute_script(
        self,
        script: str | Sequence[str | ParsedStatement],
        *,
        mode: str = "hybrid",
        on_error: str = "attach",
        timeout: float | None = None,
    ) -> list[StatementResult]:
        """Submit a script and block for its results (submission order).

        ``timeout`` bounds the wait for a busy front's pool; a script
        admitted to an idle front has run by the time the wait starts.
        """
        return self.submit_script(script, mode=mode, on_error=on_error).result(
            timeout
        )

    def execute(
        self,
        sql: str | ParsedStatement,
        *,
        mode: str = "hybrid",
        timeout: float | None = None,
    ):
        """Serve one statement, returning its bare value (service contract).

        Mirrors :meth:`AnalyticsService.execute`
        (:meth:`~repro.dbms.serving.StatementResult.value_or_raise`).
        """
        result = self.execute_script([sql], mode=mode, timeout=timeout)[0]
        return result.value_or_raise()

    # ------------------------------------------------------------------ #
    # admission / cache keys
    # ------------------------------------------------------------------ #
    def _admit(self, futures: "list[Future[StatementResult]]") -> None:
        """Count a script's uncached statements as pending, or reject them all.

        Each statement stops counting exactly once: when its future
        resolves, whichever path (flush, close, enqueue failure) resolves
        it.
        """
        limit = self._policy.max_pending_statements
        with self._outstanding_cond:
            note_access(self, "outstanding")
            pending = len(self._outstanding)
            if pending + len(futures) > limit:
                raise ServiceOverloadedError(
                    f"admitting {len(futures)} statements would exceed the "
                    f"pending bound ({pending} in flight, limit {limit}); "
                    f"retry later",
                    pending=pending,
                    limit=limit,
                )
            self._outstanding.update(futures)
        for future in futures:
            future.add_done_callback(self._forget)

    def _forget(self, future: "Future[StatementResult]") -> None:
        with self._outstanding_cond:
            note_access(self, "outstanding")
            self._outstanding.discard(future)
            if not self._outstanding:
                self._outstanding_cond.notify_all()

    @staticmethod
    def _resolve(
        future: "Future[StatementResult]",
        result: StatementResult | None = None,
        exc: BaseException | None = None,
    ) -> None:
        """Resolve a statement future, tolerating a close() that beat us.

        ``close`` attaches :class:`~repro.exceptions.ServiceClosedError`
        to futures still pending after the drain window; a flush finishing
        just after loses that race benignly — the caller already has a
        resolved (failed) future, and re-resolution would raise
        :class:`concurrent.futures.InvalidStateError`.
        """
        try:
            if exc is not None:
                future.set_exception(exc)
            else:
                future.set_result(result)
        except InvalidStateError:
            pass

    @staticmethod
    def _cache_key(
        statement: ParsedStatement, mode: str, snapshot: RegistrySnapshot
    ) -> tuple | None:
        """The versioned cache key of a statement, ``None`` when uncacheable.

        The query part is the statement's resolved norm order and its
        :attr:`~repro.dbms.sqlfront.ParsedStatement.vector_bytes`, the
        bytes of ``service.query_for(statement).to_vector()``, which a
        memoized statement packs once for every lookup of its text.
        """
        try:
            hash(snapshot.model_version)
        except TypeError:
            return None  # exotic unhashable version markers: skip caching
        return (
            statement.table,
            statement.kind,
            mode,
            snapshot.model_version,
            snapshot.registry_epoch,
            snapshot.norm_order
            if statement.norm_order is None
            else statement.norm_order,
            statement.vector_bytes,
        )

    # ------------------------------------------------------------------ #
    # coalescer
    # ------------------------------------------------------------------ #
    def _enqueue(
        self, groups: dict[tuple[str, str, str], list[_PendingEntry]]
    ) -> None:
        """Add one script's statements to the coalescer under one lock hold.

        The script decides here, once, whether the front is busy.  On a
        busy front (a flush in flight) its statements wait in their groups
        for the round that the last flush in flight hands to the pool.  On
        an idle front no other session is active to join its groups, so
        the caller flushes all of them itself, one after another, before
        :meth:`submit_script` returns; they count as in flight while they
        run, so a session arriving meanwhile waits for them.  Either way a
        flush taking a group sees all of the script's statements of it or
        none (short of the batch cap).
        """
        with self._groups_lock:
            note_access(self, "groups")
            # After close() took its round, nothing may wait: a cancelled
            # flush drops its count inside the pool's shutdown, where
            # handing the pool a round would deadlock.  So a script that
            # raced close() flushes as on an idle front.
            if self._in_flight and not self._closed:
                for group_key, entries in groups.items():
                    self._groups.setdefault(group_key, []).extend(entries)
                return
            runs = self._take_runs(groups)
        # The caller is the only session: handing its flushes to the pool
        # would cost it a thread wake-up per script, so it runs them itself,
        # as a group-commit leader flushes its own log.
        for ran, (group_key, batch) in enumerate(runs, 1):
            try:
                self._run_flush(group_key, batch)
            except BaseException as exc:
                # An interrupt on the caller's thread: the flushes it never
                # reached answer with it, so no close() waits on them.
                self._abandon(runs[ran:], exc)
                raise

    def _take_runs(
        self, groups: dict[tuple[str, str, str], list[_PendingEntry]]
    ) -> list[tuple[tuple[str, str, str], list[_PendingEntry]]]:
        """Empty ``groups`` into runs of at most ``max_batch_statements``.

        The runs count as in flight from here; the caller holds the groups
        lock.
        """
        cap = self._policy.max_batch_statements
        runs = [
            (group_key, entries[start : start + cap])
            for group_key, entries in groups.items()
            for start in range(0, len(entries), cap)
        ]
        groups.clear()
        self._in_flight += len(runs)
        return runs

    def _submit_round(
        self, runs: list[tuple[tuple[str, str, str], list[_PendingEntry]]]
    ) -> None:
        """Hand counted runs to the pool, ``max_workers`` of them at a time.

        A run that :meth:`close` cancels before it starts never executes,
        so its count drops when it is cancelled instead.  A pool that is
        already shut down answers the runs it refuses with the typed
        closed error.
        """
        for submitted, (group_key, batch) in enumerate(runs):
            try:
                task = self._pool.submit(self._run_flush, group_key, batch)
            except RuntimeError:
                self._abandon(
                    runs[submitted:],
                    ServiceClosedError(
                        "the concurrent serving front closed while the "
                        "statement waited to flush"
                    ),
                )
                return
            task.add_done_callback(self._drop_if_cancelled)

    def _abandon(
        self,
        runs: list[tuple[tuple[str, str, str], list[_PendingEntry]]],
        exc: BaseException,
    ) -> None:
        """Answer with ``exc`` every entry of counted runs that never execute."""
        self._flush_finished(len(runs))
        for _, batch in runs:
            for entry in batch:
                self._resolve(entry.future, exc=exc)

    def _drop_if_cancelled(self, task: Future) -> None:
        if task.cancelled():
            self._flush_finished()

    def _flush_finished(self, flushes: int = 1) -> None:
        """Stop counting ``flushes`` as in flight.

        The flush that leaves nothing in flight hands every waiting group
        to the pool at once: the round that formed while the front was
        busy.  Its test is O(1), so a lone client's flush pays nothing
        for it.
        """
        with self._groups_lock:
            note_access(self, "groups")
            self._in_flight -= flushes
            if self._in_flight or not self._groups:
                return
            runs = self._take_runs(self._groups)
        self._submit_round(runs)

    def _run_flush(
        self, group_key: tuple[str, str, str], entries: list[_PendingEntry]
    ) -> None:
        """Execute one batch, then answer its callers.

        The flush stops counting as in flight before any caller wakes, so
        a lone client woken by its answer finds the front idle; the last
        flush in flight first hands the waiting round to the pool.
        Whatever escapes the batch answers every caller of this group, and
        only this group: a caller error (unknown table, bad configuration)
        is their answer; anything else, such as an interrupt of a flush on
        its submitter's thread, is re-raised once they have it.
        """
        try:
            results = self._execute_flush(group_key, entries)
        except BaseException as exc:
            self._flush_finished()
            for entry in entries:
                self._resolve(entry.future, exc=exc)
            if isinstance(exc, CALLER_ERRORS):
                return
            raise
        self._flush_finished()
        for entry, result in zip(entries, results):
            self._resolve(entry.future, result)

    def _execute_flush(
        self, group_key: tuple[str, str, str], entries: list[_PendingEntry]
    ) -> list[StatementResult]:
        """One batch's results, recorded and cached but not yet answered.

        A caller error (:data:`~repro.dbms.serving.CALLER_ERRORS`) raises;
        any other failure answers the batch with attached errors.
        """
        table, kind, mode = group_key
        start = self._clock()
        try:
            if self._injector is not None:
                self._injector.fire(
                    "concurrent.flush",
                    table=table,
                    kind=kind,
                    statements=len(entries),
                )
                self._injector.fire(
                    f"concurrent.flush.{table}",
                    table=table,
                    kind=kind,
                    statements=len(entries),
                )
            epoch_before = self._service.registry_epoch_for(table)
            results = self._service.execute_script(
                [entry.statement for entry in entries],
                mode=mode,
                on_error="attach",
            )
            cacheable = (
                self._cache is not None
                and self._service.registry_epoch_for(table) == epoch_before
            )
        except CALLER_ERRORS:
            raise  # every caller of the group gets it (``_run_flush``)
        except Exception as exc:
            # Containment of last resort (e.g. an injected flush fault):
            # the affected group answers with attached errors; co-batched
            # groups of other tables/kinds are untouched.
            self._service.observers.publish(
                "group.error",
                table,
                statement_kind=kind,
                error=repr(exc),
                statements=len(entries),
            )
            results = [
                StatementResult(
                    statement=entry.statement,
                    value=None,
                    source="error",
                    error=exc,
                )
                for entry in entries
            ]
            cacheable = False
        now = self._clock()
        self.statistics_for(table).record_results(
            results,
            coalesce_width=len({entry.origin for entry in entries}),
            seconds=now - start,
            latency_seconds=[now - entry.enqueued_at for entry in entries],
        )
        if cacheable:
            for entry, result in zip(entries, results):
                if (
                    entry.key is not None
                    and result.error is None
                    and not result.degraded
                ):
                    self._cache.put(  # type: ignore[union-attr]
                        entry.key, replace(result, cached=True)
                    )
        return results
