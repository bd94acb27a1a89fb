"""Model-backed batched serving layer: hybrid SQL sessions with exact fallback.

The paper's whole point (Figure 2 system context) is that after training,
analytics queries are answered *from the model* without touching the data.
:class:`AnalyticsService` is that serving tier: it owns the per-table
registry of exact engines and trained models, parses multi-statement
scripts, groups statements by table and kind, and routes every group
through the batched fast paths built in earlier PRs —
``execute_q1_batch`` / ``execute_q2_batch`` on the exact side and
``predict_mean_batch`` / ``predict_q2_batch`` on the model side.

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
  rate is reported through
  :class:`~repro.dbms.stats.ServingStatistics`.

Resilience (the serving tier survives its dependencies failing)
---------------------------------------------------------------
Statement groups execute through a guarded path: transient tier failures
(:class:`~repro.exceptions.TransientEngineError`) are retried with
exponential backoff up to
:attr:`~repro.dbms.resilience.DegradationPolicy.max_attempts`; repeated
failures open a per-``(table, tier)``
:class:`~repro.dbms.resilience.CircuitBreaker` that sheds the failing tier
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
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Literal, Mapping, NamedTuple, Sequence

import numpy as np

from ..analysis.instrument import make_lock, make_rlock
from ..exceptions import (
    CircuitOpenError,
    ConfigurationError,
    EmptySubspaceError,
    SQLSyntaxError,
    TransientEngineError,
)
from ..queries.query import Query, log_radius_power_is_normal
from ..queries.stream import QueryLog
from .executor import ExactQueryEngine
from .observer import ObserverHub
from .resilience import CircuitBreaker, DegradationPolicy
from .sqlfront import ParsedStatement, parse_script, parse_statement
from .stats import PerTableStatistics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..queries.query import QueryAnswer
    from .storage import SQLiteDataStore

__all__ = [
    "AnalyticsService",
    "StatementResult",
    "RegistrySnapshot",
    "CALLER_ERRORS",
    "DEFAULT_NORM_ORDER",
    "prepare_script",
]

#: Norm order assumed for tables without a registered model (Euclidean).
DEFAULT_NORM_ORDER = 2.0

_MODES = ("exact", "model", "hybrid")
_ON_ERROR = ("attach", "raise")

#: Errors that signal caller/configuration mistakes rather than runtime
#: faults: they abort the script (the seed contract) and never trip a
#: circuit breaker.
CALLER_ERRORS = (SQLSyntaxError, ConfigurationError)


def prepare_script(
    script: str | Sequence[str | ParsedStatement], *, mode: str, on_error: str
) -> list[ParsedStatement]:
    """Validate a script submission's options and parse its statements.

    ``script`` is a ``;``-separated string or a sequence of statement
    strings / :class:`~repro.dbms.sqlfront.ParsedStatement` objects.  Both
    serving layers admit scripts through this one check.
    """
    if mode not in _MODES:
        raise SQLSyntaxError(
            f"unknown execution mode {mode!r} (expected one of {_MODES})"
        )
    if on_error not in _ON_ERROR:
        raise ConfigurationError(
            f"on_error must be one of {_ON_ERROR}, got {on_error!r}"
        )
    if isinstance(script, str):
        return parse_script(script)
    return [
        item if isinstance(item, ParsedStatement) else parse_statement(item)
        for item in script
    ]


class RegistrySnapshot(NamedTuple):
    """One table's registry state, kept from one registry change to the next.

    ``dimension`` is the registered engine's (else the model's) input
    dimension, ``None`` when the table has neither.
    """

    model_version: object
    registry_epoch: int
    norm_order: float
    dimension: int | None


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

    def value_or_raise(self):
        """The bare answer value — the single-statement ``execute`` contract.

        Raises
        ------
        EmptySubspaceError
            When the exact subspace of a Q1/Q2 statement is empty (its
            answer is undefined) — the clean, always-on replacement for
            the seed front end's ``assert`` on the Q2 coefficients.
        Exception
            The attached error, when every tier of the statement's group
            failed.
        """
        if self.error is not None:
            raise self.error
        if self.empty and self.kind != "count":
            raise EmptySubspaceError(
                f"statement over table {self.table!r} selected no rows; its "
                f"exact {self.kind.upper()} answer is undefined"
            )
        return self.value


class AnalyticsService(PerTableStatistics):
    """Batched multi-statement serving over exact engines and trained models.

    Parameters
    ----------
    engines:
        Optional initial mapping of table name to exact engine
        (:class:`~repro.dbms.executor.ExactQueryEngine`, or anything with
        its ``execute_q1_batch`` / ``execute_q2_batch`` contract).
    models:
        Optional initial mapping of table name to trained model
        (:class:`~repro.core.model.LLMModel` interface).
    degradation:
        The :class:`~repro.dbms.resilience.DegradationPolicy` of the
        guarded execution path (retries, circuit breakers); defaults are
        retry-3 with 20 ms backoff, breaker at 3 consecutive failures.
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
        # Each table's RegistrySnapshot, built on first use and dropped by
        # every registry change (all under the registry lock).
        self._snapshots: dict[str, RegistrySnapshot] = {}
        self._policy = degradation or DegradationPolicy()
        self._hub = observers or ObserverHub()
        self._clock = clock
        self._query_log_size = int(query_log_size)
        self._query_logs: dict[str, QueryLog] = {}
        self._breakers: dict[tuple[str, str], CircuitBreaker] = {}
        self._registry_lock = make_rlock("serving.AnalyticsService.registry")
        self._state_lock = make_lock("serving.AnalyticsService.state")
        self._init_statistics("serving.AnalyticsService.stats")

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
            self._registry_changed(table)
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
            self._registry_changed(table)
        self._hub.publish(
            "model.swapped",
            table,
            version=version,
            had_previous=previous is not None,
        )
        return previous

    def _registry_changed(self, table: str) -> None:
        """Advance a table's epoch and drop its kept snapshot (lock held)."""
        self._registry_epochs[table] = self._registry_epochs.get(table, 0) + 1
        self._snapshots.pop(table, None)

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

    def registry_snapshots(
        self, statements: Sequence[ParsedStatement]
    ) -> dict[str, RegistrySnapshot]:
        """The :class:`RegistrySnapshot` of every table the statements name.

        All of the script's tables are read under one registry-lock
        acquisition, and a table's snapshot is kept until its registry next
        changes.  A statement whose center dimension differs from its
        table's, or whose ``radius ** p`` under its table's default order
        (it has no ``NORM`` clause) is not a normal positive float64, is a
        caller mistake: it raises :class:`~repro.exceptions.SQLSyntaxError`
        here, before any statement of the script executes, instead of
        failing inside a batch and counting against the table's circuit
        breakers.
        """
        snapshots: dict[str, RegistrySnapshot] = {}
        with self._registry_lock:
            kept = self._snapshots
            for statement in statements:
                table = statement.table
                if table not in snapshots:
                    snapshot = kept.get(table)
                    if snapshot is None:
                        source = self._engines.get(table, self._models.get(table))
                        snapshot = kept[table] = RegistrySnapshot(
                            self._model_versions.get(table),
                            self._registry_epochs.get(table, 0),
                            self.resolve_norm_order(table),
                            getattr(source, "dimension", None),
                        )
                    snapshots[table] = snapshot
        for statement in statements:
            table = statement.table
            snapshot = snapshots[table]
            if snapshot.dimension is not None and (
                len(statement.center) != snapshot.dimension
            ):
                raise SQLSyntaxError(
                    f"statement has a {len(statement.center)}-dimensional center "
                    f"but table {table!r} is {snapshot.dimension}-dimensional"
                )
            if statement.norm_order is None and not log_radius_power_is_normal(
                statement.log_radius, snapshot.norm_order
            ):
                raise SQLSyntaxError(
                    f"radius ** p must be a normal positive float64, got WITHIN "
                    f"{statement.radius} under table {table!r}'s default norm "
                    f"order {snapshot.norm_order}"
                )
        return snapshots

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
            self._registry_changed(serving_name)
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
                self._snapshots.pop(table, None)

    @property
    def tables(self) -> list[str]:
        """All table names known to the service."""
        with self._registry_lock:
            return sorted(set(self._engines) | set(self._models))

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

    def close(self) -> None:
        """Release nothing: the synchronous service owns no threads or pools.

        Kept so a deployment tears its service down the same way as the
        concurrent front over it.
        """

    # ------------------------------------------------------------------ #
    # query log (recent traffic per table)
    # ------------------------------------------------------------------ #
    def query_log_for(self, table: str) -> QueryLog:
        """The per-table recent-query log (created on first access)."""
        with self._state_lock:
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
        with self._state_lock:
            self._query_logs[table] = log

    # ------------------------------------------------------------------ #
    # circuit breakers
    # ------------------------------------------------------------------ #
    def _breaker(self, table: str, tier: str) -> CircuitBreaker:
        key = (table, tier)
        with self._state_lock:
            if key not in self._breakers:
                self._breakers[key] = CircuitBreaker(
                    self._policy.breaker_failure_threshold,
                    self._policy.breaker_reset_seconds,
                    self._clock,
                )
            return self._breakers[key]

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

    def query_for(self, statement: ParsedStatement) -> Query:
        """The fully-resolved :class:`~repro.queries.query.Query` of a statement.

        Applies the per-table norm resolution (an explicit ``NORM p``
        clause wins, then the registered model's geometry, then Euclidean)
        — the canonical query the statement is executed and cached under.
        """
        return statement.to_query(self.resolve_norm_order(statement.table))

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def execute(self, sql: str | ParsedStatement, *, mode: str = "hybrid"):
        """Parse and serve one statement, returning its bare value.

        See :meth:`StatementResult.value_or_raise`: an attached tier
        failure re-raises (the script path attaches it instead), and an
        empty exact Q1/Q2 subspace raises
        :class:`~repro.exceptions.EmptySubspaceError`.
        """
        return self.execute_script([sql], mode=mode)[0].value_or_raise()

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
        group — an engine exception, a model exception, an open circuit
        breaker with no surviving tier — is caught *per
        group*: with ``on_error="attach"`` (default) the affected
        statements come back as ``source="error"`` results carrying the
        exception, and every other group keeps serving; with
        ``on_error="raise"`` the first group failure propagates.  Parse
        and registry/configuration errors
        (:class:`~repro.exceptions.SQLSyntaxError`,
        :class:`~repro.exceptions.ConfigurationError`) always raise —
        they are caller bugs, not runtime faults; so does a statement
        whose dimension differs from its table's, before anything runs.
        """
        statements = prepare_script(script, mode=mode, on_error=on_error)
        self.registry_snapshots(statements)
        results: list[StatementResult | None] = [None] * len(statements)
        groups: dict[tuple[str, str], list[int]] = {}
        for position, statement in enumerate(statements):
            groups.setdefault((statement.table, statement.kind), []).append(position)
        for (table, kind), positions in groups.items():
            group_statements = [statements[i] for i in positions]
            queries = [self.query_for(s) for s in group_statements]
            if self._query_log_size > 0:
                self.query_log_for(table).record_many(queries)
            counters = {"retries": 0}
            start = time.perf_counter()
            try:
                group_results = self._execute_group(
                    table, kind, group_statements, queries, mode, counters
                )
            except CALLER_ERRORS:
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
            self.statistics_for(table).record_results(
                group_results,
                retries=counters["retries"],
                seconds=time.perf_counter() - start,
            )
            for position, result in zip(positions, group_results):
                results[position] = result
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------ #
    # guarded tier invocation (retry + circuit breaker)
    # ------------------------------------------------------------------ #
    def _call_tier(
        self,
        table: str,
        tier: str,
        fn: Callable[[], object],
        counters: dict,
    ) -> object:
        """Run one tier call under the breaker / retry policy.

        Transient failures (:class:`~repro.exceptions.TransientEngineError`)
        retry with exponential backoff up to
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
                result = fn()
            except CALLER_ERRORS:
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
        except CALLER_ERRORS:
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
            except CALLER_ERRORS:
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
