"""Model lifecycle management: drift detection, retraining, hot-swap, rollback.

The paper's serving premise — answer analytics from the trained model
instead of the data — holds only while the model still describes the
traffic and the data.  When the workload moves (analysts explore a new
region) or the table grows into new territory, the model's coverage decays
and the hybrid tier's *fallback rate* climbs: more and more statements
find an empty overlap set ``W(q)`` and get re-routed to the exact engine,
erasing the model's cost advantage.

:class:`ModelManager` closes that loop without restarting anything:

1. **Watch** — each :meth:`ModelManager.tick` diffs the table's
   cumulative :class:`~repro.dbms.stats.ServingStatistics` against the
   last snapshot and pushes the delta into a bounded sliding window, so
   drift is judged on *recent* traffic, not on the lifetime average.
2. **Retrain** — when the window fallback rate crosses
   :attr:`DriftPolicy.fallback_rate_threshold` (with enough traffic to
   mean anything, outside the cooldown), the manager retrains a fresh
   model — same configuration as the serving one — on the table's
   recorded recent queries (:class:`~repro.queries.stream.QueryLog`),
   labelled exactly through the (refreshed) engine by
   :class:`~repro.core.training.StreamingTrainer`.
3. **Swap** — the new model is persisted as a new version
   (:class:`ModelVersionStore`, atomic JSON writes) and hot-swapped into
   the :class:`~repro.dbms.serving.AnalyticsService` registry in one
   atomic reference assignment; concurrently running sessions keep
   serving throughout.
4. **Verify or roll back** — a probe over the recent queries compares the
   old and new models (estimated fallback rate and RMSE against exact
   answers, both from one
   :meth:`~repro.core.model.LLMModel.predict_mean_batch_with_coverage`
   call per model); if the new model *regresses*, the previous version is
   swapped back and the attempt counts as a failure.

Failures back off exponentially (:attr:`DriftPolicy.cooldown_seconds` ×
:attr:`DriftPolicy.backoff_multiplier` per consecutive failure, capped),
so a persistently broken retrain path cannot hammer the engine.  Every
step publishes to the service's
:class:`~repro.dbms.observer.ObserverHub` (``drift.detected``,
``retrain.started/succeeded/failed``, ``swap.committed``,
``swap.rolled_back``), and named fault points
(``lifecycle.pre_retrain`` / ``pre_persist`` / ``pre_swap`` /
``post_swap``) let the fault-injection suite crash the manager between
any two steps and assert the registry stays consistent: the serving model
is always either the old one or the fully-trained new one.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable

import numpy as np

from ..analysis.instrument import make_lock, make_rlock, note_access
from ..config import require_integer
from ..core.model import LLMModel
from ..core.persistence import load_model, save_model
from ..core.training import StreamingTrainer
from ..exceptions import ConfigurationError, LifecycleError, ModelPersistenceError
from ..metrics.regression import rmse
from ..queries.query import Query
from .serving import AnalyticsService

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..testing.faults import FaultInjector
    from .storage import SQLiteDataStore

__all__ = [
    "DriftPolicy",
    "ModelVersionStore",
    "ModelManager",
    "LifecycleScheduler",
]

#: Signature of a custom retraining hook: ``(table, old_model, engine,
#: queries) -> new trained model``.
TrainFn = Callable[[str, LLMModel, object, "list[Query]"], LLMModel]


@dataclass(frozen=True)
class DriftPolicy:
    """When to retrain, how hard to back off, and when to roll back.

    Attributes
    ----------
    fallback_rate_threshold:
        Window fallback rate at which a table counts as drifted.
    min_window_statements:
        Minimum statements in the sliding window before the rate is
        trusted (a 3-statement window saying "67% fallback" is noise).
    window_buckets:
        Number of tick deltas the sliding window retains.
    cooldown_seconds:
        Minimum spacing between retrain attempts of one table.
    backoff_multiplier / max_backoff_seconds:
        After ``k`` consecutive failed attempts the next attempt waits
        ``min(cooldown_seconds * backoff_multiplier**k,
        max_backoff_seconds)``.
    min_retrain_queries:
        Recorded recent queries required to attempt a retrain — below
        this the training stream is too thin to produce a credible model.
    rollback_fallback_factor:
        The new model is rolled back when its probe fallback estimate
        exceeds ``old * factor + 0.01`` (the additive epsilon keeps a
        0-vs-0 comparison from tripping on one uncovered probe query).
    rollback_rmse_factor:
        The new model is rolled back when its probe RMSE against exact
        answers exceeds ``old * factor``.
    probe_size:
        Recent queries used for the post-swap old-vs-new probe.
    keep_versions:
        Persisted versions retained per table (older ones are pruned).
    """

    fallback_rate_threshold: float = 0.35
    min_window_statements: int = 40
    window_buckets: int = 8
    cooldown_seconds: float = 30.0
    backoff_multiplier: float = 2.0
    max_backoff_seconds: float = 600.0
    min_retrain_queries: int = 32
    rollback_fallback_factor: float = 1.1
    rollback_rmse_factor: float = 1.5
    probe_size: int = 128
    keep_versions: int = 3

    def __post_init__(self) -> None:
        if not 0.0 < self.fallback_rate_threshold <= 1.0:
            raise ConfigurationError(
                f"fallback_rate_threshold must be in (0, 1], got "
                f"{self.fallback_rate_threshold}"
            )
        require_integer("min_window_statements", self.min_window_statements, 1)
        require_integer("window_buckets", self.window_buckets, 1)
        if not (self.cooldown_seconds >= 0.0 and self.max_backoff_seconds >= 0.0):
            raise ConfigurationError(
                "cooldown_seconds and max_backoff_seconds must be >= 0"
            )
        if not self.backoff_multiplier >= 1.0:
            raise ConfigurationError(
                f"backoff_multiplier must be >= 1, got {self.backoff_multiplier}"
            )
        require_integer("min_retrain_queries", self.min_retrain_queries, 1)
        require_integer("probe_size", self.probe_size, 1)
        if not (
            self.rollback_fallback_factor >= 1.0 and self.rollback_rmse_factor >= 1.0
        ):
            raise ConfigurationError("rollback factors must be >= 1")
        require_integer("keep_versions", self.keep_versions, 1)


class ModelVersionStore:
    """Versioned on-disk model storage: ``{table}.v{version:04d}.json``.

    Writes go through :func:`~repro.core.persistence.save_model`, so each
    version file appears atomically; a crash mid-persist leaves the
    previous versions intact and readable.  The previous version is what
    rollback swaps back to, and :meth:`prune` bounds the history.
    """

    def __init__(self, directory: str | Path) -> None:
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        self._pins: dict[str, frozenset[int]] = {}

    @property
    def directory(self) -> Path:
        return self._directory

    def path_for(self, table: str, version: int) -> Path:
        """The file a given version of a table's model lives in."""
        return self._directory / f"{table}.v{version:04d}.json"

    def versions(self, table: str) -> list[int]:
        """All persisted version numbers of a table, ascending."""
        found: list[int] = []
        prefix = f"{table}.v"
        for path in self._directory.glob(f"{table}.v*.json"):
            stem = path.name[len(prefix):-len(".json")]
            try:
                found.append(int(stem))
            except ValueError:
                continue
        return sorted(found)

    def latest(self, table: str) -> int | None:
        """The newest persisted version number (``None`` when empty)."""
        versions = self.versions(table)
        return versions[-1] if versions else None

    def previous(self, table: str) -> int | None:
        """The second-newest version number (the rollback target)."""
        versions = self.versions(table)
        return versions[-2] if len(versions) >= 2 else None

    def save(self, table: str, model: LLMModel) -> int:
        """Persist a model as the next version of a table; returns its number."""
        version = (self.latest(table) or 0) + 1
        save_model(model, self.path_for(table, version))
        return version

    def load(self, table: str, version: int | None = None) -> LLMModel:
        """Load a persisted version (default: the latest)."""
        if version is None:
            version = self.latest(table)
            if version is None:
                raise ModelPersistenceError(
                    f"no persisted versions of table {table!r} in "
                    f"{self._directory}"
                )
        return load_model(self.path_for(table, version))

    def pin(self, table: str, versions: "int | Iterable[int] | None") -> None:
        """Replace the set of versions :meth:`prune` must never delete.

        The durability checkpointer pins every version its retained
        checkpoint manifests reference, so ``keep_versions`` pruning can
        never delete the file a crash recovery would need to reload.
        ``None`` (or an empty iterable) clears the pin set.
        """
        if versions is None:
            self._pins.pop(table, None)
            return
        if isinstance(versions, int):
            versions = (versions,)
        pinned = frozenset(int(v) for v in versions)
        if pinned:
            self._pins[table] = pinned
        else:
            self._pins.pop(table, None)

    def pinned(self, table: str) -> frozenset:
        """The versions currently protected from pruning."""
        return self._pins.get(table, frozenset())

    def prune(
        self, table: str, keep: int, *, pinned: "Iterable[int] | None" = None
    ) -> list[Path]:
        """Delete all but the newest ``keep`` versions; returns what went.

        Versions pinned via :meth:`pin` (or passed as ``pinned``) are
        always retained, on top of the newest ``keep`` — a checkpoint
        manifest's referenced version survives any ``keep_versions``
        setting.
        """
        if keep < 1:
            raise ConfigurationError(f"keep must be >= 1, got {keep}")
        protected = set(self.pinned(table))
        if pinned is not None:
            protected.update(int(v) for v in pinned)
        removed: list[Path] = []
        for version in self.versions(table)[:-keep]:
            if version in protected:
                continue
            path = self.path_for(table, version)
            path.unlink(missing_ok=True)
            removed.append(path)
        return removed


@dataclass
class _ManagedTable:
    """Per-table lifecycle state of the manager."""

    store: "SQLiteDataStore | None" = None
    store_table: str | None = None
    window: deque = field(default_factory=deque)  # (statements, fallbacks)
    snapshot: object = None  # last ServingStatistics snapshot
    consecutive_failures: int = 0
    next_eligible: float = 0.0
    retrain_count: int = 0
    rollback_count: int = 0
    last_status: str = "idle"


class ModelManager:
    """Self-healing supervisor of the serving tier's models.

    Parameters
    ----------
    service:
        The :class:`~repro.dbms.serving.AnalyticsService` whose models are
        managed.  The manager reads its per-table statistics and recent
        query logs and swaps models through its atomic
        :meth:`~repro.dbms.serving.AnalyticsService.swap_model`.
    policy:
        The :class:`DriftPolicy` (thresholds, cooldown, rollback gates).
    version_store:
        Optional :class:`ModelVersionStore` persisting every swapped-in
        model; without one, swaps are in-memory only (still versioned by
        an in-process counter).
    train_fn:
        Optional retraining hook replacing the default (clone the serving
        model's configuration, train on the recent queries through
        :class:`~repro.core.training.StreamingTrainer` with a small
        transient-retry budget).  Signature ``(table, old_model, engine,
        queries) -> model``.
    injector:
        Optional :class:`~repro.testing.faults.FaultInjector` whose named
        points (``lifecycle.pre_retrain`` / ``pre_persist`` /
        ``pre_swap`` / ``post_swap``) the manager fires around the swap
        sequence — the crash-consistency test surface.
    clock:
        Monotonic clock for cooldown/backoff accounting (injectable).
    """

    FAULT_POINTS = (
        "lifecycle.pre_retrain",
        "lifecycle.pre_persist",
        "lifecycle.pre_swap",
        "lifecycle.post_swap",
    )

    def __init__(
        self,
        service: AnalyticsService,
        *,
        policy: DriftPolicy | None = None,
        version_store: ModelVersionStore | None = None,
        train_fn: TrainFn | None = None,
        injector: "FaultInjector | None" = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.service = service
        self.policy = policy or DriftPolicy()
        self.version_store = version_store
        self._train_fn = train_fn or self._default_train
        self._injector = injector
        self._clock = clock
        self._hub = service.observers
        self._tables: dict[str, _ManagedTable] = {}
        self._version_counter = 0
        # Serialises the drift state against the scheduler thread: manage /
        # restore_state run on the caller's thread while tick / retrain run
        # on the scheduler's, and both mutate the same per-table records.
        self._lock = make_rlock("lifecycle.ModelManager.state")

    # ------------------------------------------------------------------ #
    # registration / introspection
    # ------------------------------------------------------------------ #
    def manage(
        self,
        table: str,
        *,
        store: "SQLiteDataStore | None" = None,
        store_table: str | None = None,
    ) -> None:
        """Put a served table under lifecycle management.

        ``store`` (with optional ``store_table``, defaulting to the
        serving name) binds the table to its backing
        :class:`~repro.dbms.storage.SQLiteDataStore` table: before each
        retrain the manager rebuilds the exact engine from the store, so
        rows appended since the last build are both *labelled from* and
        *served by* the refreshed engine.
        """
        with self._lock:
            note_access(self, "tables")
            state = self._tables.get(table) or _ManagedTable()
            state.store = store
            state.store_table = store_table or table
            state.window = deque(maxlen=self.policy.window_buckets)
            state.snapshot = self.service.statistics_for(table).snapshot()
            self._tables[table] = state

    @property
    def managed_tables(self) -> list[str]:
        with self._lock:
            return sorted(self._tables)

    def _state(self, table: str) -> _ManagedTable:
        try:
            return self._tables[table]
        except KeyError as exc:
            raise LifecycleError(
                f"table {table!r} is not under lifecycle management"
            ) from exc

    def window_fallback_rate(self, table: str) -> float:
        """The current sliding-window fallback rate of a managed table."""
        with self._lock:
            state = self._state(table)
            statements = sum(s for s, _ in state.window)
            if statements == 0:
                return 0.0
            return sum(f for _, f in state.window) / statements

    def window_statements(self, table: str) -> int:
        """Statements currently inside a managed table's sliding window."""
        with self._lock:
            return sum(s for s, _ in self._state(table).window)

    def status_for(self, table: str) -> dict:
        """A snapshot of a managed table's lifecycle state (for dashboards)."""
        with self._lock:
            state = self._state(table)
            return {
                "window_fallback_rate": self.window_fallback_rate(table),
                "window_statements": self.window_statements(table),
                "consecutive_failures": state.consecutive_failures,
                "next_eligible": state.next_eligible,
                "retrain_count": state.retrain_count,
                "rollback_count": state.rollback_count,
                "last_status": state.last_status,
                "model_version": self.service.model_version_for(table),
            }

    # ------------------------------------------------------------------ #
    # durability: state export / restore
    # ------------------------------------------------------------------ #
    def export_state(self, table: str) -> dict:
        """Serialise a managed table's drift state for a service checkpoint.

        The cooldown is exported as *remaining seconds* rather than the
        raw ``next_eligible`` instant: the monotonic clock restarts from
        an arbitrary origin in a new process, so an absolute deadline
        would be meaningless (or worse, in the past) after a restart.
        """
        with self._lock:
            state = self._state(table)
            return {
                "window": [[int(s), int(f)] for s, f in state.window],
                "consecutive_failures": state.consecutive_failures,
                "cooldown_remaining": max(
                    0.0, state.next_eligible - self._clock()
                ),
                "retrain_count": state.retrain_count,
                "rollback_count": state.rollback_count,
                "last_status": state.last_status,
                "store_path": (
                    state.store.path if state.store is not None else None
                ),
                "store_table": state.store_table,
            }

    def restore_state(
        self, table: str, payload: dict, *, now: float | None = None
    ) -> None:
        """Restore a table's drift state exported by :meth:`export_state`.

        The table must already be under management (:meth:`manage`) so the
        window deque carries the current policy's ``window_buckets`` and
        the statistics snapshot reflects the *restored* service — drift
        detection then continues from the persisted window instead of
        starting cold.
        """
        with self._lock:
            note_access(self, "tables")
            state = self._state(table)
            if now is None:
                now = self._clock()
            state.window.clear()
            for statements, fallbacks in payload.get("window", []):
                state.window.append((int(statements), int(fallbacks)))
            state.consecutive_failures = int(
                payload.get("consecutive_failures", 0)
            )
            remaining = float(payload.get("cooldown_remaining", 0.0))
            state.next_eligible = now + max(0.0, remaining)
            state.retrain_count = int(payload.get("retrain_count", 0))
            state.rollback_count = int(payload.get("rollback_count", 0))
            state.last_status = str(payload.get("last_status", "idle"))
            state.snapshot = self.service.statistics_for(table).snapshot()

    # ------------------------------------------------------------------ #
    # the watch loop
    # ------------------------------------------------------------------ #
    def tick(self, now: float | None = None) -> dict[str, str]:
        """Observe traffic and (maybe) retrain each managed table once.

        Returns a per-table status: ``"no-traffic"`` (nothing new in the
        window delta), ``"insufficient-traffic"`` (window too thin to
        judge), ``"healthy"`` (rate under threshold), ``"cooldown"``
        (drifted but inside cooldown/backoff), ``"retrained"``,
        ``"rolled_back"`` or ``"failed"``.
        """
        if now is None:
            now = self._clock()
        statuses: dict[str, str] = {}
        with self._lock:
            note_access(self, "tables")
            for table, state in self._tables.items():
                statuses[table] = self._tick_table(table, state, now)
                state.last_status = statuses[table]
        return statuses

    def _tick_table(self, table: str, state: _ManagedTable, now: float) -> str:
        # Diff one whole snapshot: a group recorded while the tick runs
        # lands in exactly one window bucket, this one or the next.
        current = self.service.statistics_for(table).snapshot()
        previous, state.snapshot = state.snapshot, current
        delta_statements = current.statements_executed - previous.statements_executed
        delta_fallbacks = current.fallback_count - previous.fallback_count
        if delta_statements > 0:
            state.window.append((delta_statements, delta_fallbacks))
        window_statements = sum(s for s, _ in state.window)
        if window_statements == 0:
            return "no-traffic"
        if window_statements < self.policy.min_window_statements:
            return "insufficient-traffic"
        rate = sum(f for _, f in state.window) / window_statements
        if rate < self.policy.fallback_rate_threshold:
            return "healthy"
        if now < state.next_eligible:
            return "cooldown"
        self._hub.publish(
            "drift.detected",
            table,
            window_fallback_rate=rate,
            window_statements=window_statements,
            threshold=self.policy.fallback_rate_threshold,
        )
        return self.retrain(table, now=now)

    # ------------------------------------------------------------------ #
    # retrain / swap / verify
    # ------------------------------------------------------------------ #
    def retrain(self, table: str, *, now: float | None = None) -> str:
        """Retrain a managed table now and hot-swap the result (with gates).

        Returns ``"retrained"`` when the new model is in place,
        ``"rolled_back"`` when the probe rejected it (previous model
        restored), or ``"failed"`` when any step raised (previous model
        restored, backoff armed).  The serving registry is consistent on
        every exit: the table serves either the old model or the
        fully-trained, persisted new one — never an intermediate state.
        """
        with self._lock:
            note_access(self, "tables")
            return self._retrain_locked(table, now=now)

    def _retrain_locked(self, table: str, *, now: float | None = None) -> str:
        state = self._state(table)
        if now is None:
            now = self._clock()
        old_model = self.service._models.get(table)
        old_version = self.service.model_version_for(table)
        if old_model is None:
            raise LifecycleError(
                f"table {table!r} has no serving model to retrain; register "
                f"one before managing its lifecycle"
            )
        self._hub.publish(
            "retrain.started", table, attempt=state.consecutive_failures + 1
        )
        swapped = False
        try:
            self._fire("lifecycle.pre_retrain", table)
            queries = self.service.recent_queries(table)
            if len(queries) < self.policy.min_retrain_queries:
                raise LifecycleError(
                    f"only {len(queries)} recent queries recorded for table "
                    f"{table!r}; need >= {self.policy.min_retrain_queries} to "
                    f"retrain"
                )
            if state.store is not None:
                # Pull appended rows into a fresh engine so the retrain is
                # labelled against (and serving falls back to) current data.
                self.service.register_table_from_store(
                    state.store, state.store_table or table, table=table
                )
            engine = self.service.engine_for(table)
            new_model = self._train_fn(table, old_model, engine, queries)
            self._fire("lifecycle.pre_persist", table)
            version = self._persist(table, new_model)
            self._fire("lifecycle.pre_swap", table)
            self.service.swap_model(table, new_model, version=version)
            swapped = True
            self._fire("lifecycle.post_swap", table)
            self._hub.publish(
                "swap.committed", table, version=version,
                queries_trained_on=len(queries),
            )
            verdict = self._probe(table, engine, old_model, new_model, queries)
        except Exception as exc:
            # Crash consistency: whatever step died, put the old model
            # back if the new one made it into the registry.
            if swapped:
                self.service.swap_model(table, old_model, version=old_version)
            self._hub.publish("retrain.failed", table, error=repr(exc))
            state.consecutive_failures += 1
            state.next_eligible = now + self._backoff(state.consecutive_failures)
            return "failed"
        if not verdict["accept"]:
            self.service.swap_model(table, old_model, version=old_version)
            self._hub.publish("swap.rolled_back", table, **verdict["metrics"])
            state.rollback_count += 1
            state.consecutive_failures += 1
            state.next_eligible = now + self._backoff(state.consecutive_failures)
            return "rolled_back"
        self._hub.publish(
            "retrain.succeeded", table, **verdict["metrics"],
        )
        state.retrain_count += 1
        state.consecutive_failures = 0
        state.next_eligible = now + self.policy.cooldown_seconds
        # The drift that triggered this retrain is stale evidence now.
        state.window.clear()
        state.snapshot = self.service.statistics_for(table).snapshot()
        return "retrained"

    def _fire(self, point: str, table: str) -> None:
        if self._injector is not None:
            self._injector.fire(point, table=table)

    def _backoff(self, failures: int) -> float:
        policy = self.policy
        return min(
            policy.cooldown_seconds * policy.backoff_multiplier ** failures,
            policy.max_backoff_seconds,
        )

    def _persist(self, table: str, model: LLMModel) -> object:
        if self.version_store is not None:
            version = self.version_store.save(table, model)
            self.version_store.prune(table, self.policy.keep_versions)
            return version
        self._version_counter += 1
        return f"mem-{self._version_counter}"

    @staticmethod
    def _default_train(
        table: str, old_model: LLMModel, engine: object, queries: list[Query]
    ) -> LLMModel:
        """Clone the serving model's configuration and train on the stream."""
        new_model = LLMModel(
            dimension=old_model.dimension,
            config=old_model.config,
            training=old_model.training,
        )
        trainer = StreamingTrainer(
            new_model, engine, max_engine_retries=2, retry_backoff_seconds=0.02
        )
        trainer.train(queries)
        return new_model

    def _probe(
        self,
        table: str,
        engine: object,
        old_model: LLMModel,
        new_model: LLMModel,
        queries: list[Query],
    ) -> dict:
        """Compare old and new on a recent-query probe; decide accept/rollback.

        Two gates: the new model's estimated fallback rate (fraction of
        probe queries it has no coverage for) must not regress past
        ``old * rollback_fallback_factor + 0.01``, and its RMSE against
        the exact answers must not regress past
        ``old * rollback_rmse_factor``.
        """
        probe = queries[-self.policy.probe_size:]
        old_values, old_covered = old_model.predict_mean_batch_with_coverage(probe)
        new_values, new_covered = new_model.predict_mean_batch_with_coverage(probe)
        old_fallback = 1.0 - float(np.mean(old_covered))
        new_fallback = 1.0 - float(np.mean(new_covered))
        answers = engine.execute_q1_batch(probe, on_empty="null")  # type: ignore[attr-defined]
        truth = np.array(
            [np.nan if a is None else a.mean for a in answers], dtype=float
        )
        defined = ~np.isnan(truth)
        if defined.any():
            # Model answers are batch-invariant: the whole probe's answers,
            # restricted to the defined rows, are those rows' own answers.
            old_rmse = rmse(truth[defined], np.asarray(old_values)[defined])
            new_rmse = rmse(truth[defined], np.asarray(new_values)[defined])
        else:
            old_rmse = new_rmse = 0.0
        policy = self.policy
        fallback_ok = (
            new_fallback <= old_fallback * policy.rollback_fallback_factor + 0.01
        )
        rmse_ok = new_rmse <= old_rmse * policy.rollback_rmse_factor
        return {
            "accept": bool(fallback_ok and rmse_ok),
            "metrics": {
                "probe_queries": len(probe),
                "old_fallback_estimate": old_fallback,
                "new_fallback_estimate": new_fallback,
                "old_rmse": old_rmse,
                "new_rmse": new_rmse,
            },
        }


class LifecycleScheduler:
    """A background daemon driving :meth:`ModelManager.tick` on an interval.

    The manager's watch loop is caller-driven by design (deterministic
    tests); production deployments want it to run by itself.  The
    scheduler owns one daemon thread that calls ``manager.tick()`` every
    ``interval_seconds`` until :meth:`stop` — with *exception
    containment*: a tick that raises is published to the manager's
    :class:`~repro.dbms.observer.ObserverHub` as a ``scheduler.error``
    event and the loop keeps running (a transiently broken retrain path
    must not kill the watch loop; the manager's own backoff already
    throttles retries).

    ``start``/``stop`` are idempotent; ``stop`` wakes the thread
    immediately (no sleep-out of the interval) and joins it.  The
    scheduler is also a context manager::

        with LifecycleScheduler(manager, interval_seconds=1.0):
            serve_forever()
    """

    def __init__(
        self, manager: ModelManager, *, interval_seconds: float = 1.0
    ) -> None:
        if interval_seconds <= 0.0:
            raise ConfigurationError(
                f"interval_seconds must be positive, got {interval_seconds}"
            )
        self.manager = manager
        self.interval_seconds = float(interval_seconds)
        self._stop_event = threading.Event()
        self._thread: threading.Thread | None = None
        self._lock = make_lock("lifecycle.LifecycleScheduler")
        self.tick_count = 0
        self.error_count = 0
        self.last_statuses: dict[str, str] = {}

    @property
    def running(self) -> bool:
        """Whether the scheduler thread is currently alive."""
        thread = self._thread
        return thread is not None and thread.is_alive()

    def start(self) -> "LifecycleScheduler":
        """Start the daemon thread (idempotent while running)."""
        with self._lock:
            if self.running:
                return self
            self._stop_event.clear()
            self._thread = threading.Thread(
                target=self._run, name="repro-lifecycle", daemon=True
            )
            self._thread.start()
        return self

    def stop(self, timeout: float | None = 5.0) -> None:
        """Signal the thread to exit and join it (idempotent)."""
        with self._lock:
            thread = self._thread
            self._stop_event.set()
            if thread is not None:
                thread.join(timeout)
                self._thread = None

    def __enter__(self) -> "LifecycleScheduler":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def _run(self) -> None:
        while not self._stop_event.is_set():
            try:
                self.last_statuses = self.manager.tick()
            except Exception as exc:
                self.error_count += 1
                try:
                    self.manager.service.observers.publish(
                        "scheduler.error", error=repr(exc)
                    )
                except Exception:  # noqa: REPRO004 - best-effort publish after error_count was already incremented above
                    pass  # a broken observer must not kill the loop either
            else:
                self.tick_count += 1
            self._stop_event.wait(self.interval_seconds)
