"""Service durability: checkpoints, a state journal, and crash recovery.

Everything the serving stack accumulates at runtime — which model version
serves which table, the recent-query windows the lifecycle manager
retrains from, the serving statistics its drift windows diff, the
cooldown/backoff state that throttles retraining — lives in process
memory.  A crash (or a plain restart) silently resets all of it: the
restarted service serves the *oldest* persisted model, drift detection
starts cold, and the statistics lie.  This module closes that gap with
the classic checkpoint + write-ahead-journal pair:

**Checkpoints** (:class:`ServiceCheckpointer`).  Periodically (and on
demand) the full service state is serialised into one versioned manifest
— ``checkpoint.v{NNNN}.json`` — written atomically
(:func:`~repro.core.persistence.write_json_atomic`) and wrapped in a
SHA-256 payload checksum, so a torn or bit-rotted manifest is *detected*,
never half-applied.  The manifest records, per table: the serving model's
version marker and the file it can be reloaded from, the registry epoch,
the engine's store provenance (``(store_path, store_table)``), the
serialized :class:`~repro.queries.stream.QueryLog` ring buffer, the
merged :class:`~repro.dbms.stats.ServingStatistics`, and the
:class:`~repro.dbms.lifecycle.ModelManager` drift-window/cooldown state.
Models whose version marker does not resolve to a
:class:`~repro.dbms.lifecycle.ModelVersionStore` file (unversioned or
in-memory markers) are saved into the checkpoint's own ``models/``
directory, so a warm restart never depends on lifecycle history.

**Journal** (:class:`StateJournal`).  Registry changes *between*
checkpoints — model hot-swaps, rollbacks (a swap restoring an older
version), engine (re)registrations — are appended to a per-checkpoint
``journal.v{NNNN}.jsonl``, one JSON object per line, via a single
``O_APPEND`` write per entry (no torn lines under concurrent writers).
The checkpointer sources the entries from the service's
:class:`~repro.dbms.observer.ObserverHub` (``model.swapped`` /
``engine.registered``), so journalling needs no hooks in the serving hot
path.  Loading tolerates a torn tail: replay stops at the first
unparseable line, exactly like a write-ahead log after a crash.

**Recovery** (:class:`RecoveryManager`).  Restart = newest valid
checkpoint + journal replay.  A checkpoint that fails validation — bad
checksum, unreadable JSON, unsupported format version, a referenced model
file that no longer loads — raises the typed
:class:`~repro.exceptions.CheckpointCorruptError` and recovery falls back
checkpoint-by-checkpoint to the next older one; the registry is rebuilt
from scratch per attempt, so a corrupt manifest can never yield a
half-recovered registry.  Restored registry epochs fast-forward
(:meth:`~repro.dbms.serving.AnalyticsService.restore_registry_epoch`), so
version-keyed answer-cache reasoning stays sound across restarts, and the
lifecycle cooldowns come back as *remaining seconds* (the monotonic clock
restarts with the process).

Named fault points (``durability.pre_checkpoint`` /
``durability.mid_checkpoint`` / ``durability.journal_append``) let the
fault suite crash a checkpoint between staging and rename, tear a
manifest, or kill a journal append — the CI soak replays all of them.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from ..analysis.instrument import make_lock
from ..core.persistence import load_model, save_model, write_json_atomic
from ..exceptions import (
    CheckpointCorruptError,
    ConfigurationError,
    ModelPersistenceError,
    SQLSyntaxError,
)
from ..queries.stream import QueryLog
from .serving import AnalyticsService
from .stats import ServingStatistics
from .storage import SQLiteDataStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..testing.faults import FaultInjector
    from .concurrent import ConcurrentAnalyticsService
    from .lifecycle import LifecycleScheduler, ModelManager, ModelVersionStore

__all__ = [
    "ServiceCheckpointer",
    "StateJournal",
    "RecoveryManager",
    "RecoveredService",
    "CHECKPOINT_FORMAT_VERSION",
]

#: Format marker of every checkpoint manifest; bump on layout changes.
CHECKPOINT_FORMAT_VERSION = 1

_CHECKPOINT_PREFIX = "checkpoint.v"
_JOURNAL_PREFIX = "journal.v"


def _checkpoint_name(version: int) -> str:
    return f"{_CHECKPOINT_PREFIX}{version:04d}.json"


def _journal_name(version: int) -> str:
    return f"{_JOURNAL_PREFIX}{version:04d}.jsonl"


def _payload_checksum(payload: dict) -> str:
    """SHA-256 over the canonical (sorted, compact) JSON of a payload."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def checkpoint_versions(directory: str | Path) -> list[int]:
    """All checkpoint version numbers present in a directory, ascending."""
    found: list[int] = []
    for path in Path(directory).glob(f"{_CHECKPOINT_PREFIX}*.json"):
        stem = path.name[len(_CHECKPOINT_PREFIX):-len(".json")]
        try:
            found.append(int(stem))
        except ValueError:
            continue
    return sorted(found)


class StateJournal:
    """An append-only JSONL journal of registry events between checkpoints.

    Appends are crash-safe at line granularity: each entry is one
    ``os.write`` to an ``O_APPEND`` descriptor (the kernel makes the
    offset+write atomic, so concurrent appenders never interleave bytes)
    followed by an fsync.  A crash can therefore only tear the *final*
    line, which :meth:`entries` tolerates — replay stops at the first
    unparseable line, like any write-ahead log.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        injector: "FaultInjector | None" = None,
    ) -> None:
        self._path = Path(path)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._injector = injector
        self._lock = make_lock("durability.StateJournal")
        self.appended = 0

    @property
    def path(self) -> Path:
        return self._path

    def append(self, entry: dict) -> None:
        """Append one entry as a single atomic line write (plus fsync)."""
        if self._injector is not None:
            self._injector.fire(
                "durability.journal_append", path=str(self._path), entry=entry
            )
        line = (json.dumps(entry, sort_keys=True) + "\n").encode("utf-8")
        with self._lock:
            fd = os.open(
                self._path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
            )
            try:
                os.write(fd, line)
                os.fsync(fd)
            finally:
                os.close(fd)
            self.appended += 1

    @staticmethod
    def entries(path: str | Path) -> tuple[list[dict], int]:
        """Load a journal, tolerating a torn tail.

        Returns ``(entries, dropped)`` where ``dropped`` counts the lines
        (the torn tail and everything after it) that did not parse — a
        crash mid-append damages only the suffix, so replay keeps every
        entry that was durably written before it.
        """
        source = Path(path)
        if not source.exists():
            return [], 0
        entries: list[dict] = []
        lines = source.read_bytes().split(b"\n")
        for index, raw in enumerate(lines):
            if not raw.strip():
                continue
            try:
                entry = json.loads(raw.decode("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError):
                dropped = sum(1 for rest in lines[index:] if rest.strip())
                return entries, dropped
            if not isinstance(entry, dict):
                dropped = sum(1 for rest in lines[index:] if rest.strip())
                return entries, dropped
            entries.append(entry)
        return entries, 0


class _JournalObserver:
    """ObserverHub subscriber feeding registry events into the journal."""

    def __init__(self, checkpointer: "ServiceCheckpointer") -> None:
        self._checkpointer = checkpointer

    def notify(self, event) -> None:
        self._checkpointer._observe_event(event)


class ServiceCheckpointer:
    """Periodic + on-demand atomic snapshots of full service state.

    Parameters
    ----------
    service:
        The :class:`~repro.dbms.serving.AnalyticsService` whose registry,
        query logs and statistics are checkpointed.
    directory:
        Where checkpoints, journals and checkpoint-owned model files live.
    manager:
        Optional :class:`~repro.dbms.lifecycle.ModelManager` whose
        per-table drift-window/cooldown state rides along in the manifest.
    front:
        Optional :class:`~repro.dbms.concurrent.ConcurrentAnalyticsService`
        over the service; its per-table front statistics are checkpointed
        alongside the inner service's, and :meth:`shutdown` drains it.
    version_store:
        Optional :class:`~repro.dbms.lifecycle.ModelVersionStore`.  Model
        version markers that resolve to a store file are referenced (not
        copied), and every version a retained manifest references is
        *pinned* in the store so ``keep_versions`` pruning can never
        delete the file a recovery needs.
    scheduler:
        Optional :class:`~repro.dbms.lifecycle.LifecycleScheduler`; the
        graceful :meth:`shutdown` stops it before the final checkpoint.
    interval_seconds:
        Periodic checkpoint cadence of the background thread
        (:meth:`start`); ``None`` leaves checkpointing on-demand only.
    keep_checkpoints:
        Manifests retained on disk; older ones are pruned together with
        their journals and checkpoint-owned model files.
    injector:
        Optional fault injector fired at the named :attr:`FAULT_POINTS`.
    """

    FAULT_POINTS = (
        "durability.pre_checkpoint",
        "durability.mid_checkpoint",
        "durability.journal_append",
    )

    def __init__(
        self,
        service: AnalyticsService,
        directory: str | Path,
        *,
        manager: "ModelManager | None" = None,
        front: "ConcurrentAnalyticsService | None" = None,
        version_store: "ModelVersionStore | None" = None,
        scheduler: "LifecycleScheduler | None" = None,
        interval_seconds: float | None = None,
        keep_checkpoints: int = 3,
        injector: "FaultInjector | None" = None,
        clock: Callable[[], float] = time.monotonic,
        wall_clock: Callable[[], float] = time.time,
    ) -> None:
        if interval_seconds is not None and interval_seconds <= 0.0:
            raise ConfigurationError(
                f"interval_seconds must be positive or None, got "
                f"{interval_seconds}"
            )
        if keep_checkpoints < 1:
            raise ConfigurationError(
                f"keep_checkpoints must be >= 1, got {keep_checkpoints}"
            )
        self.service = service
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.manager = manager
        self.front = front
        self.version_store = version_store
        self.scheduler = scheduler
        self.interval_seconds = interval_seconds
        self.keep_checkpoints = int(keep_checkpoints)
        self._injector = injector
        self._clock = clock
        self._wall_clock = wall_clock
        self._lock = make_lock("durability.ServiceCheckpointer")
        self._stop_event = threading.Event()
        self._thread: threading.Thread | None = None
        self._journal: StateJournal | None = None
        #: version-store references of each retained manifest (pin source)
        self._manifest_refs: dict[int, dict[str, int]] = {}
        self.checkpoint_count = 0
        self.last_checkpoint_version: int | None = None
        self.last_error: BaseException | None = None
        self._observer = _JournalObserver(self)
        latest = checkpoint_versions(self.directory)
        if latest:
            # Resuming over an existing checkpoint directory: journal new
            # events against the newest manifest already on disk.
            self.last_checkpoint_version = latest[-1]
            self._journal = StateJournal(
                self.directory / _journal_name(latest[-1]),
                injector=injector,
            )
        self.service.observers.subscribe(self._observer)

    # ------------------------------------------------------------------ #
    # journalling (events between checkpoints)
    # ------------------------------------------------------------------ #
    @property
    def models_directory(self) -> Path:
        """Where checkpoint-owned model files are saved."""
        return self.directory / "models"

    def _observe_event(self, event) -> None:
        journal = self._journal
        if journal is None or event.kind not in (
            "model.swapped",
            "engine.registered",
        ):
            return
        entry: dict = {
            "event": event.kind,
            "table": event.table,
            "sequence": event.sequence,
        }
        if event.kind == "model.swapped":
            version = event.payload.get("version")
            entry["version"] = version
            entry["model_file"] = self._resolve_model_file(
                event.table, version, f"swap{event.sequence:06d}"
            )
        else:
            entry["store_path"] = event.payload.get("store_path")
            entry["store_table"] = event.payload.get("store_table")
        try:
            journal.append(entry)
        except Exception as exc:
            # Journalling must never take the serving path down; the next
            # full checkpoint re-captures everything this entry carried.
            self.last_error = exc

    def _resolve_model_file(
        self, table: str, version: object, suffix: str
    ) -> str | None:
        """The file the table's serving model can be reloaded from.

        An integer version marker resolving to a
        :class:`~repro.dbms.lifecycle.ModelVersionStore` file is
        referenced in place; anything else (unversioned models, in-memory
        ``"mem-N"`` markers) is saved into the checkpoint's own ``models/``
        directory so recovery never depends on external history.
        """
        if (
            self.version_store is not None
            and isinstance(version, int)
            and not isinstance(version, bool)
        ):
            path = self.version_store.path_for(table, version)
            if path.exists():
                return str(path)
        try:
            model = self.service.model_for(table)
        except SQLSyntaxError:
            return None
        target = self.models_directory / f"{table}.{suffix}.json"
        try:
            save_model(model, target)  # type: ignore[arg-type]
        except Exception:  # noqa: REPRO004 - an unsavable (unfitted) model just means "no file"; the manifest records model_file=None
            return None  # e.g. an unfitted placeholder model
        return str(target)

    # ------------------------------------------------------------------ #
    # checkpointing
    # ------------------------------------------------------------------ #
    def checkpoint(self) -> Path:
        """Write one atomic, versioned snapshot of full service state.

        The manifest lands via staging + fsync + rename, wrapped in a
        payload checksum; the journal rotates to a fresh file keyed to the
        new manifest, old manifests beyond ``keep_checkpoints`` are pruned
        (with their journals and checkpoint-owned model files), and every
        model version a retained manifest references is pinned in the
        version store.
        """
        with self._lock:
            if self._injector is not None:
                self._injector.fire(
                    "durability.pre_checkpoint", directory=str(self.directory)
                )
            version = (self.last_checkpoint_version or 0) + 1
            existing = checkpoint_versions(self.directory)
            if existing and existing[-1] >= version:
                version = existing[-1] + 1
            payload = self._build_payload(version)
            manifest = {
                "format_version": CHECKPOINT_FORMAT_VERSION,
                "checksum": _payload_checksum(payload),
                "payload": payload,
            }
            hook = None
            if self._injector is not None:
                injector = self._injector

                def hook() -> None:
                    injector.fire(
                        "durability.mid_checkpoint", checkpoint_version=version
                    )

            path = write_json_atomic(
                self.directory / _checkpoint_name(version), manifest, indent=None,
                pre_replace_hook=hook,
            )
            self.last_checkpoint_version = version
            self.checkpoint_count += 1
            self._manifest_refs[version] = {
                table: entry["model_version"]
                for table, entry in payload["tables"].items()
                if isinstance(entry.get("model_version"), int)
                and not isinstance(entry.get("model_version"), bool)
            }
            # Rotate the journal: events from here on belong to the new
            # manifest's epoch.
            self._journal = StateJournal(
                self.directory / _journal_name(version), injector=self._injector
            )
            self._prune(version)
            self._pin_referenced_versions()
            return path

    def _build_payload(self, version: int) -> dict:
        service = self.service
        tables = sorted(
            set(service.tables) | set(service.per_table_statistics)
        )
        table_payloads: dict[str, dict] = {}
        for table in tables:
            model_version = service.model_version_for(table)
            entry: dict = {
                "model_version": model_version,
                "model_file": self._resolve_model_file(
                    table, model_version, f"ckpt{version:04d}"
                ),
                "registry_epoch": service.registry_epoch_for(table),
                "engine_binding": service.engine_binding_for(table),
                "query_log": None,
                "statistics": service.statistics_for(table).to_dict(),
                "front_statistics": None,
                "lifecycle": None,
            }
            log = service.recent_queries(table)
            if log:
                entry["query_log"] = service.query_log_for(table).to_dict()
            if self.front is not None:
                front_stats = self.front.per_table_statistics.get(table)
                if front_stats is not None:
                    entry["front_statistics"] = front_stats.to_dict()
            if self.manager is not None and table in self.manager.managed_tables:
                entry["lifecycle"] = self.manager.export_state(table)
            table_payloads[table] = entry
        return {
            "checkpoint_version": version,
            "wall_time": self._wall_clock(),
            "tables": table_payloads,
        }

    def _prune(self, newest: int) -> None:
        versions = checkpoint_versions(self.directory)
        for version in versions[: -self.keep_checkpoints]:
            journal_path = self.directory / _journal_name(version)
            entries, _ = StateJournal.entries(journal_path)
            manifest_path = self.directory / _checkpoint_name(version)
            owned: set[str] = set()
            try:
                manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
                for entry in manifest["payload"]["tables"].values():
                    if entry.get("model_file"):
                        owned.add(entry["model_file"])
            except Exception:  # noqa: REPRO004 - pruning a corrupt expired manifest is the point; nothing to report
                pass  # a corrupt old manifest is still prunable
            for entry in entries:
                if entry.get("model_file"):
                    owned.add(entry["model_file"])
            models_dir = self.models_directory.resolve()
            for file in owned:
                path = Path(file)
                try:
                    if path.resolve().parent == models_dir:
                        path.unlink(missing_ok=True)
                except OSError:
                    pass
            manifest_path.unlink(missing_ok=True)
            journal_path.unlink(missing_ok=True)
            self._manifest_refs.pop(version, None)

    def _pin_referenced_versions(self) -> None:
        if self.version_store is None:
            return
        pins: dict[str, set[int]] = {}
        for refs in self._manifest_refs.values():
            for table, model_version in refs.items():
                pins.setdefault(table, set()).add(model_version)
        for table in {
            t for refs in self._manifest_refs.values() for t in refs
        } | set(pins):
            self.version_store.pin(table, pins.get(table) or None)

    # ------------------------------------------------------------------ #
    # periodic thread + graceful shutdown
    # ------------------------------------------------------------------ #
    @property
    def running(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()

    def start(self) -> "ServiceCheckpointer":
        """Start the periodic checkpoint thread (requires an interval)."""
        if self.interval_seconds is None:
            raise ConfigurationError(
                "cannot start periodic checkpointing without interval_seconds"
            )
        if self.running:
            return self
        self._stop_event.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-checkpointer", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout: float | None = 5.0) -> None:
        """Stop the periodic thread (idempotent; does not checkpoint)."""
        thread = self._thread
        self._stop_event.set()
        if thread is not None:
            thread.join(timeout)
            self._thread = None

    def _run(self) -> None:
        while not self._stop_event.is_set():
            self._stop_event.wait(self.interval_seconds)
            if self._stop_event.is_set():
                return
            try:
                self.checkpoint()
            except Exception as exc:
                self.last_error = exc
                try:
                    self.service.observers.publish(
                        "checkpoint.error", error=repr(exc)
                    )
                except Exception:  # noqa: REPRO004 - best-effort publish of an already-recorded last_error; the hub may itself be failing
                    pass

    def shutdown(self, *, drain_seconds: float | None = 5.0) -> Path:
        """Graceful service shutdown: drain, stop, final checkpoint.

        The ordered teardown a clean restart needs: stop the lifecycle
        scheduler (no retrain may race the final snapshot), drain the
        concurrent front (pending statements complete or get the typed
        :class:`~repro.exceptions.ServiceClosedError` —
        ``front.close(drain_seconds=...)``), stop periodic checkpointing,
        and take the final checkpoint (now guaranteed quiescent).  Returns
        the final checkpoint path.
        """
        if self.scheduler is not None:
            self.scheduler.stop()
        if self.front is not None:
            self.front.close(drain_seconds=drain_seconds)
        self.stop()
        path = self.checkpoint()
        self.service.observers.unsubscribe(self._observer)
        self._journal = None
        return path

    def __enter__(self) -> "ServiceCheckpointer":
        if self.interval_seconds is not None:
            self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()


@dataclass
class RecoveredService:
    """The result of a successful recovery (service + provenance)."""

    service: AnalyticsService
    front: "ConcurrentAnalyticsService | None"
    checkpoint_version: int
    checkpoint_path: Path
    skipped_checkpoints: list = field(default_factory=list)
    journal_entries_applied: int = 0
    journal_entries_dropped: int = 0
    lifecycle_states: dict = field(default_factory=dict)
    stores: dict = field(default_factory=dict)

    @property
    def serving(self):
        """The outermost serving object (front when one was rebuilt)."""
        return self.front if self.front is not None else self.service

    def attach_manager(self, manager: "ModelManager") -> None:
        """Re-manage every recovered table and restore its drift state.

        Call after constructing a fresh
        :class:`~repro.dbms.lifecycle.ModelManager` over the recovered
        service: each table that was under management at checkpoint time
        is put back under management (re-bound to its reopened store when
        recovery has one) and its window/cooldown/counters restored — a
        drift episode in progress at crash time resumes where it left off.
        """
        for table, payload in self.lifecycle_states.items():
            store = self.stores.get(table)
            manager.manage(
                table,
                store=store,
                store_table=payload.get("store_table") or table,
            )
            manager.restore_state(table, payload)


class RecoveryManager:
    """Rebuild a serving stack from the newest valid checkpoint + journal.

    Parameters
    ----------
    directory:
        The :class:`ServiceCheckpointer` directory to recover from.
    stores:
        Optional mapping of store *path* to an open
        :class:`~repro.dbms.storage.SQLiteDataStore`, consulted before
        reopening paths from disk.  This is how in-memory stores (path
        ``":memory:"``, unrecoverable by reopening) are re-bound after a
        planned restart.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        stores: "dict[str, SQLiteDataStore] | None" = None,
    ) -> None:
        self.directory = Path(directory)
        self._stores = dict(stores or {})

    # ------------------------------------------------------------------ #
    # manifest loading / validation
    # ------------------------------------------------------------------ #
    def checkpoint_versions(self) -> list[int]:
        """Checkpoint versions present on disk, ascending."""
        return checkpoint_versions(self.directory)

    def load_checkpoint(self, version: int) -> dict:
        """Load and validate one manifest; returns its payload.

        Raises
        ------
        CheckpointCorruptError
            For a missing file, unreadable JSON, a non-object manifest,
            an unsupported format version, or a checksum mismatch (the
            torn-manifest signature).
        """
        path = self.directory / _checkpoint_name(version)
        if not path.exists():
            raise CheckpointCorruptError(
                f"checkpoint file does not exist: {path}",
                path=path,
                checkpoint_version=version,
            )
        try:
            manifest = json.loads(path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
            raise CheckpointCorruptError(
                f"checkpoint {path} is truncated or unreadable: {exc}",
                path=path,
                checkpoint_version=version,
            ) from exc
        if not isinstance(manifest, dict) or "payload" not in manifest:
            raise CheckpointCorruptError(
                f"checkpoint {path} does not hold a manifest",
                path=path,
                checkpoint_version=version,
            )
        if manifest.get("format_version") != CHECKPOINT_FORMAT_VERSION:
            raise CheckpointCorruptError(
                f"checkpoint {path} has unsupported format version "
                f"{manifest.get('format_version')!r}",
                path=path,
                checkpoint_version=version,
            )
        payload = manifest["payload"]
        if manifest.get("checksum") != _payload_checksum(payload):
            raise CheckpointCorruptError(
                f"checkpoint {path} failed its payload checksum (torn or "
                f"tampered manifest)",
                path=path,
                checkpoint_version=version,
            )
        return payload

    # ------------------------------------------------------------------ #
    # recovery
    # ------------------------------------------------------------------ #
    def recover(
        self,
        *,
        concurrent: bool = False,
        concurrency_policy=None,
        query_log_size: int = 512,
        **service_kwargs,
    ) -> RecoveredService:
        """Rebuild a service from the newest checkpoint that fully applies.

        Tries manifests newest-first; any
        :class:`~repro.exceptions.CheckpointCorruptError` during
        validation *or* application (e.g. a referenced model file that no
        longer loads) discards the whole attempt — registry state is
        rebuilt from scratch per manifest, never patched — and falls back
        to the next older one.  After a manifest applies, its journal is
        replayed (torn tail tolerated), re-playing the model swaps and
        engine registrations that happened after the snapshot.  With
        ``concurrent=True`` the recovered service is wrapped in a fresh
        :class:`~repro.dbms.concurrent.ConcurrentAnalyticsService` (front
        statistics restored from the manifest).

        Raises
        ------
        CheckpointCorruptError
            When the directory holds no checkpoint that validates and
            applies.
        """
        versions = self.checkpoint_versions()
        skipped: list[tuple[int, str]] = []
        for version in reversed(versions):
            try:
                payload = self.load_checkpoint(version)
                recovered = self._apply(
                    version, payload, query_log_size, service_kwargs
                )
            except CheckpointCorruptError as exc:
                skipped.append((version, str(exc)))
                continue
            recovered.skipped_checkpoints = skipped
            if concurrent:
                recovered.front = self._wrap_front(
                    recovered, payload, concurrency_policy
                )
            return recovered
        raise CheckpointCorruptError(
            f"no valid checkpoint in {self.directory} "
            f"({len(versions)} candidate(s), all corrupt or inapplicable)",
            path=self.directory,
        )

    def _open_store(
        self, store_path: str, opened: dict[str, SQLiteDataStore]
    ) -> SQLiteDataStore | None:
        if store_path in self._stores:
            return self._stores[store_path]
        if store_path in opened:
            return opened[store_path]
        if store_path == ":memory:" or not Path(store_path).exists():
            return None
        store = SQLiteDataStore(store_path)
        opened[store_path] = store
        return store

    def _apply(
        self,
        version: int,
        payload: dict,
        query_log_size: int,
        service_kwargs: dict,
    ) -> RecoveredService:
        service = AnalyticsService(
            query_log_size=query_log_size, **service_kwargs
        )
        opened: dict[str, SQLiteDataStore] = {}
        table_stores: dict[str, SQLiteDataStore] = {}
        lifecycle_states: dict[str, dict] = {}
        front_stats: dict[str, dict] = {}
        for table, entry in sorted(payload.get("tables", {}).items()):
            binding = entry.get("engine_binding")
            if binding:
                store_path, store_table = binding[0], binding[1]
                store = self._open_store(store_path, opened)
                if store is not None:
                    service.register_table_from_store(
                        store, store_table, table=table
                    )
                    table_stores[table] = store
            model_file = entry.get("model_file")
            if model_file:
                try:
                    model = load_model(model_file)
                except ModelPersistenceError as exc:
                    # The manifest references state that no longer loads:
                    # the whole checkpoint is inapplicable, never patched.
                    for store in opened.values():
                        store.close()
                    raise CheckpointCorruptError(
                        f"checkpoint v{version} references model file "
                        f"{model_file} which no longer loads: {exc}",
                        path=self.directory / _checkpoint_name(version),
                        checkpoint_version=version,
                    ) from exc
                service.swap_model(
                    table, model, version=entry.get("model_version")
                )
            epoch = entry.get("registry_epoch")
            if isinstance(epoch, int):
                service.restore_registry_epoch(table, epoch)
            log_payload = entry.get("query_log")
            if log_payload:
                service.restore_query_log(
                    table, QueryLog.from_dict(log_payload)
                )
            stats_payload = entry.get("statistics")
            if stats_payload:
                service.statistics_for(table).merge(
                    ServingStatistics.from_dict(stats_payload)
                )
            if entry.get("lifecycle") is not None:
                lifecycle_states[table] = entry["lifecycle"]
            if entry.get("front_statistics") is not None:
                front_stats[table] = entry["front_statistics"]
        applied, dropped = self._replay_journal(
            version, service, opened, table_stores
        )
        stores = dict(table_stores)
        recovered = RecoveredService(
            service=service,
            front=None,
            checkpoint_version=version,
            checkpoint_path=self.directory / _checkpoint_name(version),
            journal_entries_applied=applied,
            journal_entries_dropped=dropped,
            lifecycle_states=lifecycle_states,
            stores=stores,
        )
        recovered._front_stats = front_stats  # type: ignore[attr-defined]
        return recovered

    def _replay_journal(
        self,
        version: int,
        service: AnalyticsService,
        opened: dict[str, SQLiteDataStore],
        table_stores: dict[str, SQLiteDataStore],
    ) -> tuple[int, int]:
        entries, dropped = StateJournal.entries(
            self.directory / _journal_name(version)
        )
        applied = 0
        for entry in entries:
            table = entry.get("table", "")
            kind = entry.get("event")
            if kind == "engine.registered":
                store_path = entry.get("store_path")
                if not store_path:
                    continue  # direct registration: no rebuildable provenance
                store = self._open_store(store_path, opened)
                if store is None:
                    dropped += 1
                    continue
                service.register_table_from_store(
                    store, entry.get("store_table") or table, table=table
                )
                table_stores[table] = store
                applied += 1
            elif kind == "model.swapped":
                model_file = entry.get("model_file")
                if not model_file:
                    dropped += 1
                    continue
                try:
                    model = load_model(model_file)
                except ModelPersistenceError:
                    dropped += 1
                    continue
                service.swap_model(table, model, version=entry.get("version"))
                applied += 1
        return applied, dropped

    def _wrap_front(
        self, recovered: RecoveredService, payload: dict, policy
    ) -> "ConcurrentAnalyticsService":
        from .concurrent import ConcurrentAnalyticsService

        front = ConcurrentAnalyticsService(
            recovered.service, policy=policy
        )
        for table, stats_payload in getattr(
            recovered, "_front_stats", {}
        ).items():
            front.statistics_for(table).merge(
                ServingStatistics.from_dict(stats_payload)
            )
        return front
