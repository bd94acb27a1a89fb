"""Deterministic fault injection for the serving and lifecycle tiers.

Every failure mode the resilient-serving work defends against can be
reproduced on demand:

* **engine exceptions** — :class:`FaultyEngine` wraps any exact engine and
  raises armed errors (transient or persistent) from its batch entry
  points;
* **slow batches** — the same wrapper sleeps an armed delay before
  executing, driving admission control and the shutdown drain;
* **truncated / corrupt model files** — :func:`corrupt_model_file`
  damages a persisted model in four distinct ways;
* **mid-swap crashes** — the lifecycle manager fires named
  :class:`FaultInjector` points around persist/swap/evaluate, so a crash
  can be injected between any two steps of the hot-swap sequence.

The injector is deterministic (no randomness): faults are *armed* with an
explicit count and skip, so a test or CI soak replays the same failure
sequence every run.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from ..exceptions import InjectedFaultError
from ..queries.query import Query

__all__ = [
    "ArmedFault",
    "FaultInjector",
    "FaultyEngine",
    "FaultyModel",
    "corrupt_model_file",
    "corrupt_checkpoint_file",
    "truncate_journal",
    "CORRUPTION_MODES",
    "CHECKPOINT_CORRUPTION_MODES",
]


@dataclass
class ArmedFault:
    """One armed fault at a named injection point.

    Attributes
    ----------
    error:
        The exception instance (or exception class) raised when the fault
        fires; ``None`` makes the fault delay-only.
    delay_seconds:
        Sleep injected before the (possible) raise — models a slow batch.
    times:
        How many firings raise/delay before the fault exhausts itself;
        ``None`` means "every time until disarmed".
    after:
        Number of matching firings skipped before the fault becomes
        active (``after=2`` hits the third call).
    fired:
        How many times this fault has actually raised/delayed.
    seen:
        How many firings have reached this fault (including skipped ones).
    """

    error: BaseException | type[BaseException] | None = None
    delay_seconds: float = 0.0
    times: int | None = 1
    after: int = 0
    fired: int = 0
    seen: int = 0

    def take(self) -> bool:
        """Account one firing; returns True when the fault should trigger."""
        self.seen += 1
        if self.seen <= self.after:
            return False
        if self.times is not None and self.fired >= self.times:
            return False
        self.fired += 1
        return True

    def build_error(self, point: str) -> BaseException | None:
        if self.error is None:
            return None
        if isinstance(self.error, type):
            return self.error(f"injected fault at {point!r}")
        return self.error


class FaultInjector:
    """A registry of named fault points with deterministic arming.

    Production code calls :meth:`fire` at its instrumented points; with no
    armed fault the call is a cheap dictionary miss, so instrumented code
    can keep its fault points in place permanently.
    """

    def __init__(self) -> None:
        self._faults: dict[str, list[ArmedFault]] = {}
        self._lock = threading.Lock()
        self._fired: dict[str, int] = {}

    def arm(
        self,
        point: str,
        *,
        error: BaseException | type[BaseException] | None = InjectedFaultError,
        delay_seconds: float = 0.0,
        times: int | None = 1,
        after: int = 0,
    ) -> ArmedFault:
        """Arm a fault at a named point and return its handle.

        Multiple faults can be armed at one point; they are evaluated in
        arming order and the first active one wins per firing.
        """
        fault = ArmedFault(
            error=error, delay_seconds=delay_seconds, times=times, after=after
        )
        with self._lock:
            self._faults.setdefault(point, []).append(fault)
        return fault

    def disarm(self, point: str | None = None) -> None:
        """Remove armed faults at ``point`` (or everywhere with ``None``)."""
        with self._lock:
            if point is None:
                self._faults.clear()
            else:
                self._faults.pop(point, None)

    def fired_count(self, point: str) -> int:
        """How many times an armed fault actually triggered at ``point``."""
        with self._lock:
            return self._fired.get(point, 0)

    def fire(self, point: str, **context: object) -> None:
        """Trigger a fault point: delay and/or raise when one is armed.

        ``context`` is attached to the raised error as ``fault_context``
        so assertions can inspect what the failing call was doing.
        """
        with self._lock:
            faults = self._faults.get(point)
            if not faults:
                return
            triggered: ArmedFault | None = None
            for fault in faults:
                if fault.take():
                    triggered = fault
                    break
            if triggered is None:
                return
            self._fired[point] = self._fired.get(point, 0) + 1
            delay = triggered.delay_seconds
            error = triggered.build_error(point)
        if delay > 0.0:
            time.sleep(delay)
        if error is not None:
            error.fault_context = dict(context)  # type: ignore[attr-defined]
            raise error


@dataclass
class _CallCounts:
    """Per-entry-point call counters of a faulty wrapper."""

    counts: dict[str, int] = field(default_factory=dict)

    def bump(self, name: str) -> int:
        self.counts[name] = self.counts.get(name, 0) + 1
        return self.counts[name]


class FaultyEngine:
    """Wrap an exact engine with fault points on its batch entry points.

    Fires ``"{name}.q1_batch"`` / ``"{name}.q2_batch"`` before delegating
    (default ``name="engine"``).  Everything else (statistics, ...) is
    delegated untouched, so the wrapper drops into any place an engine is
    accepted — the serving registry or a trainer.
    """

    def __init__(
        self, inner: object, injector: FaultInjector, *, name: str = "engine"
    ) -> None:
        self._inner = inner
        self._injector = injector
        self._name = name
        self.calls = _CallCounts()

    @property
    def inner(self) -> object:
        return self._inner

    def _fire(self, op: str, **context: object) -> None:
        self.calls.bump(op)
        self._injector.fire(f"{self._name}.{op}", engine=self._name, **context)

    def execute_q1_batch(self, queries: Sequence[Query], **kwargs: object):
        self._fire("q1_batch", batch=len(queries))
        return self._inner.execute_q1_batch(queries, **kwargs)  # type: ignore[attr-defined]

    def execute_q2_batch(self, queries: Sequence[Query], **kwargs: object):
        self._fire("q2_batch", batch=len(queries))
        return self._inner.execute_q2_batch(queries, **kwargs)  # type: ignore[attr-defined]

    def __getattr__(self, item: str):
        return getattr(self._inner, item)


class FaultyModel:
    """Wrap a trained model with fault points on its serving entry points.

    Fires ``"{name}.predict"`` before every batched prediction call
    (default ``name="model"``); everything else is delegated, including
    ``config`` / ``is_fitted`` so norm resolution and hybrid gating see
    the real model.
    """

    def __init__(
        self, inner: object, injector: FaultInjector, *, name: str = "model"
    ) -> None:
        self._inner = inner
        self._injector = injector
        self._name = name
        self.calls = _CallCounts()

    @property
    def inner(self) -> object:
        return self._inner

    def _fire(self, **context: object) -> None:
        self.calls.bump("predict")
        self._injector.fire(f"{self._name}.predict", model=self._name, **context)

    def predict_mean_batch(self, queries, *args, **kwargs):
        self._fire(batch=len(queries))
        return self._inner.predict_mean_batch(queries, *args, **kwargs)  # type: ignore[attr-defined]

    def predict_q2_batch(self, queries, *args, **kwargs):
        self._fire(batch=len(queries))
        return self._inner.predict_q2_batch(queries, *args, **kwargs)  # type: ignore[attr-defined]

    def predict_mean_batch_with_coverage(self, queries, *args, **kwargs):
        self._fire(batch=len(queries))
        return self._inner.predict_mean_batch_with_coverage(  # type: ignore[attr-defined]
            queries, *args, **kwargs
        )

    def predict_q2_batch_with_coverage(self, queries, *args, **kwargs):
        self._fire(batch=len(queries))
        return self._inner.predict_q2_batch_with_coverage(  # type: ignore[attr-defined]
            queries, *args, **kwargs
        )

    def __getattr__(self, item: str):
        return getattr(self._inner, item)


#: The model-file corruption modes :func:`corrupt_model_file` implements.
CORRUPTION_MODES = (
    "truncate",
    "garbage",
    "bad_version",
    "missing_field",
    "non_finite",
)


def corrupt_model_file(path: str | Path, mode: str = "truncate") -> Path:
    """Damage a persisted model file in place (for recovery testing).

    Modes
    -----
    ``"truncate"``
        Keep only the first half of the bytes — a crash mid-write (of a
        non-atomic writer) or a torn copy.
    ``"garbage"``
        Replace the content with non-JSON bytes.
    ``"bad_version"``
        Keep valid JSON but stamp an unsupported ``format_version``.
    ``"missing_field"``
        Keep valid JSON of the right version but drop the required
        ``dimension`` field.
    ``"non_finite"``
        Keep valid JSON of the right version but set the last map's
        prototype radius to ``Infinity``, which ``json`` writes and reads.
    """
    import json

    target = Path(path)
    if mode not in CORRUPTION_MODES:
        raise ValueError(
            f"unknown corruption mode {mode!r}; expected one of {CORRUPTION_MODES}"
        )
    if mode == "truncate":
        data = target.read_bytes()
        target.write_bytes(data[: max(1, len(data) // 2)])
    elif mode == "garbage":
        target.write_bytes(b"\x00\xffnot-a-model\x00" * 8)
    elif mode == "bad_version":
        payload = json.loads(target.read_text(encoding="utf-8"))
        payload["format_version"] = 9999
        target.write_text(json.dumps(payload), encoding="utf-8")
    elif mode == "missing_field":
        payload = json.loads(target.read_text(encoding="utf-8"))
        payload.pop("dimension", None)
        target.write_text(json.dumps(payload), encoding="utf-8")
    else:  # non_finite
        payload = json.loads(target.read_text(encoding="utf-8"))
        payload["maps"][-1]["prototype"][-1] = float("inf")
        target.write_text(json.dumps(payload), encoding="utf-8")
    return target


#: Checkpoint-manifest corruption modes of :func:`corrupt_checkpoint_file`.
CHECKPOINT_CORRUPTION_MODES = (
    "truncate",
    "garbage",
    "bad_checksum",
    "bad_version",
)


def corrupt_checkpoint_file(path: str | Path, mode: str = "truncate") -> Path:
    """Damage a durability checkpoint manifest in place (recovery drills).

    Modes
    -----
    ``"truncate"``
        Keep the first half of the bytes — a torn manifest as a
        *non-atomic* writer would leave it (the atomic writer never does;
        this is the failure the checksum+rename design defends against).
    ``"garbage"``
        Replace the content with non-JSON bytes.
    ``"bad_checksum"``
        Keep a structurally valid manifest whose payload no longer
        matches its checksum — silent bit rot or tampering.
    ``"bad_version"``
        Stamp an unsupported manifest ``format_version``.

    Every mode must make :meth:`RecoveryManager.load_checkpoint` raise
    :class:`~repro.exceptions.CheckpointCorruptError`, sending recovery to
    the previous checkpoint.
    """
    import json

    target = Path(path)
    if mode not in CHECKPOINT_CORRUPTION_MODES:
        raise ValueError(
            f"unknown corruption mode {mode!r}; expected one of "
            f"{CHECKPOINT_CORRUPTION_MODES}"
        )
    if mode == "truncate":
        data = target.read_bytes()
        target.write_bytes(data[: max(1, len(data) // 2)])
    elif mode == "garbage":
        target.write_bytes(b"\x00\xffnot-a-checkpoint\x00" * 8)
    elif mode == "bad_checksum":
        manifest = json.loads(target.read_text(encoding="utf-8"))
        tables = manifest.get("payload", {}).get("tables", {})
        for entry in tables.values():
            entry["registry_epoch"] = int(entry.get("registry_epoch", 0)) + 999
            break
        else:
            manifest.setdefault("payload", {})["_rot"] = True
        target.write_text(json.dumps(manifest), encoding="utf-8")
    else:  # bad_version
        manifest = json.loads(target.read_text(encoding="utf-8"))
        manifest["format_version"] = 9999
        target.write_text(json.dumps(manifest), encoding="utf-8")
    return target


def truncate_journal(
    path: str | Path, *, keep_lines: int = 0, tear_bytes: int = 0
) -> Path:
    """Truncate a state journal as a crash mid-append would.

    Keeps the first ``keep_lines`` complete lines; ``tear_bytes`` then
    appends that many bytes of the *next* line without its terminator —
    the torn tail a crashed ``O_APPEND`` write can leave.  Journal loading
    must keep every complete line and drop only the tear.
    """
    target = Path(path)
    lines = target.read_bytes().split(b"\n")
    kept = b"\n".join(lines[:keep_lines])
    if kept:
        kept += b"\n"
    if tear_bytes > 0 and len(lines) > keep_lines:
        kept += lines[keep_lines][:tear_bytes]
    target.write_bytes(kept)
    return target
