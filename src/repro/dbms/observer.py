"""Lifecycle event observers: decouple serving/lifecycle events from sinks.

The serving tier and the model-lifecycle manager emit a stream of
operational events — drift detected, retrain started/succeeded/failed,
model swapped or rolled back, circuit breakers opening and closing,
statement groups degrading or erroring.  Consumers of those events
(metrics pipelines, loggers, test assertions) should not be wired into the
serving hot path, so the emitting side talks to one
:class:`ObserverHub` and sinks subscribe to it — the classic
subject/observer decoupling.

Observer failures never propagate: a broken metrics sink must not take the
serving path down with it, so :meth:`ObserverHub.publish` swallows (and
counts) exceptions raised by subscribers.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Protocol, runtime_checkable

from ..analysis.instrument import make_lock

__all__ = [
    "LifecycleEvent",
    "LifecycleObserver",
    "ObserverHub",
]


@dataclass(frozen=True)
class LifecycleEvent:
    """One operational event of the serving/lifecycle stack.

    Attributes
    ----------
    kind:
        Dotted event name, e.g. ``"drift.detected"``, ``"retrain.failed"``,
        ``"swap.committed"``, ``"swap.rolled_back"``, ``"breaker.opened"``,
        ``"group.degraded"``, ``"group.error"``.
    table:
        The serving table the event concerns (``""`` for global events).
    payload:
        Free-form event details (rates, versions, error strings).
    sequence:
        Monotonically increasing per-hub sequence number (publication
        order).
    timestamp:
        Wall-clock seconds (``time.time``) at publication.  Human-facing
        only: NTP can step it backwards, so it must never be used to
        order events.
    monotonic:
        Monotonic seconds (``time.monotonic``) at publication.  The
        ordering timestamp: never steps backwards, so interval math and
        cross-event ordering (``model.swapped`` vs ``scheduler.error``)
        stay correct even when the wall clock jumps.
    """

    kind: str
    table: str = ""
    payload: Mapping[str, object] = field(default_factory=dict)
    sequence: int = 0
    timestamp: float = 0.0
    monotonic: float = 0.0


@runtime_checkable
class LifecycleObserver(Protocol):
    """Anything that can receive lifecycle events."""

    def notify(self, event: LifecycleEvent) -> None:  # pragma: no cover - protocol
        ...


class ObserverHub:
    """Fan lifecycle events out to subscribed observers, never failing.

    Thread-safe: serving runs groups from multiple sessions (and the
    lifecycle manager swaps models) concurrently, and all of them publish
    into one hub.  A subscriber that raises is counted in
    ``dropped_notifications`` and otherwise ignored — observability must
    not reduce availability.
    """

    def __init__(
        self,
        *,
        clock: Callable[[], float] = time.monotonic,
        wall_clock: Callable[[], float] = time.time,
    ) -> None:
        self._observers: list[LifecycleObserver] = []
        self._lock = make_lock("observer.ObserverHub")
        self._sequence = itertools.count()
        self._clock = clock
        self._wall_clock = wall_clock
        self.dropped_notifications = 0

    def subscribe(self, observer: LifecycleObserver) -> None:
        """Add an observer (idempotent)."""
        with self._lock:
            if observer not in self._observers:
                self._observers.append(observer)

    def unsubscribe(self, observer: LifecycleObserver) -> None:
        """Remove an observer; unknown observers are ignored."""
        with self._lock:
            try:
                self._observers.remove(observer)
            except ValueError:
                pass

    def publish(self, kind: str, table: str = "", **payload: object) -> LifecycleEvent:
        """Build an event and deliver it to every subscriber."""
        event = LifecycleEvent(
            kind=kind,
            table=table,
            payload=payload,
            sequence=next(self._sequence),
            timestamp=self._wall_clock(),
            monotonic=self._clock(),
        )
        with self._lock:
            observers = list(self._observers)
        for observer in observers:
            try:
                observer.notify(event)
            except Exception:  # noqa: REPRO004 - counted in dropped_notifications; the hub IS the error channel and cannot publish to itself
                # An observer must never take the serving path down.
                self.dropped_notifications += 1
        return event
