"""An in-memory lifecycle-event sink for assertions on published events."""

from __future__ import annotations

from ..analysis.instrument import make_lock
from ..dbms.observer import LifecycleEvent

__all__ = ["RecordingObserver"]


class RecordingObserver:
    """Keep every received event in memory, in publication order."""

    def __init__(self) -> None:
        self.events: list[LifecycleEvent] = []
        self._lock = make_lock("testing.RecordingObserver")

    def notify(self, event: LifecycleEvent) -> None:
        with self._lock:
            self.events.append(event)

    def of_kind(self, kind: str) -> list[LifecycleEvent]:
        """Events whose kind matches exactly, in publication order."""
        with self._lock:
            return [event for event in self.events if event.kind == kind]

    def kinds(self) -> list[str]:
        """The kind of every received event, in publication order."""
        with self._lock:
            return [event.kind for event in self.events]
