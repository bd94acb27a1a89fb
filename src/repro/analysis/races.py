"""Eraser-style runtime race detection + lock-order deadlock detection.

Two classic dynamic analyses over one :class:`RaceRegistry`:

**Lock-acquisition-order graph.**  Locks are created through
:meth:`RaceRegistry.make_lock` / :meth:`make_rlock`; every acquisition of
lock ``B`` while the thread already holds lock ``A`` records the directed
edge ``A → B`` (with the stack of the first acquisition that created it).
A cycle in that graph means two threads can interleave into a deadlock
even if the run at hand got lucky — :meth:`deadlock_findings` reports
each cycle with the stack of *every* edge on it.

**Lockset algorithm** (Savage et al., "Eraser", SOSP '97).  Shared-state
touchpoints call :meth:`RaceRegistry.note_access`; each variable walks
the state machine *virgin → exclusive(first thread) → shared /
shared-modified*.  When a second thread arrives, the candidate lockset
``C(v)`` is initialised to the locks held at that access and refined by
intersection on every later access; a **write** observed while ``C(v)``
is empty means no single lock consistently guards the variable — a
candidate race, reported with both the stack that first shared the
variable and the stack of the unprotected write.

Everything is deterministic given an access interleaving, so seeded
two-thread fixtures exercise both detectors without real contention.
"""

from __future__ import annotations

import itertools
import threading
import traceback
import weakref
from dataclasses import dataclass
from typing import Callable, Iterator

__all__ = [
    "CheckedLock",
    "RaceRegistry",
    "RaceFinding",
    "DeadlockFinding",
]

_VIRGIN = 0
_EXCLUSIVE = 1
_SHARED = 2
_SHARED_MODIFIED = 3

Stack = tuple[str, ...]


def _capture_stack(skip: int = 3, limit: int = 12) -> Stack:
    """A compact ``file:line in func`` stack, trimmed of detector frames."""
    frames = traceback.extract_stack()
    if skip > 0:
        frames = frames[:-skip]
    return tuple(
        f"{frame.filename}:{frame.lineno} in {frame.name}"
        for frame in frames[-limit:]
    )


@dataclass(frozen=True)
class DeadlockFinding:
    """A cycle in the lock-acquisition-order graph (potential deadlock)."""

    cycle: tuple[str, ...]
    stacks: tuple[Stack, ...]

    def format(self) -> str:
        arrows = " -> ".join(self.cycle + (self.cycle[0],))
        lines = [f"potential deadlock: lock-order cycle {arrows}"]
        for (holder, acquired), stack in zip(
            zip(self.cycle, self.cycle[1:] + (self.cycle[0],)), self.stacks
        ):
            lines.append(f"  edge {holder} -> {acquired} first seen at:")
            lines.extend(f"    {frame}" for frame in stack)
        return "\n".join(lines)


@dataclass(frozen=True)
class RaceFinding:
    """A shared variable mutated under inconsistent locksets."""

    touchpoint: str
    threads: tuple[str, ...]
    first_shared_stack: Stack
    unprotected_stack: Stack

    def format(self) -> str:
        lines = [
            f"candidate race on {self.touchpoint}: written by threads "
            f"{', '.join(self.threads)} with no consistently held lock",
            "  first shared at:",
        ]
        lines.extend(f"    {frame}" for frame in self.first_shared_stack)
        lines.append("  unprotected write at:")
        lines.extend(f"    {frame}" for frame in self.unprotected_stack)
        return "\n".join(lines)


class _VarState:
    """Eraser per-variable state (guarded by the registry's meta lock)."""

    __slots__ = (
        "state",
        "first_thread",
        "lockset",
        "threads",
        "first_shared_stack",
        "reported",
    )

    def __init__(self) -> None:
        self.state = _VIRGIN
        self.first_thread: int | None = None
        self.lockset: frozenset[int] = frozenset()
        self.threads: dict[int, str] = {}
        self.first_shared_stack: Stack = ()
        self.reported = False


class _HeldLocks(threading.local):
    """Per-thread multiset of held lock tokens (acquisition order kept)."""

    def __init__(self) -> None:
        self.order: list[int] = []
        self.counts: dict[int, int] = {}


class CheckedLock:
    """A ``threading.Lock``/``RLock`` that reports to a :class:`RaceRegistry`.

    Supports the full lock protocol (``acquire``/``release``/context
    manager/``locked``); only *successful* acquisitions are recorded, so
    ``acquire(blocking=False)`` misses never pollute the order graph.
    """

    def __init__(
        self,
        registry: "RaceRegistry",
        name: str,
        *,
        reentrant: bool = False,
    ) -> None:
        self._inner = threading.RLock() if reentrant else threading.Lock()
        self._registry = registry
        self.name = name
        self.reentrant = reentrant
        self.token = registry._register_lock(self)

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._registry._on_acquire(self)
        return acquired

    def release(self) -> None:
        self._registry._on_release(self)
        self._inner.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def locked(self) -> bool:
        inner_locked: Callable[[], bool] | None = getattr(
            self._inner, "locked", None
        )
        return inner_locked() if inner_locked is not None else False

    def __repr__(self) -> str:
        kind = "RLock" if self.reentrant else "Lock"
        return f"<CheckedLock {self.name} ({kind}) #{self.token}>"


class RaceRegistry:
    """One detector instance: lock-order graph + lockset states + findings.

    Thread-safe; all detector bookkeeping happens under a private plain
    ``threading.RLock`` (never a :class:`CheckedLock`, so the detector can
    never observe itself).  The meta lock must be reentrant: any
    allocation made while holding it can trigger a garbage collection,
    which can run a ``weakref.finalize`` callback (:meth:`_forget_owner`)
    on the same thread — with a plain lock that callback would
    self-deadlock re-acquiring it.
    """

    def __init__(self, *, capture_stacks: bool = True) -> None:
        self._meta = threading.RLock()
        self._capture = capture_stacks
        self._held = _HeldLocks()
        self._tokens = itertools.count(1)
        self._lock_names: dict[int, str] = {}
        #: (holder_token, acquired_token) -> stack of the edge's first sight
        self._edges: dict[tuple[int, int], Stack] = {}
        self._vars: dict[tuple[int, str], _VarState] = {}
        self._var_labels: dict[tuple[int, str], str] = {}
        self._owner_finalizers: dict[int, object] = {}
        self._races: list[RaceFinding] = []
        self.access_count = 0
        self.acquire_count = 0

    @property
    def lock_count(self) -> int:
        """How many checked locks this registry has wrapped."""
        with self._meta:
            return len(self._lock_names)

    # ------------------------------------------------------------------ #
    # lock wrapping
    # ------------------------------------------------------------------ #
    def make_lock(self, name: str = "lock") -> CheckedLock:
        """A checked ``threading.Lock`` participating in both analyses."""
        return CheckedLock(self, name, reentrant=False)

    def make_rlock(self, name: str = "rlock") -> CheckedLock:
        """A checked ``threading.RLock`` (re-acquisitions add no edges)."""
        return CheckedLock(self, name, reentrant=True)

    def _register_lock(self, lock: CheckedLock) -> int:
        with self._meta:
            token = next(self._tokens)
            self._lock_names[token] = lock.name
            return token

    def _on_acquire(self, lock: CheckedLock) -> None:
        held = self._held
        token = lock.token
        if held.counts.get(token):
            held.counts[token] += 1  # reentrant re-acquire: no new edges
            return
        new_edges = [
            (holder, token)
            for holder in held.order
            if (holder, token) not in self._edges
        ]
        stack = _capture_stack() if self._capture and new_edges else ()
        with self._meta:
            self.acquire_count += 1
            for edge in new_edges:
                self._edges.setdefault(edge, stack)
        held.order.append(token)
        held.counts[token] = 1

    def _on_release(self, lock: CheckedLock) -> None:
        held = self._held
        token = lock.token
        remaining = held.counts.get(token, 0) - 1
        if remaining > 0:
            held.counts[token] = remaining
            return
        held.counts.pop(token, None)
        for index in range(len(held.order) - 1, -1, -1):
            if held.order[index] == token:
                del held.order[index]
                break

    # ------------------------------------------------------------------ #
    # lockset algorithm
    # ------------------------------------------------------------------ #
    def note_access(
        self,
        owner: object,
        attr: str,
        *,
        write: bool = True,
        owner_name: str | None = None,
    ) -> None:
        """Record one access to a registered shared-state touchpoint.

        ``owner`` identifies the instance (keyed by ``id`` with a weakref
        finaliser so a recycled id never inherits stale state); ``attr``
        names the logical variable.  ``write=False`` records a read —
        reads refine the lockset but only writes can report a race.
        """
        held = frozenset(self._held.order)
        thread = threading.current_thread()
        key = (id(owner), attr)
        with self._meta:
            self.access_count += 1
            var = self._vars.get(key)
            if var is None:
                var = _VarState()
                self._vars[key] = var
                label = (
                    owner_name
                    if owner_name is not None
                    else type(owner).__name__
                )
                self._var_labels[key] = f"{label}.{attr}"
                self._add_owner_finalizer(owner)
            var.threads[thread.ident or 0] = thread.name
            if var.state == _VIRGIN:
                var.state = _EXCLUSIVE
                var.first_thread = thread.ident
                return
            if var.state == _EXCLUSIVE:
                if thread.ident == var.first_thread:
                    return
                var.state = _SHARED_MODIFIED if write else _SHARED
                var.lockset = held
                if self._capture:
                    var.first_shared_stack = _capture_stack()
            else:
                var.lockset = var.lockset & held
                if write:
                    var.state = _SHARED_MODIFIED
            if (
                var.state == _SHARED_MODIFIED
                and write
                and not var.lockset
                and not var.reported
            ):
                var.reported = True
                self._races.append(
                    RaceFinding(
                        touchpoint=self._var_labels[key],
                        threads=tuple(sorted(var.threads.values())),
                        first_shared_stack=var.first_shared_stack,
                        unprotected_stack=(
                            _capture_stack() if self._capture else ()
                        ),
                    )
                )

    def _add_owner_finalizer(self, owner: object) -> None:
        owner_id = id(owner)
        if owner_id in self._owner_finalizers:
            return
        try:
            finalizer = weakref.finalize(owner, self._forget_owner, owner_id)
        except TypeError:
            return  # not weakref-able (e.g. dict/tuple): no reuse guard
        self._owner_finalizers[owner_id] = finalizer

    def _forget_owner(self, owner_id: int) -> None:
        with self._meta:
            self._owner_finalizers.pop(owner_id, None)
            for key in [k for k in self._vars if k[0] == owner_id]:
                # Keep already-reported findings; drop live state so a
                # recycled id() starts virgin.
                del self._vars[key]
                self._var_labels.pop(key, None)

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def race_findings(self) -> list[RaceFinding]:
        with self._meta:
            return list(self._races)

    def deadlock_findings(self) -> list[DeadlockFinding]:
        """Every distinct simple cycle in the lock-order graph."""
        with self._meta:
            edges = dict(self._edges)
            names = dict(self._lock_names)
        adjacency: dict[int, list[int]] = {}
        for holder, acquired in edges:
            adjacency.setdefault(holder, []).append(acquired)
        findings: list[DeadlockFinding] = []
        seen: set[tuple[int, ...]] = set()
        for cycle in _simple_cycles(adjacency):
            canonical = _canonical_cycle(cycle)
            if canonical in seen:
                continue
            seen.add(canonical)
            ordered = list(canonical)
            pairs = list(zip(ordered, ordered[1:] + ordered[:1]))
            findings.append(
                DeadlockFinding(
                    cycle=tuple(
                        names.get(token, f"lock#{token}") for token in ordered
                    ),
                    stacks=tuple(edges.get(pair, ()) for pair in pairs),
                )
            )
        return findings

    def findings(self) -> list[RaceFinding | DeadlockFinding]:
        return [*self.race_findings(), *self.deadlock_findings()]

    def format_report(self) -> str:
        findings = self.findings()
        if not findings:
            return (
                f"race check clean: {self.access_count} accesses, "
                f"{len(self._edges)} lock-order edges, 0 findings"
            )
        parts = [
            f"race check FAILED: {len(findings)} finding(s) over "
            f"{self.access_count} accesses"
        ]
        parts.extend(finding.format() for finding in findings)
        return "\n\n".join(parts)

    def reset(self) -> None:
        """Drop all recorded state and findings (lock names persist)."""
        with self._meta:
            self._edges.clear()
            self._vars.clear()
            self._var_labels.clear()
            self._races.clear()
            self.access_count = 0
            self.acquire_count = 0


def _canonical_cycle(cycle: list[int]) -> tuple[int, ...]:
    """Rotate a cycle so it starts at its smallest token (dedup key)."""
    pivot = cycle.index(min(cycle))
    return tuple(cycle[pivot:] + cycle[:pivot])


def _simple_cycles(adjacency: dict[int, list[int]]) -> Iterator[list[int]]:
    """Simple cycles of a small digraph (DFS with an on-path set).

    The lock graph holds a handful of nodes, so a plain path-extension
    search is ample; each cycle is yielded in path order and de-duplicated
    by the caller via :func:`_canonical_cycle`.
    """
    nodes = sorted(
        set(adjacency) | {n for targets in adjacency.values() for n in targets}
    )
    for start in nodes:
        stack: list[tuple[int, Iterator[int]]] = [
            (start, iter(adjacency.get(start, ())))
        ]
        path = [start]
        on_path = {start}
        while stack:
            node, successors = stack[-1]
            advanced = False
            for nxt in successors:
                if nxt < start:
                    continue  # canonical: cycles start at their min node
                if nxt == start:
                    yield list(path)
                    continue
                if nxt not in on_path:
                    stack.append((nxt, iter(adjacency.get(nxt, ()))))
                    path.append(nxt)
                    on_path.add(nxt)
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                on_path.discard(path.pop())
