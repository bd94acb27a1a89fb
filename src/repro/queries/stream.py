"""Query/answer streams.

Training in the paper is *streaming*: the model observes a continuous
sequence of ``(query, answer)`` pairs produced by the interaction between
analysts and the DBMS (Figure 2) and updates its parameters one pair at a
time.  :class:`LabelledWorkload` is a pre-computed, replayable set of such
pairs, labelled by the exact engine in one batch; :class:`QueryLog` keeps
the recent queries a serving tier answered, the stream a retrain replays.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..exceptions import WorkloadError
from .query import Query, QueryResultPair

__all__ = ["LabelledWorkload", "QueryLog"]


class QueryLog:
    """A bounded, thread-safe ring buffer of recently served queries.

    The serving layer records every statement's query here (per table), so
    the lifecycle manager can retrain on the *actual recent traffic* — the
    stream whose coverage the stale model is failing — instead of on a
    synthetic workload.  Old entries fall off the far end once ``capacity``
    is reached, making the log a sliding window over the query stream.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise WorkloadError(f"capacity must be >= 1, got {capacity}")
        self._capacity = int(capacity)
        self._entries: deque[Query] = deque(maxlen=self._capacity)
        self._lock = threading.Lock()
        self._recorded = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def total_recorded(self) -> int:
        """Number of queries ever recorded (including evicted ones)."""
        return self._recorded

    def __len__(self) -> int:
        return len(self._entries)

    def record(self, query: Query) -> None:
        """Append one query, evicting the oldest when full."""
        with self._lock:
            self._entries.append(query)
            self._recorded += 1

    def record_many(self, queries: Iterable[Query]) -> None:
        """Append many queries in stream order."""
        with self._lock:
            for query in queries:
                self._entries.append(query)
                self._recorded += 1

    def snapshot(self) -> list[Query]:
        """A point-in-time copy of the retained queries, oldest first."""
        with self._lock:
            return list(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def to_dict(self) -> dict:
        """Serialise the log (capacity, lifetime count, retained queries).

        The durability checkpointer persists each table's log with this so
        a restarted service resumes with the *same* recent-traffic window
        the lifecycle manager would otherwise have to rebuild from live
        traffic before it could retrain.
        """
        with self._lock:
            return {
                "capacity": self._capacity,
                "total_recorded": self._recorded,
                "queries": [
                    {
                        "center": [float(v) for v in query.center],
                        "radius": float(query.radius),
                        "norm_order": float(query.norm_order),
                    }
                    for query in self._entries
                ],
            }

    @classmethod
    def from_dict(cls, payload: dict) -> "QueryLog":
        """Rebuild a log serialised by :meth:`to_dict` (order preserved)."""
        log = cls(int(payload.get("capacity", 256)))
        for entry in payload.get("queries", []):
            log._entries.append(
                Query(
                    center=np.asarray(entry["center"], dtype=float),
                    radius=float(entry["radius"]),
                    norm_order=float(entry.get("norm_order", 2.0)),
                )
            )
        log._recorded = int(payload.get("total_recorded", len(log._entries)))
        return log


@dataclass(frozen=True)
class LabelledWorkload:
    """A replayable, fully materialised set of ``(query, answer)`` pairs."""

    pairs: tuple[QueryResultPair, ...]

    def __post_init__(self) -> None:
        if not self.pairs:
            raise WorkloadError("a labelled workload must contain at least one pair")

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[QueryResultPair]:
        return iter(self.pairs)

    def __getitem__(self, index: int) -> QueryResultPair:
        return self.pairs[index]

    @property
    def queries(self) -> list[Query]:
        """The queries of every pair, in stream order."""
        return [pair.query for pair in self.pairs]

    @property
    def answers(self) -> np.ndarray:
        """The answers of every pair as a float array, in stream order."""
        return np.array([pair.answer for pair in self.pairs], dtype=float)

    @classmethod
    def from_engine(cls, queries: Sequence[Query], engine) -> "LabelledWorkload":
        """Label queries with exact Q1 answers in one engine batch.

        ``engine`` is anything with ``execute_q1_batch``, such as the
        exact engine; queries that select no rows are dropped.
        """
        batch = list(queries)
        answers = engine.execute_q1_batch(batch, on_empty="null")
        return cls(
            pairs=tuple(
                QueryResultPair(query=query, answer=answer.mean)
                for query, answer in zip(batch, answers)
                if answer is not None
            )
        )

    def split(self, training_fraction: float, *, seed: int | None = None) -> tuple[
        "LabelledWorkload", "LabelledWorkload"
    ]:
        """Split into training and testing labelled workloads."""
        if not 0.0 < training_fraction < 1.0:
            raise WorkloadError(
                f"training_fraction must be in (0, 1), got {training_fraction}"
            )
        if len(self.pairs) < 2:
            raise WorkloadError("need at least two pairs to split")
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(self.pairs))
        cut = int(round(len(self.pairs) * training_fraction))
        cut = min(max(cut, 1), len(self.pairs) - 1)
        train = tuple(self.pairs[i] for i in order[:cut])
        test = tuple(self.pairs[i] for i in order[cut:])
        return LabelledWorkload(train), LabelledWorkload(test)
