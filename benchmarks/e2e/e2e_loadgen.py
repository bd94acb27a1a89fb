"""Load generator of the end-to-end benchmark: one closed-loop client.

It drives a ``submit(statements, request_index) -> future`` callable, where
the future has the :class:`~repro.dbms.concurrent.ScriptFuture` surface
(``result(timeout)``), so the harness self-tests can drive it with a fake
front and a fake clock.

The client sends its next request as soon as the previous one answered and
the ``between`` hook (the host-speed reference unit, see
``e2e_hostspeed``) returned.  A request's latency runs from that moment,
its *due* time, to the answer.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.exceptions import ServiceClosedError, ServiceOverloadedError

#: A statement that has no answer this long after its due time has failed.
DEADLINE_SECONDS = 5.0


@dataclass
class Request:
    """One submitted script and what happened to it."""

    index: int
    due: float
    statements: Sequence
    submitted: float = math.nan
    answered: float = math.nan
    results: list | None = None
    failure: str | None = None  # "overloaded", "closed", "timeout" or "error"
    future: object = field(default=None, repr=False)

    @property
    def latency(self) -> float:
        return self.answered - self.due

    @property
    def failed_statements(self) -> int:
        """Statements of this request that count as failed."""
        if self.results is None:
            return len(self.statements)
        return sum(result.source == "error" for result in self.results)


def _settle(request: Request, now: float) -> None:
    """Record the answer of a request whose future is done."""
    request.answered = now
    try:
        request.results = request.future.result(0)
    except ServiceClosedError:
        request.failure = "closed"
    except Exception:  # a typed error attached by the front
        request.failure = "error"
    request.future = None


def _submit(submit: Callable, request: Request, clock: Callable[[], float]) -> bool:
    """Send one request; returns whether it was admitted."""
    try:
        request.future = submit(request.statements, request.index)
    except ServiceOverloadedError:
        request.failure = "overloaded"
    except ServiceClosedError:
        request.failure = "closed"
    request.submitted = clock()
    return request.failure is None


def run_closed_loop(
    submit: Callable,
    statements_for: Callable[[int], Sequence],
    *,
    duration: float,
    clock: Callable[[], float] = time.perf_counter,
    deadline: float = DEADLINE_SECONDS,
    first_index: int = 0,
    between: Callable[[], None] | None = None,
) -> list[Request]:
    """Send requests back to back for ``duration`` seconds.

    Returns every request in send order, answered, failed or timed out.
    """
    requests: list[Request] = []
    t0 = clock()
    index = first_index
    while True:
        if between is not None and requests:
            between()
        due = clock()
        if due - t0 >= duration:
            return requests
        request = Request(index, due, statements_for(index))
        requests.append(request)
        index += 1
        if _submit(submit, request, clock):
            try:
                request.future.result(timeout=max(0.0, request.due + deadline - clock()))
            except TimeoutError:
                request.failure = "timeout"
                request.future = None
            except Exception:  # settled with its error just below
                pass
            if request.future is not None:
                _settle(request, clock())


def summarize(requests: list[Request]) -> dict:
    """Statement counts and the answered requests of a run."""
    return {
        "requests": len(requests),
        "attempted": sum(len(r.statements) for r in requests),
        "failed": sum(r.failed_statements for r in requests),
        "rejected": sum(r.failure == "overloaded" for r in requests),
        "answered": [r for r in requests if r.results is not None],
    }
