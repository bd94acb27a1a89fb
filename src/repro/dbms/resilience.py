"""Resilience of the serving tier: the retry policy and per-tier circuit breakers.

:class:`~repro.dbms.serving.AnalyticsService` runs every engine and model
call through a guarded path: transient failures retry with exponential
backoff under a :class:`DegradationPolicy`, and a per-``(table, tier)``
:class:`CircuitBreaker` sheds a tier that keeps failing, so hybrid groups
can degrade to the surviving tier.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

from ..analysis.instrument import make_lock
from ..config import require_integer
from ..exceptions import ConfigurationError

__all__ = ["DegradationPolicy", "CircuitBreaker"]


@dataclass(frozen=True)
class DegradationPolicy:
    """Retry / circuit-breaker policy of the guarded serving path.

    Attributes
    ----------
    max_attempts:
        Total tries per tier call for *transient* failures
        (:class:`~repro.exceptions.TransientEngineError`).  Non-transient
        exceptions never retry.
    backoff_seconds / backoff_multiplier:
        Sleep before retry ``k`` is ``backoff_seconds *
        backoff_multiplier**(k - 1)``; both finite, the first at least 0
        and the second at least 1.
    breaker_failure_threshold:
        Consecutive failures after which a ``(table, tier)`` breaker
        opens.
    breaker_reset_seconds:
        Open time before the breaker half-opens and lets a probe call
        through; a successful probe closes it, a failing probe re-opens
        it.
    """

    max_attempts: int = 3
    backoff_seconds: float = 0.02
    backoff_multiplier: float = 2.0
    breaker_failure_threshold: int = 3
    breaker_reset_seconds: float = 30.0

    def __post_init__(self) -> None:
        require_integer("max_attempts", self.max_attempts, 1)
        if not (
            0.0 <= self.backoff_seconds < math.inf
            and 1.0 <= self.backoff_multiplier < math.inf
        ):
            raise ConfigurationError(
                "backoff_seconds must be finite and >= 0 and "
                "backoff_multiplier finite and >= 1"
            )
        require_integer(
            "breaker_failure_threshold", self.breaker_failure_threshold, 1
        )
        if not self.breaker_reset_seconds >= 0.0:
            raise ConfigurationError(
                "breaker_reset_seconds must be >= 0, got "
                f"{self.breaker_reset_seconds}"
            )


class CircuitBreaker:
    """A minimal three-state circuit breaker (closed / open / half-open).

    ``closed`` passes calls and counts consecutive failures; at
    ``failure_threshold`` it opens.  ``open`` rejects calls until
    ``reset_seconds`` elapse, then half-opens.  ``half_open`` passes calls
    as probes: one success closes the breaker, one failure re-opens it.
    The clock is injectable so tests drive the state machine
    deterministically.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        failure_threshold: int,
        reset_seconds: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._threshold = int(failure_threshold)
        self._reset_seconds = float(reset_seconds)
        self._clock = clock
        self._state = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._lock = make_lock("resilience.CircuitBreaker")

    @property
    def state(self) -> str:
        with self._lock:
            return self._peek_state()

    def _peek_state(self) -> str:
        if (
            self._state == self.OPEN
            and self._clock() - self._opened_at >= self._reset_seconds
        ):
            return self.HALF_OPEN
        return self._state

    def allow(self) -> bool:
        """Whether a call may proceed now (open → half-open on reset lapse)."""
        with self._lock:
            state = self._peek_state()
            if state == self.OPEN:
                return False
            self._state = state
            return True

    def record_success(self) -> None:
        with self._lock:
            self._state = self.CLOSED
            self._consecutive_failures = 0

    def record_failure(self) -> None:
        with self._lock:
            self._consecutive_failures += 1
            if (
                self._state == self.HALF_OPEN
                or self._consecutive_failures >= self._threshold
            ):
                self._state = self.OPEN
                self._opened_at = self._clock()
