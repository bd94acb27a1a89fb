"""Declarative SQL-style front end for Q1 and Q2 analytics queries.

The paper notes (Appendix IV) that Q1 and Q2 have a natural SQL surface
syntax in in-DBMS analytics products.  This module implements a small
dialect over the library's data stores so that examples and downstream
users can express analytics queries declaratively:

.. code-block:: sql

    -- Q1: mean-value query over a dNN subspace
    SELECT AVG(u) FROM sensors WITHIN 0.1 OF (0.3, 0.5);

    -- Q2: regression query over a dNN subspace, Manhattan ball
    SELECT REGRESSION(u) FROM sensors WITHIN 0.1 OF (0.3, 0.5) NORM 1;

    -- count of the selected subspace
    SELECT COUNT(*) FROM sensors WITHIN 0.1 OF (0.3, 0.5);

Statements compose into ``;``-separated multi-statement scripts
(:func:`parse_script`), and the optional ``NORM p`` clause selects the Lp
ball geometry of the selection operator (``NORM INF`` for the Chebyshev
norm).  Without the clause, the norm is resolved *per table* at execution
time from the registered model's configuration, so approximate answers are
always produced under the geometry the model was trained with.

A statement is validated once, when it is built: a
:class:`ParsedStatement` refuses a non-finite or empty center, a radius
that is not finite and positive, a ``NORM`` order below 1, and a finite
``NORM p`` whose ``radius ** p`` is not a normal positive float64 (the Lp
terms lose the ball once that power underflows or overflows), each with
:class:`~repro.exceptions.SQLSyntaxError`.  So every parsed statement is a
valid query, and the serving layers take its floats as they are.  A
statement without ``NORM`` meets the same bound under its table's default
order when a service admits it.

:func:`parse_statement` is memoized on the statement text (a bounded LRU
of ``_PARSE_CACHE_SIZE`` texts, the answer cache's default capacity), as a
DBMS reuses the parsed form of a statement text it has seen: a repeated
dashboard statement skips the grammar, and every caller of one text shares
one immutable :class:`ParsedStatement`, whose cache-key bytes are computed
once.  A refused text is not cached; it raises on every call.

A session can run statements in *exact* mode (against the
:class:`~repro.dbms.executor.ExactQueryEngine`), *model* mode (against a
trained :class:`~repro.core.model.LLMModel`; ``"approximate"`` is accepted
as a legacy alias) or *hybrid* mode — answered from the model with a
transparent per-query fallback to the exact engine when the model has no
overlapping prototypes — mirroring the system context of Figure 2 where
the model answers queries after training without touching the data.  The
heavy lifting lives in :class:`~repro.dbms.serving.AnalyticsService`;
:class:`AnalyticsSession` is the thin per-user façade over it.
"""

from __future__ import annotations

import functools
import math
import re
import struct
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Literal, Sequence

import numpy as np

from ..exceptions import ConfigurationError, SQLSyntaxError
from ..queries.query import Query, radius_power_is_normal

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..dbms.executor import ExactQueryEngine
    from .serving import AnalyticsService, StatementResult

__all__ = [
    "ParsedStatement",
    "parse_statement",
    "parse_script",
    "AnalyticsSession",
]

#: The dialect's unsigned numeric literal (ASCII digits only, no ``_``); a
#: center coordinate may carry a sign.
_NUMBER = r"[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?"

_STATEMENT_RE = re.compile(
    rf"""
    ^\s*SELECT\s+
    (?P<projection>AVG\(\s*u\s*\)|REGRESSION\(\s*u\s*\)|COUNT\(\s*\*\s*\))
    \s+FROM\s+(?P<table>[A-Za-z_][A-Za-z0-9_]*)
    \s+WITHIN\s+(?P<radius>{_NUMBER})
    \s+OF\s*\(\s*(?P<center>[-+]?{_NUMBER}(?:\s*,\s*[-+]?{_NUMBER})*)\s*\)
    (?:\s+NORM\s+(?P<norm>INF(?:INITY)?|{_NUMBER}))?
    \s*;?\s*$
    """,
    re.IGNORECASE | re.VERBOSE,
)

#: Distinct statement texts :func:`parse_statement` keeps parsed, the
#: answer cache's default capacity (``ConcurrencyPolicy.cache_capacity``).
_PARSE_CACHE_SIZE = 4096

#: ``--``-to-end-of-line comments stripped from scripts before parsing.
_COMMENT_RE = re.compile(r"--[^\n]*")


@dataclass(frozen=True)
class ParsedStatement:
    """Structured representation of one analytics statement.

    ``norm_order`` is the Lp order of an explicit ``NORM p`` clause, or
    ``None`` when the statement leaves the geometry to be resolved by the
    session (from the table's registered model, defaulting to Euclidean).

    Construction validates the statement as a query: the center must be
    non-empty and finite, the radius finite and positive, and an explicit
    norm order at least 1, with ``radius ** p`` a normal positive float64
    when it is finite.  A violation raises
    :class:`~repro.exceptions.SQLSyntaxError`, so a statement that exists
    is one the serving layers can execute and cache without re-checking.
    Statements are immutable, so one object can serve every caller of a
    memoized text.
    """

    kind: Literal["q1", "q2", "count"]
    table: str
    center: tuple[float, ...]
    radius: float
    norm_order: float | None = None
    #: The native float64 bytes of ``[center, radius]``, packed once: those
    #: of ``to_query().to_vector().tobytes()`` under any norm order, and the
    #: query part of the concurrent front's cache key.
    vector_bytes: bytes = field(init=False, repr=False, compare=False)
    #: ``math.log(radius)``, taken once: the serving layers check a
    #: statement without ``NORM`` against its table's default order from it.
    log_radius: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # NaN fails math.isfinite and every comparison: each check refuses it.
        if len(self.center) == 0 or not all(map(math.isfinite, self.center)):
            raise SQLSyntaxError(
                f"the query center must be non-empty and finite, got {self.center}"
            )
        if not 0.0 < self.radius < math.inf:
            raise SQLSyntaxError(
                f"radius must be finite and positive, got {self.radius}"
            )
        if self.norm_order is not None:
            if not self.norm_order >= 1.0:
                raise SQLSyntaxError(f"NORM order must be >= 1, got {self.norm_order}")
            if not radius_power_is_normal(self.radius, self.norm_order):
                raise SQLSyntaxError(
                    f"radius ** NORM must be a normal positive float64, got "
                    f"WITHIN {self.radius} NORM {self.norm_order}"
                )
        object.__setattr__(
            self,
            "vector_bytes",
            struct.pack(f"{len(self.center) + 1}d", *self.center, self.radius),
        )
        object.__setattr__(self, "log_radius", math.log(self.radius))

    def to_query(self, norm_order: float | None = None) -> Query:
        """Build the library's query object from the parsed statement.

        The resolution precedence is: an explicit ``NORM p`` clause on the
        statement wins; otherwise the caller's per-table default
        (``norm_order`` argument) applies; otherwise the Euclidean norm.
        """
        if self.norm_order is not None:
            order = self.norm_order
        elif norm_order is not None:
            order = float(norm_order)
        else:
            order = 2.0
        return Query(
            center=np.asarray(self.center, dtype=float),
            radius=self.radius,
            norm_order=order,
        )


@functools.lru_cache(maxsize=_PARSE_CACHE_SIZE)
def parse_statement(sql: str) -> ParsedStatement:
    """Parse one statement of the analytics dialect.

    Memoized on the text: a repeated text returns the one
    :class:`ParsedStatement` parsed first, so callers must not rely on
    distinct identities.  ``parse_statement.cache_info()`` and
    ``parse_statement.cache_clear()`` inspect and reset the memo.

    Raises
    ------
    SQLSyntaxError
        If the statement does not match the dialect grammar or has an
        invalid center/radius/norm (checked by :class:`ParsedStatement`).
        A refused text is not memoized.
    """
    match = _STATEMENT_RE.match(sql)
    if match is None:
        raise SQLSyntaxError(
            "statement does not match 'SELECT AVG(u)|REGRESSION(u)|COUNT(*) "
            f"FROM <table> WITHIN <radius> OF (<center>) [NORM <p>]': {sql!r}"
        )
    projection = match.group("projection").upper().replace(" ", "")
    if projection.startswith("AVG"):
        kind: Literal["q1", "q2", "count"] = "q1"
    elif projection.startswith("REGRESSION"):
        kind = "q2"
    else:
        kind = "count"
    center = tuple(map(float, match.group("center").split(",")))
    norm_text = match.group("norm")
    norm_order: float | None = None
    if norm_text is not None:
        norm_order = (
            float("inf") if norm_text.upper().startswith("INF") else float(norm_text)
        )
    return ParsedStatement(
        kind=kind,
        table=match.group("table"),
        center=center,
        radius=float(match.group("radius")),
        norm_order=norm_order,
    )


def parse_script(sql: str) -> list[ParsedStatement]:
    """Parse a ``;``-separated multi-statement script.

    ``--`` comments run to the end of their line; empty statements (e.g.
    produced by a trailing semicolon or blank lines) are skipped.  Each
    statement is parsed stripped of its surrounding whitespace, so one
    statement text is memoized once wherever it sits in a script.
    """
    chunks = (chunk.strip() for chunk in _COMMENT_RE.sub("", sql).split(";"))
    return [parse_statement(chunk) for chunk in chunks if chunk]


class AnalyticsSession:
    """Execute analytics statements against exact engines and/or trained models.

    The session is a thin façade over
    :class:`~repro.dbms.serving.AnalyticsService` — one registry of
    per-table exact engines and trained models, shared batched execution
    paths, and serving statistics.  Multiple sessions can share one service
    (pass ``service=``), which is how a deployment serves many users from a
    single registry of trained models.  The shared backend may equally be a
    :class:`~repro.dbms.concurrent.ConcurrentAnalyticsService` — the façade
    only relies on the common ``execute`` / ``execute_script`` / registry
    surface, so sessions attach to the coalescing, caching concurrent
    front interchangeably (that is the intended many-users topology: one
    front, one session per user, statements coalescing across them).

    Parameters
    ----------
    engines:
        Mapping of table name to exact engine; used by exact execution and
        as the fallback tier of hybrid execution.
    models:
        Mapping of table name to trained LLM model (``predict_mean_batch``
        / ``predict_q2_batch`` interface); used by model-side execution.
    service:
        An existing :class:`~repro.dbms.serving.AnalyticsService` (or
        :class:`~repro.dbms.concurrent.ConcurrentAnalyticsService`) to
        attach to instead of building a private one (mutually exclusive
        with ``engines`` / ``models``).
    """

    def __init__(
        self,
        engines: "dict[str, ExactQueryEngine] | None" = None,
        models: dict[str, object] | None = None,
        *,
        service: "AnalyticsService | None" = None,
    ) -> None:
        if service is not None and (engines or models):
            raise ConfigurationError(
                "pass either an existing service or engines/models, not both"
            )
        if service is None:
            from .serving import AnalyticsService

            service = AnalyticsService(engines=engines, models=models)
        self._service = service

    @property
    def service(self) -> "AnalyticsService":
        """The underlying serving layer (registry, batch paths, statistics)."""
        return self._service

    def register_engine(self, table: str, engine: "ExactQueryEngine") -> None:
        """Attach an exact engine under a table name."""
        self._service.register_engine(table, engine)

    def register_model(self, table: str, model: object) -> None:
        """Attach a trained approximate model under a table name."""
        self._service.register_model(table, model)

    @property
    def tables(self) -> list[str]:
        """All table names known to the session."""
        return self._service.tables

    @staticmethod
    def _resolve_mode(mode: str) -> str:
        # "approximate" is the seed-era name for model-side execution.
        if mode == "approximate":
            return "model"
        if mode in ("exact", "model", "hybrid"):
            return mode
        raise SQLSyntaxError(f"unknown execution mode {mode!r}")

    def execute(
        self,
        sql: str,
        *,
        mode: Literal["exact", "approximate", "model", "hybrid"] = "exact",
    ):
        """Parse and run one statement.

        Returns
        -------
        float | int | list
            * Q1 returns the (exact or predicted) mean value,
            * Q2 returns a list of ``(intercept, slope)`` pairs — a single
              pair in exact mode (REG over the subspace), possibly several
              in model mode (the local linear models),
            * COUNT returns the subspace cardinality (served exactly).

        Raises
        ------
        EmptySubspaceError
            When an exact Q1/Q2 answer is undefined because the subspace
            selected no rows (including a hybrid fallback landing on an
            empty subspace).
        """
        return self._service.execute(sql, mode=self._resolve_mode(mode))

    def execute_script(
        self,
        script: str | Sequence[str],
        *,
        mode: Literal["exact", "approximate", "model", "hybrid"] = "exact",
        on_error: Literal["attach", "raise"] = "attach",
    ) -> "list[StatementResult]":
        """Run a multi-statement script through the batched serving layer.

        Statements are grouped by table and kind and answered through the
        batch engines; see
        :meth:`~repro.dbms.serving.AnalyticsService.execute_script`.  Both
        session entry points default to ``"exact"`` (the seed front end's
        contract); the service's own entry points default to ``"hybrid"``,
        the serving-native mode.  ``on_error`` controls runtime fault
        containment: ``"attach"`` (default) turns one group's engine/model
        failure into per-statement ``source="error"`` results while the
        rest of the script keeps serving; ``"raise"`` propagates the first
        group failure.
        """
        return self._service.execute_script(
            script, mode=self._resolve_mode(mode), on_error=on_error
        )
