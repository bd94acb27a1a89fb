"""Exception hierarchy for the :mod:`repro` library.

All library-specific errors derive from :class:`ReproError` so that callers
can catch a single base class.  More specific subclasses are raised by the
individual subsystems (query model, DBMS substrate, core model, baselines).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the library."""


class InvalidQueryError(ReproError):
    """A query is malformed (e.g. non-positive radius or wrong dimension)."""


class DimensionalityMismatchError(ReproError):
    """Two objects that must share a dimensionality do not."""


class NotFittedError(ReproError):
    """A model method that requires training was called before fitting."""


class EmptySubspaceError(ReproError):
    """An exact query selected no rows, so its answer is undefined."""


class StorageError(ReproError):
    """A failure in the SQLite-backed storage substrate."""


class ModelPersistenceError(ReproError):
    """A persisted model file could not be read back into a model.

    Raised for missing files, truncated or corrupt payloads, and
    unsupported format versions.  ``path`` carries the offending file (when
    known) and ``format_version`` the version marker found in the payload
    (``None`` when the payload was unreadable before the marker).
    """

    def __init__(
        self,
        message: str,
        *,
        path: object = None,
        format_version: object = None,
    ) -> None:
        super().__init__(message)
        self.path = path
        self.format_version = format_version


class TransientEngineError(ReproError):
    """A retryable, transient failure of an execution tier.

    The serving layer's bounded-retry machinery treats this class as "try
    again": the failure is expected to clear on its own — a contended
    resource, an injected test fault — unlike a deterministic bug, which
    retrying cannot fix.
    """


class ServiceOverloadedError(ReproError):
    """The concurrent serving front rejected new work (admission control).

    Raised instead of queueing without bound: when the number of pending
    statements would exceed the front's
    :attr:`~repro.dbms.concurrent.ConcurrencyPolicy.max_pending_statements`,
    the submission is rejected up front so latency stays bounded for the
    work already admitted.  ``pending`` carries the in-flight statement
    count at rejection time and ``limit`` the configured bound; the caller
    is expected to back off and retry.
    """

    def __init__(self, message: str, *, pending: int = 0, limit: int = 0) -> None:
        super().__init__(message)
        self.pending = pending
        self.limit = limit


class CircuitOpenError(ReproError):
    """An execution tier's circuit breaker is open (the tier is shed).

    Carries the ``table`` and ``tier`` (``"exact"`` or ``"model"``) whose
    breaker rejected the call, so hybrid serving can degrade to the
    surviving tier instead of failing the statement group.
    """

    def __init__(self, message: str, *, table: str = "", tier: str = "") -> None:
        super().__init__(message)
        self.table = table
        self.tier = tier


class LifecycleError(ReproError):
    """A model-lifecycle operation (drift retrain, swap, rollback) failed."""


class CheckpointCorruptError(ReproError):
    """A service checkpoint (or its referenced state) failed validation.

    Raised when a checkpoint file is missing, unparseable, fails its
    payload checksum, has an unsupported format version, or references a
    model version file that no longer loads.  ``path`` carries the
    offending file and ``checkpoint_version`` the manifest version when it
    could be read.  Recovery treats this as "try the previous checkpoint"
    — a corrupt manifest never yields a half-recovered registry.
    """

    def __init__(
        self,
        message: str,
        *,
        path: object = None,
        checkpoint_version: object = None,
    ) -> None:
        super().__init__(message)
        self.path = path
        self.checkpoint_version = checkpoint_version


class InjectedFaultError(ReproError):
    """Default error raised by an armed fault-injection point (testing)."""


class CatalogError(StorageError):
    """A dataset/table name is unknown to, or conflicts with, the catalog."""


class SQLSyntaxError(ReproError):
    """The analytics SQL front end could not parse a statement."""


class ConfigurationError(ReproError):
    """A configuration value is out of its valid range."""


class ServiceClosedError(ConfigurationError):
    """Work was submitted to (or left pending in) a closed serving front.

    Raised synchronously by submissions after ``close()`` and attached to
    the futures of statements that were admitted but could not complete
    within the close drain window — a ``ScriptFuture`` therefore always
    resolves, never hangs, across a shutdown.  Subclasses
    :class:`ConfigurationError` to preserve the original closed-front
    contract for existing callers.
    """


class InternalInvariantError(ReproError):
    """A "cannot happen" internal invariant was violated (a library bug).

    Replaces bare ``assert`` statements on internal invariants: an
    ``assert`` vanishes under ``python -O``, silently turning an invariant
    check into undefined behaviour, while this error survives optimisation
    and still narrows ``Optional`` types for static checkers.
    """


class WorkloadError(ReproError):
    """A query workload generator was given inconsistent parameters."""
