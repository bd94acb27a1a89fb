"""Model persistence.

Trained models are tiny — ``O(dK)`` floats — so JSON is a convenient,
inspectable storage format.  :func:`save_model` and :func:`load_model`
round-trip every trained parameter together with the configuration needed
to rebuild an equivalent :class:`~repro.core.model.LLMModel`.

A model is finite or it is refused.  ``json`` writes and reads ``NaN`` and
``Infinity``, and one non-finite parameter makes every answer of the model
NaN: the dense prediction pass evaluates every map for every query, and a
zero weight times an infinite value is NaN, while coverage does not change,
so neither the hybrid fallback nor drift detection reacts.  So
:func:`model_from_dict` raises :class:`~repro.exceptions.ModelPersistenceError`
for a map with a non-finite prototype center or radius, slope entry, mean
output or second moment, or with a prototype or slope whose length is not
the model's ``dimension + 1``; :func:`save_model` refuses such a model
before it writes anything.  A negative radius is finite and loads: Eq. 9
over it is never positive, so the prediction kernel takes it as 0 and its
prototype overlaps no query (it can still be the nearest prototype of a
query no prototype covers), and its answers stay finite.  Training never
produces one, since each radius update is a convex step towards a query's
positive radius.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from ..config import ModelConfig, TrainingConfig
from ..exceptions import (
    DimensionalityMismatchError,
    InvalidQueryError,
    ModelPersistenceError,
    NotFittedError,
)
from .model import LLMModel
from .prototypes import LocalLinearMap

__all__ = [
    "save_model",
    "load_model",
    "model_to_dict",
    "model_from_dict",
    "write_json_atomic",
]

#: Format marker written to every persisted model file.
#:
#: Version history:
#:
#: * **1** — configuration, training settings, state and the LLM parameter
#:   list.
#: * **2** — adds ``use_pruning_index``, the policy of a prototype-pruning
#:   predictor that has since been deleted.  Writers no longer emit the key
#:   and readers ignore it, so a v2 file may or may not carry it.  Writers
#:   now emit every ``ModelConfig`` and ``TrainingConfig`` field; readers
#:   take a missing field's dataclass default, and older readers pick the
#:   keys they know.
FORMAT_VERSION = 2

#: Format versions :func:`model_from_dict` can read.
READABLE_VERSIONS = frozenset({1, 2})


def model_to_dict(model: LLMModel) -> dict:
    """Serialise a trained model (configuration + parameters) to a dict."""
    if not model.is_fitted:
        raise NotFittedError("cannot persist a model that has not been fitted")
    return {
        "format_version": FORMAT_VERSION,
        "dimension": model.dimension,
        "config": asdict(model.config),
        "training": asdict(model.training),
        "state": {
            "steps": model.steps,
            "frozen": model.is_frozen,
        },
        "maps": [llm.to_dict() for llm in model.local_maps],
    }


def model_from_dict(payload: dict) -> LLMModel:
    """Rebuild a model from :func:`model_to_dict` output.

    Raises :class:`~repro.exceptions.ModelPersistenceError` for an
    unsupported format version and for a map that is not finite or not of
    the model's dimension (see the module docstring).
    """
    version = payload.get("format_version")
    if version not in READABLE_VERSIONS:
        raise ModelPersistenceError(
            f"unsupported model format version {version!r} "
            f"(readable: {sorted(READABLE_VERSIONS)})",
            format_version=version,
        )
    dimension = int(payload["dimension"])
    model = LLMModel(
        dimension=dimension,
        config=_config_from(ModelConfig, payload.get("config", {})),
        training=_config_from(TrainingConfig, payload.get("training", {})),
    )
    for index, map_payload in enumerate(payload.get("maps", [])):
        try:
            llm = LocalLinearMap.from_dict(map_payload)
        except (DimensionalityMismatchError, InvalidQueryError) as exc:
            raise ModelPersistenceError(
                f"map {index} is malformed: {exc}", format_version=version
            ) from exc
        _check_map(llm, dimension, index, version)
        model._parameters.add(llm)  # noqa: SLF001 - controlled rebuild
    state = payload.get("state", {})
    model._steps = int(state.get("steps", 0))  # noqa: SLF001
    model._frozen = bool(state.get("frozen", False))  # noqa: SLF001
    model._fitted = bool(payload.get("maps"))  # noqa: SLF001
    return model


def _check_map(
    llm: LocalLinearMap, dimension: int, index: int, version: object
) -> None:
    """Refuse map ``index`` of a model unless it is finite and ``d``-dimensional."""
    if llm.dimension != dimension:
        raise ModelPersistenceError(
            f"map {index} has dimension {llm.dimension}, the model {dimension}",
            format_version=version,
        )
    parameters = {
        "prototype center": llm.center,
        "prototype radius": llm.radius,
        "slope": llm.slope,
        "mean output": llm.mean_output,
        "second moment": llm.difference_second_moment,
    }
    for name, value in parameters.items():
        if not np.isfinite(value).all():
            raise ModelPersistenceError(
                f"map {index} has a non-finite {name}: {value!r}",
                format_version=version,
            )


def _config_from(cls, values: dict):
    """Build a config dataclass from the known keys of ``values``.

    A missing field takes the dataclass default and an unknown key is
    ignored, so files written before a field existed (or after one was
    removed) still load.
    """
    known = {item.name for item in fields(cls)}
    return cls(**{name: value for name, value in values.items() if name in known})


def write_json_atomic(
    path: str | Path,
    payload: dict,
    *,
    indent: int | None = 2,
    pre_replace_hook=None,
) -> Path:
    """Atomically write a JSON payload: staging file + fsync + ``os.replace``.

    The shared crash-safety idiom of every durable artifact in the library
    (persisted models, service checkpoints): a crash mid-write never
    leaves a truncated file where a readable one is expected, because the
    payload lands in a same-directory temporary file that is renamed onto
    the target only after a successful fsync.  ``pre_replace_hook``, when
    given, runs between the staged write and the rename — the durability
    fault tests use it to crash "mid-checkpoint" and assert the target is
    untouched.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    staging = target.with_name(target.name + ".tmp")
    try:
        with staging.open("w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=indent)
            handle.flush()
            os.fsync(handle.fileno())
        if pre_replace_hook is not None:
            pre_replace_hook()
        os.replace(staging, target)
    finally:
        if staging.exists():  # a failed dump leaves no stray staging file
            staging.unlink()
    return target


def save_model(model: LLMModel, path: str | Path) -> Path:
    """Write a trained model to a JSON file and return the path.

    The write is *atomic* (:func:`write_json_atomic`), so a crash
    mid-write never leaves a truncated model file where a readable one
    (old or new) is expected — the invariant the hot-swap/rollback
    lifecycle relies on.  A model that :func:`model_from_dict` would
    refuse (a non-finite parameter) raises
    :class:`~repro.exceptions.ModelPersistenceError` before anything is
    written, so a model file never holds what cannot be read back.
    """
    target = Path(path)
    payload = model_to_dict(model)
    for index, llm in enumerate(model.local_maps):
        try:
            _check_map(llm, model.dimension, index, FORMAT_VERSION)
        except ModelPersistenceError as exc:
            exc.path = target
            raise
    return write_json_atomic(target, payload)


def load_model(path: str | Path) -> LLMModel:
    """Load a trained model from a JSON file produced by :func:`save_model`.

    Raises
    ------
    ModelPersistenceError
        For a missing file, a truncated or otherwise unparseable payload,
        a payload with missing/malformed fields, or an unsupported format
        version — always carrying the offending ``path`` (and the payload's
        ``format_version`` when it could be read) so callers can report and
        quarantine the file without touching their registries.
    """
    source = Path(path)
    if not source.exists():
        raise ModelPersistenceError(
            f"model file does not exist: {source}", path=source
        )
    try:
        with source.open("r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
        raise ModelPersistenceError(
            f"model file {source} is truncated or corrupt: {exc}", path=source
        ) from exc
    if not isinstance(payload, dict):
        raise ModelPersistenceError(
            f"model file {source} does not hold a model payload "
            f"(top-level {type(payload).__name__}, expected object)",
            path=source,
        )
    version = payload.get("format_version")
    try:
        return model_from_dict(payload)
    except ModelPersistenceError as exc:
        if exc.path is None:
            exc.path = source
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelPersistenceError(
            f"model file {source} (format version {version!r}) is missing or "
            f"has malformed fields: {exc!r}",
            path=source,
            format_version=version,
        ) from exc
