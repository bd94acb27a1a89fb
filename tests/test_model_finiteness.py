"""A model is finite or it is refused (`repro.core.persistence`).

One non-finite parameter in a model file used to load and then make every
answer of the model NaN, with coverage unchanged.  These tests pin the
refusal on every path a model file takes into a service: ``load_model``
(and the ``register_model(load_model(path))`` idiom, which must leave the
registry as it was), ``save_model``, checkpoint recovery, journal replay
and a lifecycle retrain.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.model import LLMModel
from repro.core.persistence import (
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)
from repro.core.prototypes import LocalLinearMap
from repro.data.synthetic import SyntheticDataset
from repro.dbms.durability import RecoveryManager, ServiceCheckpointer
from repro.dbms.lifecycle import DriftPolicy, ModelManager, ModelVersionStore
from repro.dbms.serving import AnalyticsService
from repro.dbms.storage import SQLiteDataStore
from repro.exceptions import CheckpointCorruptError, ModelPersistenceError
from repro.queries.query import Query

TABLE = "sensors"
DIMENSIONS = (1, 2, 6)
VALUES = (float("nan"), float("inf"), float("-inf"))
FIELDS = ("center", "radius", "slope", "mean", "second_moment")


def _model(dimension: int, count: int = 6, seed: int = 3) -> LLMModel:
    """A fitted model of ``count`` seeded maps, built through persistence."""
    rng = np.random.default_rng([seed, dimension])
    maps = []
    for _ in range(count):
        llm = LocalLinearMap(
            prototype=np.append(rng.uniform(0, 1, dimension), rng.uniform(0.05, 0.3)),
            mean_output=float(rng.normal(0.0, 2.0)),
            slope=rng.normal(0.0, 1.0, dimension + 1),
        )
        llm.update_difference_second_moment(float(rng.uniform(0.01, 0.1)))
        maps.append(llm.to_dict())
    return model_from_dict(
        {
            "format_version": 2,
            "dimension": dimension,
            "state": {"steps": count, "frozen": True},
            "maps": maps,
        }
    )


def _poison(payload: dict, field: str, value: float) -> dict:
    """``payload`` with one number of its last map set to ``value``."""
    poisoned = json.loads(json.dumps(payload))
    target = poisoned["maps"][-1]
    if field == "center":
        target["prototype"][0] = value
    elif field == "radius":
        target["prototype"][-1] = value
    elif field == "slope":
        target["slope"][-1] = value
    elif field == "mean":
        target["mean_output"] = value
    else:
        target["difference_second_moment"] = value
    return poisoned


def _write(path, payload: dict):
    # json writes NaN and Infinity as the bare tokens it reads back.
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


@pytest.mark.parametrize("dimension", DIMENSIONS)
@pytest.mark.parametrize("value", VALUES, ids=("nan", "+inf", "-inf"))
@pytest.mark.parametrize("field", FIELDS)
def test_a_non_finite_map_is_refused_and_the_registry_kept(
    tmp_path, field, value, dimension
):
    served = _model(dimension)
    payload = _poison(model_to_dict(served), field, value)
    with pytest.raises(ModelPersistenceError, match="non-finite"):
        model_from_dict(payload)
    path = _write(tmp_path / "model.json", payload)
    with pytest.raises(ModelPersistenceError) as excinfo:
        load_model(path)
    assert excinfo.value.path == path
    assert excinfo.value.format_version == 2
    # A file on its way into the registry is refused before it gets there.
    service = AnalyticsService(models={TABLE: served})
    with pytest.raises(ModelPersistenceError):
        service.register_model(TABLE, load_model(path))
    assert service.model_for(TABLE) is served
    # The same file through the lifecycle's version store.
    versions = ModelVersionStore(tmp_path / "versions")
    version = versions.save(TABLE, served)
    _write(versions.path_for(TABLE, version), payload)
    with pytest.raises(ModelPersistenceError):
        versions.load(TABLE, version)


@pytest.mark.parametrize("dimension", DIMENSIONS)
@pytest.mark.parametrize(
    "prototype, slope",
    [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1)],
    ids=("long-prototype", "short-prototype", "long-slope", "short-slope", "wider"),
)
def test_a_map_of_another_dimension_is_refused(dimension, prototype, slope):
    payload = model_to_dict(_model(dimension))
    target = payload["maps"][-1]
    for key, extra in (("prototype", prototype), ("slope", slope)):
        if extra > 0:
            target[key] = target[key] + [0.5] * extra
        elif extra < 0:
            target[key] = target[key][:extra]
    with pytest.raises(ModelPersistenceError, match="map 5"):
        model_from_dict(payload)


@pytest.mark.parametrize("dimension", DIMENSIONS)
@pytest.mark.parametrize("value", VALUES, ids=("nan", "+inf", "-inf"))
def test_save_model_refuses_a_non_finite_model_before_writing(
    tmp_path, dimension, value
):
    model = _model(dimension)
    model.local_maps[2].shift_slope(np.full(dimension + 1, value))
    path = tmp_path / "model.json"
    with pytest.raises(ModelPersistenceError, match="map 2 has a non-finite slope"):
        save_model(model, path)
    assert list(tmp_path.iterdir()) == []


def test_a_negative_radius_loads_and_answers_finitely(tmp_path):
    """Finite, so accepted: the kernel takes a negative radius as 0."""
    payload = model_to_dict(_model(2))
    payload["maps"][0]["prototype"][-1] = -0.2
    model = load_model(_write(tmp_path / "model.json", payload))
    assert model.local_maps[0].radius == -0.2
    queries = [
        Query(center=np.array([x, y]), radius=0.1)
        for x, y in np.random.default_rng(5).uniform(-1.0, 2.0, (40, 2))
    ]
    values, covered = model.predict_mean_batch_with_coverage(queries)
    assert np.isfinite(values).all()
    assert covered.any() and not covered.all()
    # A model that answers finitely also saves and reloads bit for bit.
    path = save_model(model, tmp_path / "again.json")
    assert model_to_dict(load_model(path)) == model_to_dict(model)


# --------------------------------------------------------------------- #
# recovery: a poisoned model file invalidates the checkpoint that names it
# --------------------------------------------------------------------- #
@pytest.fixture()
def stack(tmp_path):
    """A store-backed table serving a model from a version store."""
    rng = np.random.default_rng(0)
    inputs = rng.uniform(0, 1, size=(400, 2))
    dataset = SyntheticDataset(
        inputs=inputs, outputs=inputs.sum(axis=1), name=TABLE, domain=(0.0, 1.0)
    )
    store = SQLiteDataStore(tmp_path / "data.db")
    store.load_dataset(dataset, TABLE)
    service = AnalyticsService()
    service.register_table_from_store(store, TABLE)
    versions = ModelVersionStore(tmp_path / "versions")
    model = _model(2)
    service.swap_model(TABLE, model, version=versions.save(TABLE, model))
    checkpointer = ServiceCheckpointer(
        service, tmp_path / "ckpt", version_store=versions
    )
    yield service, versions, model, checkpointer
    store.close()


def _recover(checkpointer: ServiceCheckpointer):
    recovered = RecoveryManager(checkpointer.directory).recover()
    for opened in recovered.stores.values():
        opened.close()
    return recovered


@pytest.mark.parametrize("value", VALUES, ids=("nan", "+inf", "-inf"))
@pytest.mark.parametrize("field", FIELDS)
def test_recovery_skips_a_checkpoint_whose_model_is_not_finite(stack, field, value):
    service, versions, model, checkpointer = stack
    checkpointer.checkpoint()  # v1 names model version 1
    newer = versions.save(TABLE, model)
    service.swap_model(TABLE, model, version=newer)
    checkpointer.checkpoint()  # v2 names model version 2
    path = versions.path_for(TABLE, newer)
    payload = json.loads(path.read_text(encoding="utf-8"))
    _write(path, _poison(payload, field, value))
    recovered = _recover(checkpointer)
    assert recovered.checkpoint_version == 1
    assert [version for version, _ in recovered.skipped_checkpoints] == [2]
    assert recovered.service.model_version_for(TABLE) == 1


@pytest.mark.parametrize("value", VALUES, ids=("nan", "+inf", "-inf"))
def test_recovery_with_no_finite_checkpoint_left_raises(stack, value):
    _, versions, _, checkpointer = stack
    checkpointer.checkpoint()
    path = versions.path_for(TABLE, 1)
    payload = json.loads(path.read_text(encoding="utf-8"))
    _write(path, _poison(payload, "radius", value))
    with pytest.raises(CheckpointCorruptError):
        _recover(checkpointer)


def test_journal_replay_drops_a_swap_to_a_non_finite_model(stack):
    service, versions, model, checkpointer = stack
    checkpointer.checkpoint()
    newer = versions.save(TABLE, model)
    service.swap_model(TABLE, model, version=newer)  # journalled
    path = versions.path_for(TABLE, newer)
    payload = json.loads(path.read_text(encoding="utf-8"))
    _write(path, _poison(payload, "mean", float("inf")))
    recovered = _recover(checkpointer)
    assert recovered.checkpoint_version == 1
    assert recovered.journal_entries_dropped >= 1
    # The registry serves the checkpoint's model, as if the swap never ran.
    assert recovered.service.model_version_for(TABLE) == 1
    restored = recovered.service.model_for(TABLE)
    assert np.isfinite(restored.predict_mean_batch(
        [Query(center=np.array([0.5, 0.5]), radius=0.2)]
    )).all()


@pytest.mark.parametrize("persisted", (True, False), ids=("version-store", "in-memory"))
def test_a_retrain_that_yields_a_non_finite_model_never_serves(stack, persisted):
    """Persisting refuses the model; without a store the probe's NaN RMSE does."""
    service, versions, model, _ = stack

    def train(table, old_model, engine, queries):
        trained = _model(2, seed=9)
        trained.local_maps[0].shift_mean_output(float("inf"))
        return trained

    manager = ModelManager(
        service,
        policy=DriftPolicy(min_retrain_queries=8, probe_size=8),
        version_store=versions if persisted else None,
        train_fn=train,
    )
    manager.manage(TABLE)
    rng = np.random.default_rng(1)
    for center in rng.uniform(0.1, 0.9, (12, 2)):
        service.query_log_for(TABLE).record(Query(center=center, radius=0.2))
    with np.errstate(invalid="ignore"):
        outcome = manager.retrain(TABLE)
    assert outcome == ("failed" if persisted else "rolled_back")
    assert service.model_for(TABLE) is model
    assert versions.versions(TABLE) == [1]
