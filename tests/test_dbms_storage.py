"""Tests for the SQLite-backed data store."""

from __future__ import annotations

import sqlite3

import numpy as np
import pytest

from repro.data.synthetic import SyntheticDataset
from repro.dbms.storage import SQLiteDataStore
from repro.exceptions import CatalogError, StorageError


@pytest.fixture()
def dataset() -> SyntheticDataset:
    rng = np.random.default_rng(0)
    inputs = rng.uniform(0, 1, size=(500, 3))
    outputs = inputs.sum(axis=1)
    return SyntheticDataset(inputs=inputs, outputs=outputs, name="demo", domain=(0.0, 1.0))


@pytest.fixture()
def store() -> SQLiteDataStore:
    with SQLiteDataStore(":memory:") as data_store:
        yield data_store


class TestLoadAndScan:
    def test_load_registers_in_catalog(self, store, dataset):
        info = store.load_dataset(dataset)
        assert info.table_name == "demo"
        assert info.dimension == 3
        assert info.row_count == 500

    def test_row_count_matches(self, store, dataset):
        store.load_dataset(dataset)
        assert store.row_count("demo") == 500

    def test_scan_round_trips_data(self, store, dataset):
        store.load_dataset(dataset)
        inputs, outputs = store.scan("demo")
        assert np.allclose(inputs, dataset.inputs)
        assert np.allclose(outputs, dataset.outputs)

    def test_load_duplicate_name_fails(self, store, dataset):
        store.load_dataset(dataset)
        with pytest.raises(StorageError):
            store.load_dataset(dataset)

    def test_custom_table_name(self, store, dataset):
        store.load_dataset(dataset, table_name="renamed")
        assert store.catalog.exists("renamed")

    def test_scan_follows_rowid_order(self, store, dataset):
        store.load_dataset(dataset)
        extra = np.random.default_rng(2).uniform(0, 1, size=(7, 3))
        store.append_rows("demo", extra, extra.sum(axis=1))
        inputs, outputs = store.scan("demo")
        np.testing.assert_array_equal(inputs, np.vstack([dataset.inputs, extra]))
        np.testing.assert_array_equal(
            outputs, np.concatenate([dataset.outputs, extra.sum(axis=1)])
        )

    def test_load_as_dataset_round_trip(self, store, dataset):
        store.load_dataset(dataset)
        rebuilt = store.load_as_dataset("demo")
        assert rebuilt.size == dataset.size
        assert np.allclose(rebuilt.inputs, dataset.inputs)
        assert rebuilt.domain == dataset.domain


class TestAppendAndDrop:
    def test_append_rows_updates_count(self, store, dataset):
        store.load_dataset(dataset)
        extra_inputs = np.random.default_rng(1).uniform(0, 1, size=(20, 3))
        store.append_rows("demo", extra_inputs, extra_inputs.sum(axis=1))
        assert store.row_count("demo") == 520
        assert store.catalog.get("demo").row_count == 520

    def test_append_dimension_mismatch(self, store, dataset):
        store.load_dataset(dataset)
        with pytest.raises(StorageError):
            store.append_rows("demo", np.ones((5, 2)), np.ones(5))

    def test_append_row_count_mismatch(self, store, dataset):
        store.load_dataset(dataset)
        with pytest.raises(StorageError):
            store.append_rows("demo", np.ones((5, 3)), np.ones(4))

    def test_drop_table(self, store, dataset):
        store.load_dataset(dataset)
        store.drop_table("demo")
        assert not store.catalog.exists("demo")

    def test_drop_unknown_table(self, store):
        with pytest.raises(CatalogError):
            store.drop_table("missing")


class TestLifecycle:
    def test_operations_after_close_fail(self, dataset):
        store = SQLiteDataStore(":memory:")
        store.load_dataset(dataset)
        store.close()
        with pytest.raises(StorageError):
            store.scan("demo")

    def test_on_disk_store_persists(self, tmp_path, dataset):
        path = tmp_path / "data.db"
        with SQLiteDataStore(path) as store:
            store.load_dataset(dataset)
        with SQLiteDataStore(path) as reopened:
            assert reopened.catalog.exists("demo")
            assert reopened.row_count("demo") == 500


class _FailingInserts:
    """A connection whose next ``executemany`` writes some rows, then fails.

    It stands in for a write that dies part-way (a full disk, an I/O
    error); every other call goes to the real connection.
    """

    def __init__(self, connection: sqlite3.Connection, rows_written: int) -> None:
        self._connection = connection
        self._rows_written = rows_written
        self.armed = False

    def executemany(self, sql, rows):
        if not self.armed:
            return self._connection.executemany(sql, rows)
        self.armed = False
        self._connection.executemany(sql, list(rows)[: self._rows_written])
        raise sqlite3.OperationalError("disk I/O error")

    def __getattr__(self, name):
        return getattr(self._connection, name)


def _with_nan_output(dataset: SyntheticDataset, row: int) -> SyntheticDataset:
    outputs = dataset.outputs.copy()
    outputs[row] = np.nan
    return SyntheticDataset(
        inputs=dataset.inputs, outputs=outputs, name=dataset.name, domain=dataset.domain
    )


def _assert_table_absent(store: SQLiteDataStore, name: str) -> None:
    assert not store.catalog.exists(name)
    listed = store.connection.execute(
        "SELECT 1 FROM sqlite_master WHERE type = 'table' AND name = ?", (name,)
    ).fetchone()
    assert listed is None


def _assert_holds_exactly(store: SQLiteDataStore, dataset: SyntheticDataset) -> None:
    assert store.catalog.get(dataset.name).row_count == dataset.size
    assert store.row_count(dataset.name) == dataset.size
    inputs, outputs = store.scan(dataset.name)
    np.testing.assert_array_equal(inputs, dataset.inputs)
    np.testing.assert_array_equal(outputs, dataset.outputs)


class TestFailedWritesLeaveNothing:
    """A load or append writes all of its rows or none of them."""

    @pytest.fixture()
    def failing(self, monkeypatch):
        """A store whose connection can be armed to fail one insert."""
        connect = sqlite3.connect
        wrappers: list[_FailingInserts] = []

        def failing_connect(path):
            wrappers.append(_FailingInserts(connect(path), rows_written=3))
            return wrappers[-1]

        monkeypatch.setattr(sqlite3, "connect", failing_connect)
        with SQLiteDataStore(":memory:") as data_store:
            yield data_store, wrappers[-1]

    def test_non_finite_load_is_refused_before_any_write(self, store, dataset):
        small = dataset.subset(np.arange(100))
        small = SyntheticDataset(
            inputs=small.inputs, outputs=small.outputs, name="demo", domain=(0.0, 1.0)
        )
        with pytest.raises(StorageError, match="row 3 "):
            store.load_dataset(_with_nan_output(small, row=3))
        # A later commit, even for another table, persists nothing of it.
        store.load_dataset(dataset, table_name="other")
        _assert_table_absent(store, "demo")
        store.load_dataset(small)
        _assert_holds_exactly(store, small)

    def test_load_failing_mid_insert_rolls_back(self, failing, dataset):
        store, connection = failing
        connection.armed = True
        with pytest.raises(StorageError, match="rolled back"):
            store.load_dataset(dataset)
        store.load_dataset(dataset, table_name="other")
        _assert_table_absent(store, "demo")
        store.load_dataset(dataset)
        _assert_holds_exactly(store, dataset)

    @pytest.mark.parametrize("value", (np.nan, np.inf, -np.inf))
    def test_non_finite_append_is_refused(self, store, dataset, value):
        store.load_dataset(dataset)
        extra = np.random.default_rng(4).uniform(0, 1, size=(6, 3))
        extra[4, 0] = value
        with pytest.raises(StorageError, match="row 4 "):
            store.append_rows("demo", extra, extra.sum(axis=1))
        _assert_holds_exactly(store, dataset)

    def test_append_failing_mid_insert_rolls_back(self, failing, dataset):
        store, connection = failing
        store.load_dataset(dataset)
        extra = np.random.default_rng(5).uniform(0, 1, size=(20, 3))
        connection.armed = True
        with pytest.raises(StorageError, match="rolled back"):
            store.append_rows("demo", extra, extra.sum(axis=1))
        _assert_holds_exactly(store, dataset)
