"""Tests for the SQLite-backed data store."""

from __future__ import annotations

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
