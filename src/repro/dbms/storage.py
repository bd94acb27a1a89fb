"""SQLite-backed dataset storage.

:class:`SQLiteDataStore` is the persistent tier of the substrate: it creates
one table per dataset (schema ``x1..xd, u``), keeps a catalog of registered
datasets, and scans a table back in rowid order, from which the exact query
executor is built.  An in-memory store (``path=":memory:"``) is used
throughout the tests and benchmarks; on-disk stores behave identically.
"""

from __future__ import annotations

import contextlib
import sqlite3
from pathlib import Path
from typing import Iterator

import numpy as np

from ..data.synthetic import SyntheticDataset
from ..exceptions import StorageError
from .catalog import Catalog, TableInfo
from .schema import TableSchema, schema_for_dataset

__all__ = ["SQLiteDataStore", "require_finite_rows"]


def require_finite_rows(inputs: np.ndarray, outputs: np.ndarray, source: str) -> None:
    """Raise :class:`StorageError` naming the first row with a non-finite value.

    NaN and infinite inputs or outputs have no defined exact answer (they
    would poison grid bounds and running sums), so every store write and
    every exact engine refuses them.  ``source`` names the rows' owner in
    the message.
    """
    finite = np.isfinite(inputs).all(axis=1) & np.isfinite(outputs)
    if not finite.all():
        row = int(np.argmin(finite))
        raise StorageError(
            f"{source}: row {row} is not finite (inputs "
            f"{np.asarray(inputs[row]).tolist()}, output {float(outputs[row])})"
        )


class SQLiteDataStore:
    """Store datasets in a SQLite database and scan them back efficiently.

    Parameters
    ----------
    path:
        Path of the database file, or ``":memory:"`` for an ephemeral
        in-memory database.
    """

    def __init__(self, path: str | Path = ":memory:") -> None:
        self._path = str(path)
        self._connection = sqlite3.connect(self._path)
        self._connection.execute("PRAGMA journal_mode = MEMORY")
        self._connection.execute("PRAGMA synchronous = OFF")
        self._catalog = Catalog(self._connection)
        self._closed = False

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def path(self) -> str:
        return self._path

    @property
    def catalog(self) -> Catalog:
        return self._catalog

    @property
    def connection(self) -> sqlite3.Connection:
        """The underlying connection (exposed for the SQL front end)."""
        self._require_open()
        return self._connection

    def close(self) -> None:
        """Close the underlying connection; further operations will fail."""
        if not self._closed:
            self._connection.close()
            self._closed = True

    def __enter__(self) -> "SQLiteDataStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _require_open(self) -> None:
        if self._closed:
            raise StorageError("the data store has been closed")

    @contextlib.contextmanager
    def _transaction(self, action: str) -> Iterator[sqlite3.Connection]:
        """Run a block's statements as one transaction: all or none persist.

        Work a caller left pending on the connection is committed first, as
        every store write always has.  A block may end with a catalog write,
        whose own commit then ends the transaction.  A failing statement
        rolls every earlier one of the block back and surfaces as
        :class:`StorageError`.
        """
        connection = self._connection
        connection.commit()
        connection.execute("BEGIN")
        try:
            yield connection
            connection.commit()
        except sqlite3.Error as error:
            connection.rollback()
            raise StorageError(
                f"{action} failed and was rolled back: {error}"
            ) from error
        except BaseException:
            connection.rollback()
            raise

    # ------------------------------------------------------------------ #
    # loading
    # ------------------------------------------------------------------ #
    def load_dataset(
        self,
        dataset: SyntheticDataset,
        table_name: str | None = None,
        *,
        batch_size: int = 10_000,
    ) -> TableInfo:
        """Create a table for a dataset and bulk-insert its rows.

        The table, its rows and its catalog entry are written in one
        transaction: a failed load leaves none of them.  Rows with a
        non-finite input or output are refused with :class:`StorageError`
        before any SQL runs.

        Parameters
        ----------
        dataset:
            The in-memory dataset to persist.
        table_name:
            Table name; defaults to the dataset's own name.
        batch_size:
            Number of rows per ``executemany`` batch.
        """
        self._require_open()
        name = table_name or dataset.name
        require_finite_rows(dataset.inputs, dataset.outputs, f"dataset {name!r}")
        schema = schema_for_dataset(name, dataset.dimension)
        if self._catalog.exists(name):
            raise StorageError(f"table {name!r} already exists in the store")
        insert_sql = schema.insert_sql()
        table = dataset.as_table()
        with self._transaction(f"loading table {name!r}") as connection:
            connection.execute(schema.create_table_sql())
            for start in range(0, table.shape[0], max(batch_size, 1)):
                chunk = table[start : start + batch_size]
                connection.executemany(insert_sql, chunk.tolist())
            return self._catalog.register(
                table_name=name,
                dimension=dataset.dimension,
                row_count=dataset.size,
                metadata={"domain": list(dataset.domain), **dict(dataset.metadata)},
            )

    def append_rows(
        self, table_name: str, inputs: np.ndarray, outputs: np.ndarray
    ) -> TableInfo:
        """Append rows to an existing table and update the catalog row count.

        The rows and the new count are written in one transaction.  Rows
        with a non-finite input or output are refused with
        :class:`StorageError` before any SQL runs.
        """
        self._require_open()
        inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
        outputs = np.asarray(outputs, dtype=float).ravel()
        if inputs.shape[0] != outputs.shape[0]:
            raise StorageError("inputs and outputs must have the same number of rows")
        require_finite_rows(inputs, outputs, f"rows appended to {table_name!r}")
        info = self._catalog.get(table_name)
        if inputs.shape[1] != info.dimension:
            raise StorageError(
                f"table {table_name!r} has dimension {info.dimension} but rows "
                f"have dimension {inputs.shape[1]}"
            )
        rows = np.column_stack([inputs, outputs]).tolist()
        with self._transaction(f"appending to table {table_name!r}") as connection:
            connection.executemany(info.schema.insert_sql(), rows)
            self._catalog.update_row_count(table_name, info.row_count + len(rows))
        return self._catalog.get(table_name)

    def drop_table(self, table_name: str) -> None:
        """Drop a dataset table and remove it from the catalog."""
        self._require_open()
        info = self._catalog.get(table_name)
        self._connection.execute(f"DROP TABLE IF EXISTS {info.table_name}")
        self._connection.commit()
        self._catalog.unregister(table_name)

    # ------------------------------------------------------------------ #
    # scanning
    # ------------------------------------------------------------------ #
    def row_count(self, table_name: str) -> int:
        """Return the exact row count of a table (COUNT(*) scan)."""
        self._require_open()
        info = self._catalog.get(table_name)
        cursor = self._connection.execute(f"SELECT COUNT(*) FROM {info.table_name}")
        return int(cursor.fetchone()[0])

    def scan(self, table_name: str) -> tuple[np.ndarray, np.ndarray]:
        """Return a table's rows as ``(inputs, outputs)`` arrays, in rowid order."""
        self._require_open()
        info = self._catalog.get(table_name)
        cursor = self._connection.execute(
            f"{info.schema.select_all_sql()} ORDER BY rowid"
        )
        rows = cursor.fetchall()
        if not rows:
            return (
                np.empty((0, info.dimension), dtype=float),
                np.empty((0,), dtype=float),
            )
        table = np.asarray(rows, dtype=float)
        return table[:, :-1], table[:, -1]

    def load_as_dataset(self, table_name: str) -> SyntheticDataset:
        """Materialise a stored table back into a :class:`SyntheticDataset`."""
        info = self._catalog.get(table_name)
        inputs, outputs = self.scan(table_name)
        domain = tuple(info.metadata.get("domain", (0.0, 1.0)))
        return SyntheticDataset(
            inputs=inputs,
            outputs=outputs,
            name=info.table_name,
            domain=(float(domain[0]), float(domain[1])),
            metadata=dict(info.metadata),
        )
