"""Table schemas for the SQLite-backed data store.

Datasets used by the library all have the same logical shape — ``d`` input
attributes ``x1..xd`` plus one output attribute ``u`` — but the storage
layer keeps an explicit schema object so that table creation, validation and
the SQL front end share a single source of truth about column names and
order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..exceptions import StorageError

__all__ = ["ColumnSpec", "TableSchema", "schema_for_dataset"]

_IDENTIFIER_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def _validate_identifier(name: str, kind: str) -> str:
    """Validate a SQL identifier (defence against injection through names)."""
    if not _IDENTIFIER_RE.match(name):
        raise StorageError(f"invalid {kind} name: {name!r}")
    return name


@dataclass(frozen=True)
class ColumnSpec:
    """A single column: its name and SQLite affinity."""

    name: str
    affinity: str = "REAL"

    def __post_init__(self) -> None:
        _validate_identifier(self.name, "column")
        if self.affinity.upper() not in {"REAL", "INTEGER", "TEXT"}:
            raise StorageError(f"unsupported column affinity: {self.affinity!r}")
        object.__setattr__(self, "affinity", self.affinity.upper())

    @property
    def ddl(self) -> str:
        """The column's fragment of a CREATE TABLE statement."""
        return f"{self.name} {self.affinity} NOT NULL"


@dataclass(frozen=True)
class TableSchema:
    """Schema of a dataset table: input columns followed by the output column."""

    table_name: str
    input_columns: tuple[ColumnSpec, ...]
    output_column: ColumnSpec = field(default_factory=lambda: ColumnSpec("u"))

    def __post_init__(self) -> None:
        _validate_identifier(self.table_name, "table")
        if not self.input_columns:
            raise StorageError("a table schema needs at least one input column")
        names = [col.name for col in self.input_columns] + [self.output_column.name]
        if len(set(names)) != len(names):
            raise StorageError(f"duplicate column names in schema: {names}")

    @property
    def dimension(self) -> int:
        """Number of input columns ``d``."""
        return len(self.input_columns)

    @property
    def column_names(self) -> list[str]:
        """All column names, inputs first, output last."""
        return [col.name for col in self.input_columns] + [self.output_column.name]

    def create_table_sql(self) -> str:
        """Return the CREATE TABLE statement for this schema."""
        columns = ", ".join(
            [col.ddl for col in self.input_columns] + [self.output_column.ddl]
        )
        return (
            f"CREATE TABLE IF NOT EXISTS {self.table_name} "
            f"(rowid INTEGER PRIMARY KEY, {columns})"
        )

    def insert_sql(self) -> str:
        """Return the parameterised INSERT statement for this schema."""
        names = self.column_names
        placeholders = ", ".join("?" for _ in names)
        return (
            f"INSERT INTO {self.table_name} ({', '.join(names)}) "
            f"VALUES ({placeholders})"
        )

    def select_all_sql(self) -> str:
        """Return the SELECT statement retrieving all columns in schema order."""
        return f"SELECT {', '.join(self.column_names)} FROM {self.table_name}"


def schema_for_dataset(table_name: str, dimension: int) -> TableSchema:
    """Build the standard schema ``(x1..xd, u)`` for a dataset table."""
    if dimension < 1:
        raise StorageError(f"dimension must be >= 1, got {dimension}")
    inputs = tuple(ColumnSpec(f"x{i + 1}") for i in range(dimension))
    return TableSchema(table_name=table_name, input_columns=inputs)
