"""stdlib ``sqlite3`` as the independent answer oracle for coordinator tests.

Integer-valued tables only, and statement shapes whose semantics coincide
in both dialects, so the SQL text runs unchanged on either side.
"""

import sqlite3

from repro.core import DataType, Field, Schema, Table
from repro.federation import (
    ArtifactStore,
    FederatedEngine,
    FederationCatalog,
    SemanticCache,
)
from repro.sim import SimClock

SITES = 3


def federation(tables: dict, optimizer=None, reuse: bool = False) -> FederatedEngine:
    """``{name: (column names, rows)}`` as two-fragment tables on three
    sites, so joined inputs really ship.  ``optimizer`` builds the engine's
    optimizer from the catalog (agoric when ``None``); ``reuse`` turns the
    semantic cache and the stage artifact store on."""
    catalog = FederationCatalog(SimClock())
    names = [catalog.make_site(f"s{i}").name for i in range(SITES)]
    for offset, (name, (columns, rows)) in enumerate(tables.items()):
        schema = Schema(name, tuple(Field(c, DataType.INTEGER) for c in columns))
        placement = [[names[(i + offset) % SITES]] for i in range(2)]
        catalog.load_fragmented(Table(schema, rows), 2, placement)
    return FederatedEngine(
        catalog,
        optimizer=optimizer(catalog) if optimizer else None,
        cache=SemanticCache(catalog.clock) if reuse else None,
        artifacts=ArtifactStore(catalog.clock) if reuse else None,
    )


def sqlite_answer(tables: dict, sql: str) -> tuple[list[str], list[tuple]]:
    """Column names and rows sqlite3 gives for ``sql``."""
    db = sqlite3.connect(":memory:")
    for name, (columns, rows) in tables.items():
        db.execute(f"create table {name} ({', '.join(columns)})")
        slots = ", ".join("?" for _ in columns)
        db.executemany(f"insert into {name} values ({slots})", rows)
    cursor = db.execute(sql)
    return [column[0] for column in cursor.description], cursor.fetchall()


def row_order(row: tuple) -> tuple:
    """A total order over rows that may hold NULLs."""
    return tuple((value is not None, value) for value in row)
