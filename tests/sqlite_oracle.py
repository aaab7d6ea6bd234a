"""stdlib ``sqlite3`` as the independent answer oracle for coordinator tests.

Statement shapes whose semantics coincide in both dialects (README's
divergence table lists the rest), so the SQL text runs unchanged on either
side; answers are compared with ``benchmarks.e2e.oracle.rows_match``.
"""

import re
import sqlite3

from hypothesis import strategies as st

from repro.core import DataType, Field, Schema, Table
from repro.federation import (
    ArtifactStore,
    CentralizedOptimizer,
    FederatedEngine,
    FederationCatalog,
    PolicyOptimizer,
    RoundRobinPolicy,
    SemanticCache,
)
from repro.sim import SimClock

SITES = 3
OPTIMIZERS = {
    "agoric": None,
    "centralized": CentralizedOptimizer,
    "policy": lambda catalog: PolicyOptimizer(catalog, RoundRobinPolicy()),
}


def _field(column) -> Field:
    """A column is a ``Field``, or a bare name for an INTEGER column."""
    return column if isinstance(column, Field) else Field(column, DataType.INTEGER)


def federation(
    tables: dict,
    optimizer=None,
    reuse: bool = False,
    fragments: int = 2,
    replicas: int = 1,
    **engine,
) -> FederatedEngine:
    """``{name: (columns, rows)}`` as ``fragments``-fragment tables on three
    sites, each fragment held by ``replicas`` consecutive sites, the i-th
    table's first fragment on site i, so joined inputs really ship.
    ``optimizer`` builds the engine's optimizer from the catalog (agoric
    when ``None``); ``reuse`` turns the semantic cache and the stage
    artifact store on; ``engine`` holds further ``FederatedEngine``
    arguments (``governance``, ``reopt``)."""
    catalog = FederationCatalog(SimClock())
    names = [catalog.make_site(f"s{i}").name for i in range(SITES)]
    for offset, (name, (columns, rows)) in enumerate(tables.items()):
        schema = Schema(name, tuple(map(_field, columns)))
        placement = [
            [names[(i + offset + r) % SITES] for r in range(replicas)]
            for i in range(fragments)
        ]
        catalog.load_fragmented(Table(schema, rows), fragments, placement)
    return FederatedEngine(
        catalog,
        optimizer=optimizer(catalog) if optimizer else None,
        cache=SemanticCache(catalog.clock) if reuse else None,
        artifacts=ArtifactStore(catalog.clock) if reuse else None,
        **engine,
    )


def sqlite_answer(
    tables: dict, sql: str, prelude: tuple = (), params: tuple = ()
) -> tuple[list[str], list[tuple]]:
    """Column names and rows sqlite3 gives for ``sql`` bound to ``params``,
    after running the ``prelude`` statements over the loaded tables."""
    db = sqlite3.connect(":memory:")
    for name, (columns, rows) in tables.items():
        declared = ", ".join(_field(c).name for c in columns)
        db.execute(f"create table {name} ({declared})")
        slots = ", ".join("?" for _ in columns)
        db.executemany(f"insert into {name} values ({slots})", rows)
    for statement in prelude:
        db.execute(statement)
    cursor = db.execute(sql, params)
    return [column[0] for column in cursor.description], cursor.fetchall()


# -- match: FTS5 decides ------------------------------------------------------
# sqlite has no ``match(column, q)``: the text it runs spells each call as
# the row's rowid among the hits of an FTS5 index of the column, which the
# prelude builds.  Only a NULL value (FTS5 indexes none) is spelt by hand.

MATCH = re.compile(r"\bmatch\((?:(\w+)\.)?(\w+), '([^']*)'\)")


def fts5_shadow(table: str, column: str) -> tuple[str, str]:
    """Prelude statements: an FTS5 index of ``table.column`` (sqlite's
    ``unicode61`` tokenizer) keyed by rowid, which :func:`fts5_match`
    reads."""
    shadow = f"{table}_{column}"
    return (
        f"create virtual table {shadow} using fts5({column}, tokenize='unicode61')",
        f"insert into {shadow} (rowid, {column}) select rowid, {column} from {table}",
    )


def fts5_match(text: str, table: str) -> str:
    """``text`` with each ``match([binding.]column, 'q')`` spelt for sqlite
    over :func:`fts5_shadow`'s index; ``table`` is an unqualified column's
    binding.  Each whitespace-separated word of ``q`` is quoted, so FTS5
    reads none of ``-``, ``:`` or ``AND`` as an operator; a query of no
    word is FTS5's empty phrase, which matches nothing."""

    def spelt(found) -> str:
        binding, column, query = found.groups()
        binding = binding or table
        shadow = f"{binding}_{column}"
        terms = " ".join(f'"{word}"' for word in query.split()) or '""'
        return (
            f"(case when {binding}.{column} is null then null else "
            f"{binding}.rowid in (select rowid from {shadow} "
            f"where {shadow} match '{terms}') end)"
        )

    return MATCH.sub(spelt, text)


# -- building statements -------------------------------------------------------
# A piece of SQL is built as (text with literals inlined, text with ``?`` in
# their place, the values those bind); a bare string is fixed text.


def sql(*parts):
    """Concatenate fixed text and (inlined, template, values) parts."""
    inlined, template, values = "", "", ()
    for part in parts:
        if isinstance(part, str):
            part = (part, part, ())
        inlined, template, values = (
            inlined + part[0], template + part[1], values + part[2]
        )
    return inlined, template, values


def phrase(*parts):
    """The strategy of ``sql`` over drawn parts; a string stands for itself."""
    return st.tuples(
        *(st.just(part) if isinstance(part, str) else part for part in parts)
    ).map(lambda drawn: sql(*drawn))


def literal(value):
    if value is None:
        text = "null"
    elif isinstance(value, bool):
        text = "true" if value else "false"
    elif isinstance(value, str):
        text = f"'{value}'"
    else:
        text = f"({value})" if value < 0 else str(value)
    return text, "?", (value,)


def joined(parts):
    return sql(*[piece for part in parts for piece in (", ", part)][1:])
