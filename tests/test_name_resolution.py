"""Every name is resolved once, before any plan exists.

An unknown column, an unknown qualifier or a bare name two bindings hold is
a ``QueryError`` that names the column, raised whatever the zone maps
prune and through every door, before a site is asked for anything.  The
statements are ones that answered, failed only at run time or were pushed
to a site while names were looked up row by row: ``price > 100000``
prunes every fragment of ``parts``, so no row was ever evaluated.
"""

import sqlite3

import pytest

from repro.core.errors import QueryError
from repro.federation import Gateway, WorkloadManager, dbapi
from repro.federation import engine as engine_module
from repro.sim import EventLoop

from tests.sqlite_oracle import sqlite_answer
from tests.test_federation_engine import make_engine, parts_schema, suppliers_schema

JOIN = "parts join suppliers on parts.supplier_id = suppliers.supplier_id"
# row id -> (statement, what the refusal says)
BAD_NAMES = {
    "unknown-in-where": (
        "select count(*) from parts where price > 100000 and nope = 1",
        "unknown column 'nope' (searched parts)",
    ),
    "unknown-selected": (
        "select nope from parts where price > 100000",
        "unknown column 'nope' (searched parts)",
    ),
    "unknown-qualifier": (
        "select sku from parts where price > 100000 and x.nope = 1",
        "unknown column 'x.nope': no table binding 'x' (searched parts)",
    ),
    "unknown-qualified-pushdown": (
        "select sku from parts p where p.nope = 1",
        "unknown column 'p.nope' (searched p)",
    ),
    "unknown-order-key": (
        "select sku from parts where price > 100000 order by nope",
        "unknown column 'nope' (searched parts)",
    ),
    "ambiguous-selected": (
        f"select supplier_id from {JOIN}",
        "ambiguous column 'supplier_id': held by parts and suppliers "
        "(searched parts, suppliers)",
    ),
    "unknown-group-key": (
        "select sku, count(*) from parts where price > 100000 group by nope",
        "unknown column 'nope' (searched parts)",
    ),
}


def gateway_of(engine):
    return Gateway(WorkloadManager(engine, EventLoop(engine.catalog.clock)))


def cursor_execute(engine, sql):
    return dbapi.connect(gateway_of(engine)).cursor().execute(sql)


DOORS = {
    "query": lambda engine, sql: engine.query(sql),
    "gateway": lambda engine, sql: gateway_of(engine).connect("t").execute(sql),
    "dbapi": cursor_execute,
}


def booked(engine):
    """The clock, and the work every site has done."""
    sites = engine.catalog.sites.values()
    return (
        engine.catalog.clock.now(),
        sum(site.busy_seconds for site in sites),
        sum(site.rows_processed for site in sites),
    )


@pytest.mark.parametrize("door", sorted(DOORS))
@pytest.mark.parametrize("row", list(BAD_NAMES))
def test_a_bad_name_is_refused_before_any_site_work(row, door):
    sql, message = BAD_NAMES[row]
    tables = {"parts": parts_schema(), "suppliers": suppliers_schema()}
    with pytest.raises(sqlite3.OperationalError):  # sqlite3 refuses it too
        sqlite_answer({name: (s.fields, []) for name, s in tables.items()}, sql)
    engine = make_engine()
    before = booked(engine)
    with pytest.raises(QueryError) as raised:
        DOORS[door](engine, sql)
    assert str(raised.value) == message
    assert not isinstance(raised.value, dbapi.InterfaceError)
    assert booked(engine) == before


def test_explain_refuses_a_bad_name():
    with pytest.raises(QueryError, match="unknown column 'nope'"):
        make_engine().explain("select nope from parts")


def test_a_template_resolves_once_and_a_plan_cache_hit_not_at_all(monkeypatch):
    calls = []
    resolve = engine_module.resolve
    monkeypatch.setattr(
        engine_module, "resolve", lambda *args: calls.append(args) or resolve(*args)
    )
    engine = make_engine()
    sql = "select sku from parts where price > ? order by sku"
    prepared = engine.prepare(sql)
    assert prepared.statement.scope == {"parts": dict.fromkeys(parts_schema().field_names)}
    for price in (10.0, 100.0):
        rows = engine.execute(prepared, [price]).table.rows
        assert rows == engine.query(sql.replace("?", str(price))).table.rows
    assert len(calls) == 3  # the template, then each ad-hoc statement
    session = gateway_of(engine).connect("t")
    for price in (10.0, 100.0, 1000.0):
        session.execute(sql, [price])
    assert len(calls) == 4  # one plan-cache miss


def test_an_ungrouped_item_is_named_as_written():
    with pytest.raises(QueryError) as raised:
        make_engine().query("select sku, count(*) from parts group by price")
    assert str(raised.value) == "select item sku is neither aggregated nor grouped"
