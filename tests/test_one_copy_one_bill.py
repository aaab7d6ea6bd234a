"""One copy, one bill: a materialized copy is served -- and charged -- the
same way whichever finder reached it (DESIGN §5k, "...and one way to serve
each").

* A stage artifact the optimizer embedded in the plan (an ad-hoc statement
  run twice) and one the store's run-time probe found (a template prepared
  before the artifact existed, executed after it committed) are served at
  the ``Ship`` boundary by one body: one coordinator pass, one EXPLAIN line.
* A view or cache region the optimizer planned and one the covering
  fallback found after every replica of the fragments died are served by
  one ``SiteScan`` step.

Each case runs both finders on twin federations and compares the rows,
the staleness, the serving site's work and the serving operator's seconds.
"""

from typing import NamedTuple

import pytest

from repro.core import DataType, Field, Schema, Table
from repro.federation import FederatedEngine, FederationCatalog, SemanticCache
from repro.sim import SimClock
from tests.test_artifact_reuse import ROWS_SQL, make_engine

COORDINATOR = "s2"
SQL = "select k, v from items where v < 33"


class Served(NamedTuple):
    rows: list
    report: object
    plan: object
    site: str  # where the copy was served
    operator: str  # the operator that served it


# -- artifacts: optimizer-embedded versus probe-found --------------------------


def artifact_by_the_optimizer() -> Served:
    _, engine, _ = make_engine()
    engine.query(ROWS_SQL)  # publishes; the next statement's plan embeds it
    result = engine.query(ROWS_SQL)
    assert result.plan.assignments["items"].kind == "artifact"
    return Served(result.table.rows, result.report, result.plan, "s0", "Ship")


def artifact_by_the_probe() -> Served:
    _, engine, _ = make_engine()
    prepared = engine.prepare(ROWS_SQL)  # planned before the artifact existed
    engine.query(ROWS_SQL)
    result = engine.execute(prepared)
    assert result.plan.assignments["items"].kind == "fragments"
    return Served(result.table.rows, result.report, result.plan, "s0", "Ship")


# -- views and cache regions: planned versus the covering fallback -------------


def items_engine(cache: bool) -> FederatedEngine:
    """``items(k, v)``: 60 rows in one fragment on s1 alone (no replica)."""
    catalog = FederationCatalog(SimClock())
    for i in range(3):
        catalog.make_site(f"s{i}")
    schema = Schema(
        "items", (Field("k", DataType.STRING), Field("v", DataType.INTEGER))
    )
    table = Table(schema, [(f"k{i:03d}", i) for i in range(60)])
    catalog.load_fragmented(table, 1, [["s1"]])
    return FederatedEngine(
        catalog, cache=SemanticCache(catalog.clock) if cache else None
    )


def copy_served(fallback: bool, make_copy, site: str, kind: str) -> Served:
    """Plan ``SQL`` at the pinned coordinator, materialize the copy, age it
    and kill s1; then run the early (fragment) plan, whose scan falls back
    to the copy, or a plan made now, which chooses it."""
    engine = items_engine(cache=kind == "cache")
    early = engine.prepare(SQL, coordinator=COORDINATOR).physical
    make_copy(engine)
    engine.catalog.clock.advance(5.0)
    engine.catalog.site("s1").up = False
    plan = early
    if not fallback:
        plan = engine.prepare(SQL, coordinator=COORDINATOR).physical
    assert plan.assignments["items"].kind == ("fragments" if fallback else kind)
    table, report = engine.executor.execute(plan)
    assert report.failovers == int(fallback) and not report.degraded
    return Served(table.rows, report, plan, site, "SiteScan")


def make_view(engine):
    engine.create_materialized_view("items_copy", "items", "s0")


def make_cache_region(engine):
    engine.query(SQL)  # the live scan's output becomes a cache region


def view(fallback: bool) -> Served:
    return copy_served(fallback, make_view, "s0", "view")


def cache_region(fallback: bool) -> Served:
    return copy_served(fallback, make_cache_region, COORDINATOR, "cache")


CASES = {
    "artifact": (artifact_by_the_optimizer, artifact_by_the_probe),
    "view": (lambda: view(False), lambda: view(True)),
    "cache region": (lambda: cache_region(False), lambda: cache_region(True)),
}


def serving_stats(served: Served):
    return next(
        stats for stats in served.report.operators.walk()
        if stats.name == served.operator
    )  # fmt: skip


@pytest.mark.parametrize("case", sorted(CASES))
def test_one_copy_one_bill(case):
    planned, found = (run() for run in CASES[case])
    assert planned.rows == found.rows != []
    assert planned.report.staleness_seconds == found.report.staleness_seconds > 0
    site = planned.site
    assert planned.report.site_work[site] == pytest.approx(
        found.report.site_work[site], abs=1e-12
    )
    planned_stats, found_stats = serving_stats(planned), serving_stats(found)
    assert planned_stats.seconds == found_stats.seconds > 0.0
    if case == "artifact":
        assert planned.report.artifact_hits == found.report.artifact_hits == 1
        assert planned.report.response_seconds - (
            planned.plan.optimization_seconds
        ) == pytest.approx(
            found.report.response_seconds - found.plan.optimization_seconds,
            abs=1e-12,
        )
        assert planned_stats.tree_lines()[0] == found_stats.tree_lines()[0]
