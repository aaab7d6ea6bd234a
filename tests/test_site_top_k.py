"""The per-fragment top-k under ORDER BY ... LIMIT (DESIGN §5b ``SiteTopK``).

``LIMIT k`` over a Sort whose first key reads one binding ships each of
that binding's fragments' top k rows, ties kept, and the coordinator
``Sort`` checks its answer: exact, or the plan re-runs with the mark off
and EXPLAIN ANALYZE says why.  sqlite referees every answer here; the
grammar in ``tests/test_against_sqlite.py`` does so under every switch.
"""

from collections import Counter
from dataclasses import replace

import pytest

from benchmarks.e2e.oracle import rows_match
from benchmarks.e2e.workloads import JOIN_ROWS, JOIN_TOP, build_parts_world, parts_data
from repro.federation.artifacts import StageSpec, stage_hash
from repro.federation.gateway import bind_sql_text
from repro.federation.governance import GovernanceRegistry
from repro.federation.site import Site
from repro.sql.planner import scans_in
from repro.sql.rewrite import without_top_k

from tests.reference_coordinator import ReferencePlanner
from tests.reference_site import ReferenceSitePlanner
from tests.sqlite_oracle import federation, sqlite_answer

# t.k is 1..12, dealt round-robin over two fragments: f0 holds the odd keys,
# f1 the even ones.  u.k repeats 1, holds a NULL and a 20 no t.k matches, so
# no t.k above 4 has a partner.
TABLES = {
    "t": (("k", "v"), [(k, k % 3) for k in range(1, 13)]),
    "u": (
        ("k", "w"),
        [(1, 10), (1, 11), (3, 2), (None, 4), (4, 5), (20, 1)],
    ),
}


def answers_as_sqlite(engine, sql, result=None):
    result = result or engine.query(sql)
    names, rows = sqlite_answer(TABLES, sql)
    assert list(result.table.schema.field_names) == names
    assert rows_match(result.table.rows, rows, ordered=True), result.table.rows
    return result


def analyze(engine, result):
    return engine.render_analyze(result)


# -- join_ship's JOIN_TOP at threshold 700 ----------------------------------------

JOIN_TOP_700 = """\
optimizer: agoric  coordinator: s0  price: 0.1932
response: 0.342804s  rows fetched: 1844  shipped: 400  returned: 100  bytes shipped: 4325
pruned fragments 0/9
Limit  @ s0  rows_in=100 rows_out=100  seconds=0.000000  100
  Project  @ s0  rows_in=100 rows_out=100  seconds=0.005000  sku, price, region
    Sort  @ s0  rows_in=800 rows_out=100  seconds=0.040000  p.price desc, p.sku
      HashJoin  @ s0  rows_in=840 rows_out=800  seconds=0.042000  (p.supplier = s.supplier)
        Ship  @ s0  rows_in=800 rows_out=800  seconds=0.121094  batches=8  bytes=4325/11648 (2.69x)  encode=0.000009 decode=0.000004  from s1, s2
          SiteTopK  @ s0,s1,s2  rows_in=1804 rows_out=800  seconds=0.090200  batches=8  top 100 by p.price desc
            SiteProject  @ s0,s1,s2  rows_in=1804 rows_out=1804  seconds=0.090200  batches=8  keep(price, sku, supplier)
              SiteScan  @ s0,s1,s2  rows_in=0 rows_out=1804  seconds=0.170200  batches=8  parts as p: fragments [f0@s0, f1@s1, f2@s2, f3@s0, f4@s0, f5@s1, f6@s2, f7@s0] pushdown(price >= 700.0)
        Ship  @ s0  rows_in=40 rows_out=40  seconds=0.002000  batches=1  coordinator-local
          SiteProject  @ s0  rows_in=40 rows_out=40  seconds=0.002000  batches=1  keep(region, supplier)
            SiteScan  @ s0  rows_in=0 rows_out=40  seconds=0.012000  batches=1  suppliers as s: fragments [f0@s0]"""


def test_join_top_ships_each_fragments_top_100():
    """Each of the eight fragments ships its 100 best prices of its 225 or
    so qualifying parts: 896 remote rows (8 354 bytes) become 400 (4 325),
    and the answer is the one the unmarked plan gives."""
    sql = bind_sql_text(JOIN_TOP, (700.0,))
    engine = build_parts_world(parts_data(JOIN_ROWS)).gateway.engine
    result = engine.query(sql)
    assert analyze(engine, result) == JOIN_TOP_700
    assert result.report.top_k_restart is None
    unmarked = replace(result.plan, logical=without_top_k(result.plan.logical))
    fresh = build_parts_world(parts_data(JOIN_ROWS)).gateway.engine
    table, report = fresh.executor.execute(unmarked)
    assert (report.rows_shipped, report.bytes_shipped) == (896, 8354)
    assert table.rows == result.table.rows


# -- the restart -------------------------------------------------------------------

RESTART = "select t.k as c0 from t join u on t.k = u.k order by c0 desc limit 1"


def test_a_join_that_drops_every_fragments_top_rows_restarts():
    """Each fragment ships its best key (11 and 12), which no u.k matches:
    the Sort gets no row 1, the ordinary plan runs after the truncated one,
    and the answer is sqlite's."""
    engine = federation(TABLES)
    result = answers_as_sqlite(engine, RESTART)
    assert result.table.rows == [(4,)]
    text = analyze(engine, result)
    assert "top-k restart: 0 rows, fewer than 1" in text.splitlines()
    assert "SiteTopK" not in text  # the tree is the ordinary plan's
    # The attempt's work stays charged: shipped rows and response seconds
    # exceed the ordinary plan's on its own.
    restarted = federation(TABLES).executor.execute(result.plan)[1]
    unmarked = replace(result.plan, logical=without_top_k(result.plan.logical))
    ordinary = federation(TABLES).executor.execute(unmarked)[1]
    assert restarted.top_k_restart == result.report.top_k_restart
    assert restarted.rows_shipped > ordinary.rows_shipped
    assert restarted.response_seconds > ordinary.response_seconds


def test_a_restart_starts_only_the_truncated_stage(monkeypatch):
    """u's stage is not truncated: the restart serves its output again,
    so each u fragment is scanned once, and t's, started again
    untruncated, twice."""
    engine = federation(TABLES)
    scanned = Counter()
    execute_scan = Site.execute_scan

    def counting(site, source_name, predicates=()):
        scanned[source_name] += 1
        return execute_scan(site, source_name, predicates)

    monkeypatch.setattr(Site, "execute_scan", counting)
    assert answers_as_sqlite(engine, RESTART).report.top_k_restart is not None

    def scans(table):  # per fragment: each has one replica
        fragments = engine.catalog.entry(table).fragments
        return [scanned[source] for f in fragments for source in f.replicas.values()]

    assert (scans("u"), scans("t")) == ([1, 1], [2, 2])


RESTART_WHY = [
    # Three rows survive the join where four are asked for: a cut
    # fragment might have held the fourth.
    (
        "select t.k as c0 from t join u on t.k = u.k and u.w > 4 "
        "order by c0 limit 4",
        "3 rows, fewer than 4",
    ),
    # u's f1 ships w = 1 (k = 20, no partner) and cuts at it; row 1 is
    # f0's w = 2, so an unshipped row of f1 could rank before it.
    (
        "select u.w as c0 from u join t on u.k = t.k order by c0 limit 1",
        "f1 boundary 1 ranks before row 1",
    ),
]


@pytest.mark.parametrize("sql, why", RESTART_WHY)
def test_the_restart_says_why(sql, why):
    engine = federation(TABLES)
    result = answers_as_sqlite(engine, sql)
    assert result.report.top_k_restart == f"top-k restart: {why}"


@pytest.mark.parametrize("planner", [ReferenceSitePlanner, ReferencePlanner])
@pytest.mark.parametrize("sql", [RESTART] + [sql for sql, _ in RESTART_WHY])
def test_the_reference_planners_restart_alike(planner, sql):
    """The oracles' trees plug into the same executor: the stages it
    starts, keeps and starts again give their answer and shipping too."""
    production = federation(TABLES).query(sql)
    engine = federation(TABLES)
    engine.executor.planner = planner(engine.catalog)
    reference = answers_as_sqlite(engine, sql)
    assert reference.table.rows == production.table.rows
    assert reference.report.top_k_restart == production.report.top_k_restart
    assert reference.report.top_k_restart is not None
    assert reference.report.rows_shipped == production.report.rows_shipped


def test_the_restart_is_billed_once():
    governance = GovernanceRegistry(
        {"version": 1, "tenants": {"acme": {"budget": {"credits": 50.0}}}}
    )
    engine = federation(TABLES, governance=governance)
    debits = []
    charge = governance.charge

    def recording(tenant, price):
        debits.append((tenant, price))
        charge(tenant, price)

    governance.charge = recording
    result = engine.query(RESTART, tenant="acme")
    assert result.report.top_k_restart is not None
    assert debits == [("acme", result.plan.total_price)]


# -- where the rule applies, and where it does not ---------------------------------

PUSHED = {
    "one table": "select k as c0 from t order by c0 desc limit 2",
    "right side of an inner join": (
        "select u.w as c0, t.k as c1 from t join u on t.k = u.k "
        "order by c0 desc, c1 limit 2"
    ),
    "preserved side of a left join": (
        "select t.k as c0, u.w as c1 from t left join u on t.k = u.k "
        "order by c0 desc, c1 limit 3"
    ),
    "an expression key": (
        "select t.k * 2 as c0 from t join u on t.k = u.k order by c0 limit 2"
    ),
}
NOT_PUSHED = {
    "distinct": (
        "select distinct t.v as c0 from t join u on t.k = u.k order by c0 limit 2"
    ),
    "group by": (
        "select t.v as c0, count(*) as c1 from t join u on t.k = u.k "
        "group by t.v order by c0 limit 2"
    ),
    "a key reading both sides": (
        "select t.k + u.w as c0 from t join u on t.k = u.k order by c0 limit 2"
    ),
    "a key on the null-supplying side": (
        "select u.w as c0, t.k as c1 from t left join u on t.k = u.k "
        "order by c0, c1 limit 2"
    ),
    "limit 0": "select t.k as c0 from t order by c0 limit 0",
}


@pytest.mark.parametrize("sql", list(PUSHED.values()), ids=list(PUSHED))
def test_the_rule_applies(sql):
    engine = federation(TABLES)
    result = answers_as_sqlite(engine, sql)
    assert "top-k(" in engine.explain(sql)
    assert "SiteTopK" in analyze(engine, result)


@pytest.mark.parametrize("sql", list(NOT_PUSHED.values()), ids=list(NOT_PUSHED))
def test_the_rule_does_not_apply(sql):
    engine = federation(TABLES)
    result = answers_as_sqlite(engine, sql)
    assert "top-k(" not in engine.explain(sql)
    assert "SiteTopK" not in analyze(engine, result)


def test_a_bound_limit_sizes_the_top_k():
    """``limit ?`` marks the template; k is what each execution binds, and
    a bound 0 compiles no SiteTopK.  Four rows join, so k = 5 restarts."""
    template = "select t.k as c0 from t join u on t.k = u.k order by c0 limit ?"
    engine = federation(TABLES)
    prepared = engine.prepare(template)
    for k, shape in ((0, None), (1, "SiteTopK"), (2, "SiteTopK"), (5, "restart")):
        result = engine.execute(prepared, (k,))
        answers_as_sqlite(engine, template.replace("?", str(k)), result)
        text = analyze(engine, result)
        assert ("SiteTopK" in text, "top-k restart" in text) == (
            shape == "SiteTopK", shape == "restart"
        ), text


# -- the reuse stores --------------------------------------------------------------


def test_a_truncated_stage_is_served_only_to_the_same_truncation():
    engine = federation(TABLES, reuse=True)
    top2 = "select k as c0 from t order by c0 desc limit 2"
    first = answers_as_sqlite(engine, top2)
    assert "t" not in first.report.scan_tables  # a truncated scan captures nothing
    again = answers_as_sqlite(engine, top2)
    assert again.report.artifact_hits == 1
    top3 = answers_as_sqlite(engine, top2.replace("limit 2", "limit 3"))
    assert top3.report.artifact_hits == 0
    # A served truncated stage hands the Sort its parts' boundaries: the
    # restart case restarts on a hit of the stage an exact statement stored,
    # as it does on a run.
    answers_as_sqlite(engine, "select k as c0 from t order by c0 desc limit 1")
    hit = answers_as_sqlite(engine, RESTART)
    assert hit.report.top_k_restart is not None
    assert hit.report.artifact_hits == 1  # the truncated stage, before the restart


def test_the_stage_digest_covers_key_direction_and_k():
    engine = federation(TABLES)

    def digest(sql):
        (scan,) = [s for s in scans_in(engine.prepare(sql).logical) if s.top_k]
        return stage_hash(engine.catalog, StageSpec(scan))

    base = digest("select k as c0 from t order by c0 desc limit 2")
    assert base == digest("select x.k as c0 from t x order by c0 desc limit 2")
    assert base != digest("select k as c0 from t order by c0 desc limit 3")
    assert base != digest("select k as c0 from t order by c0 limit 2")
    assert base != digest("select k as c0 from t order by v desc, c0 limit 2")
    assert base != stage_hash(
        engine.catalog, StageSpec(scans_in(engine.prepare("select k from t").logical)[0])
    )
