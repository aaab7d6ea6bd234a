"""Tests for the query gateway: the serving layer in front of the federation.

Covers the prepared-statement plan cache (normalized-SQL keying, LRU
eviction, invalidation on repartition, none on base-table updates), the session
pool (reuse, exhaustion, idle cap), paging a DB-API cursor with
``fetchmany``, ``?`` in the LIKE-pattern and LIMIT-count positions (templates like any other, where a
textual-binding fallback once ran).  That a gateway session answers what
sqlite3 answers is one switch of ``tests/test_against_sqlite.py``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.connect.source import StaticSource
from repro.core import DataType, Field, Schema, Table
from repro.core.errors import ContentIntegrationError, QueryError
from repro.federation import (
    FederatedEngine,
    FederationCatalog,
    Gateway,
    WorkloadManager,
)
from repro.federation import dbapi
from repro.federation.gateway import PlanCache, bind_sql_text
from repro.sim import EventLoop, SimClock
from repro.sql.lexer import SqlLexError
from repro.sql.parser import SqlParseError


def build_federation(sites=3, fragments=6, rows_per_fragment=20):
    """A small replicated federation: `items(k, v)` with RF=2 placement."""
    catalog = FederationCatalog(SimClock())
    site_names = [f"s{i}" for i in range(sites)]
    for name in site_names:
        catalog.make_site(name)
    schema = Schema(
        "items", (Field("k", DataType.STRING), Field("v", DataType.INTEGER))
    )
    total = fragments * rows_per_fragment
    table = Table(schema, [(f"k{i:04d}", i) for i in range(total)])
    placement = [
        [site_names[i % sites], site_names[(i + 1) % sites]]
        for i in range(fragments)
    ]
    catalog.load_fragmented(table, fragments, placement)
    engine = FederatedEngine(catalog)
    loop = EventLoop(catalog.clock)
    return catalog, engine, loop


def write_row(catalog, table_name, fragment_id, row):
    """Host fragment ``fragment_id`` of ``table_name`` with ``row`` added at
    each of its replicas, then notify the catalog of that one write."""
    entry = catalog.entry(table_name)
    (fragment,) = [f for f in entry.fragments if f.fragment_id == fragment_id]
    site_name, local_name = next(iter(fragment.replicas.items()))
    rows = catalog.site(site_name).source(local_name).fetch().table.rows
    table = Table(entry.schema, [*rows, row])
    for site_name, local_name in fragment.replicas.items():
        catalog.site(site_name).host(StaticSource(local_name, table), local_name)
    catalog.notify_table_updated(table_name, fragment_id)


def make_gateway(max_sessions=4, max_idle=2, plan_cache_size=8, **federation_kwargs):
    catalog, engine, loop = build_federation(**federation_kwargs)
    manager = WorkloadManager(engine, loop, max_in_flight=2)
    gateway = Gateway(
        manager,
        max_sessions=max_sessions,
        max_idle=max_idle,
        plan_cache_size=plan_cache_size,
    )
    return catalog, engine, gateway


QUERY = "select count(*) from items where v < ?"


class TestPlanCache:
    def test_same_statement_hits_once_prepared(self):
        _, _, gateway = make_gateway()
        with gateway.connect() as session:
            session.execute(QUERY, (10,))
            session.execute(QUERY, (50,))
            session.execute(QUERY, (90,))
        cache = gateway.plan_cache
        assert cache.misses == 1
        assert cache.hits == 2
        assert cache.hit_rate == pytest.approx(2 / 3)
        assert gateway.metrics.counter("gateway.plan_cache.hits").value == 2
        assert gateway.metrics.counter("gateway.plan_cache.misses").value == 1

    def test_normalized_spellings_share_one_template(self):
        _, _, gateway = make_gateway()
        spellings = [
            "select count(*) from items where v < ?",
            "SELECT COUNT(*) FROM items WHERE v < ?",
            "select count(*)  from items\n  where v < ?  -- portal probe",
        ]
        with gateway.connect() as session:
            for spelling in spellings:
                assert session.execute(spelling, (30,)).rows == [(30,)]
        assert gateway.plan_cache.misses == 1
        assert gateway.plan_cache.hits == len(spellings) - 1

    def test_quoted_material_is_not_normalized(self):
        _, _, gateway = make_gateway()
        with gateway.connect() as session:
            session.execute("select count(*) from items where k = 'K0001'")
            session.execute("select count(*) from items where k = 'k0001'")
        # Different string literals are different statements.
        assert gateway.plan_cache.misses == 2

    @pytest.mark.parametrize("first, second", [("V", "v"), ("v", "V")])
    def test_identifier_case_keys_separately(self, first, second):
        """Regression: the key lower-cased identifiers the lexer keeps as
        written, so whichever of ``select V`` (unknown column) and
        ``select v`` came first decided what the other one did."""
        _, _, gateway = make_gateway()
        sql = "select {} from items where k = ?"
        with gateway.connect() as session:
            for column in (first, second):
                if column == "v":
                    assert session.execute(sql.format(column), ("k0001",)).rows == [(1,)]
                else:
                    with pytest.raises(QueryError, match="unknown column 'V'"):
                        session.execute(sql.format(column), ("k0001",))

    @pytest.mark.parametrize("first, second", [("A", "a"), ("a", "A")])
    def test_alias_case_names_its_own_output(self, first, second):
        _, _, gateway = make_gateway()
        sql = "select k as {} from items where k = ?"
        with dbapi.connect(gateway) as connection:
            cursor = connection.cursor()
            for alias in (first, second):
                cursor.execute(sql.format(alias), ("k0001",))
                assert [column[0] for column in cursor.description] == [alias]
        assert gateway.plan_cache.misses == 2

    def test_staleness_bound_keys_separately(self):
        _, _, gateway = make_gateway()
        with gateway.connect() as session:
            session.execute(QUERY, (10,))
            session.execute(QUERY, (10,), max_staleness=60.0)
        assert gateway.plan_cache.misses == 2

    def test_pinned_coordinator_keys_separately(self):
        """Regression: sessions pinning different coordinators must not
        share one cached template.

        Pre-fix the key was ``(normalized_sql, max_staleness)`` only, so
        the second session was served the first session's template -- a
        plan whose site assignments route everything through the *other*
        session's pinned coordinator.
        """
        _, _, gateway = make_gateway()
        a = gateway.connect(tenant="acme", coordinator="s0")
        b = gateway.connect(tenant="bolt", coordinator="s1")
        try:
            ra = a.execute(QUERY, (30,))
            rb = b.execute(QUERY, (30,))
        finally:
            a.close()
            b.close()
        assert ra.prepared is not None and rb.prepared is not None
        assert ra.prepared is not rb.prepared  # distinct templates
        assert ra.result.plan.coordinator == "s0"
        assert rb.result.plan.coordinator == "s1"
        assert gateway.plan_cache.misses == 2
        # Re-pinning the same coordinator hits its own template.
        c = gateway.connect(tenant="acme", coordinator="s0")
        try:
            c.execute(QUERY, (60,))
        finally:
            c.close()
        assert gateway.plan_cache.hits == 1

    def test_degraded_ok_is_execution_time_and_shares_the_template(self):
        """``degraded_ok`` deliberately stays out of the plan-cache key: it
        is threaded per-submission through the workload manager, never
        baked into the template, so splitting the key on it would only
        depress the hit rate."""
        _, _, gateway = make_gateway()
        strict = gateway.connect(tenant="acme", degraded_ok=False)
        lenient = gateway.connect(tenant="bolt", degraded_ok=True)
        try:
            r1 = strict.execute(QUERY, (30,))
            r2 = lenient.execute(QUERY, (30,))
        finally:
            strict.close()
            lenient.close()
        assert r1.prepared is r2.prepared  # one shared template
        assert gateway.plan_cache.misses == 1
        assert gateway.plan_cache.hits == 1
        # On a healthy federation both answers are complete either way.
        assert r1.result.report.degraded is False
        assert r2.result.report.degraded is False

    def test_lru_evicts_oldest_template(self):
        _, _, gateway = make_gateway(plan_cache_size=2)
        statements = [
            "select count(*) from items where v < ?",
            "select count(*) from items where v > ?",
            "select count(*) from items where v = ?",
        ]
        with gateway.connect() as session:
            for sql in statements:
                session.execute(sql, (5,))
            # The first statement was evicted by the third; re-running it
            # must miss again.
            session.execute(statements[0], (5,))
        assert gateway.plan_cache.misses == 4
        assert gateway.plan_cache.evictions == 2
        assert len(gateway.plan_cache) == 2

    def test_capacity_must_be_positive(self):
        _, engine, _ = build_federation()
        with pytest.raises(QueryError):
            PlanCache(engine, capacity=0)

    def test_repartition_invalidates_cached_plan(self):
        catalog, _, gateway = make_gateway()
        with gateway.connect() as session:
            assert session.execute(QUERY, (60,)).rows == [(60,)]
            template = session.execute(QUERY, (60,)).prepared
            assert template.replans == 0
            catalog.repartition("items", 4, [[f"s{i % 3}"] for i in range(4)])
            # Same template object, revalidated and replanned on use.
            outcome = session.execute(QUERY, (60,))
            assert outcome.prepared is template
            assert template.replans == 1
            assert outcome.rows == [(60,)]

    def test_base_table_update_replans_nothing(self):
        catalog, _, gateway = make_gateway()
        with gateway.connect() as session:
            before = session.execute(QUERY, (999,))
            assert before.rows == [(120,)]
            template = before.prepared
            assert template.replans == 0
            # A write moves the written fragment's epoch, not the catalog
            # version: the template names no stored rows, so it answers
            # the new content without replanning.
            write_row(catalog, "items", "f0", ("k9999", 5))
            after = session.execute(QUERY, (999,))
            assert after.prepared is template
            assert template.replans == 0
            assert after.rows == [(121,)]


class TestSessionPool:
    def test_sessions_are_reused_after_close(self):
        _, _, gateway = make_gateway()
        first = gateway.connect(tenant="acme")
        first.close()
        second = gateway.connect(tenant="acme")
        assert second is first
        assert gateway.sessions_opened == 1
        assert gateway.sessions_reused == 1
        second.close()

    def test_pool_exhaustion_rejects_connect(self):
        _, _, gateway = make_gateway(max_sessions=2)
        a = gateway.connect()
        b = gateway.connect()
        with pytest.raises(QueryError):
            gateway.connect()
        assert gateway.metrics.counter("gateway.sessions.rejected").value == 1
        a.close()
        b.close()
        # Closing frees capacity again.
        gateway.connect().close()

    def test_idle_cap_bounds_the_free_list(self):
        _, _, gateway = make_gateway(max_sessions=4, max_idle=1)
        sessions = [gateway.connect(tenant="acme") for _ in range(3)]
        for session in sessions:
            session.close()
        assert gateway.metrics.gauge("gateway.sessions.pooled").value == 1

    def test_closed_session_rejects_statements(self):
        _, _, gateway = make_gateway()
        session = gateway.connect()
        session.close()
        with pytest.raises(QueryError):
            session.execute(QUERY, (10,))

    def test_active_gauge_tracks_checkouts(self):
        _, _, gateway = make_gateway()
        session = gateway.connect()
        assert gateway.metrics.gauge("gateway.sessions.active").value == 1
        session.close()
        assert gateway.metrics.gauge("gateway.sessions.active").value == 0


class TestPagination:
    """PEP 249's ``fetchmany`` is the one paging API.  The rows live on the
    client cursor, so a closed connection's cursor pages nothing."""

    def test_page_walk_covers_all_rows_in_order(self):
        _, engine, gateway = make_gateway()
        sql = "select k, v from items order by v"
        direct = engine.query(sql, advance_clock=False).table.rows
        walked = []
        with dbapi.connect(gateway) as connection:
            cursor = connection.cursor().execute(sql)
            while page := cursor.fetchmany(50):
                assert len(page) == min(50, len(direct) - len(walked))
                walked.extend(page)
        assert len(direct) == 120 and walked == direct

    def test_session_release_expires_open_cursors(self):
        """Regression: a result must not survive its session's release.

        Once, a released (pooled) session's paging cursors stayed
        fetchable, so whoever re-acquired the pooled session -- or held
        the token -- could keep paging through the previous checkout's
        result set.  Now the rows live on the DB-API cursor, which refuses
        to fetch once its connection is closed, also while the pooled
        session it ran on is checked out again.
        """
        _, _, gateway = make_gateway()
        connection = dbapi.connect(gateway, tenant="acme")
        cursor = connection.cursor().execute("select k from items")
        assert len(cursor.fetchmany(10)) == 10
        connection.close()
        with pytest.raises(dbapi.InterfaceError):
            cursor.fetchmany(10)
        again = dbapi.connect(gateway, tenant="acme")
        assert again._session is connection._session  # the pooled session
        connection.close()  # a second close does not release it again
        assert gateway.active_sessions == 1
        with pytest.raises(dbapi.InterfaceError):
            cursor.fetchall()
        with pytest.raises(dbapi.InterfaceError):
            again.cursor().fetchall()  # nothing executed on this checkout
        other = dbapi.connect(gateway, tenant="bolt").cursor()
        assert other.execute(QUERY, (10,)).fetchall() == [(10,)]
        again.close()

    def test_abandoned_cursors_do_not_leak_across_checkouts(self):
        """Close many connections with unfetched cursors: every session
        goes back to the pool (four checkouts would exhaust it)."""
        _, _, gateway = make_gateway(max_sessions=4)
        cursors = []
        for _ in range(8):
            connection = dbapi.connect(gateway, tenant="acme")
            cursors.append(connection.cursor().execute("select k from items"))
            connection.close()  # never fetched: release must still reclaim it
        assert gateway.active_sessions == 0 and gateway.sessions_opened == 1
        assert gateway.metrics.gauge("gateway.sessions.active").value == 0
        for cursor in cursors:
            with pytest.raises(dbapi.InterfaceError):
                cursor.fetchone()

    def test_close_cursor_abandons_the_walk(self):
        _, _, gateway = make_gateway()
        with dbapi.connect(gateway) as connection:
            cursor = connection.cursor().execute("select k from items")
            assert len(cursor.fetchmany(10)) == 10
            cursor.close()
            with pytest.raises(dbapi.InterfaceError):
                cursor.fetchmany(10)
            fresh = connection.cursor().execute("select k from items")
            assert len(fresh.fetchall()) == 120


class TestTextualFallback:
    def test_like_parameter_falls_back_and_answers(self):
        _, engine, gateway = make_gateway()
        direct = engine.query(
            "select k from items where k like 'k000%'", advance_clock=False
        ).table.rows
        with gateway.connect() as session:
            outcome = session.execute(
                "select k from items where k like ?", ("k000%",)
            )
            again = session.execute(
                "select k from items where k like ?", ("k001%",)
            )
        assert outcome.rows == direct
        assert outcome.prepared is not None  # a template like any other
        assert again.prepared is outcome.prepared
        assert (gateway.plan_cache.misses, gateway.plan_cache.hits) == (1, 1)

    def test_fallback_binding_quotes_strings(self):
        assert (
            bind_sql_text("select * from t where a like ?", ("it's%",))
            == "select * from t where a like 'it''s%'"
        )

    def test_fallback_checks_parameter_count(self):
        with pytest.raises(QueryError):
            bind_sql_text("select * from t where a like ?", ())

    def test_invalid_sql_without_placeholders_raises_parse_error(self):
        _, _, gateway = make_gateway()
        with gateway.connect() as session:
            with pytest.raises(SqlParseError):
                session.execute("select from from items")


    def test_fallback_keeps_the_pinned_coordinator(self):
        _, _, gateway = make_gateway()
        with gateway.connect(coordinator="s2") as session:
            outcome = session.execute(
                "select k from items where k like ?", ("k000%",)
            )
        assert outcome.prepared is not None
        assert outcome.prepared.physical.coordinator == "s2"
        assert outcome.result.plan.coordinator == "s2"


MALFORMED = [
    # A value that does not fit its placeholder fails at bind, in a slot
    # the manager settles ...
    ("select v from items limit ?", (1.5,)),
    ("select v from items limit ?", (-1,)),
    ("select v from items limit ?", ("x",)),
    ("select v from items limit ?", (True,)),
    ("select v from items limit ?", (None,)),
    ("select v from items where k like ?", (None,)),
    ("select v from items where k not like ?", (5,)),
    ("select v from items where v in (select v from items limit ?)", (-1,)),
    ("select v from items where v in (select v from items where k like ?)", (5,)),
    # ... and text that does not parse fails at the door, before one is taken.
    ("select v from items where k like ? and", ("k%",)),
    ("select v from items limit ? ?", (1, 2)),
    ("select v from items limit 1?", (5,)),
    ("select v ? from items", (-5,)),
    ("select v from items where k is ?", (None,)),
]


class TestMalformedStatementsHoldNoSlot:
    """Regression: a statement whose *bound* text does not parse failed
    inside a dispatched slot with an error the manager did not settle; two
    of them (``max_in_flight=2``) stalled every tenant's later statements.
    (The last three once *answered*: their pasted text read as ``limit
    15``, ``v - 5`` and ``k is NULL``, the value changing the statement.)"""

    def assert_at_baseline(self, manager):
        assert manager.in_flight == 0 and manager._unfinished == 0
        assert all(tenant.running == 0 for tenant in manager.tenants.values())

    def test_through_a_gateway_session(self):
        _, _, gateway = make_gateway()
        with gateway.connect(tenant="acme") as session:
            for sql, params in MALFORMED:
                with pytest.raises(QueryError):
                    session.execute(sql, params)
                self.assert_at_baseline(gateway.workload)
        with gateway.connect(tenant="bolt") as other:
            assert other.execute(QUERY, (30,)).rows == [(30,)]

    def test_through_a_workload_attached_dbapi_cursor(self):
        # (Named for the workload= argument the driver once took: a DB-API
        # connection is a gateway session now.)
        _, _, gateway = make_gateway()
        manager = gateway.workload
        cursor = dbapi.connect(gateway, tenant="acme").cursor()
        for sql, params in MALFORMED:
            with pytest.raises(QueryError):
                cursor.execute(sql, params)
            self.assert_at_baseline(manager)
        with gateway.connect(tenant="bolt") as other:
            assert other.execute(QUERY, (30,)).rows == [(30,)]

    def test_an_untyped_engine_failure_settles_and_propagates(self, monkeypatch):
        _, engine, gateway = make_gateway()
        monkeypatch.setattr(
            engine, "query", lambda *args, **kwargs: 1 / 0, raising=True
        )
        with pytest.raises(ZeroDivisionError):
            gateway.workload.submit("select k from items")
        self.assert_at_baseline(gateway.workload)

    def test_unterminated_string_is_one_error_on_every_entry_path(self):
        _, engine, gateway = make_gateway()
        sql = "select k from items where k = 'oops"
        with gateway.connect() as session:
            with pytest.raises(SqlLexError):
                session.execute(sql)
        with pytest.raises(SqlLexError):
            dbapi.connect(gateway).cursor().execute(sql)
        with pytest.raises(SqlLexError):
            engine.query(sql)
        assert issubclass(SqlLexError, QueryError)
        assert issubclass(SqlParseError, QueryError)

    def test_double_quoted_identifier_is_refused_at_the_door(self):
        _, _, gateway = make_gateway()
        with gateway.connect() as session:
            with pytest.raises(SqlLexError):
                session.execute('select "k" from items where v < ?', (3,))
        self.assert_at_baseline(gateway.workload)

    @settings(max_examples=150, deadline=None)
    @given(
        sql=st.one_of(
            st.text(max_size=60),
            st.lists(
                st.sampled_from(
                    "select k v from items where like limit and ? ?  , ( ) * "
                    "'k%' '' ' -- \n = < 1 1.5 count".split(" ")
                ),
                max_size=14,
            ).map(" ".join),
        ),
        params=st.lists(
            st.one_of(
                st.none(), st.booleans(), st.integers(), st.floats(),
                st.text(max_size=5), st.binary(max_size=3),
            ),
            max_size=3,
        ).map(tuple),
    )
    def test_front_door_fuzz(self, sql, params):
        """Untrusted text with arbitrary parameters answers or raises a
        typed error, and never leaves a slot behind."""
        _, _, gateway = make_gateway()
        with gateway.connect() as session:
            try:
                session.execute(sql, params)
            except ContentIntegrationError:
                pass
        self.assert_at_baseline(gateway.workload)


# What 50 fixed statements leave in the registry, as the commit before the
# instruments were held (``sim.metrics.Held``) listed it: names in the
# order they were first touched.  Since the per-fragment top-k, the
# ``order by a.k limit 5`` join ships each fragment's top 5 of ``a``: four
# ``operator.SiteTopK`` names join the list, and shipped rows and bytes,
# the join's and sort's rows and the response means move with them.  With
# the top-k mark left off, the list and digest are the earlier ones
# (6e1577a6...).
SNAPSHOT_KEYS = (
    "gateway.sessions.opened queries.prepared gateway.plan_cache.misses "
    "workload.acme.admitted workload.dispatches queries.prepared_executions "
    "queries rows.fetched rows.shipped bytes.shipped "
    "pruning.fragments_pruned pruning.fragments_total "
    "operator.FinalAggregate.rows_out operator.Ship.rows_out "
    "operator.PartialAggregate.rows_out operator.SiteProject.rows_out "
    "operator.SiteProject.batches_processed operator.SiteFilter.rows_out "
    "operator.SiteFilter.batches_processed operator.SiteScan.rows_out "
    "operator.SiteScan.batches_processed workload.acme.completed "
    "workload.bolt.admitted operator.Project.rows_out "
    "operator.Ship.batches_processed operator.Ship.encode_seconds "
    "operator.Ship.decode_seconds workload.bolt.completed "
    "operator.Limit.rows_out operator.Sort.rows_out "
    "operator.HashJoin.rows_out operator.SiteTopK.rows_out "
    "operator.SiteTopK.batches_processed gateway.plan_cache.hits "
    "gateway.sessions.active gateway.sessions.pooled "
    "gateway.plan_cache.size workload.acme.queue_depth workload.in_flight "
    "site.s0.active_scans site.s1.active_scans workload.bolt.queue_depth "
    "site.s2.active_scans workload.acme.queue_wait_seconds.count "
    "workload.acme.queue_wait_seconds.mean query.response_seconds.count "
    "query.response_seconds.mean query.staleness_seconds.count "
    "query.staleness_seconds.mean query.completeness.count "
    "query.completeness.mean operator.FinalAggregate.seconds.count "
    "operator.FinalAggregate.seconds.mean operator.Ship.seconds.count "
    "operator.Ship.seconds.mean operator.PartialAggregate.seconds.count "
    "operator.PartialAggregate.seconds.mean "
    "operator.SiteProject.seconds.count operator.SiteProject.seconds.mean "
    "operator.SiteFilter.seconds.count operator.SiteFilter.seconds.mean "
    "operator.SiteScan.seconds.count operator.SiteScan.seconds.mean "
    "workload.acme.service_seconds.count workload.acme.service_seconds.mean "
    "workload.acme.total_seconds.count workload.acme.total_seconds.mean "
    "workload.bolt.queue_wait_seconds.count "
    "workload.bolt.queue_wait_seconds.mean operator.Project.seconds.count "
    "operator.Project.seconds.mean workload.bolt.service_seconds.count "
    "workload.bolt.service_seconds.mean workload.bolt.total_seconds.count "
    "workload.bolt.total_seconds.mean operator.Limit.seconds.count "
    "operator.Limit.seconds.mean operator.Sort.seconds.count "
    "operator.Sort.seconds.mean operator.HashJoin.seconds.count "
    "operator.HashJoin.seconds.mean operator.SiteTopK.seconds.count "
    "operator.SiteTopK.seconds.mean "
).split()
SNAPSHOT_SHA256 = "2a82ffcd50df37c5580e2312b672e51bf1adc07a61ef0fb54df4eb3bdad95750"
SNAPSHOT_STATEMENTS = [
    ("select count(*) from items where v < ?", lambda i: (i * 7 % 120,)),
    ("SELECT k, v FROM items WHERE v BETWEEN ? AND ?", lambda i: (i, i + 20)),
    ("select v from items where k = ?", lambda i: (f"k{i * 3 % 120:04d}",)),
    (
        "select a.k, b.v from items a join items b on a.v = b.v "
        "where a.v < ? order by a.k limit 5",
        lambda i: (i,),
    ),
    (
        "select count(*), max(v) from items where v + 0 > ? "
        "and k not in (?, 'k0001')",
        lambda i: (i, f"k{i:04d}"),
    ),
]


def test_held_instruments_leave_the_registry_snapshot_as_it_was():
    """Metric names, their order and every value: holding ``Counter`` /
    ``Gauge`` / ``Histogram`` objects instead of looking each up by a
    formatted name per statement changed none of them."""
    import hashlib

    _, _, gateway = make_gateway()
    sessions = [gateway.connect(tenant=tenant) for tenant in ("acme", "bolt")]
    for i in range(50):
        sql, params = SNAPSHOT_STATEMENTS[i % len(SNAPSHOT_STATEMENTS)]
        sessions[i % 2].execute(sql, params(i))
    for session in sessions:
        session.close()
    snapshot = gateway.metrics.snapshot()
    assert list(snapshot) == SNAPSHOT_KEYS
    digest = hashlib.sha256(repr(list(snapshot.items())).encode()).hexdigest()
    assert digest == SNAPSHOT_SHA256


class TestParameterErrors:
    def test_too_few_parameters(self):
        _, _, gateway = make_gateway()
        with gateway.connect() as session:
            with pytest.raises(QueryError):
                session.execute(QUERY, ())

    def test_too_many_parameters(self):
        _, _, gateway = make_gateway()
        with gateway.connect() as session:
            with pytest.raises(QueryError):
                session.execute(QUERY, (1, 2))

