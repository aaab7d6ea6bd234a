"""Tests for the DB-API surface: a PEP 249 face over one gateway session."""

import pytest

from repro.core import DataType, Field, Schema, Table
from repro.federation import (
    FederatedEngine,
    FederationCatalog,
    Gateway,
    WorkloadManager,
)
from repro.federation.dbapi import InterfaceError, connect
from repro.sim import EventLoop, SimClock


def make_gateway(fragments=1):
    """parts (10 rows) over two sites: one RF=2 fragment, or two RF=1 ones."""
    clock = SimClock()
    catalog = FederationCatalog(clock)
    names = [catalog.make_site(f"s{i}").name for i in range(2)]
    schema = Schema(
        "parts",
        (Field("sku", DataType.STRING), Field("price", DataType.FLOAT)),
    )
    table = Table(schema, [(f"A-{i}", float(i)) for i in range(10)])
    placement = [names] if fragments == 1 else [[name] for name in names]
    catalog.load_fragmented(table, fragments, placement)
    return Gateway(WorkloadManager(FederatedEngine(catalog), EventLoop(clock)))


class TestDbApi:
    def make_connection(self):
        return connect(make_gateway())

    def test_execute_and_fetchall(self):
        with self.make_connection() as connection:
            cursor = connection.cursor()
            cursor.execute("select sku, price from parts where price > 7 order by sku")
            assert cursor.fetchall() == [("A-8", 8.0), ("A-9", 9.0)]

    def test_qmark_parameters(self):
        cursor = self.make_connection().cursor()
        cursor.execute("select sku from parts where price > ? and sku != ?", (6, "A-9"))
        assert cursor.fetchall() == [("A-7",), ("A-8",)]

    def test_string_parameter_escaping(self):
        cursor = self.make_connection().cursor()
        cursor.execute("select sku from parts where sku = ?", ("it's",))
        assert cursor.fetchall() == []

    def test_placeholder_inside_literal_ignored(self):
        cursor = self.make_connection().cursor()
        cursor.execute("select sku from parts where sku = '?'")
        assert cursor.fetchall() == []

    def test_parameter_count_mismatch(self):
        cursor = self.make_connection().cursor()
        with pytest.raises(InterfaceError):
            cursor.execute("select sku from parts where price > ?", ())
        with pytest.raises(InterfaceError):
            cursor.execute("select sku from parts", (1,))

    def test_last_plan_and_report_exposed(self):
        cursor = self.make_connection().cursor()
        assert cursor.last_plan is None and cursor.last_report is None
        cursor.execute("select sku from parts where price > ?", (6,))
        assert cursor.last_plan is not None
        assert "parts" in cursor.last_plan.assignments
        report = cursor.last_report
        assert report is not None
        assert report.rows_returned == 3
        assert report.rows_fetched >= report.rows_returned
        assert report.rows_shipped <= report.rows_fetched
        assert report.operators is not None  # per-operator stats tree
        cursor.close()
        assert cursor.last_plan is None and cursor.last_report is None

    def test_description_and_rowcount(self):
        cursor = self.make_connection().cursor()
        assert cursor.description is None
        cursor.execute("select sku, price from parts")
        names = [d[0] for d in cursor.description]
        assert names == ["sku", "price"]
        assert cursor.rowcount == 10

    def test_fetchone_and_iteration(self):
        cursor = self.make_connection().cursor()
        cursor.execute("select sku from parts order by sku limit 3")
        assert cursor.fetchone() == ("A-0",)
        assert [row[0] for row in cursor] == ["A-1", "A-2"]
        assert cursor.fetchone() is None

    def test_fetchmany(self):
        cursor = self.make_connection().cursor()
        cursor.execute("select sku from parts order by sku")
        assert len(cursor.fetchmany(4)) == 4
        assert cursor.fetchmany(0) == cursor.fetchmany(-1) == []  # moves nothing
        assert cursor.fetchmany() == [("A-4",)]  # arraysize rows
        assert len(cursor.fetchmany(100)) == 5
        assert cursor.fetchmany(100) == []

    def test_closed_cursor_refuses(self):
        cursor = self.make_connection().cursor()
        cursor.close()
        with pytest.raises(InterfaceError):
            cursor.execute("select sku from parts")

    def test_closed_connection_refuses(self):
        connection = self.make_connection()
        connection.close()
        with pytest.raises(InterfaceError):
            connection.cursor()

    def test_fetch_before_execute_refuses(self):
        cursor = self.make_connection().cursor()
        with pytest.raises(InterfaceError):
            cursor.fetchall()

    def test_executemany_runs_last(self):
        cursor = self.make_connection().cursor()
        cursor.executemany(
            "select sku from parts where sku = ?", [("A-1",), ("A-2",)]
        )
        assert cursor.fetchall() == [("A-2",)]

    def test_commit_rollback_are_noops(self):
        connection = self.make_connection()
        connection.commit()
        connection.rollback()


class TestDbApiBindingFixes:
    """Regression tests for the driver's binding and tenancy surface."""

    def make_connection(self):
        return TestDbApi.make_connection(self)

    def make_failover_connection(self, degraded_ok=False, tenant="default"):
        """parts split over two RF=1 fragments, so one dead site degrades."""
        gateway = make_gateway(fragments=2)
        connection = connect(gateway, tenant=tenant, degraded_ok=degraded_ok)
        return connection, gateway.engine

    # -- placeholder scanning (comments, quoted identifiers) ---------------

    def test_placeholder_inside_comment_not_substituted(self):
        cursor = self.make_connection().cursor()
        cursor.execute(
            "select sku from parts where price > ? -- is ? expensive\n"
            "order by sku",
            (8,),
        )
        assert cursor.fetchall() == [("A-9",)]

    def test_bind_leaves_comments_and_quoted_identifiers_alone(self):
        from repro.federation.gateway import bind_sql_text

        assert (
            bind_sql_text("select a from t where b = ? -- b = ?", ("x",))
            == "select a from t where b = 'x' -- b = ?"
        )
        assert (
            bind_sql_text("select a from t where b = 'it''s ?' and c = ?", (2,))
            == "select a from t where b = 'it''s ?' and c = 2"
        )

    def test_like_placeholder_binds_textually(self):
        # (Named for the textual-binding fallback this position once took:
        # a LIKE pattern is a placeholder like any other now.)
        gateway = make_gateway()
        cursor = connect(gateway).cursor()
        cursor.execute("select sku from parts where sku like ?", ("A-1%",))
        assert cursor.fetchall() == [("A-1",)]
        cursor.execute("select sku from parts where sku like ? limit ?", ("A-%", 2))
        assert len(cursor.fetchall()) == 2
        assert gateway.plan_cache.misses == 2

    def test_a_value_that_does_not_fit_its_placeholder_is_an_interface_error(self):
        gateway = make_gateway()
        manager = gateway.workload
        for connection in (connect(gateway), connect(gateway, tenant="acme")):
            cursor = connection.cursor()
            for sql, bad in [
                ("select sku from parts limit ?", -1),
                ("select sku from parts limit ?", 1.5),
                ("select sku from parts limit ?", True),
                ("select sku from parts where sku like ?", 5),
                ("select sku from parts where sku not like ?", None),
            ]:
                with pytest.raises(InterfaceError):
                    cursor.execute(sql, (bad,))
            cursor.execute("select sku from parts order by sku limit ?", (1,))
            assert cursor.fetchall() == [("A-0",)]
        assert manager.in_flight == 0

    # -- unbindable values -------------------------------------------------

    def test_non_finite_floats_rejected(self):
        cursor = self.make_connection().cursor()
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(InterfaceError):
                cursor.execute("select sku from parts where price > ?", (bad,))
            # ... whichever grammar position the placeholder sits in.
            with pytest.raises(InterfaceError):
                cursor.execute("select sku from parts where sku like ?", (bad,))

    def test_bytes_rejected(self):
        cursor = self.make_connection().cursor()
        for bad in (b"blob", bytearray(b"blob"), memoryview(b"blob")):
            with pytest.raises(InterfaceError):
                cursor.execute("select sku from parts where sku = ?", (bad,))

    def test_unknown_types_rejected_on_both_paths(self):
        """Regression: a value with no SQL literal was bound raw into a
        prepared template but quoted as ``str(value)`` on the textual path,
        so what it meant depended on where the ``?`` sat."""
        from decimal import Decimal

        cursor = self.make_connection().cursor()
        for bad in (Decimal("3"), object(), (1, 2)):
            with pytest.raises(InterfaceError):
                cursor.execute("select sku from parts where price = ?", (bad,))
            with pytest.raises(InterfaceError):
                cursor.execute("select sku from parts where sku like ?", (bad,))

    def test_textual_path_checks_the_parameter_count(self):
        cursor = self.make_connection().cursor()
        for parameters in ((), ("A-1%", "A-2%")):
            with pytest.raises(InterfaceError):
                cursor.execute("select sku from parts where sku like ?", parameters)

    def test_finite_floats_still_bind(self):
        cursor = self.make_connection().cursor()
        cursor.execute("select sku from parts where price = ?", (3.0,))
        assert cursor.fetchall() == [("A-3",)]

    # -- executemany with an empty sequence --------------------------------

    def test_executemany_empty_sequence_resets_result(self):
        cursor = self.make_connection().cursor()
        cursor.execute("select sku from parts where sku = ?", ("A-1",))
        assert cursor.rowcount == 1
        cursor.executemany("select sku from parts where sku = ?", [])
        # No stale rows from the earlier statement are fetchable.
        with pytest.raises(InterfaceError):
            cursor.fetchall()
        assert cursor.rowcount == -1
        assert cursor.last_plan is None and cursor.last_report is None

    def test_executemany_empty_on_closed_cursor_still_refuses(self):
        cursor = self.make_connection().cursor()
        cursor.close()
        with pytest.raises(InterfaceError):
            cursor.executemany("select sku from parts where sku = ?", [])

    # -- degraded answers through the driver -------------------------------

    def kill_first_fragment(self, engine):
        fragment = engine.catalog.entry("parts").fragments[0]
        for name in fragment.replica_sites():
            engine.catalog.site(name).up = False

    def test_degraded_ok_direct_path(self):
        # (Named for the engine-only path the default tenant once took.)
        connection, engine = self.make_failover_connection(degraded_ok=True)
        self.kill_first_fragment(engine)
        cursor = connection.cursor()
        cursor.execute("select sku from parts")
        assert cursor.last_report.degraded
        assert 0.0 < cursor.last_report.completeness < 1.0
        assert 0 < cursor.rowcount < 10

    def test_degraded_ok_tenanted_path(self):
        connection, engine = self.make_failover_connection(
            degraded_ok=True, tenant="acme"
        )
        self.kill_first_fragment(engine)
        cursor = connection.cursor()
        cursor.execute("select sku from parts")
        assert cursor.last_report.degraded
        assert cursor.last_report.tenant == "acme"

    def test_without_degraded_ok_partial_failure_raises(self):
        from repro.core.errors import PartialFailureError

        for tenant in ("default", "acme"):
            connection, engine = self.make_failover_connection(
                degraded_ok=False, tenant=tenant
            )
            self.kill_first_fragment(engine)
            with pytest.raises(PartialFailureError):
                connection.cursor().execute("select sku from parts")

    # -- the gateway's shared plan cache ------------------------------------

    def test_repeated_statements_plan_once(self):
        gateway = make_gateway()
        cursor = connect(gateway).cursor()
        for threshold in (2, 4):
            cursor.execute("select sku from parts where price > ?", (threshold,))
        # A second connection (another tenant, too) shares the same plans.
        other = connect(gateway, tenant="acme").cursor()
        for threshold in (6, 8):
            other.execute("select sku from parts where price > ?", (threshold,))
        assert gateway.plan_cache.misses == 1
        assert gateway.plan_cache.hits == 3

    def test_prepared_and_textual_paths_answer_identically(self):
        prepared_cursor = self.make_connection().cursor()
        prepared_cursor.execute(
            "select sku from parts where price > ? order by sku", (6,)
        )
        textual = self.make_connection().cursor()
        textual.execute("select sku from parts where price > 6 order by sku")
        assert prepared_cursor.fetchall() == textual.fetchall()
