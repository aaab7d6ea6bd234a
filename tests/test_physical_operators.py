"""Tests for the physical operator layer and EXPLAIN ANALYZE.

The tentpole claims: site-side operators (SiteScan, SiteFilter,
SiteProject, PartialAggregate) run at the owning site and charge its
backlog; Ship models the network transfer of the *reduced* rows; every
operator reports rows in/out, seconds and placement.
"""

import pytest

from repro.core import DataType, Field, Schema, Table
from repro.federation import FederatedEngine, FederationCatalog
from repro.sim import SimClock


def make_engine(site_count=4, rows=200, fragments=4):
    clock = SimClock()
    catalog = FederationCatalog(clock)
    names = [catalog.make_site(f"s{i}").name for i in range(site_count)]
    schema = Schema(
        "parts",
        (
            Field("sku", DataType.STRING),
            Field("price", DataType.FLOAT),
            Field("supplier", DataType.STRING),
        ),
    )
    table = Table(
        schema,
        [
            (f"A-{i:03d}", float(i % 100), f"supplier-{i % 5}")
            for i in range(rows)
        ],
    )
    placement = [[names[i % site_count]] for i in range(fragments)]
    catalog.load_fragmented(table, fragments, placement)
    return FederatedEngine(catalog)


def stats_by_name(operators):
    found = {}
    for stats in operators.walk():
        found.setdefault(stats.name, []).append(stats)
    return found


class TestOperatorStats:
    def test_every_operator_reports_rows_and_site(self):
        engine = make_engine()
        result = engine.query(
            "select sku from parts where price > 50", advance_clock=False
        )
        operators = result.report.operators
        assert operators is not None
        for stats in operators.walk():
            assert stats.site != ""
            assert stats.rows_out >= 0
            assert stats.seconds >= 0.0

    def test_site_scan_runs_at_owning_sites(self):
        engine = make_engine()
        result = engine.query("select sku from parts", advance_clock=False)
        named = stats_by_name(result.report.operators)
        scan = named["SiteScan"][0]
        # 4 fragments on 4 distinct sites: the scan's placement names them.
        assert len(scan.site.split(",")) == 4
        assert scan.rows_out == 200

    def test_partial_aggregate_ships_groups_not_rows(self):
        engine = make_engine()
        result = engine.query(
            "select supplier, count(*) as n from parts group by supplier "
            "order by supplier",
            advance_clock=False,
        )
        report = result.report
        named = stats_by_name(report.operators)
        assert "PartialAggregate" in named
        assert "FinalAggregate" in named
        # All 200 rows were read at the sites...
        assert report.rows_fetched == 200
        # ...but at most one partial record per (fragment, supplier) moved.
        assert report.rows_shipped <= 4 * 5
        assert report.rows_shipped < report.rows_fetched
        # And the answer is still exact.
        assert result.table.column("n") == [40, 40, 40, 40, 40]

    def test_site_filter_runs_where_the_rows_live(self):
        engine = make_engine()
        # OR of two comparisons is not source-pushable, but it references a
        # single binding, so the rewrite moves it site-side.
        result = engine.query(
            "select sku from parts where price > 90 or supplier = 'supplier-0'",
            advance_clock=False,
        )
        named = stats_by_name(result.report.operators)
        site_filter = named["SiteFilter"][0]
        assert site_filter.rows_in == 200
        assert site_filter.rows_out < site_filter.rows_in
        coordinator = result.plan.coordinator
        # Filtering was charged to the fragment sites, not (only) the
        # coordinator; the Ship moved only the survivors.
        ship = named["Ship"][0]
        assert ship.rows_in == site_filter.rows_out
        assert coordinator in result.report.site_work

    def test_projection_pruning_narrows_shipped_rows(self):
        engine = make_engine()
        result = engine.query("select sku from parts", advance_clock=False)
        named = stats_by_name(result.report.operators)
        assert "SiteProject" in named
        assert "keep(sku)" in named["SiteProject"][0].detail

    def test_rows_shipped_excludes_coordinator_local_batches(self):
        # Single site: every batch is already at the coordinator.
        engine = make_engine(site_count=1, fragments=2)
        result = engine.query("select sku from parts", advance_clock=False)
        assert result.report.rows_fetched == 200
        assert result.report.rows_shipped == 0


class TestExplainAnalyze:
    def test_explain_analyze_reports_per_operator_accounting(self):
        engine = make_engine()
        text = engine.explain(
            "select supplier, count(*) as n from parts group by supplier",
            analyze=True,
        )
        assert "rows fetched: 200" in text
        assert "rows_in=" in text and "rows_out=" in text
        assert "seconds=" in text
        assert "PartialAggregate" in text
        assert "FinalAggregate" in text
        assert "Ship" in text
        assert "@ " in text  # placement sites

    def test_explain_analyze_executes_without_advancing_clock(self):
        engine = make_engine()
        before = engine.catalog.clock.now()
        engine.explain("select sku from parts", analyze=True)
        assert engine.catalog.clock.now() == before

    def test_plain_explain_shows_site_side_annotations(self):
        engine = make_engine()
        text = engine.explain(
            "select sku from parts where price > 90 or supplier = 'supplier-0'"
        )
        assert "site-filter(" in text
        assert "columns(" in text

    def test_plain_explain_marks_split_aggregates(self):
        engine = make_engine()
        text = engine.explain(
            "select supplier, count(*) as n from parts group by supplier"
        )
        assert "partial at sites" in text


class TestAccountingParity:
    def test_site_work_sums_match_busy_seconds(self):
        engine = make_engine()
        result = engine.query(
            "select sku from parts where price > 50", advance_clock=False
        )
        for name, work in result.report.site_work.items():
            assert work <= engine.catalog.site(name).busy_seconds + 1e-9

    def test_rows_processed_counter_advances(self):
        engine = make_engine()
        before = sum(s.rows_processed for s in engine.catalog.sites.values())
        engine.query("select sku from parts", advance_clock=False)
        after = sum(s.rows_processed for s in engine.catalog.sites.values())
        assert after > before

    def test_metrics_registry_sees_operator_stats(self):
        engine = make_engine()
        engine.query("select sku from parts", advance_clock=False)
        assert engine.metrics.counter("rows.fetched").value == 200
        assert engine.metrics.counter("operator.SiteScan.rows_out").value == 200

    def test_failover_still_works_through_site_scan(self):
        engine = make_engine(site_count=4, fragments=2)
        # Replicate fragment 0 onto a second site so a failover target exists.
        from repro.connect.source import StaticSource

        entry = engine.catalog.entry("parts")
        fragment = entry.fragments[0]
        donor_site = fragment.replica_sites()[0]
        donor = engine.catalog.site(donor_site).source(
            fragment.replicas[donor_site]
        )
        copy = StaticSource("parts.f0@s3", donor.fetch().table)
        engine.catalog.place_replica(fragment, "s3", copy)

        # Plan while everything is up, then kill a chosen site: the SiteScan
        # reroutes to the surviving replica mid-execution.
        from repro.sql import build_plan, parse_sql, resolve

        statement = parse_sql("select sku from parts")
        plan = build_plan(resolve(statement, engine.catalog.binding_fields))
        physical = engine.optimizer.optimize(plan)
        chosen = physical.assignments["parts"].choices[0].site_name
        engine.catalog.site(chosen).up = False
        if physical.coordinator == chosen:
            physical.coordinator = "s3"
        table, report = engine.executor.execute(physical)
        assert report.failovers >= 1
        assert len(table) == 200


class TestSiteOperatorProtocol:
    def test_site_operator_refuses_direct_iteration(self):
        from repro.core.errors import QueryError
        from repro.federation.artifacts import StageSpec
        from repro.federation.physical import SiteScan
        from repro.federation.stage import Stage
        from repro.sql.planner import ScanNode

        operator = SiteScan(Stage(StageSpec(ScanNode("parts", "parts"))))
        operator._closed = False
        operator._batches = []
        with pytest.raises(QueryError):
            operator.next()


class TestSortOrdersIntegersExactly:
    """ORDER BY keys numbers by their exact value, never through float()."""

    # Neighbours of 2**53 (where float() starts to tie adjacent integers),
    # stored so that input order is not already sorted, plus one id too
    # large for any float.
    IDS = [
        2**53 + 1,
        2**53,
        2**53 + 3,
        10**400,
        2**53 + 2,
        -(2**53) - 1,
        -(2**53),
        7,
        2**53 - 1,
    ]

    def engine(self):
        catalog = FederationCatalog(SimClock())
        names = [catalog.make_site(f"s{i}").name for i in range(3)]
        schema = Schema(
            "ledger",
            (Field("id", DataType.INTEGER), Field("tag", DataType.STRING)),
        )
        table = Table(schema, [(i, f"t{n}") for n, i in enumerate(self.IDS)])
        catalog.load_fragmented(table, 3, [[name] for name in names])
        return FederatedEngine(catalog)

    @pytest.mark.parametrize("descending", [False, True])
    def test_order_by_large_integer_ids(self, descending):
        direction = "desc" if descending else "asc"
        result = self.engine().query(
            f"select id from ledger order by id {direction}", advance_clock=False
        )
        got = [row[0] for row in result.table.rows]
        assert got == sorted(self.IDS, reverse=descending)
        assert all(type(value) is int for value in got)

    def test_integers_and_floats_interleave_by_value(self):
        from repro.federation.physical import _sort_key

        values = [2**53 + 1, float(2**53), 2**53 - 1, 0.5, 10**400, -1]
        ordered = sorted(values, key=_sort_key)
        assert ordered == [-1, 0.5, 2**53 - 1, float(2**53), 2**53 + 1, 10**400]
