"""End-to-end tests of the federated engine: SQL, views, XPath, MATCH, cache."""

import pytest

from repro.connect.source import Predicate, StaticSource
from repro.core import DataType, Field, Schema, Table
from repro.core.errors import QueryError
from repro.federation import (
    FederatedEngine,
    FederationCatalog,
    SemanticCache,
)
from repro.federation.engine import LIVE_ONLY
from repro.ir.search import SearchMode
from repro.sim import EventLoop, SimClock
from repro.sql.planner import scans_in

from tests.sqlite_oracle import sqlite_answer


def parts_schema():
    return Schema(
        "parts",
        (
            Field("sku", DataType.STRING),
            Field("name", DataType.STRING),
            Field("price", DataType.FLOAT),
            Field("supplier_id", DataType.STRING),
        ),
    )


def suppliers_schema():
    return Schema(
        "suppliers",
        (Field("supplier_id", DataType.STRING), Field("country", DataType.STRING)),
    )


def make_engine(site_count=4):
    clock = SimClock()
    catalog = FederationCatalog(clock)
    names = [f"s{i}" for i in range(site_count)]
    for name in names:
        catalog.make_site(name)
    parts_rows = [
        ("A-1", "black india ink", 5.0, "sup0"),
        ("A-2", "blue ink cartridge", 6.0, "sup0"),
        ("A-3", "cordless drill", 90.0, "sup1"),
        ("A-4", "corded drill press", 150.0, "sup1"),
        ("A-5", "hex bolt", 0.5, "sup2"),
        ("A-6", "mechanical pencil lead refills", 2.0, "sup2"),
    ]
    parts = Table(parts_schema(), parts_rows)
    catalog.load_fragmented(parts, 2, [["s0", "s1"], ["s2", "s3"]])
    suppliers = Table(
        suppliers_schema(), [("sup0", "US"), ("sup1", "FR"), ("sup2", "US")]
    )
    catalog.load_fragmented(suppliers, 1, [["s1"]])
    catalog.build_text_index("parts", "name", parts, "sku")
    return FederatedEngine(catalog)


class TestSqlEndToEnd:
    def test_select_star(self):
        engine = make_engine()
        result = engine.query("select * from parts")
        assert len(result.table) == 6
        assert set(result.table.schema.field_names) == {
            "sku", "name", "price", "supplier_id"
        }

    def test_filter_and_projection(self):
        engine = make_engine()
        result = engine.query("select sku from parts where price > 50")
        assert sorted(result.table.column("sku")) == ["A-3", "A-4"]

    def test_pushdown_reduces_rows_fetched(self):
        engine = make_engine()
        result = engine.query("select sku from parts where price > 50")
        assert result.report.rows_fetched == 2  # filtered at the sites

    def test_join(self):
        engine = make_engine()
        result = engine.query(
            "select p.sku, s.country from parts p "
            "join suppliers s on p.supplier_id = s.supplier_id "
            "where s.country = 'FR'"
        )
        assert sorted(result.table.column("sku")) == ["A-3", "A-4"]

    def test_aggregates_with_group_and_having(self):
        engine = make_engine()
        result = engine.query(
            "select supplier_id, count(*) as n, max(price) as top from parts "
            "group by supplier_id having count(*) > 1 order by supplier_id"
        )
        rows = result.table.to_dicts()
        assert len(rows) == 3
        assert rows[0] == {"supplier_id": "sup0", "n": 2, "top": 6.0}

    def test_order_by_and_limit(self):
        engine = make_engine()
        result = engine.query("select sku, price from parts order by price desc limit 2")
        assert result.table.column("sku") == ["A-4", "A-3"]

    def test_distinct(self):
        engine = make_engine()
        result = engine.query("select distinct supplier_id from parts")
        assert len(result.table) == 3

    def test_expression_select_items(self):
        engine = make_engine()
        result = engine.query(
            "select sku, price * 2 as doubled from parts where sku = 'A-1'"
        )
        assert result.table.to_dicts() == [{"sku": "A-1", "doubled": 10.0}]

    def test_fuzzy_function_in_where(self):
        engine = make_engine()
        result = engine.query(
            "select sku from parts where fuzzy(name, 'ink black india') > 0.9"
        )
        assert result.table.column("sku") == ["A-1"]

    def test_unknown_table_rejected(self):
        engine = make_engine()
        with pytest.raises(QueryError):
            engine.query("select * from ghosts")

    def test_response_time_positive_and_clock_advances(self):
        engine = make_engine()
        before = engine.catalog.clock.now()
        result = engine.query("select * from parts")
        assert result.report.response_seconds > 0
        assert engine.catalog.clock.now() >= before + result.report.response_seconds

    def test_parallel_scan_cost_is_max_not_sum(self):
        engine = make_engine()
        result = engine.query("select * from parts", max_staleness=LIVE_ONLY)
        total_work = sum(result.report.site_work.values())
        assert result.report.response_seconds < total_work + 1.0  # sanity
        assert len(result.report.site_work) >= 2  # both fragments scanned


class TestMatchAccessPath:
    def test_match_uses_text_index(self):
        engine = make_engine()
        result = engine.query("select sku from parts where match(name, 'drill')")
        assert sorted(result.table.column("sku")) == ["A-3", "A-4"]
        assert engine.catalog.entry("parts").text_index is not None
        (scan,) = scans_in(result.plan.logical)
        assert scan.text_filter == ("name", "drill")

    def test_match_on_unindexed_column_falls_back(self):
        engine = make_engine()
        result = engine.query("select sku from parts where match(sku, 'A-1')")
        assert result.table.column("sku") == ["A-1"]
        (scan,) = scans_in(result.plan.logical)
        assert scan.text_filter is None

    def test_match_combined_with_other_predicates(self):
        engine = make_engine()
        result = engine.query(
            "select sku from parts where match(name, 'drill') and price < 100"
        )
        assert result.table.column("sku") == ["A-3"]

    OUTER = (
        "select s.supplier_id, p.sku from suppliers s {kind} join parts p "
        "on s.supplier_id = p.supplier_id where {condition}"
    )

    def test_match_on_the_null_supplying_side_stays_above_the_join(self):
        """WHERE runs after the outer join: a text-index probe below it
        would leave the null-extended rows the WHERE must drop."""
        engine = make_engine()
        tables = {}
        for name in ("suppliers", "parts"):
            table = engine.query(f"select * from {name}").table
            tables[name] = (table.schema.field_names, table.rows)
        like = self.OUTER.format(kind="left", condition="p.name like '%ink%'")
        expected = sorted(sqlite_answer(tables, like)[1])
        assert expected == [("sup0", "A-1"), ("sup0", "A-2")]
        for condition in ("match(p.name, 'ink')", "p.name contains 'ink'"):
            sql = self.OUTER.format(kind="left", condition=condition)
            assert sorted(engine.query(sql).table.rows) == expected
        match = self.OUTER.format(kind="left", condition="match(p.name, 'ink')")
        lines = [line.strip() for line in engine.explain(match).splitlines()]
        assert lines.index("filter") < lines.index("left join")
        assert "text-index" not in engine.explain(match)

    def test_match_under_an_inner_join_keeps_the_text_index(self):
        engine = make_engine()
        sql = self.OUTER.format(kind="inner", condition="match(p.name, 'ink')")
        assert sorted(engine.query(sql).table.rows) == [
            ("sup0", "A-1"), ("sup0", "A-2")
        ]
        text = engine.explain(sql)
        assert "text-index('name', 'ink')" in text
        assert "filter" not in text


class TestFailover:
    def test_query_survives_one_replica_down(self):
        engine = make_engine()
        engine.catalog.site("s0").up = False
        result = engine.query("select * from parts")
        assert len(result.table) == 6
        assert "s0" not in result.report.site_work

    def test_unreplicated_fragment_down_fails(self):
        engine = make_engine()
        engine.catalog.site("s1").up = False  # suppliers only live on s1
        with pytest.raises(QueryError):
            engine.query("select * from suppliers")


class TestMaterializedViews:
    def test_view_serves_when_staleness_allowed(self):
        engine = make_engine()
        engine.create_materialized_view("parts_mv", "parts", "s0")
        result = engine.query("select count(*) as n from parts", max_staleness=60.0)
        assert result.plan.assignments["parts"].kind == "view"
        assert result.table.to_dicts() == [{"n": 6}]

    def test_live_only_bypasses_view(self):
        engine = make_engine()
        engine.create_materialized_view("parts_mv", "parts", "s0")
        result = engine.query("select count(*) as n from parts", max_staleness=LIVE_ONLY)
        assert result.plan.assignments["parts"].kind == "fragments"

    def test_stale_view_not_served(self):
        engine = make_engine()
        view = engine.create_materialized_view("parts_mv", "parts", "s0")
        engine.catalog.clock.advance(100.0)
        result = engine.query("select count(*) as n from parts", max_staleness=50.0)
        assert result.plan.assignments["parts"].kind == "fragments"
        assert view.staleness(engine.catalog.clock.now()) > 50.0

    def test_view_staleness_reported(self):
        engine = make_engine()
        engine.create_materialized_view("parts_mv", "parts", "s0")
        engine.catalog.clock.advance(30.0)
        result = engine.query("select count(*) as n from parts", max_staleness=60.0)
        assert result.report.staleness_seconds == pytest.approx(30.0, abs=1.0)

    def test_query_view_by_name(self):
        engine = make_engine()
        engine.create_materialized_view("parts_mv", "parts", "s0")
        result = engine.query("select count(*) as n from parts_mv")
        assert result.table.to_dicts() == [{"n": 6}]

    def test_scheduled_refresh_keeps_view_current(self):
        engine = make_engine()
        loop = EventLoop(engine.catalog.clock)
        view = engine.create_materialized_view(
            "parts_mv", "parts", "s0", refresh_interval=10.0
        )
        engine.schedule_view_refresh(view, loop)
        loop.run_until(35.0)
        assert view.refresh_count == 1 + 3  # initial fill + three scheduled

    def test_view_sees_updates_only_after_refresh(self):
        engine = make_engine()
        view = engine.create_materialized_view("parts_mv", "parts", "s0")
        # Mutate the base: replace fragment 0's replica data everywhere.
        entry = engine.catalog.entry("parts")
        fragment = entry.fragments[0]
        new_rows = Table(parts_schema(), [("Z-9", "new thing", 1.0, "sup9")])
        for site_name in fragment.replica_sites():
            site = engine.catalog.site(site_name)
            site.host(StaticSource("x", new_rows), fragment.replicas[site_name])
        stale = engine.query("select * from parts", max_staleness=None)
        live = engine.query("select * from parts", max_staleness=LIVE_ONLY)
        assert "Z-9" not in stale.table.column("sku")
        assert "Z-9" in live.table.column("sku")
        engine.refresh_view(view)
        refreshed = engine.query("select * from parts", max_staleness=None)
        assert "Z-9" in refreshed.table.column("sku")


class TestXmlSurface:
    def test_xml_view_structure(self):
        engine = make_engine()
        document = engine.xml_view("suppliers")
        assert document.tag == "suppliers"
        assert len(document.child_elements("row")) == 3

    def test_xpath_query(self):
        engine = make_engine()
        skus = engine.xpath_query("parts", "//row[supplier_id='sup1']/sku/text()")
        assert sorted(skus) == ["A-3", "A-4"]

    def test_xpath_equivalent_to_sql(self):
        engine = make_engine()
        sql_result = engine.query(
            "select sku from parts where supplier_id = 'sup2'"
        ).table.column("sku")
        xpath_result = engine.xpath_query("parts", "//row[supplier_id='sup2']/sku/text()")
        assert sorted(sql_result) == sorted(xpath_result)


class TestSearchSurface:
    def test_search_over_text_index(self):
        engine = make_engine()
        hits = engine.search("parts", "drill", mode=SearchMode.EXACT)
        assert {h.doc_id for h in hits} == {"A-3", "A-4"}

    def test_fuzzy_search_paper_example(self):
        engine = make_engine()
        hits = engine.search("parts", "drlls: crdlss", mode=SearchMode.FUZZY)
        assert "A-3" in {h.doc_id for h in hits}

    def test_synonym_search_with_vocabulary(self):
        from repro.workbench import SynonymTable

        engine = make_engine()
        synonyms = SynonymTable()
        synonyms.add_group(["india ink", "black ink"])
        engine.set_vocabulary(synonyms=synonyms)
        india = {h.doc_id for h in engine.search("parts", "india ink", mode=SearchMode.SYNONYM)}
        black = {h.doc_id for h in engine.search("parts", "black ink", mode=SearchMode.SYNONYM)}
        assert india == black
        assert "A-1" in india

    def test_search_unindexed_table_rejected(self):
        engine = make_engine()
        with pytest.raises(QueryError):
            engine.search("suppliers", "france")


class TestSemanticCache:
    def make_cache(self):
        clock = SimClock()
        return clock, SemanticCache(clock, max_rows=100)

    def table(self, n=10):
        schema = Schema("t", (Field("a", DataType.INTEGER),))
        return Table(schema, [(i,) for i in range(n)])

    def test_exact_region_hit(self):
        _, cache = self.make_cache()
        cache.store("t", [Predicate("a", ">", 5)], self.table(4))
        assert cache.lookup("t", [Predicate("a", ">", 5)]) is not None
        assert cache.hits == 1

    def test_weaker_region_covers_stronger_request(self):
        _, cache = self.make_cache()
        cache.store("t", [], self.table(10))  # whole table cached
        result = cache.lookup("t", [Predicate("a", ">=", 8)])
        assert result is not None
        assert len(result) == 2  # residual predicate applied locally

    def test_stronger_region_does_not_cover(self):
        _, cache = self.make_cache()
        cache.store("t", [Predicate("a", ">", 5)], self.table(4))
        assert cache.lookup("t", []) is None

    def test_per_request_staleness_does_not_evict(self):
        clock, cache = self.make_cache()
        cache.store("t", [], self.table())
        clock.advance(100.0)
        assert cache.lookup("t", [], max_staleness=50.0) is None  # too stale here
        assert cache.lookup("t", [], max_staleness=500.0) is not None  # still cached

    def test_cache_own_ttl_evicts(self):
        clock = SimClock()
        cache = SemanticCache(clock, max_rows=100, max_staleness=60.0)
        cache.store("t", [], self.table())
        clock.advance(100.0)
        assert cache.lookup("t", []) is None
        assert len(cache) == 0

    def test_lru_eviction_by_rows(self):
        _, cache = self.make_cache()
        cache.store("t", [Predicate("a", "=", 1)], self.table(60))
        cache.store("t", [Predicate("a", "=", 2)], self.table(60))
        assert len(cache) == 1  # first entry evicted to fit 100-row budget

    def test_invalidate_table(self):
        _, cache = self.make_cache()
        cache.store("t", [], self.table())
        cache.store("u", [], self.table())
        assert cache.invalidate_table("t") == 1
        assert cache.lookup("t", []) is None
        assert cache.lookup("u", []) is not None

    def test_hit_rate(self):
        _, cache = self.make_cache()
        cache.store("t", [], self.table())
        cache.lookup("t", [])
        cache.lookup("ghost", [])
        assert cache.hit_rate == 0.5


class TestExecutionFailover:
    def test_scan_reroutes_when_site_dies_after_optimization(self):
        engine = make_engine()
        from repro.sql import build_plan, parse_sql, resolve

        statement = parse_sql("select sku from parts")
        plan = engine.optimizer.optimize(
            build_plan(resolve(statement, engine.catalog.binding_fields))
        )
        # Kill whichever sites the optimizer chose, *after* planning.
        for assignment in plan.assignments.values():
            for choice in assignment.choices:
                engine.catalog.site(choice.site_name).up = False
        table, report = engine.executor.execute(plan)
        assert len(table) == 6
        assert report.failovers >= 1

    def test_all_replicas_dead_still_fails(self):
        engine = make_engine()
        from repro.sql import build_plan, parse_sql, resolve

        statement = parse_sql("select sku from parts")
        plan = engine.optimizer.optimize(
            build_plan(resolve(statement, engine.catalog.binding_fields))
        )
        for name in ("s0", "s1", "s2", "s3"):
            engine.catalog.site(name).up = False
        with pytest.raises(QueryError):
            engine.executor.execute(plan)


class TestExplain:
    def test_explain_shows_scan_placement_and_pushdown(self):
        engine = make_engine()
        text = engine.explain("select sku from parts where price > 50")
        assert "optimizer: agoric" in text
        assert "scan parts" in text
        assert "pushdown(price > 50" in text
        assert "fragments [" in text

    def test_explain_shows_view_access_path(self):
        engine = make_engine()
        engine.create_materialized_view("parts_mv", "parts", "s0")
        text = engine.explain("select sku from parts", max_staleness=60.0)
        assert "view parts_mv @ s0" in text

    def test_explain_shows_text_index(self):
        engine = make_engine()
        text = engine.explain("select sku from parts where match(name, 'drill')")
        assert "text-index('name', 'drill')" in text

    def test_explain_join_tree(self):
        engine = make_engine()
        text = engine.explain(
            "select p.sku from parts p left join suppliers s "
            "on p.supplier_id = s.supplier_id order by p.sku limit 3"
        )
        assert "limit" in text
        assert "sort" in text
        assert "left join" in text
        assert text.count("scan") == 2

    def test_explain_does_not_execute(self):
        engine = make_engine()
        before = engine.metrics.counter("queries").value
        engine.explain("select * from parts")
        assert engine.metrics.counter("queries").value == before
