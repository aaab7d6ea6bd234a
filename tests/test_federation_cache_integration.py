"""Tests for the semantic cache wired into the federated engine."""

import random

import pytest

from repro.connect.source import LiveSource, Predicate
from repro.core import DataType, Field, Schema, Table
from repro.core.errors import PartialFailureError
from repro.federation import (
    ArtifactStore,
    CentralizedOptimizer,
    FederatedEngine,
    FederationCatalog,
    PolicyOptimizer,
    RoundRobinPolicy,
    SemanticCache,
)
from repro.federation.engine import LIVE_ONLY
from repro.sim import SimClock
from repro.workloads.hotels import generate_hotels
from tests.test_gateway import write_row


def make_engine(optimizer=None):
    clock = SimClock()
    catalog = FederationCatalog(clock)
    names = [catalog.make_site(f"s{i}").name for i in range(2)]
    schema = Schema(
        "parts",
        (Field("sku", DataType.STRING), Field("price", DataType.FLOAT)),
    )
    table = Table(schema, [(f"A-{i}", float(i)) for i in range(100)])
    catalog.load_fragmented(table, 1, [names], scan_cost_seconds=1.0)
    cache = SemanticCache(clock, max_rows=10_000)
    engine = FederatedEngine(
        catalog, optimizer=optimizer and optimizer(catalog), cache=cache
    )
    return engine, cache


class TestEngineCache:
    def test_second_identical_query_hits_cache(self):
        engine, cache = make_engine()
        first = engine.query("select sku from parts where price > 90")
        second = engine.query("select sku from parts where price > 90")
        assert first.table == second.table
        assert second.plan.assignments["parts"].kind == "cache"
        assert cache.hits >= 1

    def test_cache_hit_is_much_cheaper(self):
        engine, _ = make_engine()
        first = engine.query("select sku from parts where price > 90")
        second = engine.query("select sku from parts where price > 90")
        assert second.report.response_seconds < first.report.response_seconds / 5

    def test_narrower_query_served_from_wider_region(self):
        engine, cache = make_engine()
        engine.query("select sku from parts")  # caches the whole table
        narrow = engine.query("select sku from parts where price > 95")
        assert narrow.plan.assignments["parts"].kind == "cache"
        assert len(narrow.table) == 4

    def test_wider_query_misses_narrow_region(self):
        engine, _ = make_engine()
        engine.query("select sku from parts where price > 95")
        wide = engine.query("select sku from parts")
        assert wide.plan.assignments["parts"].kind == "fragments"
        assert len(wide.table) == 100

    def test_live_only_bypasses_cache(self):
        engine, _ = make_engine()
        engine.query("select sku from parts")
        live = engine.query("select sku from parts", max_staleness=LIVE_ONLY)
        assert live.plan.assignments["parts"].kind == "fragments"

    def test_staleness_bound_respected(self):
        engine, _ = make_engine()
        engine.query("select sku from parts")
        engine.catalog.clock.advance(100.0)
        stale_ok = engine.query("select sku from parts", max_staleness=200.0)
        assert stale_ok.plan.assignments["parts"].kind == "cache"
        assert stale_ok.report.staleness_seconds == pytest.approx(100.0, abs=3.0)
        too_stale = engine.query("select sku from parts", max_staleness=50.0)
        assert too_stale.plan.assignments["parts"].kind == "fragments"

    def test_cached_answer_reports_age(self):
        engine, _ = make_engine()
        engine.query("select sku from parts")
        engine.catalog.clock.advance(30.0)
        result = engine.query("select sku from parts")
        assert result.report.staleness_seconds == pytest.approx(30.0, abs=3.0)

    def test_no_cache_configured_is_fine(self):
        clock = SimClock()
        catalog = FederationCatalog(clock)
        catalog.make_site("s0")
        schema = Schema("t", (Field("a", DataType.INTEGER),))
        catalog.load_fragmented(Table(schema, [(1,)]), 1, [["s0"]])
        engine = FederatedEngine(catalog)  # cache=None
        assert len(engine.query("select a from t").table) == 1

    def test_invalidation_forces_refetch(self):
        engine, cache = make_engine()
        engine.query("select sku from parts")
        engine.catalog.notify_table_updated("parts")  # every fragment written
        assert len(cache) == 0
        result = engine.query("select sku from parts")
        assert result.plan.assignments["parts"].kind == "fragments"

    def test_a_fragment_write_refetches_that_fragment_alone(self):
        """With an artifact store to narrow the stage, a one-fragment write
        re-reads that fragment; the region keeps the other parts and is
        refilled, so the next plan serves it again."""
        clock = SimClock()
        catalog = FederationCatalog(clock)
        names = [catalog.make_site(f"s{i}").name for i in range(2)]
        schema = Schema(
            "parts", (Field("sku", DataType.STRING), Field("price", DataType.FLOAT))
        )
        table = Table(schema, [(f"A-{i}", float(i)) for i in range(100)])
        catalog.load_fragmented(table, 4, [[names[i % 2]] for i in range(4)])
        cache = SemanticCache(clock)
        engine = FederatedEngine(catalog, cache=cache, artifacts=ArtifactStore(clock))
        sql = "select sku from parts where price >= 10"
        first = engine.query(sql)
        catalog.notify_table_updated("parts", "f1")
        (entry,) = cache._entries.values()
        assert [part.current for part in entry.parts] == [True, False, True, True]
        refreshed = engine.query(sql)
        assert refreshed.plan.assignments["parts"].kind == "fragments"
        assert refreshed.report.rows_fetched == 22  # f1's rows with price >= 10
        assert sorted(refreshed.table.rows) == sorted(first.table.rows)
        (entry,) = cache._entries.values()
        assert entry.current
        # Another stage over the same region: no artifact, the region serves.
        other = engine.query("select price from parts where price >= 10")
        assert other.plan.assignments["parts"].kind == "cache"

    def test_implication_hit_applies_residual(self):
        engine, cache = make_engine()
        engine.query("select sku from parts where price < 50")
        narrow = engine.query("select sku from parts where price < 30")
        assert narrow.plan.assignments["parts"].kind == "cache"
        assert len(narrow.table) == 30
        assert cache.implication_hits == 1 and cache.verbatim_hits == 0

    def test_explain_renders_cache_access_path(self):
        engine, _ = make_engine()
        engine.query("select sku from parts where price < 50")
        text = engine.explain("select sku from parts where price < 20")
        # The plan names the region and the placement it falls back to.
        assert "cache(region price < 50) else fragments [f0@s0]" in text
        analyzed = engine.explain(
            "select sku from parts where price < 20", analyze=True
        )
        assert "cache(region" in analyzed
        assert "rows_out=20" in analyzed

    def test_entry_age_measured_from_fetch_not_store(self):
        # Regression: stamping as_of at store time (after the modeled query
        # latency has elapsed) made every entry look newborn, understating
        # staleness by the fetch cost.
        engine, cache = make_engine()
        result = engine.query("select sku from parts")
        assert result.report.response_seconds >= 1.0  # scan cost is 1s
        ages = [cache.clock.now() - e.as_of for e in cache._entries.values()]
        assert len(ages) == 1
        assert ages[0] == pytest.approx(result.report.response_seconds, abs=0.5)
        assert ages[0] > 0.9

    def test_base_update_invalidates_through_catalog(self):
        clock = SimClock()
        catalog = FederationCatalog(clock)
        catalog.make_site("s0")
        schema = Schema("inv", (Field("qty", DataType.INTEGER),))
        rows = [{"qty": 1}, {"qty": 2}]
        source = LiveSource("inv@s0", schema, lambda: list(rows), cost_seconds=0.5)
        catalog.create_table("inv", schema)
        catalog.place_replica(catalog.add_fragment("inv", "f0", 2), "s0", source)
        cache = SemanticCache(clock)
        engine = FederatedEngine(catalog, cache=cache)

        first = engine.query("select qty from inv")
        assert len(first.table) == 2
        rows.append({"qty": 3})
        catalog.notify_table_updated("inv")
        second = engine.query("select qty from inv")
        assert second.plan.assignments["inv"].kind == "fragments"
        assert len(second.table) == 3
        assert cache.invalidations == 1

    def test_a_fragment_update_keeps_the_region_but_stops_serving_it(self):
        """A one-fragment write drops nothing: the region keeps its other
        parts, serves no answer while one is stale, and a full re-read
        (no artifact store narrows it) replaces it."""
        clock = SimClock()
        catalog = FederationCatalog(clock)
        catalog.make_site("s0")
        schema = Schema("inv", (Field("qty", DataType.INTEGER),))
        catalog.create_table("inv", schema)
        shelves = {"a": [{"qty": 1}], "b": [{"qty": 2}]}
        for name, rows in shelves.items():
            fragment = catalog.add_fragment("inv", name, 1)
            source = LiveSource(
                f"inv-{name}@s0", schema, lambda rows=rows: list(rows), cost_seconds=0.5
            )
            catalog.place_replica(fragment, "s0", source)
        cache = SemanticCache(clock)
        engine = FederatedEngine(catalog, cache=cache)
        engine.query("select qty from inv")
        shelves["b"].append({"qty": 3})
        catalog.notify_table_updated("inv", "b")
        assert cache.invalidations == 0 and len(cache) == 1
        second = engine.query("select qty from inv")
        assert second.plan.assignments["inv"].kind == "fragments"
        assert sorted(second.table.rows) == [(1,), (2,), (3,)]
        assert engine.query("select qty from inv").plan.assignments["inv"].kind == "cache"

    def test_hotel_write_invalidates_availability_regions(self):
        clock = SimClock()
        catalog = FederationCatalog(clock)
        market = generate_hotels(seed=3, chain_count=4, hotels_per_chain=2)
        sites = {chain: catalog.make_site(f"res-{i}").name
                 for i, chain in enumerate(market.chains)}
        market.register_sources(catalog, sites)
        cache = SemanticCache(clock)
        engine = FederatedEngine(catalog, cache=cache)

        sql = "select hotel_id from hotel_availability where rooms_available > 0"
        engine.query(sql)
        repeat = engine.query(sql)
        assert repeat.plan.assignments["hotel_availability"].kind == "cache"
        market.apply_random_update(random.Random(7))
        after_write = engine.query(sql)
        assert after_write.plan.assignments["hotel_availability"].kind == "fragments"
        assert set(after_write.table.column("hotel_id")) == {
            h["hotel_id"] for h in market.hotels if h["rooms_available"] > 0
        }

    @pytest.mark.parametrize("make_optimizer", [
        lambda catalog: CentralizedOptimizer(catalog),
        lambda catalog: PolicyOptimizer(catalog, RoundRobinPolicy()),
    ])
    def test_cache_is_an_access_path_in_every_optimizer(self, make_optimizer):
        clock = SimClock()
        catalog = FederationCatalog(clock)
        names = [catalog.make_site(f"s{i}").name for i in range(2)]
        schema = Schema(
            "parts",
            (Field("sku", DataType.STRING), Field("price", DataType.FLOAT)),
        )
        table = Table(schema, [(f"A-{i}", float(i)) for i in range(100)])
        catalog.load_fragmented(table, 1, [names], scan_cost_seconds=1.0)
        cache = SemanticCache(clock, max_rows=10_000)
        engine = FederatedEngine(
            catalog, optimizer=make_optimizer(catalog), cache=cache
        )
        engine.query("select sku from parts where price < 50")
        hit = engine.query("select sku from parts where price < 30")
        assert hit.plan.assignments["parts"].kind == "cache"
        assert len(hit.table) == 30

    def test_match_queries_not_cached(self):
        engine, cache = make_engine()
        data = Table(
            Schema("parts", engine.catalog.entry("parts").schema.fields),
            [(f"A-{i}", float(i)) for i in range(100)],
        )
        engine.catalog.build_text_index("parts", "sku", data, "sku")
        engine.query("select sku from parts where match(sku, 'A-7')")
        # ``match`` is a site filter: the region its scan stored holds the
        # scan's rows, which the bare query is answered from whole.
        follow_up = engine.query("select sku from parts")
        assert follow_up.plan.assignments["parts"].kind == "cache"
        assert len(follow_up.table) == 100


NAMED_SQL = "select sku from parts where price < 50"
OPTIMIZERS = [
    None,
    CentralizedOptimizer,
    lambda catalog: PolicyOptimizer(catalog, RoundRobinPolicy()),
]


class TestNamedRegion:
    """A template planned over a cached region names it by its key, as a
    label on the placement its optimizer priced; each execution looks the
    key up, then any covering region.  A write re-prepares nothing: a gone
    or too-stale region (one miss) runs the placement, with failover and
    the degraded-answer policy, and that run refills the region."""

    def named(self, optimizer=None, max_staleness=None):
        engine, cache = make_engine(optimizer)
        engine.query(NAMED_SQL)
        prepared = engine.prepare(NAMED_SQL, max_staleness=max_staleness)
        assignment = prepared.physical.assignments["parts"]
        assert assignment.kind == "cache"
        assert [c.fragment.fragment_id for c in assignment.choices] == ["f0"]
        return engine, cache, prepared

    @pytest.mark.parametrize("optimizer", OPTIMIZERS)
    def test_a_gone_region_runs_the_placement(self, optimizer):
        engine, cache, prepared = self.named(optimizer)
        write_row(engine.catalog, "parts", "f0", ("NEW", 1.5))
        assert len(cache) == 0  # the region's one part was written
        misses, hits = cache.misses, cache.hits
        result = engine.execute(prepared)
        assert (cache.misses, cache.hits) == (misses + 1, hits)
        assert len(result.table) == 51 and ("NEW",) in result.table.rows
        assert prepared.replans == 0
        # The placement's run refilled the region, which serves the next.
        again = engine.execute(prepared)
        assert (cache.misses, cache.hits) == (misses + 1, hits + 1)
        assert sorted(again.table.rows) == sorted(result.table.rows)

    @pytest.mark.parametrize("optimizer", OPTIMIZERS)
    def test_a_gone_implication_named_region_is_found_again(self, optimizer):
        """``price < 30`` planned over the wider ``price < 50`` region: once
        a write drops that region, the run stores ``price < 30`` under its
        own key, and the next executions find it by covering."""
        engine, cache = make_engine(optimizer)
        engine.query(NAMED_SQL)
        prepared = engine.prepare("select sku from parts where price < 30")
        assert prepared.physical.assignments["parts"].cached_region == frozenset(
            {Predicate("price", "<", 50)}
        )
        engine.catalog.notify_table_updated("parts", "f0")
        booked = []
        for _ in range(4):
            misses, hits = cache.misses, cache.hits
            result = engine.execute(prepared)
            assert len(result.table) == 30
            # A fragment read leaves a capture; a served region leaves none.
            read = sum(len(c.parts[0][2]) for c in result.report.scan_tables.values())
            booked.append((cache.misses - misses, cache.hits - hits, read))
        assert booked == [(1, 0, 30)] + [(0, 1, 0)] * 3
        assert prepared.replans == 0

    def test_explain_names_the_region_that_served(self):
        """The plan still prices ``price < 50``; EXPLAIN ANALYZE says that
        the ``price < 30`` region found by covering served the scan.  The
        named region serving itself adds no note."""
        engine, cache = make_engine()
        engine.query(NAMED_SQL)
        prepared = engine.prepare("select sku from parts where price < 30")
        named = engine.render_analyze(engine.execute(prepared))
        engine.catalog.notify_table_updated("parts", "f0")
        engine.execute(prepared)  # runs f0, stores price < 30
        served = engine.render_analyze(engine.execute(prepared))
        (line,) = [line for line in served.splitlines() if "SiteScan" in line]
        assert line.endswith(
            "parts as parts: cache(region price < 50) else fragments [f0@s0] "
            "pushdown(price < 30) [served by cache region price < 30]"
        ), line
        assert "served by" not in named

    @pytest.mark.parametrize("optimizer", OPTIMIZERS)
    def test_a_priced_copy_counts_as_no_fragment_scan(self, optimizer):
        """A copy's assignment carries its placement, but the coordinator
        and the report's pruning counts read only fragment plans."""
        clock = SimClock()
        catalog = FederationCatalog(clock)
        for name in ("s0", "s1"):
            catalog.make_site(name)
        schema = Schema(
            "parts", (Field("sku", DataType.STRING), Field("price", DataType.FLOAT))
        )
        table = Table(schema, [(f"A-{i}", float(i)) for i in range(100)])
        catalog.load_range_partitioned(table, "price", 4, [["s1"]] * 4)
        engine = FederatedEngine(
            catalog,
            optimizer=optimizer and optimizer(catalog),
            cache=SemanticCache(clock),
            artifacts=ArtifactStore(clock),
        )
        seen = []
        for sql in ("select sku from parts where price < 20",) * 2 + (
            "select price from parts where price < 20",
        ):
            result = engine.query(sql)
            report = result.report
            seen.append((
                result.plan.assignments["parts"].kind,
                report.fragments_pruned,
                report.fragments_total,
                result.plan.coordinator,
            ))
        assert seen == [
            ("fragments", 3, 4, "s1"), ("artifact", 0, 0, "s0"), ("cache", 0, 0, "s0")
        ]

    def test_a_region_past_the_bound_runs_the_placement(self):
        engine, cache, prepared = self.named(max_staleness=5.0)
        clock = engine.catalog.clock
        clock.advance_to(clock.now() + 10.0)
        misses = cache.misses
        result = engine.execute(prepared)
        assert cache.misses == misses + 1
        assert len(result.table) == 50
        assert result.report.staleness_seconds == 0.0
        assert prepared.replans == 0

    def test_a_gone_region_fails_over_off_a_dead_planned_site(self):
        engine, cache, prepared = self.named()
        engine.catalog.notify_table_updated("parts")
        placement = prepared.physical.assignments["parts"]
        engine.catalog.site(placement.choices[0].site_name).up = False
        result = engine.execute(prepared)
        assert result.report.failovers == 1 and not result.report.degraded
        assert len(result.table) == 50
        assert prepared.replans == 0

    @pytest.mark.parametrize("degraded_ok", [True, False])
    def test_a_gone_region_degrades_as_a_fragment_plan_does(self, degraded_ok):
        engine, cache, prepared = self.named()
        engine.catalog.notify_table_updated("parts")
        for name in ("s0", "s1"):
            engine.catalog.site(name).up = False
        if not degraded_ok:
            with pytest.raises(PartialFailureError) as raised:
                engine.execute(prepared)
            assert raised.value.unreachable_fragments == ["parts/f0"]
            return
        result = engine.execute(prepared, degraded_ok=True)
        assert result.report.degraded
        assert result.report.unreachable_fragments == ["parts/f0"]
        assert result.table.rows == []
