"""Tests for sites, the network model and the federation catalog."""

import pytest

from repro.connect.source import Predicate, StaticSource
from repro.core import DataType, Field, Schema, Table
from repro.core.errors import QueryError, SourceUnavailableError
from repro.federation import FederationCatalog, MaterializedView, Network, Site
from repro.sim import SimClock


def parts_schema():
    return Schema(
        "parts",
        (
            Field("sku", DataType.STRING),
            Field("name", DataType.STRING),
            Field("qty", DataType.INTEGER),
        ),
    )


def parts_table(n=10):
    return Table(parts_schema(), [(f"A-{i}", f"part {i}", i) for i in range(n)])


class TestSite:
    def make(self, clock=None):
        clock = clock or SimClock()
        site = Site("s1", clock, cpu_seconds_per_row=0.001)
        site.host(StaticSource("parts", parts_table(), cost_seconds=0.1))
        return clock, site

    def test_hosting(self):
        _, site = self.make()
        assert site.hosts("parts")
        site.unhost("parts")
        assert not site.hosts("parts")

    def test_missing_source_raises(self):
        _, site = self.make()
        with pytest.raises(SourceUnavailableError):
            site.source("ghost")

    def test_execute_scan_returns_work_and_delay(self):
        _, site = self.make()
        result, work, delay = site.execute_scan("parts")
        assert len(result.table) == 10
        assert work == pytest.approx(0.1 + 10 * 0.001)
        assert delay == 0.0

    def test_scan_with_predicates(self):
        _, site = self.make()
        result, _, _ = site.execute_scan("parts", [Predicate("qty", ">=", 8)])
        assert len(result.table) == 2

    def test_down_site_refuses(self):
        _, site = self.make()
        site.up = False
        with pytest.raises(SourceUnavailableError):
            site.execute_scan("parts")

    def test_backlog_accumulates_and_drains(self):
        clock, site = self.make()
        site.enqueue(2.0)
        assert site.backlog() == pytest.approx(2.0)
        clock.advance(0.5)
        assert site.backlog() == pytest.approx(1.5)
        clock.advance(10.0)
        assert site.backlog() == 0.0

    def test_second_enqueue_waits_behind_first(self):
        _, site = self.make()
        assert site.enqueue(1.0) == 0.0
        assert site.enqueue(1.0) == pytest.approx(1.0)

    def test_busy_seconds_is_lifetime_total(self):
        clock, site = self.make()
        site.enqueue(1.0)
        clock.advance(100)
        site.enqueue(2.0)
        assert site.busy_seconds == pytest.approx(3.0)

    def test_price_rises_with_load(self):
        _, site = self.make()
        quote = site.quote_scan("parts")
        idle_price = site.price_quote(quote)
        site.enqueue(5.0)
        busy_quote = site.quote_scan("parts")
        assert site.price_quote(busy_quote) > idle_price

    def test_quote_does_not_execute(self):
        _, site = self.make()
        site.quote_scan("parts")
        assert site.busy_seconds == 0.0


class TestNetwork:
    def test_local_transfer_free(self):
        assert Network().transfer_seconds_bytes("a", "a", 10_000) == 0.0

    def test_remote_transfer_latency_plus_bytes(self):
        network = Network(base_latency=0.1, seconds_per_byte=0.001)
        assert network.transfer_seconds_bytes("a", "b", 100) == pytest.approx(0.2)


class TestCatalog:
    def make(self):
        catalog = FederationCatalog(SimClock())
        for name in ("s0", "s1", "s2"):
            catalog.make_site(name)
        return catalog

    def test_site_registration(self):
        catalog = self.make()
        assert catalog.site("s0").name == "s0"
        with pytest.raises(QueryError):
            catalog.site("ghost")
        with pytest.raises(QueryError):
            catalog.make_site("s0")

    def test_up_sites_excludes_down(self):
        catalog = self.make()
        catalog.site("s1").up = False
        assert {s.name for s in catalog.up_sites()} == {"s0", "s2"}

    def test_load_fragmented_places_replicas(self):
        catalog = self.make()
        entry = catalog.load_fragmented(
            parts_table(10), 2, [["s0", "s1"], ["s1", "s2"]]
        )
        assert len(entry.fragments) == 2
        assert entry.fragments[0].replica_sites() == ["s0", "s1"]
        assert entry.estimated_rows() == 10
        # Round-robin dealing balances fragments.
        assert entry.fragments[0].estimated_rows == 5

    def test_fragment_data_served_from_each_replica(self):
        catalog = self.make()
        entry = catalog.load_fragmented(parts_table(10), 2, [["s0", "s1"], ["s2"]])
        fragment = entry.fragments[0]
        for site_name in fragment.replica_sites():
            result, _, _ = catalog.site(site_name).execute_scan(
                fragment.replicas[site_name]
            )
            assert len(result.table) == 5

    def test_placement_count_mismatch_rejected(self):
        catalog = self.make()
        with pytest.raises(QueryError):
            catalog.load_fragmented(parts_table(), 2, [["s0"]])

    def test_duplicate_table_rejected(self):
        catalog = self.make()
        catalog.load_fragmented(parts_table(), 1, [["s0"]])
        with pytest.raises(QueryError):
            catalog.create_table("parts", parts_schema())

    def test_drop_replica(self):
        catalog = self.make()
        entry = catalog.load_fragmented(parts_table(), 1, [["s0", "s1"]])
        fragment = entry.fragments[0]
        catalog.drop_replica(fragment, "s0")
        assert fragment.replica_sites() == ["s1"]
        assert not catalog.site("s0").hosts("parts/f0")

    def test_metadata_moves_the_version_and_a_write_moves_epochs(self):
        """Prepared plans replan on ``version``: schema, placement and view
        changes move it; a content write moves the written fragments'
        epochs instead (a plan names its stored copies, holding no rows)."""
        catalog = self.make()
        moved = []

        def change(step):
            before = catalog.version
            step()
            moved.append(catalog.version > before)

        change(lambda: catalog.create_table("bins", parts_schema()))
        change(lambda: catalog.add_fragment("bins", "f0", 0))
        (fragment,) = catalog.entry("bins").fragments
        source = StaticSource("bins-f0", Table(parts_schema(), []))
        change(lambda: catalog.place_replica(fragment, "s0", source))
        change(lambda: catalog.drop_replica(fragment, "s0"))
        view = MaterializedView("bins_v", "bins", parts_schema(), None, "s1")
        change(lambda: catalog.register_view(view))
        entry = catalog.load_fragmented(parts_table(), 2, [["s0"], ["s1"]])
        change(lambda: catalog.repartition("parts", 3, [["s0"], ["s1"], ["s2"]]))
        assert moved == [True] * 6
        version, epochs = catalog.version, [f.epoch for f in entry.fragments]
        catalog.notify_table_updated("parts", "f1")
        catalog.notify_table_updated("parts")
        assert catalog.version == version
        assert [f.epoch for f in entry.fragments] == [
            epochs[0] + 1, epochs[1] + 2, epochs[2] + 1
        ]

    def test_binding_fields(self):
        catalog = self.make()
        catalog.load_fragmented(parts_table(), 1, [["s0"]])
        fields = catalog.binding_fields({"p": "parts"})
        assert fields == {"p": {"sku", "name", "qty"}}
        with pytest.raises(QueryError):
            catalog.binding_fields({"x": "ghost"})

    def test_text_index_registration(self):
        catalog = self.make()
        data = parts_table(5)
        catalog.load_fragmented(data, 1, [["s0"]])
        index = catalog.build_text_index("parts", "name", data, "sku")
        assert len(index._doc_lengths) == 5
        assert catalog.entry("parts").text_index is index
