"""Integration tests: the full scrape -> normalize -> publish -> serve loop."""

import pytest

from repro.connect.sitegen import build_supplier_site
from repro.core.system import ContentIntegrationSystem, default_wrapper
from repro.core.errors import QueryError, WrapperError
from repro.ir.search import SearchMode
from repro.workbench.syndication import PricingRule, Recipient
from repro.workloads import generate_mro


def build_system(supplier_count=3, products_per_supplier=15, seed=11):
    system = ContentIntegrationSystem(seed=seed)
    workload = generate_mro(
        seed=seed,
        supplier_count=supplier_count,
        products_per_supplier=products_per_supplier,
        with_taxonomies=False,
    )
    for spec in workload.suppliers:
        site = build_supplier_site(
            f"{spec.name}.example",
            spec.products,
            layout=spec.layout,
            price_style=spec.price_style,
        )
        system.register_supplier(site)
    return system, workload


class TestScrapeNormalizePublish:
    def test_full_loop(self):
        system, workload = build_system()
        sites = system.add_compute_sites(4)
        tables = []
        for spec in workload.suppliers:
            raw = system.scrape_supplier(f"{spec.name}.example", spec.name)
            assert len(raw) == 15
            tables.append(system.normalize(raw, spec.name, spec.currency))
        unified = tables[0]
        for table in tables[1:]:
            unified = unified.union_all(table)
        assert len(unified) == 45

        placement = [[sites[0], sites[1]], [sites[2], sites[3]]]
        system.publish_catalog(unified, 2, placement)

        count = system.query("select count(*) as n from catalog").table.to_dicts()
        assert count == [{"n": 45}]

    def test_prices_normalized_to_usd(self):
        system, workload = build_system()
        sites = system.add_compute_sites(2)
        spec = next(s for s in workload.suppliers if s.currency != "USD")
        raw = system.scrape_supplier(f"{spec.name}.example", spec.name)
        normalized = system.normalize(raw, spec.name, spec.currency)
        rate = workload.exchange_rates[spec.currency]
        original = {p["sku"]: p["price"] for p in spec.products}
        for row in normalized.to_dicts():
            assert row["currency"] == "USD"
            assert row["price"] == pytest.approx(original[row["sku"]] * rate, rel=0.01)

    def test_unregistered_supplier_rejected(self):
        system, _ = build_system()
        with pytest.raises(QueryError):
            system.scrape_supplier("ghost.example")

    def test_unknown_layout_wrapper_rejected(self):
        with pytest.raises(WrapperError):
            default_wrapper("spiral")


class TestServingSurfaces:
    def make_published(self):
        system, workload = build_system(supplier_count=4, products_per_supplier=25)
        sites = system.add_compute_sites(4)
        unified = None
        for spec in workload.suppliers:
            raw = system.scrape_supplier(f"{spec.name}.example", spec.name)
            table = system.normalize(raw, spec.name, spec.currency)
            unified = table if unified is None else unified.union_all(table)
        system.publish_catalog(
            unified, 2, [[sites[0], sites[1]], [sites[2], sites[3]]]
        )
        system.set_vocabulary(workload.synonyms, workload.master_taxonomy)
        return system, workload

    def test_sql_join_style_query(self):
        system, _ = self.make_published()
        result = system.query(
            "select supplier, count(*) as n from catalog group by supplier"
        )
        assert len(result.table) == 4
        assert sum(result.table.column("n")) == 100

    def test_search_with_synonyms(self):
        system, _ = self.make_published()
        india = {h.doc_id for h in system.search("india ink", mode=SearchMode.SYNONYM)}
        black = {h.doc_id for h in system.search("black ink", mode=SearchMode.SYNONYM)}
        assert india == black

    def test_fuzzy_search_finds_corrupted_names(self):
        system, _ = self.make_published()
        hits = system.search("drlls: crdlss", mode=SearchMode.FUZZY, limit=20)
        assert hits  # vowel-dropped query still finds drill products

    def test_xpath_surface(self):
        system, _ = self.make_published()
        skus = system.xpath_query("catalog", "//row[supplier='supplier-000']/sku/text()")
        assert len(skus) == 25

    def test_syndication_applies_rules(self):
        system, _ = self.make_published()
        system.syndicator.pricing_rules.append(
            PricingRule.tier_discount("preferred", 20.0)
        )
        plain = system.syndicate(Recipient("walk-in", tier="standard"))
        preferred = system.syndicate(Recipient("big-co", tier="preferred"))
        assert preferred.table.column("price")[0] == pytest.approx(
            plain.table.column("price")[0] * 0.8, rel=1e-4
        )

    def test_failover_in_integrated_system(self):
        system, _ = self.make_published()
        system.catalog.site("site-000").up = False
        result = system.query("select count(*) as n from catalog")
        assert result.table.to_dicts() == [{"n": 100}]


class TestPaperExamples:
    def test_refills_query_reaches_ink_and_lead(self):
        """§3.1 C3: 'a user who requests information about refills can be
        given product entries for both ink and lead.'"""
        system, workload = build_system(supplier_count=6, products_per_supplier=40)
        sites = system.add_compute_sites(2)
        unified = None
        for spec in workload.suppliers:
            raw = system.scrape_supplier(f"{spec.name}.example", spec.name)
            table = system.normalize(raw, spec.name, spec.currency)
            unified = table if unified is None else unified.union_all(table)
        system.publish_catalog(unified, 1, [[sites[0], sites[1]]])
        system.set_vocabulary(workload.synonyms, workload.master_taxonomy)

        hits = {h.doc_id for h in system.search("refills", limit=40)}
        canonical_by_sku = {
            p["sku"]: p["canonical_name"] for p in workload.all_products()
        }
        found = {canonical_by_sku[sku] for sku in hits if sku in canonical_by_sku}
        # Both children of "Ink and lead refills" surface.
        assert any("ink" in name for name in found)
        assert "pencil lead refills" in found
