"""A larger end-to-end run: 30 suppliers, full stack, deterministic.

This is the closest thing to a deployment smoke test: scrape thirty
heterogeneous sites, normalize, publish across eight machines with
replication, then serve a mixed workload (SQL, search, XPath, XQuery,
syndication, EXPLAIN, DB-API) with one machine failing mid-run.  It keeps
to a few seconds of wall clock so it stays in the default suite.
"""

import random

from repro.connect.sitegen import build_supplier_site
from repro.core.system import ContentIntegrationSystem
from repro.federation import Gateway, WorkloadManager
from repro.federation.dbapi import connect
from repro.ir.search import SearchMode
from repro.workbench.syndication import PricingRule, Recipient
from repro.workloads import QueryMix, generate_mro

SUPPLIERS = 30
PRODUCTS = 12


def build_world():
    system = ContentIntegrationSystem(seed=404)
    workload = generate_mro(
        seed=404, supplier_count=SUPPLIERS, products_per_supplier=PRODUCTS,
        with_taxonomies=False,
    )
    sites = system.add_compute_sites(8)
    unified = None
    for spec in workload.suppliers:
        system.register_supplier(
            build_supplier_site(
                f"{spec.name}.example", spec.products,
                layout=spec.layout, price_style=spec.price_style,
            )
        )
        raw = system.scrape_supplier(f"{spec.name}.example", spec.name)
        normalized = system.normalize(raw, spec.name, spec.currency)
        unified = normalized if unified is None else unified.union_all(normalized)
    placement = [[sites[i], sites[(i + 1) % 8]] for i in range(4)]
    system.publish_catalog(unified, 4, placement)
    system.set_vocabulary(workload.synonyms, workload.master_taxonomy)
    return system, workload


class TestScale:
    def test_full_stack_under_mixed_workload(self):
        system, workload = build_world()
        total = SUPPLIERS * PRODUCTS

        # SQL correctness at scale.
        count = system.query("select count(*) as n from catalog").table
        assert count.to_dicts() == [{"n": total}]

        per_supplier = system.query(
            "select supplier, count(*) as n from catalog group by supplier"
        ).table
        assert len(per_supplier) == SUPPLIERS
        assert all(n == PRODUCTS for n in per_supplier.column("n"))

        # A machine dies; everything keeps answering.
        system.catalog.site("site-003").up = False
        mix = QueryMix(table="catalog", sku_prefix="SUPPLIER-000-", sku_count=PRODUCTS)
        rng = random.Random(1)
        for sql in mix.batch(rng, 25):
            system.query(sql)  # must not raise

        # IR search still serves with the site down.
        hits = system.search("blck nk", mode=SearchMode.FUZZY, limit=10)
        assert hits

        # XML surfaces agree with SQL.
        sql_skus = sorted(
            system.query(
                "select sku from catalog where supplier = 'supplier-007'"
            ).table.column("sku")
        )
        xpath_skus = sorted(
            system.xpath_query("catalog", "//row[supplier='supplier-007']/sku/text()")
        )
        assert sql_skus == xpath_skus
        xquery_skus = sorted(
            e.text
            for e in system.engine.xquery(
                "catalog",
                "for $p in //row where $p/supplier = 'supplier-007' "
                "return <s>{$p/sku/text()}</s>",
            )
        )
        assert sql_skus == xquery_skus

        # Syndication to a tiered buyer.
        system.syndicator.pricing_rules.append(
            PricingRule.tier_discount("preferred", 15.0)
        )
        result = system.syndicate(Recipient("big", tier="preferred"))
        assert len(result.table) == total

        # EXPLAIN and DB-API round out the surfaces.
        assert "scan catalog" in system.engine.explain(
            "select sku from catalog where price > 100"
        )
        gateway = Gateway(WorkloadManager(system.engine, system.loop))
        cursor = connect(gateway).cursor()
        cursor.execute("select count(*) from catalog where price > ?", (100,))
        assert cursor.fetchone()[0] > 0

    def test_deterministic_across_builds(self):
        first, _ = build_world()
        second, _ = build_world()
        a = first.query("select supplier, sum(price) as s from catalog "
                        "group by supplier order by supplier").table.rows
        b = second.query("select supplier, sum(price) as s from catalog "
                         "group by supplier order by supplier").table.rows
        assert a == b
