"""Quickstart: integrate two supplier catalogs and query them.

This walks the shortest path through the system described in
"Content Integration for E-Business" (SIGMOD 2001):

    wrap supplier sites -> normalize content -> publish to the federation
    -> ask SQL through the DB-API driver, and fuzzy search queries.

Run with:  python examples/quickstart.py
"""

from repro.connect.sitegen import build_supplier_site
from repro.core.system import ContentIntegrationSystem
from repro.federation import Gateway, WorkloadManager, dbapi
from repro.ir.search import SearchMode

# Two suppliers with different layouts, currencies and price formats --
# the semantic heterogeneity of the paper's Characteristic 2.
ACME_PRODUCTS = [
    {"sku": "ACME-001", "name": "black india ink", "price": 4.95, "currency": "USD", "qty": 120},
    {"sku": "ACME-002", "name": "cordless drill 18v", "price": 89.00, "currency": "USD", "qty": 8},
    {"sku": "ACME-003", "name": "hex bolt m8", "price": 0.42, "currency": "USD", "qty": 4000},
]
PARIS_PRODUCTS = [
    {"sku": "PB-10", "name": "encre noire (black ink)", "price": 30.00, "currency": "FRF", "qty": 55},
    {"sku": "PB-11", "name": "perceuse sans fil / cordless drill", "price": 610.00, "currency": "FRF", "qty": 3},
]


def main() -> None:
    system = ContentIntegrationSystem(seed=42)

    # --- Connect: register and wrap the supplier web sites -----------------
    system.register_supplier(
        build_supplier_site("acme.example", ACME_PRODUCTS,
                            layout="table", price_style="symbol")
    )
    system.register_supplier(
        build_supplier_site("paris-bureau.example", PARIS_PRODUCTS,
                            layout="divs", price_style="code-suffix")
    )

    sites = system.add_compute_sites(2)
    print(f"federation sites: {sites}")

    # --- Workbench: scrape + normalize each catalog ------------------------
    acme_raw = system.scrape_supplier("acme.example", "acme")
    paris_raw = system.scrape_supplier("paris-bureau.example", "paris-bureau")
    print(f"scraped {len(acme_raw)} rows from acme, {len(paris_raw)} from paris-bureau")
    print(f"raw paris price string: {paris_raw.to_dicts()[0]['price']!r}")

    unified = system.normalize(acme_raw, "acme", "USD").union_all(
        system.normalize(paris_raw, "paris-bureau", "FRF")
    )
    print(f"unified catalog: {len(unified)} rows, all prices in USD")

    # --- Integrate: publish with replication, then query --------------------
    system.publish_catalog(unified, 1, [[sites[0], sites[1]]])

    # Query applications see a PEP 249 driver (§4's "ODBC or JDBC
    # interface"): one pooled gateway session behind the connection.
    gateway = Gateway(WorkloadManager(system.engine, system.loop))
    with dbapi.connect(gateway) as connection:
        cursor = connection.cursor()
        cursor.execute(
            "select sku, name, price from catalog where price < ? order by price",
            (10,),
        )
        print("\ncheap items (SQL):")
        for sku, name, price in cursor.fetchall():
            print(f"  {sku:<10} {name:<35} ${price:.2f}")
        seconds = cursor.last_report.response_seconds
        print(f"  (answered in {seconds:.3f} simulated seconds)")

    # Fuzzy search: the paper's "drlls: crdlss" must find cordless drills.
    hits = system.search("drlls: crdlss", mode=SearchMode.FUZZY)
    print("\nfuzzy search 'drlls: crdlss':")
    for hit in hits:
        print(f"  {hit.doc_id}  (score {hit.score:.2f})")

    # XPath over the same integrated content (Characteristic 6).
    skus = system.xpath_query("catalog", "//row[supplier='acme']/sku/text()")
    print(f"\nXPath: acme SKUs = {skus}")


if __name__ == "__main__":
    main()
