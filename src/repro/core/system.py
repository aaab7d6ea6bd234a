"""The Cohera analog: one object wiring Connect + Workbench + Integrate.

:class:`ContentIntegrationSystem` is the highest-level API of the
reproduction and the entry point the examples use.  A typical integrator
session:

1. :meth:`add_compute_sites` -- stand up the federation's machines.
2. :meth:`register_supplier` / :meth:`scrape_supplier` -- wrap each
   supplier's (simulated) web site and pull their raw catalog.
3. :meth:`normalize` -- run the raw rows through a workbench pipeline
   (currency to USD, canonical columns) with lineage.
4. :meth:`publish_catalog` -- fragment/replicate the integrated catalog
   across sites and build its text index.
5. :meth:`query` / :meth:`search` / :meth:`xpath_query` /
   :meth:`syndicate` -- serve buyers.
"""

from __future__ import annotations

from typing import Sequence

from repro.connect.simweb import SimulatedWeb, WebClient
from repro.connect.sitegen import SupplierSite
from repro.connect.wrapper import (
    DomWrapper,
    PageWrapper,
    RegexWrapper,
    WebSourceWrapper,
    int_coercer,
)
from repro.core.errors import QueryError, WrapperError
from repro.core.records import Table
from repro.core.schema import DataType, Field, Schema
from repro.federation.catalog import FederationCatalog
from repro.federation.engine import FederatedEngine
from repro.ir.search import SearchMode
from repro.sim.clock import SimClock
from repro.sim.events import EventLoop
from repro.sim.rng import RngRegistry
from repro.workbench.normalize import CurrencyNormalizer, parse_price
from repro.workbench.syndication import Recipient, Syndicator
from repro.workbench.synonyms import SynonymTable
from repro.workbench.taxonomy import Taxonomy
from repro.workbench.transforms import (
    AddColumn,
    CastColumn,
    FilterRows,
    MapColumn,
    Pipeline,
)

CATALOG_SCHEMA = Schema(
    "catalog",
    (
        Field("sku", DataType.STRING, nullable=False),
        Field("name", DataType.STRING),
        Field("price", DataType.FLOAT),
        Field("currency", DataType.STRING),
        Field("qty", DataType.INTEGER),
        Field("supplier", DataType.STRING),
    ),
)


def default_wrapper(layout: str) -> PageWrapper:
    """The trained wrapper for each generated supplier-site layout."""
    if layout == "table":
        return DomWrapper(
            "tr.item",
            {"sku": "td.sku", "name": "td.name", "price": "td.price", "qty": "td.qty"},
        )
    if layout == "divs":
        return DomWrapper(
            "div.product",
            {"sku": "b.sku", "name": "div.title", "price": "div.cost", "qty": "i.qty"},
        )
    if layout == "dl":
        return RegexWrapper(
            r"<dt class='sku'>(?P<sku>[^<]+)</dt>"
            r"<dd><span class='name'>(?P<name>[^<]+)</span>[^<]*"
            r"<span class='price'>(?P<price>[^<]+)</span>[^<]*"
            r"<span class='qty'>(?P<qty>[^<]+)</span>"
        )
    raise WrapperError(f"no trained wrapper for layout {layout!r}")


class ContentIntegrationSystem:
    """The full content integration stack behind one facade."""

    def __init__(self, seed: int = 0) -> None:
        self.clock = SimClock()
        self.rng = RngRegistry(seed)
        self.loop = EventLoop(self.clock)
        self.web = SimulatedWeb(self.clock)
        self.catalog = FederationCatalog(self.clock)
        self.engine = FederatedEngine(self.catalog)
        self.suppliers: dict[str, SupplierSite] = {}
        self.synonyms: SynonymTable | None = None
        self.taxonomy: Taxonomy | None = None
        self.currency = CurrencyNormalizer(
            "USD", {"FRF": 0.14, "EUR": 1.1, "GBP": 1.5}
        )
        self.syndicator = Syndicator()

    # -- machines ------------------------------------------------------------

    def add_compute_sites(self, count: int, prefix: str = "site", **site_kwargs) -> list[str]:
        names = [f"{prefix}-{i:03d}" for i in range(count)]
        for name in names:
            self.catalog.make_site(name, **site_kwargs)
        return names

    # -- Connect ---------------------------------------------------------------

    def register_supplier(self, supplier: SupplierSite) -> None:
        self.web.register(supplier.site)
        self.suppliers[supplier.host] = supplier

    def scrape_supplier(self, host: str, supplier_name: str | None = None) -> Table:
        """Scrape one registered supplier into raw rows (strings + ints)."""
        supplier = self.suppliers.get(host)
        if supplier is None:
            raise QueryError(f"supplier {host!r} is not registered")
        wrapper = WebSourceWrapper(
            supplier_name or host,
            WebClient(self.web),
            supplier.catalog_url(),
            default_wrapper(supplier.layout),
            coercers={"qty": int_coercer},
            login=(
                (supplier.login_url(), {"user": supplier.username,
                                        "password": supplier.password})
                if supplier.requires_login
                else None
            ),
        )
        return wrapper.fetch().table

    # -- Workbench ---------------------------------------------------------------

    def normalization_pipeline(self, supplier_name: str, default_currency: str) -> Pipeline:
        """The standard raw-scrape -> canonical-catalog pipeline."""
        currency = self.currency

        return Pipeline(
            f"normalize-{supplier_name}",
            [
                CastColumn(
                    "price",
                    DataType.FLOAT,
                    converter=lambda text: currency.normalize(
                        parse_price(str(text), default_currency)
                    ).amount,
                ),
                MapColumn("name", lambda n: " ".join(str(n).lower().split()),
                          description="lowercase+squeeze(name)"),
                AddColumn("currency", DataType.STRING, lambda row: "USD",
                          description="constant currency=USD"),
                AddColumn("supplier", DataType.STRING,
                          lambda row, name=supplier_name: name,
                          description=f"constant supplier={supplier_name}"),
                FilterRows(lambda row: row["sku"] is not None and row["sku"] != "",
                           "require sku"),
            ],
        )

    def normalize(self, raw: Table, supplier_name: str, default_currency: str = "USD") -> Table:
        result = self.normalization_pipeline(supplier_name, default_currency).run(
            raw, source_name=supplier_name
        )
        ordered = result.table.project(
            ["sku", "name", "price", "currency", "qty", "supplier"]
        )
        return ordered.extended("catalog")

    # -- Integrate -----------------------------------------------------------------

    def publish_catalog(
        self,
        table: Table,
        fragment_count: int,
        placement: Sequence[Sequence[str]],
        table_name: str = "catalog",
    ) -> None:
        """Fragment/replicate the integrated catalog and index its text."""
        named = table.extended(table_name)
        self.catalog.load_fragmented(named, fragment_count, placement)
        self.catalog.build_text_index(table_name, "name", named, "sku")
        if self.synonyms is not None or self.taxonomy is not None:
            self.engine.set_vocabulary(
                synonyms=self.synonyms,
                taxonomy_expander=(
                    self.taxonomy.expand_query if self.taxonomy is not None else None
                ),
            )

    def set_vocabulary(self, synonyms: SynonymTable | None, taxonomy: Taxonomy | None) -> None:
        self.synonyms = synonyms
        self.taxonomy = taxonomy
        self.engine.set_vocabulary(
            synonyms=synonyms,
            taxonomy_expander=taxonomy.expand_query if taxonomy is not None else None,
        )

    def query(self, sql: str, **kwargs):
        return self.engine.query(sql, **kwargs)

    def search(self, query_text: str, mode: SearchMode = SearchMode.FULL,
               table_name: str = "catalog", limit: int = 10):
        return self.engine.search(table_name, query_text, mode=mode, limit=limit)

    def xpath_query(self, table_name: str, path: str):
        return self.engine.xpath_query(table_name, path)

    # -- Syndication --------------------------------------------------------------------

    def syndicate(self, recipient: Recipient, table_name: str = "catalog"):
        """Publish the integrated catalog to one buyer under the rules."""
        result = self.engine.query(f"select * from {table_name}")
        return self.syndicator.syndicate(result.table, recipient)
