"""Tests for generated supplier sites and the regex/DOM wrappers over them."""

import pytest

from repro.connect import (
    DomWrapper,
    HttpResponse,
    RegexWrapper,
    SimulatedWeb,
    WebClient,
    WebSite,
    WebSourceWrapper,
)
from repro.connect.sitegen import build_supplier_site, format_price
from repro.connect.source import Predicate, StaticSource
from repro.connect.wrapper import float_coercer, int_coercer
from repro.core import Table
from repro.core.errors import WrapperError
from repro.sim import SimClock


def make_products(n=60):
    return [
        {
            "sku": f"A-{i}",
            "name": f"widget {i}",
            "price": 1.0 + i,
            "currency": "USD",
            "qty": 10 * i,
            "description": f"a fine widget number {i}",
        }
        for i in range(n)
    ]


def make_site(layout="table", **kwargs):
    web = SimulatedWeb(SimClock())
    products = make_products()
    supplier = build_supplier_site("acme.example", products, layout=layout, **kwargs)
    web.register(supplier.site)
    return web, supplier, products


class TestPriceFormatting:
    def test_symbol_style(self):
        assert format_price(5.0, "USD", "symbol") == "$5.00"
        assert format_price(5.0, "FRF", "symbol") == "F5.00"

    def test_code_prefix_style(self):
        assert format_price(5.0, "USD", "code-prefix") == "USD 5.00"

    def test_code_suffix_uses_decimal_comma(self):
        assert format_price(5.5, "FRF", "code-suffix") == "5,50 FRF"

    def test_unknown_style_rejected(self):
        with pytest.raises(ValueError):
            format_price(1.0, "USD", "nope")


class TestSiteGeneration:
    def test_unknown_layout_rejected(self):
        with pytest.raises(ValueError):
            build_supplier_site("x.example", [], layout="spiral")

    def test_pagination_math(self):
        _, supplier, _ = make_site()
        assert supplier.page_count == 3  # 60 products / 25 per page

    def test_index_links_all_pages(self):
        web, supplier, _ = make_site()
        body = WebClient(web).get("http://acme.example/").body
        assert "page=3" in body

    def test_item_detail_page(self):
        web, _, _ = make_site()
        body = WebClient(web).get("http://acme.example/item/A-7").body
        assert "widget 7" in body

    def test_unknown_item_404(self):
        web, _, _ = make_site()
        assert WebClient(web).get("http://acme.example/item/NOPE").status == 404

    def test_availability_endpoint_is_live(self):
        web, _, products = make_site()
        client = WebClient(web)
        first = client.get("http://acme.example/api/availability?sku=A-3").body
        assert 'qty="30"' in first
        products[3]["qty"] = 1  # the last rooms sell out
        second = client.get("http://acme.example/api/availability?sku=A-3").body
        assert 'qty="1"' in second


class TestDomWrapper:
    def test_scrapes_table_layout(self):
        web, supplier, _ = make_site("table")
        wrapper = WebSourceWrapper(
            "acme",
            WebClient(web),
            supplier.catalog_url(),
            DomWrapper("tr.item", {"sku": "td.sku", "name": "td.name",
                                   "price": "td.price", "qty": "td.qty"}),
            coercers={"qty": int_coercer},
        )
        result = wrapper.fetch()
        assert len(result.table) == 60
        assert result.table.to_dicts()[0]["sku"] == "A-0"
        assert result.table.to_dicts()[5]["qty"] == 50

    def test_scrapes_divs_layout(self):
        web, supplier, _ = make_site("divs")
        wrapper = WebSourceWrapper(
            "acme",
            WebClient(web),
            supplier.catalog_url(),
            DomWrapper("div.product", {"sku": "b.sku", "name": "div.title",
                                       "price": "div.cost"}),
        )
        assert len(wrapper.fetch().table) == 60

    def test_scrapes_dl_layout(self):
        web, supplier, _ = make_site("dl")
        wrapper = WebSourceWrapper(
            "acme",
            WebClient(web),
            supplier.catalog_url(),
            DomWrapper("dl.catalog dt.sku", {"sku": "."}),
        )
        assert wrapper.fetch().table.column("sku")[:2] == ["A-0", "A-1"]

    def test_missing_selector_yields_empty_string(self):
        wrapper = DomWrapper("tr.item", {"ghost": "td.ghost"})
        assert wrapper.extract("<tr class='item'><td>x</td></tr>") == [{"ghost": ""}]

    def test_empty_field_selectors_rejected(self):
        with pytest.raises(WrapperError):
            DomWrapper("tr", {})


class TestRegexWrapper:
    def test_scrapes_with_named_groups(self):
        web, supplier, _ = make_site("table")
        pattern = (
            r"<td class='sku'>(?P<sku>[^<]+)</td>"
            r"<td class='name'>(?P<name>[^<]+)</td>"
            r"<td class='price'>(?P<price>[^<]+)</td>"
        )
        wrapper = WebSourceWrapper(
            "acme", WebClient(web), supplier.catalog_url(), RegexWrapper(pattern)
        )
        table = wrapper.fetch().table
        assert len(table) == 60
        assert table.to_dicts()[0]["price"] == "$1.00"

    def test_pattern_without_groups_rejected(self):
        with pytest.raises(WrapperError):
            RegexWrapper(r"<td>[^<]+</td>")


class TestWebSourceWrapper:
    def make_wrapper(self, web, supplier, **kwargs):
        return WebSourceWrapper(
            "acme",
            WebClient(web),
            supplier.catalog_url(),
            DomWrapper("tr.item", {"sku": "td.sku", "price": "td.price",
                                   "qty": "td.qty"}),
            coercers={"qty": int_coercer},
            **kwargs,
        )

    def test_fetch_cost_reflects_pages(self):
        web, supplier, _ = make_site()
        wrapper = self.make_wrapper(web, supplier)
        result = wrapper.fetch()
        # 3 catalog pages at 0.2s latency each, one request apiece.
        assert result.cost_seconds == pytest.approx(0.6)
        assert wrapper.client.requests_made == 3

    def test_predicates_filter_result(self):
        web, supplier, _ = make_site()
        wrapper = self.make_wrapper(web, supplier)
        result = wrapper.fetch([Predicate("qty", ">=", 500)])
        assert all(q >= 500 for q in result.table.column("qty"))
        assert len(result.table) == 10

    def test_schema_uses_coercer_types(self):
        web, supplier, _ = make_site()
        wrapper = self.make_wrapper(web, supplier)
        assert wrapper.schema.field_named("qty").dtype.value == "integer"
        assert wrapper.schema.field_named("sku").dtype.value == "string"

    def test_login_required_site(self):
        web, supplier, _ = make_site(requires_login=True)
        wrapper = self.make_wrapper(
            web, supplier,
            login=(supplier.login_url(), {"user": "buyer", "password": "secret"}),
        )
        result = wrapper.fetch()
        assert len(result.table) == 60
        # GET the login form, POST it and follow its redirect, then 3 pages.
        assert wrapper.client.requests_made == 6
        assert result.cost_seconds == pytest.approx(1.2)
        # The session cookie is kept: a refetch walks the pages alone.
        assert len(wrapper.fetch().table) == 60
        assert wrapper.client.requests_made == 9

    def test_login_failure_raises(self):
        web, supplier, _ = make_site(requires_login=True)
        wrapper = self.make_wrapper(
            web, supplier,
            login=(supplier.login_url(), {"user": "buyer", "password": "wrong"}),
        )
        with pytest.raises(WrapperError):
            wrapper.fetch()

    def test_volatile_content_seen_on_refetch(self):
        web, supplier, products = make_site()
        wrapper = self.make_wrapper(web, supplier)
        assert wrapper.fetch().table.to_dicts()[1]["qty"] == 10
        products[1]["qty"] = 0
        assert wrapper.fetch().table.to_dicts()[1]["qty"] == 0


def scrape_two_pages(path, next_href):
    """Scrape a site whose page at ``path`` links to a second page by
    ``next_href``; the second page shows the query it was asked with."""
    web = SimulatedWeb(SimClock())
    site = WebSite("links.example")

    @site.route(path)
    def page(request):
        if "page" not in request.params:
            return HttpResponse(
                body=f"<p class='v'>first</p><a class='next' href='{next_href}'>Next</a>"
            )
        return HttpResponse(body=f"<p class='v'>{sorted(request.params.items())}</p>")

    web.register(site)
    wrapper = WebSourceWrapper(
        "links", WebClient(web), f"http://links.example{path}",
        DomWrapper("p.v", {"v": "."}),
    )
    return [row[0] for row in wrapper.fetch().table.rows]


class TestNextLinkUrls:
    def test_escaped_query_reaches_the_site_decoded_once(self):
        values = scrape_two_pages("/c", "/c?page=2&amp;q=a%20b")
        assert values == ["first", str([("page", "2"), ("q", "a b")])]

    def test_relative_next_link_resolves_against_the_page(self):
        values = scrape_two_pages("/d/c", "c?page=2")
        assert values == ["first", str([("page", "2")])]


class TestCoercers:
    @pytest.mark.parametrize(
        "text,expected",
        [("$5.00", 5.0), ("5,50 FRF", 5.5), ("USD 1,234.50", 1234.5), ("", None), ("n/a", None)],
    )
    def test_float_coercer(self, text, expected):
        assert float_coercer(text) == expected

    @pytest.mark.parametrize("text,expected", [("17", 17), ("1,234", 1234), ("", None)])
    def test_int_coercer(self, text, expected):
        assert int_coercer(text) == expected


class TestStaticSource:
    def test_fetch_and_filter(self):
        from repro.core import DataType, Field, Schema

        table = Table(
            Schema("t", (Field("a", DataType.INTEGER),)), [(1,), (2,), (3,)]
        )
        source = StaticSource("t", table)
        assert len(source.fetch().table) == 3
        assert len(source.fetch([Predicate("a", ">", 1)]).table) == 2
        assert source.estimated_rows() == 3
