"""Tests for wrapper induction and the browser agent."""

import pytest

from repro.connect import BrowserAgent, SimulatedWeb, WebClient, WrapperInducer
from repro.connect.simweb import HttpResponse, WebSite
from repro.connect.induction import common_prefix, common_suffix
from repro.connect.sitegen import build_supplier_site
from repro.core.errors import WrapperError
from repro.sim import SimClock


def render_page(records, template="<tr><td class='s'>{sku}</td><td class='n'>{name}</td></tr>"):
    rows = "".join(template.format(**r) for r in records)
    return f"<html><body><table>{rows}</table></body></html>"


TRAIN_RECORDS = [
    {"sku": "A-1", "name": "black ink"},
    {"sku": "A-2", "name": "blue ink"},
    {"sku": "A-3", "name": "hex bolt"},
]


class TestDelimiterHelpers:
    def test_common_suffix(self):
        assert common_suffix(["xxab", "yyab", "ab"]) == "ab"
        assert common_suffix(["abc", "xyz"]) == ""
        assert common_suffix([]) == ""

    def test_common_prefix(self):
        assert common_prefix(["abx", "aby"]) == "ab"
        assert common_prefix(["a"]) == "a"
        assert common_prefix([]) == ""


class TestWrapperInducer:
    def test_learns_from_two_examples(self):
        page = render_page(TRAIN_RECORDS)
        inducer = WrapperInducer(("sku", "name"))
        inducer.add_example(page, TRAIN_RECORDS[0])
        inducer.add_example(page, TRAIN_RECORDS[1])
        wrapper = inducer.learn()
        extracted = wrapper.extract(page)
        assert extracted == TRAIN_RECORDS

    def test_learned_wrapper_generalizes_to_new_page(self):
        inducer = WrapperInducer(("sku", "name"))
        train = render_page(TRAIN_RECORDS)
        inducer.add_example(train, TRAIN_RECORDS[0])
        inducer.add_example(train, TRAIN_RECORDS[1])
        wrapper = inducer.learn()
        unseen = [{"sku": "Z-9", "name": "grease gun"}, {"sku": "Z-10", "name": "pliers"}]
        assert wrapper.extract(render_page(unseen)) == unseen

    def test_single_example_may_overfit_then_fix_by_example_repairs(self):
        page = render_page(TRAIN_RECORDS)
        inducer = WrapperInducer(("sku", "name"))
        inducer.add_example(page, TRAIN_RECORDS[1])  # middle record: left context
        wrapper = inducer.learn()                    # includes previous row's text
        accuracy_before = WrapperInducer.accuracy(wrapper, page, TRAIN_RECORDS)
        repaired = inducer.fix_by_example(page, TRAIN_RECORDS[2])
        accuracy_after = WrapperInducer.accuracy(repaired, page, TRAIN_RECORDS)
        assert accuracy_after == 1.0
        assert accuracy_after >= accuracy_before

    def test_accuracy_metric(self):
        page = render_page(TRAIN_RECORDS)
        inducer = WrapperInducer(("sku", "name"))
        inducer.add_example(page, TRAIN_RECORDS[0])
        inducer.add_example(page, TRAIN_RECORDS[1])
        wrapper = inducer.learn()
        assert WrapperInducer.accuracy(wrapper, page, TRAIN_RECORDS) == 1.0
        assert WrapperInducer.accuracy(wrapper, page, [{"sku": "X", "name": "y"}]) == 0.0
        assert WrapperInducer.accuracy(wrapper, page, []) == 1.0

    def test_requires_fields(self):
        with pytest.raises(WrapperError):
            WrapperInducer(())

    def test_zero_examples_rejected(self):
        with pytest.raises(WrapperError):
            WrapperInducer(("a",)).learn()

    def test_example_missing_field_rejected(self):
        inducer = WrapperInducer(("sku", "name"))
        with pytest.raises(WrapperError):
            inducer.add_example("page", {"sku": "A-1"})

    def test_value_not_on_page_rejected(self):
        inducer = WrapperInducer(("sku",))
        inducer.add_example("<td>A-1</td>", {"sku": "GHOST"})
        with pytest.raises(WrapperError):
            inducer.learn()

    def test_conflicting_templates_rejected(self):
        inducer = WrapperInducer(("sku",))
        inducer.add_example("<td class='s'>A-1</td>", {"sku": "A-1"})
        inducer.add_example("[sku: B-2]", {"sku": "B-2"})
        with pytest.raises(WrapperError):
            inducer.learn()


def make_login_site():
    web = SimulatedWeb(SimClock())
    products = [
        {"sku": f"P-{i}", "name": f"part {i}", "price": 2.0, "currency": "USD", "qty": 4}
        for i in range(55)
    ]
    supplier = build_supplier_site(
        "private.example", products, requires_login=True, page_size=25
    )
    web.register(supplier.site)
    return web, supplier


class TestBrowserAgent:
    def test_login_then_collect_all_pages(self):
        web, supplier = make_login_site()
        agent = BrowserAgent(WebClient(web))
        agent.goto("http://private.example/login")
        agent.submit_form({"user": "buyer", "password": "secret"})
        pages = list(agent.pages(supplier.catalog_url()))
        assert len(pages) == 3
        assert "P-0" in pages[0]
        assert "P-54" in pages[-1]

    def test_without_login_catalog_redirects_to_form(self):
        web, supplier = make_login_site()
        agent = BrowserAgent(WebClient(web))
        agent.goto(supplier.catalog_url())
        assert agent.dom.find("form") is not None

    def test_a_relative_link_after_a_redirect_resolves_where_the_site_answered(self):
        """``/start`` redirects to ``/shop/list``, whose ``href='more'`` is
        ``/shop/more``: resolved against the URL asked for, it was ``/more``."""
        web = SimulatedWeb(SimClock())
        site = WebSite("h.example")
        listing = "<html><body><a class='next' href='more'>more</a></body></html>"
        site.add_route("/start", lambda r: HttpResponse.redirect("/shop/list"))
        site.add_route("/shop/list", lambda r: HttpResponse(body=listing))
        site.add_route("/shop/more", lambda r: HttpResponse(body="more parts"))
        web.register(site)
        agent = BrowserAgent(WebClient(web))
        pages = agent.pages("http://h.example/start")
        assert next(pages) == listing
        assert agent.current_url == "http://h.example/shop/list"
        assert list(pages) == ["more parts"]
        assert agent.current_url == "http://h.example/shop/more"

    def test_submit_form_requires_a_form(self):
        web, _ = make_login_site()
        agent = BrowserAgent(WebClient(web))
        agent.goto("http://private.example/")
        with pytest.raises(WrapperError):
            agent.submit_form({"a": "b"})

    def test_agent_requires_current_page(self):
        web, _ = make_login_site()
        agent = BrowserAgent(WebClient(web))
        with pytest.raises(WrapperError):
            agent.submit_form({"user": "buyer"})

    def test_bad_credentials_do_not_establish_session(self):
        web, supplier = make_login_site()
        agent = BrowserAgent(WebClient(web))
        agent.goto("http://private.example/login")
        response = agent.submit_form({"user": "buyer", "password": "nope"})
        assert response.status == 401
        agent.goto(supplier.catalog_url())
        assert agent.dom.find("form") is not None  # still locked out
