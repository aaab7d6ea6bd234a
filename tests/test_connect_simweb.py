"""Unit tests for the simulated web: URLs, sites, client, cookies, redirects."""

import pytest

from repro.connect.simweb import (
    HttpResponse,
    SimulatedWeb,
    WebClient,
    WebSite,
    parse_url,
)
from repro.core.errors import SourceUnavailableError, WrapperError
from repro.sim import SimClock


class TestParseUrl:
    def test_full_url(self):
        parsed = parse_url("https://acme.example/catalog?page=2&sort=sku")
        assert parsed.scheme == "https"
        assert parsed.host == "acme.example"
        assert parsed.path == "/catalog"
        assert parsed.params == {"page": "2", "sort": "sku"}

    def test_bare_host_gets_root_path(self):
        parsed = parse_url("http://acme.example")
        assert parsed.path == "/"
        assert parsed.params == {}

    def test_missing_scheme_rejected(self):
        with pytest.raises(WrapperError):
            parse_url("acme.example/catalog")

    def test_missing_host_rejected(self):
        with pytest.raises(WrapperError):
            parse_url("http:///catalog")


def make_web():
    web = SimulatedWeb(SimClock())
    site = WebSite("shop.example", latency=0.5)

    @site.route("/")
    def home(request):
        return HttpResponse(body="<html><body>home</body></html>")

    @site.route("/greet")
    def greet(request):
        name = request.params.get("name", "anon")
        return HttpResponse(body=f"hello {name}")

    @site.route("/item/")
    def item(request):
        return HttpResponse(body=f"item page {request.url.path}")

    @site.route("/set-cookie")
    def set_cookie(request):
        response = HttpResponse(body="cookie set")
        response.set_cookies["token"] = "t-1"
        return response

    @site.route("/need-cookie")
    def need_cookie(request):
        if request.cookies.get("token") != "t-1":
            return HttpResponse.forbidden()
        return HttpResponse(body="secret")

    @site.route("/bounce")
    def bounce(request):
        return HttpResponse.redirect("/greet?name=redirected")

    @site.route("/dir/bounce")
    def relative_bounce(request):
        return HttpResponse.redirect("greet?name=relative")

    @site.route("/dir/greet")
    def dir_greet(request):
        return HttpResponse(body=f"dir hello {request.params.get('name', '')}")

    @site.route("/loop")
    def loop(request):
        return HttpResponse.redirect("/loop")

    web.register(site)
    return web, site


class TestWebSiteRouting:
    def test_exact_route(self):
        web, _ = make_web()
        assert "home" in WebClient(web).get("http://shop.example/").body

    def test_query_params_reach_handler(self):
        web, _ = make_web()
        assert WebClient(web).get("http://shop.example/greet?name=mike").body == "hello mike"

    def test_prefix_route(self):
        web, _ = make_web()
        body = WebClient(web).get("http://shop.example/item/A-1").body
        assert "/item/A-1" in body

    def test_unknown_path_404(self):
        web, _ = make_web()
        assert WebClient(web).get("http://shop.example/nope").status == 404

    def test_unknown_host_raises(self):
        web, _ = make_web()
        with pytest.raises(SourceUnavailableError):
            WebClient(web).get("http://ghost.example/")

    def test_duplicate_host_rejected(self):
        web, _ = make_web()
        with pytest.raises(WrapperError):
            web.register(WebSite("shop.example"))

    def test_down_site_raises(self):
        web, site = make_web()
        site.up = False
        with pytest.raises(SourceUnavailableError) as excinfo:
            WebClient(web).get("http://shop.example/")
        assert excinfo.value.source == "shop.example"

    def test_requests_served_counted(self):
        web, site = make_web()
        client = WebClient(web)
        client.get("http://shop.example/")
        client.get("http://shop.example/greet")
        assert site.requests_served == 2


class TestHttpsPolicy:
    def test_https_only_site_rejects_http(self):
        web = SimulatedWeb(SimClock())
        site = WebSite("secure.example", https_only=True)
        site.add_route("/", lambda r: HttpResponse(body="ok"))
        web.register(site)
        client = WebClient(web)
        assert client.get("http://secure.example/").status == 403
        assert client.get("https://secure.example/").status == 200


class TestWebClient:
    def test_latency_charged_to_clock(self):
        web, _ = make_web()
        client = WebClient(web)
        client.get("http://shop.example/")
        client.get("http://shop.example/greet")
        assert web.clock.now() == pytest.approx(1.0)
        assert client.time_spent == pytest.approx(1.0)

    def test_cookies_stored_and_sent(self):
        web, _ = make_web()
        client = WebClient(web)
        assert client.get("http://shop.example/need-cookie").status == 403
        client.get("http://shop.example/set-cookie")
        assert client.get("http://shop.example/need-cookie").body == "secret"

    def test_cookie_jars_are_per_host(self):
        web, _ = make_web()
        other = WebSite("other.example")
        other.add_route("/", lambda r: HttpResponse(body=str(r.cookies)))
        web.register(other)
        client = WebClient(web)
        client.get("http://shop.example/set-cookie")
        assert "t-1" not in client.get("http://other.example/").body

    def test_redirects_followed(self):
        web, _ = make_web()
        response = WebClient(web).get("http://shop.example/bounce")
        assert response.body == "hello redirected"

    def test_relative_redirect_resolves_against_the_answering_url(self):
        web, _ = make_web()
        response = WebClient(web).get("http://shop.example/dir/bounce")
        assert response.body == "dir hello relative"

    def test_redirect_loop_detected(self):
        web, _ = make_web()
        with pytest.raises(WrapperError):
            WebClient(web).get("http://shop.example/loop")

    def test_post_form_reaches_handler(self):
        web = SimulatedWeb(SimClock())
        site = WebSite("form.example")
        site.add_route("/submit", lambda r: HttpResponse(body=r.form.get("q", "")))
        web.register(site)
        assert WebClient(web).post("http://form.example/submit", {"q": "bolts"}).body == "bolts"
