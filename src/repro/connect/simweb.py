"""A deterministic simulated web.

The reproduction cannot reach real supplier sites, so this module implements
the closest synthetic equivalent that exercises the same wrapper code paths:
hosts with routed request handlers, cookie-based sessions, form logins,
HTTPS-only endpoints, per-request latency charged to the simulation clock,
and availability failures.  Everything a commercial screen-scraper deals
with -- "the intricacies of navigating JavaScript pages, dealing with
cookies and passwords, and interfacing with HTTPS-protected sites" (§3.1
C1) -- has a concrete analog here.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable
from urllib.parse import parse_qsl, urljoin

from repro.core.errors import SourceUnavailableError, WrapperError
from repro.sim.clock import SimClock


@dataclass(frozen=True)
class ParsedUrl:
    scheme: str
    host: str
    path: str
    query: tuple[tuple[str, str], ...]

    @property
    def params(self) -> dict[str, str]:
        return dict(self.query)


def parse_url(url: str) -> ParsedUrl:
    """Parse ``scheme://host/path?query`` into its components."""
    scheme, separator, rest = url.partition("://")
    if not separator:
        raise WrapperError(f"URL {url!r} has no scheme")
    host, slash, path_query = rest.partition("/")
    if not host:
        raise WrapperError(f"URL {url!r} has no host")
    path_query = slash + path_query if slash else "/"
    path, question, query_text = path_query.partition("?")
    query = tuple(parse_qsl(query_text)) if question else ()
    return ParsedUrl(scheme, host, path or "/", query)


@dataclass
class HttpRequest:
    """One request as seen by a site's route handler."""

    method: str
    url: ParsedUrl
    form: dict[str, str] = field(default_factory=dict)
    cookies: dict[str, str] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)

    @property
    def params(self) -> dict[str, str]:
        return self.url.params


@dataclass
class HttpResponse:
    """A handler's reply."""

    status: int = 200
    body: str = ""
    content_type: str = "text/html"
    set_cookies: dict[str, str] = field(default_factory=dict)
    redirect_to: str | None = None
    url: str = ""  # the URL that answered, after any redirects (set by WebClient)

    @classmethod
    def not_found(cls, path: str) -> "HttpResponse":
        return cls(status=404, body=f"<html><body>404: {path}</body></html>")

    @classmethod
    def forbidden(cls, reason: str = "login required") -> "HttpResponse":
        return cls(status=403, body=f"<html><body>403: {reason}</body></html>")

    @classmethod
    def redirect(cls, location: str) -> "HttpResponse":
        return cls(status=302, redirect_to=location)


Handler = Callable[[HttpRequest], HttpResponse]


class WebSite:
    """One host on the simulated web.

    Routes map exact paths to handlers; a prefix route ``"/item/"`` (trailing
    slash) matches any path underneath it.  Sites may require HTTPS, may be
    marked down (to model outages), and charge ``latency`` simulated seconds
    per request.
    """

    def __init__(
        self,
        host: str,
        latency: float = 0.2,
        https_only: bool = False,
    ) -> None:
        self.host = host
        self.latency = latency
        self.https_only = https_only
        self.up = True
        self.requests_served = 0
        self._routes: dict[str, Handler] = {}
        self._prefix_routes: list[tuple[str, Handler]] = []

    def route(self, path: str) -> Callable[[Handler], Handler]:
        """Decorator registering a handler for ``path``."""

        def register(handler: Handler) -> Handler:
            self.add_route(path, handler)
            return handler

        return register

    def add_route(self, path: str, handler: Handler) -> None:
        if path.endswith("/") and path != "/":
            self._prefix_routes.append((path, handler))
        else:
            self._routes[path] = handler

    def handle(self, request: HttpRequest) -> HttpResponse:
        if not self.up:
            raise SourceUnavailableError(self.host)
        if self.https_only and request.url.scheme != "https":
            return HttpResponse.forbidden("HTTPS required")
        self.requests_served += 1
        handler = self._routes.get(request.url.path)
        if handler is None:
            for prefix, prefix_handler in self._prefix_routes:
                if request.url.path.startswith(prefix):
                    handler = prefix_handler
                    break
        if handler is None:
            return HttpResponse.not_found(request.url.path)
        return handler(request)


class SimulatedWeb:
    """The registry of all simulated hosts."""

    def __init__(self, clock: SimClock | None = None) -> None:
        self.clock = clock or SimClock()
        self._sites: dict[str, WebSite] = {}

    def register(self, site: WebSite) -> WebSite:
        if site.host in self._sites:
            raise WrapperError(f"host {site.host!r} already registered")
        self._sites[site.host] = site
        return site

    def site(self, host: str) -> WebSite:
        if host not in self._sites:
            raise SourceUnavailableError(host, f"no such host {host!r}")
        return self._sites[host]

    @property
    def hosts(self) -> list[str]:
        return sorted(self._sites)


# Redirects one request may follow before it is taken for a loop.
MAX_REDIRECTS = 5


class WebClient:
    """An HTTP client with a cookie jar, redirects and latency accounting.

    This is the fetch half of a wrapper: it performs requests against the
    simulated web, advancing the shared clock by each site's latency, storing
    cookies per host, and following up to :data:`MAX_REDIRECTS` redirects,
    each ``Location`` resolved against the URL that answered.
    """

    def __init__(self, web: SimulatedWeb) -> None:
        self.web = web
        self.cookie_jars: dict[str, dict[str, str]] = {}
        self.requests_made = 0
        self.time_spent = 0.0

    def cookies_for(self, host: str) -> dict[str, str]:
        return self.cookie_jars.setdefault(host, {})

    def get(self, url: str, headers: dict[str, str] | None = None) -> HttpResponse:
        return self._request("GET", url, {}, headers or {})

    def post(
        self,
        url: str,
        form: dict[str, str] | None = None,
        headers: dict[str, str] | None = None,
    ) -> HttpResponse:
        return self._request("POST", url, form or {}, headers or {})

    def _request(
        self,
        method: str,
        url: str,
        form: dict[str, str],
        headers: dict[str, str],
        _redirects: int = 0,
    ) -> HttpResponse:
        parsed = parse_url(url)
        site = self.web.site(parsed.host)
        self.web.clock.advance(site.latency)
        self.time_spent += site.latency
        self.requests_made += 1

        request = HttpRequest(
            method=method,
            url=parsed,
            form=dict(form),
            cookies=dict(self.cookies_for(parsed.host)),
            headers=dict(headers),
        )
        response = site.handle(request)
        self.cookies_for(parsed.host).update(response.set_cookies)

        if response.redirect_to is not None:
            if _redirects >= MAX_REDIRECTS:
                raise WrapperError(f"too many redirects fetching {url!r}")
            target = urljoin(url, response.redirect_to)
            return self._request("GET", target, {}, headers, _redirects + 1)
        return replace(response, url=url)
