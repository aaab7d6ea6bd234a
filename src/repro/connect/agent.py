"""The browser agent: the navigator every scrape uses.

Cohera Connect "includes a full-function web browser agent, which can
automatically navigate complex web pages, correctly managing issues like
DHTML, JavaScript, cookies, passwords, and HTTPS" (§4).  Our analog drives
the simulated web: it keeps a current page, fills and submits forms (logins),
follows links and walks a listing's "next page" links -- all through a
:class:`~repro.connect.simweb.WebClient`, so cookies, redirects and HTTPS
policies are honoured automatically.  Every relative link or form action is
resolved against the current page with :func:`urllib.parse.urljoin`.
:class:`~repro.connect.wrapper.WebSourceWrapper` logs in and pages through a
catalog with it.
"""

from __future__ import annotations

from typing import Iterator
from urllib.parse import urlencode, urljoin, urlsplit

from repro.connect.simweb import HttpResponse, WebClient
from repro.core.errors import WrapperError
from repro.htmlkit import Element, parse_html

# The link a listing page points to its next page with.
NEXT_SELECTOR = "a.next"


class BrowserAgent:
    """Stateful navigation over the simulated web."""

    def __init__(self, client: WebClient) -> None:
        self.client = client
        self.current_url: str | None = None
        self.current_body: str = ""

    @property
    def dom(self) -> Element:
        return parse_html(self.current_body)

    def goto(self, url: str) -> HttpResponse:
        response = self.client.get(url)
        self._land(response)
        return response

    def submit_form(
        self, fields: dict[str, str], form_selector: str = "form"
    ) -> HttpResponse:
        """Fill the named inputs of the first matching form and submit it to
        the form's own action with its own method."""
        self._require_page()
        forms = self.dom.select(form_selector)
        if not forms:
            raise WrapperError(f"no form matching {form_selector!r} on {self.current_url!r}")
        form = forms[0]
        target = urljoin(self.current_url, form.get("action") or "")
        method = (form.get("method") or "get").upper()

        # Pre-fill declared inputs (keeps hidden fields), then overlay values.
        data: dict[str, str] = {}
        for input_element in form.find_all("input"):
            name = input_element.get("name")
            if name:
                data[name] = input_element.get("value") or ""
        data.update(fields)

        if method == "POST":
            response = self.client.post(target, data)
        else:
            target = urlsplit(target)._replace(query=urlencode(data)).geturl()
            response = self.client.get(target)
        self._land(response)
        return response

    def pages(self, url: str) -> Iterator[str]:
        """The body of ``url``, then of each page its :data:`NEXT_SELECTOR`
        link leads to, until a page has none.  A page answering with an
        error status raises :class:`WrapperError`."""
        while url is not None:
            status = self.goto(url).status
            if status >= 400:
                raise WrapperError(f"fetching {url!r} returned status {status}")
            yield self.current_body
            url = self._link(NEXT_SELECTOR)

    # -- internals ---------------------------------------------------------------

    def _require_page(self) -> None:
        if self.current_url is None:
            raise WrapperError("agent has no current page; goto() first")

    def _land(self, response: HttpResponse) -> None:
        """Land on the page that answered: after a redirect, relative links
        resolve against where the site sent us, not where we asked."""
        self.current_url = response.url
        self.current_body = response.body

    def _link(self, selector: str) -> str | None:
        """The absolute URL of the first matching anchor with an href."""
        self._require_page()
        for anchor in self.dom.select(selector):
            href = anchor.get("href")
            if anchor.tag == "a" and href:
                return urljoin(self.current_url, href)
        return None
