"""Wrappers: turning fetched pages into relational rows.

Cohera Connect's wrappers "can operate either on regular expressions or by
navigating the Document Object Model" (§4).  Both modes are here:

* :class:`RegexWrapper` -- a row pattern with named groups, applied to raw
  markup.
* :class:`DomWrapper` -- CSS-ish selectors over the parsed DOM: one selector
  finds row elements, per-field selectors extract values within each row.

A page wrapper only understands *one page*.  :class:`WebSourceWrapper`
lifts a page wrapper into a full :class:`~repro.connect.source.ContentSource`:
through the :class:`~repro.connect.agent.BrowserAgent` it logs in if
required and walks pagination links, then extracts every page, coerces field
types and reports the simulated fetch cost -- the unit the federated
optimizer reasons about.
"""

from __future__ import annotations

import abc
import re
from itertools import islice
from typing import Any, Callable, Sequence

from repro.connect.agent import BrowserAgent
from repro.connect.simweb import WebClient, parse_url
from repro.connect.source import ContentSource, FetchResult, Predicate, apply_predicates
from repro.core.errors import SourceUnavailableError, WrapperError
from repro.core.records import Table
from repro.core.schema import DataType, Field, Schema
from repro.htmlkit import parse_html


class PageWrapper(abc.ABC):
    """Parses one HTML page into a list of field dicts."""

    fields: tuple[str, ...]

    @abc.abstractmethod
    def extract(self, markup: str) -> list[dict[str, str]]:
        """Return one dict per record found on the page."""


class RegexWrapper(PageWrapper):
    """Extract rows with a single regular expression.

    ``pattern`` must use named groups; each match becomes one record.  The
    pattern is compiled with DOTALL so row templates may span lines.
    """

    def __init__(self, pattern: str) -> None:
        self.pattern = re.compile(pattern, re.DOTALL)
        names = tuple(self.pattern.groupindex)
        if not names:
            raise WrapperError("regex wrapper pattern needs named groups")
        self.fields = names

    def extract(self, markup: str) -> list[dict[str, str]]:
        return [
            {name: (value or "").strip() for name, value in match.groupdict().items()}
            for match in self.pattern.finditer(markup)
        ]


class DomWrapper(PageWrapper):
    """Extract rows by navigating the parsed DOM.

    ``row_selector`` locates one element per record; ``field_selectors``
    maps each field name to a selector evaluated *within* the row element
    (or ``"."`` for the row's own text).
    """

    def __init__(self, row_selector: str, field_selectors: dict[str, str]) -> None:
        if not field_selectors:
            raise WrapperError("dom wrapper needs at least one field selector")
        self.row_selector = row_selector
        self.field_selectors = dict(field_selectors)
        self.fields = tuple(field_selectors)

    def extract(self, markup: str) -> list[dict[str, str]]:
        document = parse_html(markup)
        records = []
        for row in document.select(self.row_selector):
            record: dict[str, str] = {}
            for name, selector in self.field_selectors.items():
                if selector == ".":
                    record[name] = row.get_text(separator=" ")
                    continue
                matches = row.select(selector)
                record[name] = matches[0].get_text(separator=" ") if matches else ""
            records.append(record)
        return records


# Coercers turn extracted strings into typed values.
Coercer = Callable[[str], Any]


def int_coercer(text: str) -> int | None:
    digits = re.sub(r"[^\d-]", "", text)
    return int(digits) if digits and digits != "-" else None


def float_coercer(text: str) -> float | None:
    cleaned = re.sub(r"[^\d,.\-]", "", text)
    if not cleaned:
        return None
    # European decimal comma: "5,00" -> "5.00"; thousands separators dropped.
    if "," in cleaned and "." not in cleaned:
        cleaned = cleaned.replace(",", ".")
    else:
        cleaned = cleaned.replace(",", "")
    try:
        return float(cleaned)
    except ValueError:
        return None


# A bound on the pages one fetch walks, and the rows a scraped source is
# assumed to hold before it is first fetched.
MAX_PAGES = 1000
EXPECTED_ROWS = 1000


class WebSourceWrapper(ContentSource):
    """A complete scraped source: login + pagination + extraction + typing.

    Parameters
    ----------
    name:
        Source name registered in the federation catalog.
    client:
        The :class:`WebClient` used for fetching (shared cookie jar).
    start_url:
        First catalog page.
    page_wrapper:
        The per-page extraction strategy.
    coercers:
        Optional per-field type coercion; uncoerced fields stay strings.
    login:
        Optional ``(login_url, fields)``: once, before the first scrape, the
        agent opens the login page and submits its form with ``fields``.

    Pages are walked by a :class:`~repro.connect.agent.BrowserAgent` along
    their "next page" links, at most :data:`MAX_PAGES` of them per fetch.
    """

    def __init__(
        self,
        name: str,
        client: WebClient,
        start_url: str,
        page_wrapper: PageWrapper,
        coercers: dict[str, Coercer] | None = None,
        login: tuple[str, dict[str, str]] | None = None,
    ) -> None:
        self.name = name
        self.client = client
        self.agent = BrowserAgent(client)
        self.start_url = start_url
        self.page_wrapper = page_wrapper
        self.coercers = dict(coercers or {})
        self.login = login
        self.schema = self._build_schema()
        self._logged_in = False

    def _build_schema(self) -> Schema:
        fields = []
        for name in self.page_wrapper.fields:
            coercer = self.coercers.get(name)
            if coercer is int_coercer:
                dtype = DataType.INTEGER
            elif coercer is float_coercer:
                dtype = DataType.FLOAT
            else:
                dtype = DataType.STRING
            fields.append(Field(name, dtype))
        return Schema(self.name, tuple(fields))

    def _ensure_login(self) -> None:
        if self.login is None or self._logged_in:
            return
        url, fields = self.login
        self.agent.goto(url)
        response = self.agent.submit_form(fields)
        if response.status >= 400:
            raise WrapperError(f"login to {url!r} failed with status {response.status}")
        self._logged_in = True

    def _coerce(self, record: dict[str, str]) -> tuple[Any, ...]:
        values = []
        for name in self.page_wrapper.fields:
            raw = record.get(name, "")
            coercer = self.coercers.get(name)
            values.append(coercer(raw) if coercer else raw)
        return tuple(values)

    def fetch(self, predicates: Sequence[Predicate] = ()) -> FetchResult:
        started = self.client.time_spent
        self._ensure_login()
        rows = [
            self._coerce(record)
            for body in islice(self.agent.pages(self.start_url), MAX_PAGES)
            for record in self.page_wrapper.extract(body)
        ]
        table = Table(self.schema, rows, validate=False)
        table = apply_predicates(table, predicates)
        return FetchResult(table, cost_seconds=self.client.time_spent - started)

    def is_available(self) -> bool:
        try:
            return self.client.web.site(parse_url(self.start_url).host).up
        except SourceUnavailableError:
            return False

    def estimated_rows(self) -> int:
        return EXPECTED_ROWS

    def estimated_cost(self) -> float:
        # A catalog page lists about 25 rows.
        site = self.client.web.site(parse_url(self.start_url).host)
        return site.latency * (EXPECTED_ROWS // 25)
