"""Cohera Connect analog: access to heterogeneous content sources.

The paper's Characteristic 1: "a good content integration solution must
support a variety of relationships between the content integrator and the
content owners, ranging from scraping web sites to directly accessing
internal systems."  This package supplies both ends of that range, one
:class:`~repro.connect.source.ContentSource` kind per relationship:

* :mod:`repro.connect.simweb` -- a deterministic simulated web (sites,
  sessions, cookies, logins, latency, failures) standing in for the live
  internet, plus :class:`~repro.connect.simweb.WebClient`.
* :mod:`repro.connect.sitegen` -- synthetic supplier web sites in varied
  layouts; the heterogeneous "outside world" wrappers must cope with.
* :mod:`repro.connect.wrapper` -- regex and DOM wrappers turning pages into
  :class:`~repro.core.records.Table` rows (Cohera Connect's two wrapper
  modes, §4), and :class:`~repro.connect.wrapper.WebSourceWrapper`, the
  scraping kind, which navigates through the browser agent.
* :mod:`repro.connect.induction` -- semi-automatic wrapper induction from
  labeled examples, with fix-by-example repair (§3.1 C1).
* :mod:`repro.connect.agent` -- the browser agent every scrape navigates
  with: form logins, cookies and pagination (§4: "automatically navigate
  complex web pages").
* :mod:`repro.connect.source` -- the protocol the federation queries, and
  the other kinds: :class:`~repro.connect.source.LiveSource` reads an
  owner's operational state directly on every fetch,
  :class:`~repro.connect.source.StaticSource` holds fixed content, and
  :func:`~repro.connect.source.read_csv` loads a supplier's file drop into a
  table.
"""

from repro.connect.agent import BrowserAgent
from repro.connect.induction import InducedWrapper, WrapperInducer
from repro.connect.simweb import (
    HttpRequest,
    HttpResponse,
    SimulatedWeb,
    WebClient,
    WebSite,
    parse_url,
)
from repro.connect.registry import EnablementPlan, SupplierListing, SupplierRegistry
from repro.connect.source import ContentSource, FetchResult
from repro.connect.training import TrainingProposal, WrapperTrainingSession
from repro.connect.wrapper import DomWrapper, RegexWrapper, WebSourceWrapper

__all__ = [
    "BrowserAgent",
    "InducedWrapper",
    "WrapperInducer",
    "HttpRequest",
    "HttpResponse",
    "SimulatedWeb",
    "WebClient",
    "WebSite",
    "parse_url",
    "ContentSource",
    "FetchResult",
    "DomWrapper",
    "RegexWrapper",
    "WebSourceWrapper",
    "EnablementPlan",
    "SupplierListing",
    "SupplierRegistry",
    "TrainingProposal",
    "WrapperTrainingSession",
]
