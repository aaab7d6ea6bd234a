"""A small, tolerant HTML tree builder.

The paper's Cohera Connect wraps supplier *web sites*: wrappers "can operate
either on regular expressions or by navigating the Document Object Model
(DOM) corresponding to a document" (§4).  Real supplier HTML is messy --
unclosed tags, unquoted attributes, inconsistent casing.  The stdlib's
:class:`html.parser.HTMLParser` reads the characters; this package builds the
tree, and it is deliberately tolerant: it never raises on malformed markup,
it recovers the most plausible tree, exactly what a commercial screen-scraper
needs.

Use :func:`parse_html` to get the :class:`~repro.xmlkit.model.XmlElement`
tree that :func:`~repro.xmlkit.parser.parse_xml` builds for contract feeds,
then navigate with ``find``/``find_all``/``select``: one element tree, two
parsers, chosen by the input.  HTML comments are not kept.
"""

from repro.htmlkit.parser import parse_html

__all__ = ["parse_html"]
