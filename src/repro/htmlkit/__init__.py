"""A small, tolerant HTML tree builder and DOM.

The paper's Cohera Connect wraps supplier *web sites*: wrappers "can operate
either on regular expressions or by navigating the Document Object Model
(DOM) corresponding to a document" (§4).  Real supplier HTML is messy --
unclosed tags, unquoted attributes, inconsistent casing.  The stdlib's
:class:`html.parser.HTMLParser` reads the characters; this package builds the
tree, and it is deliberately tolerant: it never raises on malformed markup,
it recovers the most plausible tree, exactly what a commercial screen-scraper
needs.

Use :func:`parse_html` to get an :class:`~repro.htmlkit.dom.Element` tree,
then navigate with ``find``/``find_all``/``select``.
"""

from repro.htmlkit.dom import Comment, Element, Node, TextNode
from repro.htmlkit.parser import parse_html

__all__ = ["Comment", "Element", "Node", "TextNode", "parse_html"]
