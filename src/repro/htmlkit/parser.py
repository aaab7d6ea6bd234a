"""A tolerant HTML tree builder over the stdlib tokenizer.

Supplier sites in the simulated web (and in the real world the paper
describes) emit imperfect HTML.  :class:`html.parser.HTMLParser` reads the
characters -- tags, quoted and unquoted attributes, entities, comments and
``<script>``/``<style>`` raw text -- and this module builds the tree.  It
never raises on malformed markup; its recovery rules are the pragmatic
subset a screen-scraper needs:

* void elements (``<br>``, ``<img>``, ...) never take children;
* an unexpected close tag pops up to its nearest matching open tag, or is
  ignored if no such tag is open;
* ``<li>``, ``<tr>``, ``<td>``, ``<th>``, ``<option>`` and ``<p>`` implicitly
  close a previous unclosed sibling of the same kind;
* unterminated documents close all open elements at end of input.
"""

from __future__ import annotations

from html.parser import HTMLParser

from repro.htmlkit.dom import Comment, Element, TextNode

VOID_ELEMENTS = frozenset(
    {"area", "base", "br", "col", "embed", "hr", "img", "input",
     "link", "meta", "param", "source", "track", "wbr"}
)

# When a tag in this map opens, any open element whose tag is in the mapped
# set is implicitly closed first (the common malformed-table/list pattern).
IMPLICIT_CLOSERS: dict[str, frozenset[str]] = {
    "li": frozenset({"li"}),
    "option": frozenset({"option"}),
    "p": frozenset({"p"}),
    "td": frozenset({"td", "th"}),
    "th": frozenset({"td", "th"}),
    "tr": frozenset({"td", "th", "tr"}),
}


class _TreeBuilder(HTMLParser):
    def __init__(self) -> None:
        super().__init__()
        self.root = Element("document")
        self.stack: list[Element] = [self.root]

    def handle_starttag(self, tag: str, attrs: list[tuple[str, str | None]]) -> None:
        closers = IMPLICIT_CLOSERS.get(tag)
        if closers:
            while len(self.stack) > 1 and self.stack[-1].tag in closers:
                self.stack.pop()
        element = Element(tag, {name: value or "" for name, value in attrs})
        self.stack[-1].append(element)
        if tag not in VOID_ELEMENTS:
            self.stack.append(element)

    def handle_endtag(self, tag: str) -> None:
        for depth in range(len(self.stack) - 1, 0, -1):
            if self.stack[depth].tag == tag:
                del self.stack[depth:]
                return

    def handle_data(self, data: str) -> None:
        self.stack[-1].append(TextNode(data))

    def handle_comment(self, data: str) -> None:
        self.stack[-1].append(Comment(data))

    def close(self) -> None:
        super().close()
        # An unterminated <script>/<style> is left unread in ``rawdata``.
        if self.rawdata:
            self.handle_data(self.rawdata)
            self.rawdata = ""


def parse_html(markup: str) -> Element:
    """Parse ``markup`` into a DOM tree rooted at a synthetic ``document``.

    Always succeeds; malformed input yields the best-effort tree described
    in the module docstring.
    """
    builder = _TreeBuilder()
    builder.feed(markup)
    builder.close()
    return builder.root
