"""The element tree used throughout the system, for XML and HTML alike.

An :class:`XmlElement` holds a tag, attributes, and an ordered list of
children that are either nested elements or text strings.  This mixed child
list preserves document order, which matters both for XPath positional
predicates and for faithful serialization of B2B documents.  Scraped HTML
parses into the same tree, so the navigation a wrapper needs (``find``,
``find_all``, a tiny CSS-like ``select``, ``get_text``) lives here too.
"""

from __future__ import annotations

import re
from typing import Callable, Iterator


def xml_escape(text: str, quote: bool = False) -> str:
    """Escape ``&``, ``<``, ``>`` (and quotes when serializing attributes).

    Characters a parser normalises away are written as references: ``\\r``
    everywhere, and tab and newline inside attribute values.
    """
    escaped = (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        .replace("\r", "&#13;")
    )
    if quote:
        escaped = escaped.replace('"', "&quot;").replace("\t", "&#9;").replace("\n", "&#10;")
    return escaped


class XmlElement:
    """One element of an XML document."""

    def __init__(
        self,
        tag: str,
        attrs: dict[str, str] | None = None,
        children: list["XmlElement | str"] | None = None,
    ) -> None:
        self.tag = tag
        self.attrs: dict[str, str] = dict(attrs or {})
        self.children: list[XmlElement | str] = list(children or [])
        self.parent: XmlElement | None = None
        for child in self.children:
            if isinstance(child, XmlElement):
                child.parent = self

    # -- construction --------------------------------------------------------

    def append(self, child: "XmlElement | str") -> "XmlElement | str":
        if isinstance(child, XmlElement):
            child.parent = self
        self.children.append(child)
        return child

    def element(self, tag: str, attrs: dict[str, str] | None = None) -> "XmlElement":
        """Append and return a new child element (builder convenience)."""
        child = XmlElement(tag, attrs)
        self.append(child)
        return child

    # -- navigation -----------------------------------------------------------

    def child_elements(self, tag: str | None = None) -> list["XmlElement"]:
        return [
            c
            for c in self.children
            if isinstance(c, XmlElement) and (tag is None or c.tag == tag)
        ]

    def first(self, tag: str) -> "XmlElement | None":
        for child in self.child_elements(tag):
            return child
        return None

    def iter_descendants(self) -> Iterator["XmlElement"]:
        for child in self.children:
            if isinstance(child, XmlElement):
                yield child
                yield from child.iter_descendants()

    def find_all(
        self,
        tag: str | None = None,
        attrs: dict[str, str] | None = None,
        class_name: str | None = None,
        predicate: Callable[["XmlElement"], bool] | None = None,
    ) -> list["XmlElement"]:
        """The descendant elements matching every criterion given, in
        document order."""
        return [
            element
            for element in self.iter_descendants()
            if (tag is None or element.tag == tag)
            and (attrs is None or all(element.attrs.get(k) == v for k, v in attrs.items()))
            and (class_name is None or class_name in element.classes)
            and (predicate is None or predicate(element))
        ]

    def find(
        self,
        tag: str | None = None,
        attrs: dict[str, str] | None = None,
        class_name: str | None = None,
        predicate: Callable[["XmlElement"], bool] | None = None,
    ) -> "XmlElement | None":
        """The first matching descendant element, or None."""
        for element in self.find_all(tag, attrs, class_name, predicate):
            return element
        return None

    def select(self, selector: str) -> list["XmlElement"]:
        """The descendants a tiny CSS-like selector names: ``tag``,
        ``.class``, ``#id``, ``*`` and their compounds (``td.price``), joined
        by whitespace descendant combinators (``table.catalog tr td``)."""
        compounds = selector.split()
        current = [self] if compounds else []
        for compound in compounds:
            tag, *conditions = re.split(r"(?=[.#])", compound)
            found: dict[int, XmlElement] = {}  # by identity: equal nodes are distinct
            for scope in current:
                for element in scope.iter_descendants():
                    if (tag in ("", "*") or element.tag == tag) and all(
                        (c[1:] in element.classes) if c[0] == "." else element.get("id") == c[1:]
                        for c in conditions
                    ):
                        found.setdefault(id(element), element)
            current = list(found.values())
        return current

    @property
    def classes(self) -> list[str]:
        return self.attrs.get("class", "").split()

    @property
    def text(self) -> str:
        """Direct text content (immediate string children, concatenated)."""
        return "".join(c for c in self.children if isinstance(c, str))

    def get_text(self, separator: str = "", strip: bool = True) -> str:
        """The text of this subtree in document order: each non-empty text
        child (stripped, when ``strip``) joined by ``separator``."""
        pieces: list[str] = []
        _gather_text(self, pieces, strip)
        return separator.join(pieces)

    def get(self, name: str, default: str | None = None) -> str | None:
        return self.attrs.get(name, default)

    # -- comparison & copying -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, XmlElement):
            return NotImplemented
        return (
            self.tag == other.tag
            and self.attrs == other.attrs
            and self.children == other.children
        )

    def copy(self) -> "XmlElement":
        """Deep-copy this subtree (parents rewired within the copy)."""
        return XmlElement(
            self.tag,
            dict(self.attrs),
            [c.copy() if isinstance(c, XmlElement) else c for c in self.children],
        )

    # -- serialization -----------------------------------------------------------

    def to_string(self, indent: int | None = None, _level: int = 0) -> str:
        """Serialize to markup; pass ``indent`` for pretty-printing."""
        attr_text = "".join(
            f' {name}="{xml_escape(value, quote=True)}"'
            for name, value in self.attrs.items()
        )
        if not self.children:
            return f"<{self.tag}{attr_text}/>"

        pad = "" if indent is None else "\n" + " " * (indent * (_level + 1))
        end_pad = "" if indent is None else "\n" + " " * (indent * _level)
        pieces = [f"<{self.tag}{attr_text}>"]
        only_text = all(isinstance(c, str) for c in self.children)
        for child in self.children:
            if isinstance(child, str):
                pieces.append(xml_escape(child))
            else:
                if not only_text:
                    pieces.append(pad)
                pieces.append(child.to_string(indent, _level + 1))
        if not only_text:
            pieces.append(end_pad)
        pieces.append(f"</{self.tag}>")
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"XmlElement(<{self.tag}>, attrs={self.attrs!r}, children={len(self.children)})"


def _gather_text(element: XmlElement, pieces: list[str], strip: bool) -> None:
    for child in element.children:
        if isinstance(child, str):
            if strip:
                child = child.strip()
            if child:
                pieces.append(child)
        else:
            _gather_text(child, pieces, strip)
