"""The XML element tree used throughout the system.

An :class:`XmlElement` holds a tag, attributes, and an ordered list of
children that are either nested elements or text strings.  This mixed child
list preserves document order, which matters both for XPath positional
predicates and for faithful serialization of B2B documents.
"""

from __future__ import annotations

from typing import Iterator


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

    @property
    def text(self) -> str:
        """Direct text content (immediate string children, concatenated)."""
        return "".join(c for c in self.children if isinstance(c, str))

    def full_text(self) -> str:
        """All text in this subtree, in document order."""
        pieces = []
        for child in self.children:
            if isinstance(child, str):
                pieces.append(child)
            else:
                pieces.append(child.full_text())
        return "".join(pieces)

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
