"""DOM node types and navigation for parsed HTML.

Wrappers in :mod:`repro.connect.wrapper` extract catalog fields by walking
this tree, so the navigation API mirrors what screen-scraping code needs:
descendant search by tag/attribute/class, visible-text extraction, and a
tiny CSS-like ``select`` (tag, ``.class``, ``#id``, descendant combinator).
"""

from __future__ import annotations

from typing import Callable, Iterator


class Node:
    """Base class for all DOM nodes."""

    parent: "Element | None" = None


class TextNode(Node):
    """A run of character data."""

    def __init__(self, text: str) -> None:
        self.text = text

    def __repr__(self) -> str:
        return f"TextNode({self.text!r})"


class Comment(Node):
    """An HTML comment; kept so wrappers can key off template markers."""

    def __init__(self, text: str) -> None:
        self.text = text

    def __repr__(self) -> str:
        return f"Comment({self.text!r})"


class Element(Node):
    """An element with a tag, attributes and ordered children."""

    def __init__(self, tag: str, attrs: dict[str, str] | None = None) -> None:
        self.tag = tag.lower()
        self.attrs: dict[str, str] = dict(attrs or {})
        self.children: list[Node] = []

    # -- tree building -----------------------------------------------------

    def append(self, node: Node) -> Node:
        node.parent = self
        self.children.append(node)
        return node

    # -- attribute conveniences ---------------------------------------------

    def get(self, name: str, default: str | None = None) -> str | None:
        return self.attrs.get(name.lower(), default)

    @property
    def element_id(self) -> str | None:
        return self.attrs.get("id")

    @property
    def classes(self) -> list[str]:
        return self.attrs.get("class", "").split()

    def has_class(self, name: str) -> bool:
        return name in self.classes

    # -- traversal -----------------------------------------------------------

    def iter_descendants(self) -> Iterator[Node]:
        """Yield all descendant nodes in document order."""
        for child in self.children:
            yield child
            if isinstance(child, Element):
                yield from child.iter_descendants()

    def iter_descendant_elements(self) -> Iterator["Element"]:
        for node in self.iter_descendants():
            if isinstance(node, Element):
                yield node

    def find_all(
        self,
        tag: str | None = None,
        attrs: dict[str, str] | None = None,
        class_name: str | None = None,
        predicate: Callable[["Element"], bool] | None = None,
    ) -> list["Element"]:
        """Return descendant elements matching all given criteria."""
        matches = []
        for element in self.iter_descendant_elements():
            if tag is not None and element.tag != tag.lower():
                continue
            if attrs is not None and any(
                element.attrs.get(k) != v for k, v in attrs.items()
            ):
                continue
            if class_name is not None and not element.has_class(class_name):
                continue
            if predicate is not None and not predicate(element):
                continue
            matches.append(element)
        return matches

    def find(
        self,
        tag: str | None = None,
        attrs: dict[str, str] | None = None,
        class_name: str | None = None,
        predicate: Callable[["Element"], bool] | None = None,
    ) -> "Element | None":
        """Return the first matching descendant element, or None."""
        for element in self.find_all(tag, attrs, class_name, predicate):
            return element
        return None

    # -- CSS-like selection ----------------------------------------------------

    def select(self, selector: str) -> list["Element"]:
        """Evaluate a tiny CSS-like selector against this subtree.

        Supported: ``tag``, ``.class``, ``#id``, ``tag.class``, ``tag#id``
        and whitespace descendant combinators (``table.catalog tr td``).
        """
        parts = selector.split()
        if not parts:
            return []
        current: list[Element] = [self]
        for part in parts:
            next_matches: list[Element] = []
            seen: set[int] = set()
            for scope in current:
                for element in scope.iter_descendant_elements():
                    if id(element) in seen:
                        continue
                    if _matches_simple_selector(element, part):
                        seen.add(id(element))
                        next_matches.append(element)
            current = next_matches
        return current

    # -- text extraction ----------------------------------------------------------

    def get_text(self, separator: str = "", strip: bool = True) -> str:
        """Return the concatenated visible text of this subtree."""
        pieces = []
        for node in self.iter_descendants():
            if isinstance(node, TextNode):
                text = node.text.strip() if strip else node.text
                if text:
                    pieces.append(text)
        return separator.join(pieces)

    def __repr__(self) -> str:
        return f"Element(<{self.tag}>, attrs={self.attrs!r}, children={len(self.children)})"


def _matches_simple_selector(element: Element, selector: str) -> bool:
    """Match one compound selector like ``td.price`` or ``#main``."""
    tag = ""
    conditions: list[tuple[str, str]] = []
    buffer = ""
    mode = "tag"
    for char in selector:
        if char in ".#":
            if mode == "tag":
                tag = buffer
            else:
                conditions.append((mode, buffer))
            buffer = ""
            mode = "class" if char == "." else "id"
        else:
            buffer += char
    if mode == "tag":
        tag = buffer
    else:
        conditions.append((mode, buffer))

    if tag and tag != "*" and element.tag != tag.lower():
        return False
    for kind, value in conditions:
        if kind == "class" and not element.has_class(value):
            return False
        if kind == "id" and element.element_id != value:
            return False
    return True
