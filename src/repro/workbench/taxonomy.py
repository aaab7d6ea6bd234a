"""Hierarchical taxonomies (the UN/SPSC model).

Characteristic 3: taxonomies are "usually arranged in a semantic hierarchy
... a query to a hierarchical taxonomy of part names should return all parts
at the matching levels as well as those below them", and "taxonomies should
be browseable and searchable in the same manner as the data itself".

A :class:`Taxonomy` is a forest of coded categories.  Its
:meth:`expand_query` implements the paper's descendant-inclusive retrieval:
a phrase matching a category label yields search terms for that category
and everything below it, for :class:`repro.ir.search.CatalogSearch`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.core.errors import TaxonomyError


@dataclass
class TaxonomyNode:
    """One category: a stable code, a human label, and tree links."""

    code: str
    label: str
    parent: "TaxonomyNode | None" = None
    children: list["TaxonomyNode"] = field(default_factory=list)

    def ancestors(self) -> Iterator["TaxonomyNode"]:
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def descendants(self) -> Iterator["TaxonomyNode"]:
        for child in self.children:
            yield child
            yield from child.descendants()

    @property
    def path(self) -> list[str]:
        """Labels from root to this node (for display/browse)."""
        labels = [ancestor.label for ancestor in self.ancestors()]
        labels.reverse()
        labels.append(self.label)
        return labels

    def __repr__(self) -> str:
        return f"TaxonomyNode({self.code!r}, {self.label!r})"


class Taxonomy:
    """A named forest of coded categories."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._nodes: dict[str, TaxonomyNode] = {}
        self._roots: list[TaxonomyNode] = []

    # -- construction -----------------------------------------------------

    def add_category(self, code: str, label: str, parent_code: str | None = None) -> TaxonomyNode:
        if code in self._nodes:
            raise TaxonomyError(f"category code {code!r} already exists in {self.name!r}")
        parent = None
        if parent_code is not None:
            parent = self.node(parent_code)
        node = TaxonomyNode(code, label, parent)
        self._nodes[code] = node
        if parent is None:
            self._roots.append(node)
        else:
            parent.children.append(node)
        return node

    # -- lookup & browse -----------------------------------------------------

    def node(self, code: str) -> TaxonomyNode:
        if code not in self._nodes:
            raise TaxonomyError(f"no category {code!r} in taxonomy {self.name!r}")
        return self._nodes[code]

    @property
    def roots(self) -> list[TaxonomyNode]:
        return list(self._roots)

    def all_nodes(self) -> list[TaxonomyNode]:
        return list(self._nodes.values())

    def browse(self, code: str | None = None) -> list[TaxonomyNode]:
        """The children of ``code`` (or the roots) -- one browse step."""
        if code is None:
            return self.roots
        return list(self.node(code).children)

    def search_labels(self, text: str) -> list[TaxonomyNode]:
        """Categories whose label contains ``text`` (case-insensitive)."""
        needle = text.lower().strip()
        return [n for n in self._nodes.values() if needle in n.label.lower()]

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, code: str) -> bool:
        return code in self._nodes

    # -- query expansion ---------------------------------------------------------

    def expand_query(self, text: str) -> set[str]:
        """Extra search terms for a phrase matching category labels.

        For every category whose label contains the phrase (or any single
        token of it), contribute the labels of that category and its
        descendants.  This is how a query for "refills" reaches both "ink
        refills" and "lead refills" products.
        """
        matches: list[TaxonomyNode] = []
        needle = text.lower().strip()
        if needle:
            matches.extend(self.search_labels(needle))
            for token in needle.split():
                matches.extend(self.search_labels(token))
        terms: set[str] = set()
        for node in matches:
            terms.add(node.label.lower())
            for descendant in node.descendants():
                terms.add(descendant.label.lower())
        return terms
