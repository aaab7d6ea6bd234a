"""Combined catalog search: exact, synonym, fuzzy and taxonomy expansion.

The paper's acceptance test (§3.2 C7): a query for "India ink" must return
the same answers as "black ink"; "drlls: crdlss" must behave like "cordless
drills"; and a taxonomy query for "refills" should surface both ink and lead
products.  :class:`CatalogSearch` composes the inverted index with pluggable
expanders to pass all three.  Expanders are duck-typed so this module does
not depend on the workbench:

* a *synonym expander* maps a term to its equivalence set
  (:class:`repro.workbench.synonyms.SynonymTable` fits);
* a *taxonomy expander* maps a phrase to extra search terms drawn from
  matching categories and their descendants
  (:meth:`repro.workbench.taxonomy.Taxonomy.expand_query` fits).
"""

from __future__ import annotations

import enum
from typing import Callable, Protocol

from repro.ir.inverted_index import InvertedIndex, SearchHit
from repro.ir.tokenize import tokenize


class SynonymExpander(Protocol):
    def expand(self, term: str) -> set[str]:
        """All terms equivalent to ``term`` (including itself)."""
        ...


TaxonomyExpander = Callable[[str], set[str]]


class SearchMode(enum.Enum):
    """How aggressively a query is expanded before scoring."""

    EXACT = "exact"
    SYNONYM = "synonym"
    FUZZY = "fuzzy"
    FULL = "full"  # synonyms + fuzzy + taxonomy


class CatalogSearch:
    """The integrator's search facade over one inverted index."""

    def __init__(
        self,
        index: InvertedIndex | None = None,
        synonyms: SynonymExpander | None = None,
        taxonomy_expander: TaxonomyExpander | None = None,
    ) -> None:
        self.index = index or InvertedIndex()
        self.synonyms = synonyms
        self.taxonomy_expander = taxonomy_expander

    # -- querying ------------------------------------------------------------

    def expand_query(self, query: str, mode: SearchMode) -> list[str]:
        """Return the term list actually scored for ``query`` in ``mode``."""
        base_terms = tokenize(query)
        if mode is SearchMode.EXACT:
            return base_terms

        terms: list[str] = []
        seen: set[str] = set()

        def push(term: str) -> None:
            term = term.lower()
            if term not in seen:
                seen.add(term)
                terms.append(term)

        for token in base_terms:
            push(token)

        if mode in (SearchMode.SYNONYM, SearchMode.FULL) and self.synonyms is not None:
            # Expand multi-word phrases first (synonym tables hold phrases
            # like "india ink"), then individual tokens.
            for phrase_term in self.synonyms.expand(query.lower()):
                for token in tokenize(phrase_term):
                    push(token)
            for token in base_terms:
                for synonym in self.synonyms.expand(token):
                    for sub_token in tokenize(synonym):
                        push(sub_token)

        recovered: list[str] = []
        if mode in (SearchMode.FUZZY, SearchMode.FULL):
            for token in base_terms:
                expansions = self.index.fuzzy_expand(token)
                for expansion in expansions:
                    push(expansion)
                # Best non-identical expansion reconstructs the intended word.
                best = next((e for e in expansions if e != token), token)
                recovered.append(best)

        if mode is SearchMode.FULL and self.synonyms is not None and recovered:
            # The fuzzy-recovered phrase may itself be a synonym-table entry
            # ("blck nk" -> "black ink" -> "india ink").
            recovered_phrase = " ".join(recovered)
            if recovered_phrase != query.lower():
                for phrase_term in self.synonyms.expand(recovered_phrase):
                    for token in tokenize(phrase_term):
                        push(token)

        if mode is SearchMode.FULL and self.taxonomy_expander is not None:
            for extra in sorted(self.taxonomy_expander(query)):
                for token in tokenize(extra):
                    push(token)

        return terms

    def search(
        self, query: str, mode: SearchMode = SearchMode.FULL, limit: int = 10
    ) -> list[SearchHit]:
        """Ranked search with the expansion level of ``mode``."""
        terms = self.expand_query(query, mode)
        return self.index.search_terms(terms, limit)
