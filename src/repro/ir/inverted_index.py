"""A tf-idf ranked inverted index with fuzzy vocabulary expansion.

This is the reproduction's stand-in for the AltaVista engine Cohera
Integrate compiled in (§4).  Besides classic ranked keyword search it keeps
an n-gram index over its own vocabulary, so a misspelled query term can be
expanded to the closest indexed terms before scoring -- the mechanism behind
"fuzzy mode" (§3.2 C7).
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Hashable

from repro.ir.fuzzy import consonant_skeleton, levenshtein_similarity, ngram_jaccard
from repro.ir.tokenize import ngrams, tokenize

# The vocabulary n-gram index's gram length (fuzzy candidate generation).
NGRAM_SIZE = 3
# A fuzzy expansion keeps at most this many terms scoring at least this much.
FUZZY_LIMIT = 3
FUZZY_MINIMUM = 0.55


@dataclass(frozen=True)
class SearchHit:
    """One ranked result."""

    doc_id: Hashable
    score: float


class InvertedIndex:
    """Documents -> postings with tf-idf ranking.

    Documents are arbitrary hashable ids mapped to text.  Scoring is
    standard lnc-ltn-ish tf-idf with cosine-style length normalization,
    which is plenty for catalog-scale text.
    """

    def __init__(self) -> None:
        self._postings: dict[str, dict[Hashable, int]] = defaultdict(dict)
        self._doc_lengths: dict[Hashable, float] = {}
        self._vocabulary_grams: dict[str, set[str]] = defaultdict(set)

    # -- maintenance ---------------------------------------------------------

    def add(self, doc_id: Hashable, text: str) -> None:
        """Index (or re-index) one document."""
        if doc_id in self._doc_lengths:
            self.remove(doc_id)
        counts = Counter(tokenize(text))
        for term, count in counts.items():
            self._postings[term][doc_id] = count
            for gram in ngrams(term, NGRAM_SIZE):
                self._vocabulary_grams[gram].add(term)
        self._doc_lengths[doc_id] = math.sqrt(
            sum((1 + math.log(c)) ** 2 for c in counts.values())
        ) or 1.0

    def remove(self, doc_id: Hashable) -> None:
        """Drop one document from the index (no-op if absent)."""
        if doc_id not in self._doc_lengths:
            return
        for term in list(self._postings):
            posting = self._postings[term]
            if doc_id in posting:
                del posting[doc_id]
                if not posting:
                    del self._postings[term]
                    for gram in ngrams(term, NGRAM_SIZE):
                        self._vocabulary_grams[gram].discard(term)
        del self._doc_lengths[doc_id]

    @property
    def vocabulary(self) -> set[str]:
        return set(self._postings)

    # -- search ------------------------------------------------------------------

    def search(self, query: str, limit: int = 10) -> list[SearchHit]:
        """Ranked keyword search over the exact query terms."""
        return self._score(tokenize(query), limit)

    def search_terms(self, terms: list[str], limit: int = 10) -> list[SearchHit]:
        """Ranked search over pre-expanded terms (synonym/fuzzy pipelines)."""
        return self._score([t.lower() for t in terms], limit)

    def fuzzy_expand(self, term: str) -> list[str]:
        """Return indexed vocabulary terms most similar to ``term``.

        Candidate generation goes through the vocabulary n-gram index (cheap),
        final ranking uses edit-distance similarity (accurate).
        """
        term = term.lower()
        # Note: even a term present in the vocabulary is still expanded --
        # catalog text itself contains misspellings, so an exact vocabulary
        # hit ("blck") does not mean the user's intent ("black") is absent.
        candidates: Counter[str] = Counter()
        for gram in ngrams(term, NGRAM_SIZE):
            for vocab_term in self._vocabulary_grams.get(gram, ()):
                candidates[vocab_term] += 1
        term_skeleton = consonant_skeleton(term)
        scored = [(term, 1.0)] if term in self._postings else []
        for vocab_term in candidates:
            if vocab_term == term:
                continue
            direct = 0.5 * levenshtein_similarity(term, vocab_term) + 0.5 * ngram_jaccard(
                term, vocab_term, NGRAM_SIZE
            )
            # Vowel-dropped abbreviations ("drlls") score poorly directly but
            # align on consonant skeletons; take the better view.
            skeleton = levenshtein_similarity(term_skeleton, consonant_skeleton(vocab_term))
            score = max(direct, 0.9 * skeleton)
            if score >= FUZZY_MINIMUM:
                scored.append((vocab_term, score))
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        return [t for t, _ in scored[:FUZZY_LIMIT]]

    def _score(self, terms: list[str], limit: int) -> list[SearchHit]:
        if not terms or not self._doc_lengths:
            return []
        scores: dict[Hashable, float] = defaultdict(float)
        total_docs = len(self._doc_lengths)
        for term, query_tf in Counter(terms).items():
            posting = self._postings.get(term)
            if not posting:
                continue
            idf = math.log(total_docs / len(posting)) + 1.0
            for doc_id, tf in posting.items():
                scores[doc_id] += query_tf * (1 + math.log(tf)) * idf
        hits = [
            SearchHit(doc_id, score / self._doc_lengths[doc_id])
            for doc_id, score in scores.items()
        ]
        hits.sort(key=lambda hit: (-hit.score, str(hit.doc_id)))
        return hits[:limit]
