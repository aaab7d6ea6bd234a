"""Tests for the IR substrate: tokenizing, fuzzy matching, index, search."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ir import (
    CatalogSearch,
    InvertedIndex,
    SearchMode,
    combined_similarity,
    levenshtein,
    levenshtein_similarity,
    ngram_jaccard,
    ngrams,
    tokenize,
)


class TestTokenize:
    def test_lowercase_and_split(self):
        assert tokenize("Black India-Ink, 30ml!") == ["black", "india", "ink", "30ml"]

    def test_empty(self):
        assert tokenize("") == []
        assert tokenize("!!!") == []

    def test_ngrams_padded(self):
        grams = ngrams("ink")
        assert "$in" in grams
        assert "nk$" in grams

    def test_ngrams_short_term(self):
        assert ngrams("a") == {"$a$"}
        assert ngrams("") == set()


class TestLevenshtein:
    @pytest.mark.parametrize(
        "a,b,expected",
        [("", "", 0), ("abc", "abc", 0), ("abc", "abd", 1), ("", "xyz", 3),
         ("kitten", "sitting", 3), ("drlls", "drills", 1)],
    )
    def test_known_distances(self, a, b, expected):
        assert levenshtein(a, b) == expected

    @given(st.text(max_size=20), st.text(max_size=20))
    def test_symmetry(self, a, b):
        assert levenshtein(a, b) == levenshtein(b, a)

    @given(st.text(max_size=15), st.text(max_size=15), st.text(max_size=15))
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)

    @given(st.text(max_size=20))
    def test_identity(self, a):
        assert levenshtein(a, a) == 0

    def test_similarity_bounds(self):
        assert levenshtein_similarity("abc", "abc") == 1.0
        assert levenshtein_similarity("", "") == 1.0
        assert levenshtein_similarity("abc", "xyz") == 0.0


class TestNgramJaccard:
    def test_identical(self):
        assert ngram_jaccard("drill", "drill") == 1.0

    def test_disjoint(self):
        assert ngram_jaccard("aaaa", "zzzz") == 0.0

    def test_empty_cases(self):
        assert ngram_jaccard("", "") == 1.0
        assert ngram_jaccard("abc", "") == 0.0

    @given(st.text(max_size=20), st.text(max_size=20))
    def test_bounded(self, a, b):
        assert 0.0 <= ngram_jaccard(a, b) <= 1.0


class TestCombinedSimilarity:
    def test_word_order_is_free(self):
        assert combined_similarity("ink, black", "black ink") == pytest.approx(1.0)

    def test_paper_typo_example(self):
        # "drlls: crdlss" should look like "cordless drills"
        assert combined_similarity("drlls: crdlss", "cordless drills") > 0.6
        assert combined_similarity("drlls: crdlss", "steel beams") < 0.3



def build_index():
    index = InvertedIndex()
    index.add("p1", "black india ink 30ml bottle")
    index.add("p2", "blue ink cartridge")
    index.add("p3", "cordless drill 18v")
    index.add("p4", "corded drill press")
    index.add("p5", "mechanical pencil lead refills")
    return index


class TestInvertedIndex:
    def test_exact_search_ranks_matching_docs(self):
        index = build_index()
        hits = index.search("ink")
        assert {h.doc_id for h in hits} == {"p1", "p2"}

    def test_multi_term_query_accumulates(self):
        index = build_index()
        hits = index.search("black ink")
        assert hits[0].doc_id == "p1"

    def test_unknown_term_no_hits(self):
        assert build_index().search("zeppelin") == []

    def test_empty_query(self):
        assert build_index().search("") == []

    def test_reindex_replaces(self):
        index = build_index()
        index.add("p1", "stapler")
        assert index.search("ink") and all(h.doc_id != "p1" for h in index.search("ink"))
        assert index.search("stapler")[0].doc_id == "p1"

    def test_remove(self):
        index = build_index()
        index.remove("p2")
        assert {h.doc_id for h in index.search("ink")} == {"p1"}
        assert len(index._doc_lengths) == 4
        index.remove("ghost")  # no-op

    def test_fuzzy_expand_finds_typo_targets(self):
        index = build_index()
        assert "drill" in index.fuzzy_expand("drlls")
        assert "cordless" in index.fuzzy_expand("crdlss")

    def test_fuzzy_expand_exact_term_ranked_first(self):
        expanded = build_index().fuzzy_expand("ink")
        assert expanded[0] == "ink"

    def test_fuzzy_expand_respects_minimum(self):
        assert build_index().fuzzy_expand("zzzzqqq") == []

    def test_idf_prefers_rarer_terms(self):
        index = InvertedIndex()
        index.add("a", "widget common common common")
        index.add("b", "common thing")
        index.add("c", "common stuff")
        hits = index.search("widget common")
        assert hits[0].doc_id == "a"


class FakeSynonyms:
    def __init__(self, groups):
        self.groups = groups

    def expand(self, term):
        for group in self.groups:
            if term in group:
                return set(group)
        return {term}


class TestCatalogSearch:
    def make(self):
        search = CatalogSearch(
            build_index(),
            synonyms=FakeSynonyms([{"india ink", "black ink"}]),
            taxonomy_expander=lambda q: {"lead refills", "ink"} if "refill" in q else set(),
        )
        return search

    def test_exact_mode_misses_synonym(self):
        search = self.make()
        hits = search.search("india ink", mode=SearchMode.EXACT)
        assert {h.doc_id for h in hits} == {"p1", "p2"}  # matches "ink"+"india"

    def test_synonym_mode_equates_india_and_black_ink(self):
        search = self.make()
        india = {h.doc_id for h in search.search("india ink", mode=SearchMode.SYNONYM)}
        black = {h.doc_id for h in search.search("black ink", mode=SearchMode.SYNONYM)}
        assert india == black

    def test_fuzzy_mode_handles_typos(self):
        search = self.make()
        hits = search.search("drlls: crdlss", mode=SearchMode.FUZZY)
        assert hits and hits[0].doc_id in ("p3", "p4")

    def test_exact_mode_misses_typos(self):
        search = self.make()
        assert search.search("drlls: crdlss", mode=SearchMode.EXACT) == []

    def test_full_mode_uses_taxonomy(self):
        search = self.make()
        hits = search.search("refill", mode=SearchMode.FULL)
        assert "p5" in {h.doc_id for h in hits}

    def test_expand_query_terms_deduplicated(self):
        search = self.make()
        terms = search.expand_query("ink ink", SearchMode.FULL)
        assert terms.count("ink") == 1

    def test_add_document_via_facade(self):
        search = self.make()
        search.index.add("p9", "fountain pen ink, black")
        hits = search.search("black ink", mode=SearchMode.SYNONYM)
        assert "p9" in {h.doc_id for h in hits}
