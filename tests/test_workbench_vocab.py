"""Tests for synonym tables, taxonomies and the semi-automatic matchers."""

import pytest

from repro.core import DataType, Field, Schema
from repro.core.errors import TaxonomyError
from repro.workbench import (
    MatchSession,
    SchemaMatcher,
    SynonymTable,
    Taxonomy,
    TaxonomyMatcher,
)


class TestSynonymTable:
    def make(self):
        table = SynonymTable()
        table.add_group(["black ink", "india ink", "fountain pen ink, black"])
        table.add_group(["bolt", "hex bolt"], canonical="bolt")
        return table

    def test_expand_returns_whole_group(self):
        table = self.make()
        assert "india ink" in table.expand("black ink")
        assert table.expand("BLACK  INK") == table.expand("black ink")

    def test_expand_unknown_term_returns_itself(self):
        assert self.make().expand("stapler") == {"stapler"}

    def test_canonical(self):
        table = self.make()
        assert table.canonical("india ink") == "black ink"
        assert table.canonical("hex bolt") == "bolt"
        assert table.canonical("unknown") == "unknown"

    def test_are_synonyms(self):
        table = self.make()
        assert table.are_synonyms("india ink", "black ink")
        assert not table.are_synonyms("india ink", "bolt")
        assert table.are_synonyms("same", "same")

    def test_merge_groups(self):
        table = SynonymTable()
        table.add_group(["a", "b"])
        table.add_group(["c", "d"])
        table.add_group(["b", "c"])  # merges both groups
        assert table.are_synonyms("a", "d")
        assert len(table) == 1

    def test_explicit_canonical_wins_on_merge(self):
        table = SynonymTable()
        table.add_group(["a", "b"])
        table.add_group(["b", "c"], canonical="c")
        assert table.canonical("a") == "c"

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            SynonymTable().add_group(["  "])

    def test_contains(self):
        table = self.make()
        assert "India Ink" in table
        assert "stapler" not in table


def build_master():
    master = Taxonomy("unspsc")
    master.add_category("44", "Office supplies")
    master.add_category("44.10", "Ink and lead refills", "44")
    master.add_category("44.10.1", "India ink", "44.10")
    master.add_category("44.10.2", "Pencil lead", "44.10")
    master.add_category("27", "Tools")
    master.add_category("27.11", "Power drills", "27")
    return master


class TestTaxonomy:
    def test_hierarchy_navigation(self):
        master = build_master()
        node = master.node("44.10.1")
        assert [a.code for a in node.ancestors()] == ["44.10", "44"]
        assert node.path == ["Office supplies", "Ink and lead refills", "India ink"]

    def test_descendants(self):
        master = build_master()
        codes = {d.code for d in master.node("44").descendants()}
        assert codes == {"44.10", "44.10.1", "44.10.2"}

    def test_browse(self):
        master = build_master()
        assert {n.code for n in master.browse()} == {"44", "27"}
        assert [n.code for n in master.browse("44.10")] == ["44.10.1", "44.10.2"]

    def test_search_labels(self):
        master = build_master()
        assert {n.code for n in master.search_labels("ink")} == {"44.10", "44.10.1"}

    def test_duplicate_code_rejected(self):
        master = build_master()
        with pytest.raises(TaxonomyError):
            master.add_category("44", "Again")

    def test_unknown_parent_rejected(self):
        with pytest.raises(TaxonomyError):
            build_master().add_category("x", "X", parent_code="ghost")

    def test_expand_query_reaches_descendants(self):
        master = build_master()
        terms = master.expand_query("refills")
        assert "india ink" in terms
        assert "pencil lead" in terms

    def test_expand_query_no_match(self):
        assert build_master().expand_query("zeppelin") == set()


def build_source():
    source = Taxonomy("acme")
    source.add_category("S1", "Office Supplies")
    source.add_category("S2", "Ink & Lead Refills", "S1")
    source.add_category("S3", "Black India Ink", "S2")
    source.add_category("S9", "Safety Goggles")
    return source


class TestTaxonomyMatcher:
    def test_suggestions_find_obvious_matches(self):
        matcher = TaxonomyMatcher(build_master())
        suggestions = {s.source_code: s for s in matcher.suggest(build_source())}
        assert suggestions["S1"].best == "44"
        assert suggestions["S1"].status == "auto"
        assert suggestions["S3"].best == "44.10.1"

    def test_unmatched_category_flagged(self):
        matcher = TaxonomyMatcher(build_master())
        suggestions = {s.source_code: s for s in matcher.suggest(build_source())}
        assert suggestions["S9"].status == "unmatched"

    def test_instance_overlap_signal(self):
        master = build_master()
        matcher = TaxonomyMatcher(master, name_weight=0.0, structure_weight=0.0,
                                  instance_weight=1.0, review_threshold=0.1)
        source = Taxonomy("s")
        source.add_category("X", "Completely Different Label")
        suggestions = matcher.suggest(
            source,
            source_items={"X": {"black ink 30ml", "india ink"}},
            master_items={"44.10.1": {"black ink 30ml", "india ink"},
                          "27.11": {"hammer drill"}},
        )
        assert suggestions[0].best == "44.10.1"

    def test_conflict_when_candidates_too_close(self):
        master = Taxonomy("m")
        master.add_category("A", "ink supplies")
        master.add_category("B", "ink supplies ltd")
        matcher = TaxonomyMatcher(master, conflict_margin=0.2, review_threshold=0.2)
        source = Taxonomy("s")
        source.add_category("X", "ink supplies")
        suggestion = matcher.suggest(source)[0]
        assert suggestion.status == "conflict"


class TestMatchSession:
    def make_session(self):
        matcher = TaxonomyMatcher(build_master())
        suggestions = matcher.suggest(build_source())
        return MatchSession(build_master(), suggestions)

    def test_autos_applied_without_human(self):
        session = self.make_session()
        assert "S1" in session.mapping()
        assert session.human_decisions == 0

    def test_pending_sorted_hardest_first(self):
        session = self.make_session()
        pending = session.pending()
        assert pending[0].source_code == "S9"  # unmatched: lowest score

    def test_accept_and_complete(self):
        session = self.make_session()
        for suggestion in list(session.pending()):
            if suggestion.best is not None:
                session.accept(suggestion.source_code)
            else:
                session.reject(suggestion.source_code)
        assert not session.pending()
        assert session.human_decisions == len(
            [s for s in session.suggestions.values() if s.status != "auto"]
        )

    def test_edit_overrides(self):
        session = self.make_session()
        session.edit("S9", "27.11")
        assert session.mapping()["S9"] == "27.11"

    def test_edit_validates_master_code(self):
        session = self.make_session()
        with pytest.raises(TaxonomyError):
            session.edit("S9", "ghost")

    def test_accept_without_candidate_rejected(self):
        session = self.make_session()
        with pytest.raises(TaxonomyError):
            session.accept("S9")

    def test_unknown_source_code_rejected(self):
        session = self.make_session()
        with pytest.raises(TaxonomyError):
            session.accept("ghost")

    def test_reject_leaves_mapping_empty(self):
        session = self.make_session()
        session.reject("S9")
        assert "S9" not in session.mapping()
        assert session.human_decisions == 1


class TestSchemaMatcher:
    def test_matches_similar_field_names(self):
        source = Schema("s", (Field("part_number", DataType.STRING),
                              Field("unit_price", DataType.FLOAT),
                              Field("weird_blob", DataType.STRING)))
        target = Schema("t", (Field("part_num", DataType.STRING),
                              Field("price", DataType.FLOAT),
                              Field("qty", DataType.INTEGER)))
        suggestions = {s.source_code: s for s in SchemaMatcher().suggest(source, target)}
        assert suggestions["part_number"].best == "part_num"
        assert suggestions["unit_price"].best == "price"

    def test_type_agreement_breaks_name_ties(self):
        source = Schema("s", (Field("amount", DataType.FLOAT),))
        target = Schema("t", (Field("amounts", DataType.STRING),
                              Field("amount_x", DataType.FLOAT)))
        suggestion = SchemaMatcher().suggest(source, target)[0]
        assert suggestion.best == "amount_x"
