"""Property-based tests of workbench and taxonomy invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DataType, Field, Schema, Table
from repro.workbench import (
    PricingRule,
    Recipient,
    SynonymTable,
    Syndicator,
    Taxonomy,
)

identifier = st.text(alphabet="abcdefgh", min_size=1, max_size=6)


class TestSynonymTableProperties:
    @given(st.lists(st.lists(identifier, min_size=1, max_size=4), max_size=6))
    def test_expansion_is_an_equivalence_class(self, groups):
        table = SynonymTable()
        for group in groups:
            table.add_group(group)
        for group in groups:
            for term in group:
                expansion = table.expand(term)
                # Reflexive, and every member expands to the same set.
                assert term in expansion
                for other in expansion:
                    assert table.expand(other) == expansion

    @given(st.lists(st.lists(identifier, min_size=1, max_size=4), max_size=6))
    def test_canonical_is_idempotent_and_in_group(self, groups):
        table = SynonymTable()
        for group in groups:
            table.add_group(group)
        for group in groups:
            for term in group:
                canonical = table.canonical(term)
                assert table.canonical(canonical) == canonical
                assert table.are_synonyms(term, canonical)


@st.composite
def taxonomies(draw):
    taxonomy = Taxonomy("t")
    count = draw(st.integers(min_value=1, max_value=12))
    codes = []
    for i in range(count):
        parent = draw(st.sampled_from(codes)) if codes and draw(st.booleans()) else None
        code = f"c{i}"
        taxonomy.add_category(code, f"label {i}", parent)
        codes.append(code)
    return taxonomy


class TestTaxonomyProperties:
    @settings(max_examples=50)
    @given(taxonomies())
    def test_descendants_are_acyclic_and_consistent(self, taxonomy):
        for node in taxonomy.all_nodes():
            descendants = list(node.descendants())
            assert node not in descendants
            for descendant in descendants:
                assert node in list(descendant.ancestors())

    @settings(max_examples=30)
    @given(taxonomies())
    def test_path_starts_at_a_root(self, taxonomy):
        roots = {r.label for r in taxonomy.roots}
        for node in taxonomy.all_nodes():
            assert node.path[0] in roots
            assert node.path[-1] == node.label


def catalog_table(prices):
    schema = Schema(
        "catalog",
        (Field("sku", DataType.STRING), Field("price", DataType.FLOAT),
         Field("qty", DataType.INTEGER)),
    )
    rows = [(f"A-{i}", p, 1) for i, p in enumerate(prices)]
    return Table(schema, rows, validate=False)


class TestSyndicationProperties:
    @settings(max_examples=50)
    @given(
        st.lists(st.floats(min_value=0.01, max_value=1e5), min_size=1, max_size=20),
        st.floats(min_value=0.0, max_value=90.0),
    )
    def test_discounts_never_raise_prices(self, prices, percent):
        syndicator = Syndicator(
            pricing_rules=[PricingRule.tier_discount("preferred", percent)]
        )
        base = syndicator.syndicate(catalog_table(prices), Recipient("a"))
        discounted = syndicator.syndicate(
            catalog_table(prices), Recipient("b", tier="preferred")
        )
        for low, high in zip(discounted.table.column("price"),
                             base.table.column("price")):
            assert low <= high + 1e-9

    @settings(max_examples=30)
    @given(st.lists(st.floats(min_value=0.01, max_value=1e5), min_size=1, max_size=20))
    def test_syndication_never_changes_row_count(self, prices):
        syndicator = Syndicator()
        for fmt in ("rows", "csv", "xml"):
            result = syndicator.syndicate(
                catalog_table(prices), Recipient("r", output_format=fmt)
            )
            assert len(result.table) == len(prices)
