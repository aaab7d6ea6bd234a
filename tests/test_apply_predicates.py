"""Source pushdown runs the column kernels; the scalar rule is its referee.

``connect.source.apply_predicates`` keeps the rows of a table through
``core.records.column_scan`` / ``column_probe`` over the table's resident
column layout.  ``Predicate.matches`` -- the scalar rule the cache and the
zone maps reason with -- says what it must answer: same rows, same order,
same error with the same first offending value.  Every property runs three
times on one table (cold, marked, ordered): a column's sort order is built
on its second probe, so the bisect path only answers the third.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.connect.source import LiveSource, Predicate, StaticSource, apply_predicates
from repro.core import DataType, Field, Schema, Table
from repro.core.errors import QueryError, SchemaError
from repro.core.records import DEFAULT_BATCH_SIZE
from repro.core.values import COMPARISONS, Money
from repro.federation import AgoricOptimizer, FederatedEngine, FederationCatalog
from repro.federation.cache import SemanticCache
from repro.sim import SimClock
from repro.sql.planner import scans_in
from repro.workloads.hotels import AVAILABILITY_SCHEMA, generate_hotels

# -- the property ------------------------------------------------------------------

NAN = float("nan")
# One pool per column "kind"; a table draws every column from one pool, so
# a column is NULL-bearing ints-with-floats, strings, bools, money, or a mix.
POOLS = {
    "numbers": st.sampled_from([None, 0, 1, 2, 5, -3, 1.0, 2.5, -0.5, 7]),
    "ordered_numbers": st.sampled_from([0, 1, 2, 5, -3, 1.0, 2.5, 7]),
    "nan": st.sampled_from([None, 1.0, 2.5, NAN, -1.0]),
    "strings": st.sampled_from([None, "", "a", "ab", "B", "ink", "Ink jet"]),
    "ordered_strings": st.sampled_from(["", "a", "ab", "B", "ink"]),
    "bools": st.sampled_from([None, True, False, 1, 0]),
    "money": st.sampled_from(
        [None, Money(1.0, "USD"), Money(2.0, "USD"), Money(2.0, "EUR")]
    ),
    "mixed": st.sampled_from([None, 1, "a", 2.5, True, Money(1.0, "USD")]),
}
LITERALS = st.sampled_from(
    [None, 0, 1, 2, 2.5, -1, True, NAN, "", "a", "in", "B", Money(2.0, "USD")]
)
SCHEMA = Schema("t", tuple(Field(name, DataType.STRING) for name in "abc"))
SIZES = st.sampled_from(
    [0, 1, 7, DEFAULT_BATCH_SIZE, DEFAULT_BATCH_SIZE + 1, 2 * DEFAULT_BATCH_SIZE + 452]
)


@st.composite
def tables(draw):
    """A three-column table: a short random pattern of rows, repeated to
    the drawn size (so large tables stay cheap to generate)."""
    pools = [POOLS[draw(st.sampled_from(sorted(POOLS)))] for _ in "abc"]
    pattern = draw(st.lists(st.tuples(*pools), min_size=1, max_size=12))
    size = draw(SIZES)
    rows = [pattern[i % len(pattern)] for i in range(size)]
    return Table(SCHEMA, rows, validate=False)


PREDICATES = st.lists(
    st.builds(Predicate, st.sampled_from("abc"), st.sampled_from(sorted(COMPARISONS)), LITERALS),
    max_size=3,
)  # fmt: skip


def scalar_answer(table, predicates):
    """``("rows", kept)`` or ``("error", type, text)`` by the scalar rule."""
    names = table.schema.field_names
    try:
        return "rows", [
            row
            for row in table.rows
            if all(p.matches(dict(zip(names, row))) for p in predicates)
        ]
    except Exception as error:  # Money against a number: AttributeError
        return "error", type(error), str(error)


def same_values(left, right):
    """Row lists equal value by value, NaN equal to NaN, 1 apart from True."""
    if len(left) != len(right):
        return False
    for a, b in zip(left, right):
        for x, y in zip(a, b):
            if type(x) is not type(y):
                return False
            if x != y and not (isinstance(x, float) and math.isnan(x) and math.isnan(y)):
                return False
    return True


class TestColumnPushdownEqualsTheScalarRule:
    @settings(max_examples=300, deadline=None)
    @given(tables(), PREDICATES)
    def test_rows_order_errors_and_identity(self, table, predicates):
        expected = scalar_answer(table, predicates)
        for _ in ("cold", "marked", "ordered"):
            try:
                result = apply_predicates(table, predicates)
            except Exception as error:
                assert expected == ("error", type(error), str(error))
                continue
            assert expected[0] == "rows"
            assert same_values(result.rows, expected[1])
            assert result.schema is table.schema
            if len(expected[1]) == len(table.rows):
                assert result is table  # layout and orders stay with it

    def test_the_third_pass_is_answered_from_a_column_order(self):
        table = Table(SCHEMA, [(i % 50, str(i), None) for i in range(3000)], False)
        predicates = [Predicate("a", ">=", 10), Predicate("a", "<", 12)]
        answers = [apply_predicates(table, predicates).rows for _ in range(3)]
        assert answers[0] == answers[1] == answers[2]
        assert answers[0] == [row for row in table.rows if 10 <= row[0] < 12]
        chunks, orders = table.column_layout()
        assert len(chunks) == 3
        for _, columns in chunks:
            values, rows = orders.of(columns[0])  # built by the second pass
            assert values == sorted(columns[0])

    def test_a_filtered_result_is_a_fresh_table_and_the_source_keeps_its_rows(self):
        table = Table(SCHEMA, [(i, "x", None) for i in range(10)], validate=False)
        kept = apply_predicates(table, [Predicate("a", "<", 3)])
        assert kept is not table and kept.rows == table.rows[:3]
        assert len(table) == 10


# -- satellite: an unknown pushdown column is an error, not NULL ---------------------

ITEMS = Schema("items", (Field("k", DataType.INTEGER), Field("v", DataType.STRING)))
ITEM_ROWS = [(1, "a"), (2, "x"), (3, None)]


def static_source():
    return StaticSource("static-items", Table(ITEMS, ITEM_ROWS))


def live_source():
    rows = [dict(zip(("k", "v"), row)) for row in ITEM_ROWS]
    return LiveSource("live-items", ITEMS, lambda: rows)


def cache_residual():
    """A cached whole-table region serving a narrower request."""
    cache = SemanticCache(SimClock())
    cache.store("items", [], Table(ITEMS, ITEM_ROWS))

    class Residual:
        def fetch(self, predicates):
            return cache.lookup("items", predicates)

    return Residual()


SOURCES = [static_source, live_source, cache_residual]


@pytest.mark.parametrize("make", SOURCES, ids=lambda make: make.__name__)
@pytest.mark.parametrize(
    "predicate",
    [Predicate("nosuch", "!=", 1), Predicate("nosuch", "=", None), Predicate("nosuch", "=", 1)],
    ids=repr,
)  # fmt: skip
def test_a_pushed_predicate_on_an_unknown_column_is_refused(make, predicate):
    """``row.get`` read it as NULL: ``!= 1`` and ``= NULL`` kept every row."""
    with pytest.raises(QueryError, match="nosuch.*'items'"):
        make().fetch([Predicate("k", ">", 0), predicate])


# -- satellite: an incomparable pair reads the same from every entry point -----------

INCOMPARABLE = "cannot apply v < 5 to value 'a': "


def items_engine():
    """``items`` lives on s1 alone (no replica to fail over to)."""
    catalog = FederationCatalog(SimClock())
    for i in range(3):
        catalog.make_site(f"s{i}")
    catalog.load_fragmented(Table(ITEMS, ITEM_ROWS), 1, [["s1"]])
    return FederatedEngine(catalog, optimizer=AgoricOptimizer(catalog))


SQL = "select k from items where v < 5"


def through_a_source_fetch():
    static_source().fetch([Predicate("v", "<", 5)])


def through_a_view_scan():
    engine = items_engine()
    engine.create_materialized_view("items_copy", "items", "s0")
    engine.catalog.site("s1").up = False
    engine.query(SQL)


def through_the_covering_fallback():
    """The host dies *after* planning: the fragment scan fails over to the view."""
    engine = items_engine()
    physical = engine.prepare(SQL).physical
    (scan,) = scans_in(physical.logical)
    assert physical.assignments[scan.binding].kind == "fragments"
    assert [p.column for p in scan.pushdown] == ["v"]
    engine.create_materialized_view("items_copy", "items", "s0")
    engine.catalog.site("s1").up = False
    physical.coordinator = "s0"
    engine.executor.execute(physical)


def through_a_cache_residual():
    cache_residual().fetch([Predicate("v", "<", 5)])


ENTRY_POINTS = [
    through_a_source_fetch,
    through_a_view_scan,
    through_the_covering_fallback,
    through_a_cache_residual,
]


@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=lambda entry: entry.__name__)
def test_an_incomparable_pushdown_is_worded_by_the_scalar_rule(entry):
    """``'a'`` is the first offending value in row order; the kernel's
    ``TypeError`` never leaves ``apply_predicates``."""
    with pytest.raises(QueryError) as caught:
        entry()
    assert str(caught.value).startswith(INCOMPARABLE)
    assert isinstance(caught.value.__cause__, TypeError)


# -- satellite: a live source re-serves the table whose values did not change -----


def live_market(chains):
    market = generate_hotels(seed=1, chain_count=chains, hotels_per_chain=2)
    catalog = FederationCatalog(SimClock())
    market.register_sources(
        catalog, {chain: catalog.make_site(chain).name for chain in market.chains}
    )
    return market, catalog


def live_sources(catalog):
    return [
        catalog.site(site).source(source)
        for fragment in catalog.entry("hotel_availability").fragments
        for site, source in fragment.replicas.items()
    ]


def test_unchanged_rows_are_served_the_admitted_table():
    market, catalog = live_market(1)
    (source,) = live_sources(catalog)
    admitted = source.fetch().table
    assert source.fetch().table is admitted
    kept = source.fetch([Predicate("rooms_available", ">", -1)]).table
    assert kept is admitted  # every row passes: the table itself
    market.hotels[0]["rooms_available"] += 1
    assert source.fetch().table is not admitted


@pytest.mark.parametrize("old, new", [(200, 200.0), (0.0, -0.0)], ids=repr)
def test_an_equal_but_distinct_value_is_admitted_anew(old, new):
    """``==`` would re-serve ``200`` for ``200.0`` and ``0.0`` for ``-0.0``."""
    market, catalog = live_market(2)
    engine = FederatedEngine(catalog)
    sql = "select corporate_rate from hotel_availability where hotel_id = 'chain-00-h0'"
    answers = []
    for value in (old, new):
        market.hotels[0]["corporate_rate"] = value
        ((rate,),) = engine.query(sql).table.rows
        answers.append((type(rate), math.copysign(1.0, rate)))
    assert answers == [(type(v), math.copysign(1.0, v)) for v in (old, new)]


def test_an_invalid_value_is_refused_on_every_fetch_until_fixed():
    market, catalog = live_market(1)
    (source,) = live_sources(catalog)
    admitted = source.fetch().table
    hotel = market.hotels[0]
    rooms, hotel["rooms_available"] = hotel["rooms_available"], "many"
    for _ in range(2):
        with pytest.raises(SchemaError, match="'many'"):
            source.fetch()
    hotel["rooms_available"] = rooms
    assert source.fetch().table is admitted
    hotel["rooms_available"] = rooms + 1
    assert source.fetch().table.rows[0][1] == rooms + 1


def test_adding_or_removing_a_row_admits_a_new_table():
    rows = [{"k": 1, "v": "a"}]
    source = LiveSource("live-items", ITEMS, lambda: rows)
    admitted = source.fetch().table
    rows.append({"k": 2, "v": "b"})
    grown = source.fetch().table
    assert grown is not admitted and grown.rows == [(1, "a"), (2, "b")]
    rows.pop()
    shrunk = source.fetch().table
    assert shrunk is not grown and shrunk.rows == admitted.rows


def test_a_fifty_fragment_capture_is_the_old_union_all_fold():
    market, catalog = live_market(50)
    cache = SemanticCache(catalog.clock)
    engine = FederatedEngine(catalog, cache=cache)
    engine.query("select hotel_id from hotel_availability where rooms_available > 0")
    tables = [
        source.fetch([Predicate("rooms_available", ">", 0)]).table
        for source in live_sources(catalog)
    ]
    rows = tables[0].rows
    for table in tables[1:]:  # the fold the capture ran before
        rows = rows + table.rows
    (stored,) = cache._entries.values()
    assert stored.table.rows == rows and stored.table.schema is AVAILABILITY_SCHEMA
    assert [part.size for part in stored.parts] == [len(t) for t in tables]
    # One fragment is passed through; an incompatible one is refused as before.
    market, catalog = live_market(1)
    cache = SemanticCache(catalog.clock)
    engine = FederatedEngine(catalog, cache=cache)
    engine.query("select hotel_id from hotel_availability")
    (stored,) = cache._entries.values()
    assert stored.table is live_sources(catalog)[0].fetch().table
    odd = Table(Schema("odd", (Field("k", DataType.STRING),)), [("x",)])
    with pytest.raises(SchemaError, match="'hotel_availability' and 'odd'"):
        tables[0].union_all(*tables[1:25], odd, *tables[25:])
