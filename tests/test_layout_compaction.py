"""The compaction of a table's resident column layout (DESIGN §5f).

From its second use at one batch size, :meth:`Table.column_layout` rebuilds
its slices once: a column of ``str`` / ``None`` holds one object per
distinct value across the table's chunks, a column of exact floats with no
NaN holds freshly packed floats, and every other column keeps the row's own
objects.  Checked here, over drawn columns of every kind: each compacted
cell is its row cell in value, type and ``repr``; the rule's columns and
only those are rebuilt; ``rows`` stay as they were; and a column order
answers the same rows before and after, also one built before the
compaction.  Then the engine-level cases: a pushdown's fresh table is
never compacted, a NaN object shared by two rows stays one group (also
across a join, whether its table ships or not), a shipped column is the
resident one's objects, and an unchanged ``LiveSource`` fetch re-serves
its compacted table.
"""

import math
from operator import is_
from types import NoneType

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DataType, Field, Schema, Table
from repro.core.records import column_probe, column_scan
from repro.core.values import Money
from repro.federation import FederatedEngine, FederationCatalog, columnar
from repro.sim import SimClock
from repro.workloads import generate_hotels


class Tag(str):
    """A ``str`` subclass: equal to its ``str``, yet not one."""


def fresh(text: str) -> str:
    """An equal string that is a new object (no interned literal)."""
    return "".join(list(text))


NAN = float("nan")
FLOATS = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, 5e-324, 2.5e-310, 1e308]),
)
WORDS = st.sampled_from(["alpha", "beta", "gamma", "delta"]).map(fresh)
KINDS = {
    "text": st.one_of(st.none(), WORDS),
    "float": FLOATS,
    "mixed": st.sampled_from([1, 1.0, True]),
    "nan": st.one_of(FLOATS, st.just(NAN), st.just(float("nan"))),
    "tag": WORDS.map(Tag),
    "money": st.builds(Money, st.integers(0, 99).map(float), st.just("USD")),
    "int": st.integers(-(2**70), 2**70),
}


def in_rule(cells) -> bool:
    """Whether compaction rebuilds a column holding ``cells``."""
    kinds = set(map(type, cells))
    if kinds <= {str, NoneType}:
        return True
    return kinds == {float} and all(v == v for v in cells)


@st.composite
def tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(KINDS)), min_size=1, max_size=4))
    count = draw(st.integers(1, 30))
    columns = []
    for kind in kinds:
        column = draw(st.lists(KINDS[kind], min_size=count, max_size=count))
        if kind == "nan":
            column[0] = NAN  # at least one NaN, and the shared object
        columns.append(column)
    fields = tuple(Field(f"c{i}", DataType.STRING) for i in range(len(kinds)))
    return kinds, Table(Schema("t", fields), list(zip(*columns)), validate=False)


def probes(cells):
    """``(op, literal, order probe)`` for a few of a column's values."""
    literals = {v for v in cells if type(v) in (int, float, str)}
    return [
        (op, lit, probe)
        for lit in sorted(literals, key=repr)[:3]
        for op in ("=", "<", ">=")
        if (probe := column_probe(op, lit)) is not None
    ]


def answers(slices, orders, found):
    """What every probe answers on each slice."""
    return [[probe(orders, column) for column in slices] for _, _, probe in found]


class TestTheCompactionRule:
    @settings(max_examples=150, deadline=None)
    @given(drawn=tables(), batch_size=st.integers(1, 9), warmed=st.integers(0, 2))
    def test_compacted_cells_are_the_row_cells(self, drawn, batch_size, warmed):
        kinds, table = drawn
        rows, snapshot = table.rows, list(table.rows)
        first, orders = table.column_layout(batch_size)
        for _ in range(warmed):  # a mark, then a built order, before compacting
            for _, columns in first:
                list(map(orders.of, columns))
        compact, carried = table.column_layout(batch_size)
        assert carried is not orders
        assert table.column_layout(batch_size) == (compact, carried)
        assert table.rows is rows and all(map(is_, rows, snapshot))
        assert [count for count, _ in compact] == [count for count, _ in first]

        for position, kind in enumerate(kinds):
            old = [columns[position] for _, columns in first]
            new = [columns[position] for _, columns in compact]
            cells = [v for column in new for v in column]
            row_cells = [row[position] for row in rows]
            assert [(type(v), repr(v)) for v in cells] == [
                (type(v), repr(v)) for v in row_cells
            ]
            assert all(a is b or a == b for a, b in zip(cells, row_cells))
            if not in_rule(row_cells):  # the row's objects, in the same slices
                assert all(map(is_, cells, row_cells)) and all(map(is_, new, old))
            elif kind == "text":  # one object per distinct value
                assert len(set(map(id, cells))) == len(set(cells))
            else:  # freshly packed floats
                assert not any(map(is_, cells, row_cells))

            # A mark carried over builds on the first ask after compacting;
            # a kept slice keeps an order built before.
            once = list(map(carried.of, new))
            assert once == (list(map(carried.of, new)) if warmed else [None] * len(new))
            if warmed == 2 and not in_rule(row_cells):
                assert all(map(is_, once, map(orders.of, old)))

            # Every order answers what the scalar rule keeps, and the old
            # object still answers for the old slices, the same rows.
            found = probes(row_cells)
            after = answers(new, carried, found)
            for _ in range(2):
                before = answers(old, orders, found)
            assert before == after
            for (op, lit, _), hits in zip(found, after):
                for column, kept in zip(new, hits):
                    if kept is not None:
                        expected = column_scan(op, lit)(column, range(len(column)))
                        assert sorted(kept) == expected

    def test_a_table_without_columns_or_rows_keeps_its_layout(self):
        for table in (Table(Schema("t", ()), [(), ()]), Table(Schema("t", ()))):
            first, _ = table.column_layout(1)
            assert table.column_layout(1)[0] is first


SITES = ["s0", "s1", "s2"]


def make_catalog():
    catalog = FederationCatalog(SimClock())
    for name in SITES:
        catalog.make_site(name)
    return catalog


def m_and_n_engine(m_rows, m_site):
    """``m(k, j)`` on ``m_site`` and 300 rows of ``n(j)`` on s1, which
    draw the coordinator there."""
    catalog = make_catalog()
    m = Schema("m", (Field("k", DataType.FLOAT), Field("j", DataType.INTEGER)))
    n = Schema("n", (Field("j", DataType.INTEGER),))
    catalog.load_fragmented(Table(m, m_rows), 1, [[m_site]])
    catalog.load_fragmented(Table(n, [(j,) for j in range(300)]), 1, [["s1"]])
    return FederatedEngine(catalog)


class TestOnTheEngine:
    def test_a_pushdowns_fresh_table_is_never_compacted(
        self, monkeypatch, compactions
    ):
        schema = Schema(
            "parts", (Field("sku", DataType.STRING), Field("qty", DataType.INTEGER))
        )
        rows = [(f"p{i:03d}", i) for i in range(60)]
        catalog = make_catalog()
        catalog.load_fragmented(Table(schema, rows), 2, [["s0"], ["s1"]])
        engine = FederatedEngine(catalog)
        scanned = []
        inner = columnar.table_chunks

        def spy(binding, table, *args):
            chunks = inner(binding, table, *args)
            scanned.append((table, chunks))  # held: no id is reused
            return chunks

        monkeypatch.setattr(columnar, "table_chunks", spy)
        for low in (40, 25, 40, 10):  # a literal: pushed into the source
            result = engine.query(f"select sku from parts where qty >= {low}")
            assert sorted(result.table.rows) == [(s,) for s, q in rows if q >= low]
        # The fragments' own tables, which every pushdown reads, compact
        # once each; the fresh tables the scans read never.
        assert len(compactions) == 2
        assert len({id(table) for table, _ in scanned}) == len(scanned) == 8
        compacted = {
            id(column)
            for chunks in compactions
            for _, columns in chunks
            for column in columns
        }
        for _, chunks in scanned:
            assert not any(id(col) in compacted for c in chunks for col in c.columns)

    def test_a_shared_nan_stays_one_group(self, compactions):
        # A NaN is a group key by identity alone: the row's one NaN object
        # twice is one group, another NaN object another group.
        nan = float("nan")
        schema = Schema("m", (Field("k", DataType.FLOAT), Field("v", DataType.INTEGER)))
        rows = [(nan, 1), (1.5, 2), (nan, 3), (2.5, 4), (float("nan"), 5)]
        catalog = make_catalog()
        catalog.load_fragmented(Table(schema, rows), 1, [["s0"]])
        engine = FederatedEngine(catalog)
        sql = "select k, count(*), sum(v) from m group by k"
        answers = [repr(engine.query(sql).table.rows) for _ in range(3)]
        assert len(compactions) == 1  # compacted, the NaN column left alone
        assert answers == ["[(1.5, 1, 2), (2.5, 1, 4), (nan, 1, 5), (nan, 2, 4)]"] * 3

    def test_nan_groups_do_not_depend_on_placement(self):
        # The same NaN probe across a join, with m shipped to the
        # coordinator and with m beside it: the wire keeps the objects.
        nan = float("nan")
        rows = [(nan, 1), (1.5, 1), (float("nan"), 1), (2.5, 1), (nan, 1)]
        sql = "select m.k, count(*) from m join n on m.j = n.j group by m.k"
        for m_site, shipped in (("s0", len(rows)), ("s1", 0)):
            result = m_and_n_engine(rows, m_site).query(sql)
            assert result.report.rows_shipped == shipped
            assert sorted(map(repr, result.table.rows)) == [
                "(1.5, 1)", "(2.5, 1)", "(nan, 1)", "(nan, 2)"
            ]  # fmt: skip

    def test_a_shipped_scaled_column_is_the_resident_one(self, monkeypatch):
        rows = [(1.0 + i * 0.25, 1) for i in range(40)]
        encodings = []
        inner = columnar.encode_batch

        def spy(batch):
            encoded = inner(batch)
            encodings.extend((c.name, c.encoding) for c in encoded.columns)
            return encoded

        monkeypatch.setattr(columnar, "encode_batch", spy)
        result = m_and_n_engine(rows, "s0").query(
            "select m.k from m join n on m.j = n.j"
        )
        assert result.report.rows_shipped == len(rows)
        assert ("m.k", "scaled") in encodings
        resident = {id(k) for k, _ in rows}  # rows holds them: no id reused
        assert len(result.table) == len(rows)
        assert all(id(k) in resident for (k,) in result.table.rows)

    def test_an_unchanged_live_source_re_serves_its_compacted_table(
        self, compactions
    ):
        market = generate_hotels(seed=3, chain_count=4, hotels_per_chain=3)
        catalog = make_catalog()
        market.register_sources(
            catalog, {chain: SITES[i % 3] for i, chain in enumerate(market.chains)}
        )
        engine = FederatedEngine(catalog)
        sql = "select hotel_id, rooms_available, corporate_rate from hotel_availability"

        def served():
            truth = sorted(
                (h["hotel_id"], h["rooms_available"], h["corporate_rate"])
                for h in market.hotels
            )
            assert sorted(engine.query(sql).table.rows) == truth
            return [
                catalog.site(site).source(f.replicas[site]).fetch().table
                for f in catalog.entry("hotel_availability").fragments
                for site in f.replica_sites()[:1]
            ]

        first = served()
        rows = [table.rows for table in first]
        for _ in range(3):
            assert all(map(is_, served(), first))
        assert all(map(is_, (table.rows for table in first), rows))
        assert len(compactions) == len(first)  # each chain's table, once
        for table in first:  # compacted: every further use shares the layout
            chunks, _ = table.column_layout(columnar.DEFAULT_BATCH_SIZE)
            assert table.column_layout(columnar.DEFAULT_BATCH_SIZE)[0] is chunks
        market.hotels[0]["rooms_available"] += 1  # one chain changes
        assert sum(map(is_, served(), first)) == len(first) - 1
