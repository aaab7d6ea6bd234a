"""The fragment-resident column layout (DESIGN §5f) and its lifetime.

A table's chunked column layout is built by the first columnar scan,
compacted once by the second, kept by the :class:`~repro.core.records.Table`
until its ``rows`` are rebound, and handed to every later scan by
reference.  Covered here: sharing across statements and replicas from the
second use on, invalidation by writes, isolation from governed
(masked / row-filtered) scans, equivalence with the transpose-per-scan
loop it replaced, and that no finished statement -- successful, failed or
cancelled -- leaves batches or tables behind for the cycle collector.
The column sort orders kept beside the layout share its lifetime: built by
the second filter probe of a column, never for a table fetched for one
statement, reused by replicas, gone with the layout after a write.  And a
filtered chunk stays the layout plus a selection: the site plane copies
no row on scan_agg's statements.
"""

import gc
import random
from operator import is_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DataType, Field, Schema, Table
from repro.core.errors import PartialFailureError
from repro.core.records import ColumnOrders
from repro.federation import (
    FederatedEngine,
    FederationCatalog,
    WorkloadManager,
    columnar,
    physical,
)
from repro.federation.columnar import ColumnBatch, table_chunks
from repro.federation.governance import GovernanceRegistry
from repro.federation.physical import ExecContext, PartialGroup, SiteBatch
from repro.federation.workload import QueryState
from repro.sim import EventLoop, SimClock
from repro.workloads import generate_hotels

PARTS = Schema(
    "parts",
    (
        Field("sku", DataType.STRING),
        Field("owner", DataType.STRING),
        Field("qty", DataType.INTEGER),
    ),
)
ROWS = [(f"p{i:03d}", f"user{i}@example.com", i) for i in range(60)]
SITES = ["s0", "s1", "s2"]
# Two fragments, each replicated on two sites (s0 holds both).
PLACEMENT = [["s0", "s1"], ["s0", "s2"]]
EVERYTHING = "select sku, owner, qty from parts"


def make_engine(**engine_kwargs):
    catalog = FederationCatalog(SimClock())
    for name in SITES:
        catalog.make_site(name)
    catalog.load_fragmented(Table(PARTS, ROWS), 2, PLACEMENT)
    return catalog, FederatedEngine(catalog, **engine_kwargs)


def fragment_table(catalog, index, site=None, table="parts"):
    fragment = catalog.entry(table).fragments[index]
    site = site or fragment.replica_sites()[0]
    return catalog.site(site).source(fragment.replicas[site]).fetch().table


@pytest.fixture
def scanned(monkeypatch):
    """Every ``(table, chunks)`` pair ``SiteScan`` wraps while the test runs."""
    seen = []
    inner = columnar.table_chunks

    def spy(binding, table, *args):
        chunks = inner(binding, table, *args)
        seen.append((table, chunks))
        return chunks

    monkeypatch.setattr(columnar, "table_chunks", spy)
    return seen


def reference_chunks(binding, table, batch_size):
    """The transpose-per-scan loop ``table_chunks`` used to run."""
    names = [f"{binding}.{f.name}" for f in table.schema.fields]
    chunks = []
    for start in range(0, len(table.rows), batch_size):
        slice_rows = table.rows[start : start + batch_size]
        columns = [list(column) for column in zip(*slice_rows)]
        chunks.append(ColumnBatch(names, columns, len(slice_rows)))
    return chunks


def flatten(chunks):
    return [
        (c.names, c.count, [list(col) for col in c.columns], c.to_envs())
        for c in chunks
    ]


def cells(columns):
    """Every cell of ``columns`` as ``(type, repr)``: equal and alike."""
    return [[(type(v), repr(v)) for v in column] for column in columns]


class TestSharedLayout:
    def test_two_scans_of_a_fragment_share_column_objects(self, scanned, compactions):
        _, engine = make_engine()
        statements = [EVERYTHING, EVERYTHING, "select p.qty from parts p", EVERYTHING]
        qtys = [(qty,) for _, _, qty in ROWS]
        scans = []
        for sql in statements:
            scanned.clear()
            rows = engine.query(sql).table.rows
            assert sorted(rows) == sorted(ROWS if sql == EVERYTHING else qtys)
            scans.append(sorted(scanned, key=lambda pair: id(pair[0])))
        first, second, *later = scans
        # The second use compacts each fragment's layout once; the first
        # scan's columns equal the compacted ones in value, type and repr.
        assert len(compactions) == 2
        for (table, chunks), (again, compact) in zip(first, second, strict=True):
            assert table is again
            for chunk, other in zip(chunks, compact, strict=True):
                assert not all(map(is_, chunk.columns, other.columns))
                assert cells(chunk.columns) == cells(other.columns)
        # From the second use on, every scan shares every column object.
        for scan in later:
            for (table, chunks), (again, rewrapped) in zip(second, scan, strict=True):
                assert table is again
                for chunk, other in zip(chunks, rewrapped, strict=True):
                    assert chunk is not other and chunk.columns is not other.columns
                    assert all(map(is_, chunk.columns, other.columns))
        assert [c.names for _, chunks in second for c in chunks] != [
            c.names for _, chunks in later[0] for c in chunks
        ]
        assert len(compactions) == 2

    def test_replica_on_another_site_shares_the_layout(self, scanned, compactions):
        catalog, engine = make_engine()
        engine.query(EVERYTHING)
        scanned.clear()
        engine.query(EVERYTHING)  # the second use compacts
        warm = {id(col) for _, chunks in scanned for c in chunks for col in c.columns}
        assert len(compactions) == 2
        scanned.clear()
        catalog.site("s0").up = False  # both fragments fall to s1 / s2
        result = engine.query(EVERYTHING)
        assert sorted(result.table.rows) == sorted(ROWS)
        assert "s0" not in result.report.site_work
        again = {id(col) for _, chunks in scanned for c in chunks for col in c.columns}
        assert again == warm
        assert len(compactions) == 2
        assert fragment_table(catalog, 0, "s1") is fragment_table(catalog, 0, "s0")


class TestInvalidation:
    def test_rebinding_rows_drops_the_layout(self, compactions):
        table = Table(PARTS, ROWS[:10])
        layout = table.column_layout(4)[0]
        compact = table.column_layout(4)[0]  # the second use compacts, once
        assert compact is not layout and compact == layout
        assert table.column_layout(4)[0] is compact
        assert len(compactions) == 1
        assert [count for count, _ in compact] == [4, 4, 2]
        assert table.column_layout(8)[0] is not compact  # one slot, keyed by size
        table.rows = ROWS[10:13]
        assert table.column_layout(4)[0] == [(3, tuple(zip(*ROWS[10:13])))]

    def test_fragment_write_is_visible_to_the_next_scan(self):
        catalog, engine = make_engine()
        assert engine.query("select sum(qty) from parts").table.rows == [(1770,)]
        target = fragment_table(catalog, 0)
        target.rows = [(sku, owner, 0) for sku, owner, _ in target.rows]
        catalog.notify_table_updated("parts")
        remaining = sum(qty for _, _, qty in fragment_table(catalog, 1).rows)
        assert engine.query("select sum(qty) from parts").table.rows == [(remaining,)]

    def test_repartition_is_visible_to_the_next_scan(self, scanned):
        catalog, engine = make_engine()
        before = engine.query(EVERYTHING).table
        # Held, not just their ids: a freed table's address can be reused.
        old_tables = [table for table, _ in scanned]
        scanned.clear()
        catalog.repartition("parts", 3, [["s0"], ["s1"], ["s2"]])
        after = engine.query(EVERYTHING).table
        assert sorted(after.rows) == sorted(before.rows)
        assert len(scanned) == 3
        assert not set(map(id, old_tables)) & {id(table) for table, _ in scanned}

    def test_hotel_market_writes_are_visible(self):
        market = generate_hotels(seed=3, chain_count=4, hotels_per_chain=3)
        catalog = FederationCatalog(SimClock())
        for name in SITES:
            catalog.make_site(name)
        market.register_sources(
            catalog, {chain: SITES[i % 3] for i, chain in enumerate(market.chains)}
        )
        engine = FederatedEngine(catalog)
        rng = random.Random(5)
        sql = "select hotel_id, rooms_available, corporate_rate from hotel_availability"
        for _ in range(6):
            truth = sorted(
                (h["hotel_id"], h["rooms_available"], h["corporate_rate"])
                for h in market.hotels
            )
            assert sorted(engine.query(sql).table.rows) == truth
            market.apply_random_update(rng)


# ``?`` is no literal when the plan is rewritten: the comparison is not
# pushed into the source but reaches SiteFilter on the resident table.
PROBE = "select sku from parts where qty >= ?"


def probe(engine, low, **options):
    prepared = engine.prepare(PROBE, tenant=options.get("tenant"))
    return sorted(engine.execute(prepared, (low,)).table.rows)


def skus(rows, low):
    return sorted((sku,) for sku, _, qty in rows if qty >= low)


@pytest.fixture
def sorts(monkeypatch):
    """``(column slice, its order)`` for every slice sorted while the test runs."""
    seen = []
    inner = ColumnOrders._sorted

    def spy(orders, column):
        order = inner(orders, column)
        seen.append((column, order))
        return order

    monkeypatch.setattr(ColumnOrders, "_sorted", spy)
    return seen


class TestColumnOrders:
    def test_the_second_probe_sorts_once_and_replicas_share_the_order(self, sorts):
        catalog, engine = make_engine()
        assert probe(engine, 40) == skus(ROWS, 40)
        assert not sorts  # the first probe builds nothing
        assert probe(engine, 25) == skus(ROWS, 25)
        assert len(sorts) == 2  # one chunk of qty per fragment, nothing else
        built = list(sorts)
        assert probe(engine, 10) == skus(ROWS, 10)
        catalog.site("s0").up = False  # both fragments fall to s1 / s2
        assert probe(engine, 55) == skus(ROWS, 55)
        assert sorts == built
        for index, site in enumerate(("s1", "s2")):
            table = fragment_table(catalog, index, site)
            ((_, columns),), orders = table.column_layout(columnar.DEFAULT_BATCH_SIZE)
            qty, order = built[index]
            assert columns[2] is qty and orders.of(qty) is order
            assert order == (sorted(qty), sorted(range(len(qty)), key=qty.__getitem__))

    def test_a_table_fetched_for_one_statement_never_owns_an_order(self, sorts):
        # A governed scan filters and masks into a fresh table ...
        _, engine = make_engine(governance=GovernanceRegistry(GOVERNED))
        for low in (40, 25, 40, 10):
            assert probe(engine, low, tenant="acme") == skus(ROWS, max(low, 30))
        assert not sorts
        # ... and a LiveSource admits one for a chain whose rows changed,
        # which owns no order after its statement; an untouched chain's
        # table is served again, and sorts on its second probe.
        market = generate_hotels(seed=3, chain_count=4, hotels_per_chain=3)
        catalog = FederationCatalog(SimClock())
        for name in SITES:
            catalog.make_site(name)
        market.register_sources(
            catalog, {chain: SITES[i % 3] for i, chain in enumerate(market.chains)}
        )
        engine = FederatedEngine(catalog)
        prepared = engine.prepare(
            "select hotel_id from hotel_availability where rooms_available > ?"
        )

        def run(rooms):
            truth = sorted(
                (h["hotel_id"],) for h in market.hotels if h["rooms_available"] > rooms
            )
            assert sorted(engine.execute(prepared, (rooms,)).table.rows) == truth
            return [
                fragment_table(catalog, index, table="hotel_availability")
                for index in range(4)
            ]

        tables = run(0)
        first = tables[3]
        for step, rooms in enumerate((3, 0, 5, 3, 0)):
            changed = step % 3  # chain 3 is never written
            market.hotels[3 * changed + step % 2]["rooms_available"] += 1
            sorted_before = len(sorts)
            again = run(rooms)
            fresh = again[changed]
            assert fresh is not tables[changed]
            ((_, columns),), _ = fresh.column_layout(columnar.DEFAULT_BATCH_SIZE)
            assert not any(
                column is mine for column, _ in sorts[sorted_before:] for mine in columns
            )
            assert all(
                table is old
                for index, (table, old) in enumerate(zip(again, tables))
                if index != changed
            )
            tables = again
        assert tables[3] is first
        ((_, columns),), _ = first.column_layout(columnar.DEFAULT_BATCH_SIZE)
        assert any(column is columns[1] for column, _ in sorts)  # rooms_available

    def test_writes_drop_the_orders_with_the_layout(self, sorts):
        catalog, engine = make_engine()
        for _ in range(3):
            assert probe(engine, 40) == skus(ROWS, 40)
        assert len(sorts) == 2
        target = fragment_table(catalog, 0)
        target.rows = [(sku, owner, qty + 100) for sku, owner, qty in target.rows]
        catalog.notify_table_updated("parts")
        written = target.rows + fragment_table(catalog, 1).rows
        assert probe(engine, 40) == skus(written, 40)  # cold again, and right
        assert probe(engine, 120) == skus(written, 120)
        assert len(sorts) == 3  # the rebound table alone sorts anew
        catalog.repartition("parts", 3, [["s0"], ["s1"], ["s2"]])
        for low in (40, 120, 140):
            assert probe(engine, low) == skus(written, low)
        assert len(sorts) == 6 and {len(column) for column, _ in sorts[3:]} == {20}


GOVERNED = {
    "version": 1,
    "tenants": {
        "acme": {
            "tables": {
                "parts": {
                    # Not sargable: evaluated as a residual at the scan, on
                    # the fragment's own (layout-bearing) table.
                    "row_filter": "qty + 0 >= 30",
                    "masks": {"owner": "redact"},
                }
            }
        }
    },
}


class TestGovernedScansLeaveTheLayoutAlone:
    def test_masked_then_plain_tenant_on_one_fragment(self):
        catalog, engine = make_engine(governance=GovernanceRegistry(GOVERNED))
        engine.query(EVERYTHING)  # builds the shared layout
        tables = [fragment_table(catalog, i) for i in range(2)]
        layouts = [t.column_layout(columnar.DEFAULT_BATCH_SIZE)[0] for t in tables]
        snapshots = [[(n, tuple(cols)) for n, cols in layout] for layout in layouts]

        governed = engine.query(EVERYTHING, tenant="acme")
        assert sorted(governed.table.rows) == [
            (sku, "***", qty) for sku, _, qty in ROWS if qty >= 30
        ]
        assert governed.report.rows_filtered_by_rls == 30
        plain = engine.query(EVERYTHING)
        assert sorted(plain.table.rows) == sorted(ROWS)

        for table, layout, snapshot in zip(tables, layouts, snapshots):
            assert table.column_layout(columnar.DEFAULT_BATCH_SIZE)[0] is layout
            assert [(n, tuple(cols)) for n, cols in layout] == snapshot


class TestNoGarbage:
    """With the cycle collector off, finished statements free their
    batches, contexts and result tables by reference count alone."""

    GROUPED = "select owner, count(*), sum(qty) from parts group by owner"

    def succeed_and_cancel(self, engine, manager):
        assert len(engine.query(EVERYTHING).table) == 60
        # Its batches point at the tables' column orders (built by the
        # second round), which must not point back.
        assert probe(engine, 30) == skus(ROWS, 30)
        handles = [
            manager.submit(sql) for sql in (EVERYTHING, self.GROUPED, self.GROUPED)
        ]
        assert handles[2].state is QueryState.QUEUED
        queued = manager.submit(EVERYTHING)
        assert manager.cancel(handles[0]) and manager.cancel(queued)
        manager.drain()
        assert [h.state for h in handles] == [
            QueryState.FAILED, QueryState.COMPLETED, QueryState.COMPLETED
        ]

    def fail(self, engine, manager):
        # A stored error's traceback keeps its callers' frames (f_back), as
        # any kept exception does; this frame holds no results to pin.
        with pytest.raises(PartialFailureError):
            engine.query(EVERYTHING)
        failed = manager.submit(self.GROUPED)
        manager.drain()
        with pytest.raises(PartialFailureError):
            failed.result()

    def run_statements(self):
        """Returns the world so the caller decides when the (cyclic)
        catalog and engine may die."""
        catalog, engine = make_engine()
        manager = WorkloadManager(engine, EventLoop(catalog.clock), max_in_flight=2)
        for _ in range(3):
            self.succeed_and_cancel(engine, manager)
        # Fragment 1 loses both replicas.
        catalog.site("s0").up = catalog.site("s2").up = False
        for _ in range(3):
            self.fail(engine, manager)
        return catalog, engine, manager

    def test_finished_statements_leave_no_batches_or_tables(self):
        warm = self.run_statements()  # imports, lazily built module state
        gc.collect()
        enabled, flags = gc.isenabled(), gc.get_debug()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            world = self.run_statements()
            gc.collect()
            leaked = [
                repr(obj)
                for obj in gc.garbage
                if isinstance(
                    obj, (ColumnBatch, SiteBatch, Table, ExecContext, PartialGroup)
                )
            ]
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
            if enabled:
                gc.enable()
        assert leaked == []
        assert warm and world  # alive until here: only statements could leak


VALUES = st.one_of(st.none(), st.integers(-5, 5), st.sampled_from(["x", "y"]))


class TestWarmEqualsFresh:
    @settings(max_examples=120, deadline=None)
    @given(
        width=st.integers(0, 3),
        rows=st.integers(0, 40),
        batch_size=st.integers(1, 17),
        data=st.data(),
    )
    def test_table_chunks_on_a_warm_table_matches_the_transposing_loop(
        self, width, rows, batch_size, data
    ):
        schema = Schema(
            "t", tuple(Field(f"c{i}", DataType.STRING) for i in range(width))
        )
        content = data.draw(
            st.lists(
                st.tuples(*[VALUES] * width), min_size=rows, max_size=rows
            )
        )
        warm = Table(schema, content, validate=False)
        table_chunks("other", warm, batch_size)  # someone scanned first
        fresh = Table(schema, content, validate=False)
        expected = flatten(reference_chunks("b", fresh, batch_size))
        assert flatten(table_chunks("b", warm, batch_size)) == expected
        assert flatten(table_chunks("b", fresh, batch_size)) == expected


# scan_agg's two statement shapes (benchmarks/e2e/workloads.py), over a
# parts table with the benchmark's columns.
SCAN_PARTS = Schema(
    "parts",
    (
        Field("sku", DataType.STRING),
        Field("supplier", DataType.STRING),
        Field("price", DataType.FLOAT),
        Field("qty", DataType.INTEGER),
    ),
)
SCAN_GROUPED = (
    "select supplier, count(*) as n, sum(price) as total from parts "
    "where price >= ? or supplier = ? group by supplier order by supplier"
)
SCAN_RANGE = (
    "select count(*) as n, sum(qty) as q from parts "
    "where qty < ? and price between ? and ?"
)


class TestTheSitePlaneCopiesNoRow:
    """A filtered chunk stays its resident columns plus a selection: no
    site operator gathers a row (``ColumnBatch.take``) or joins chunks
    (``columnar.concat``) on scan_agg's statements, and the partial
    aggregate builds a group's representative env only for the groups the
    result reads -- one ``env_at`` per result group, not per site group."""

    CHUNK_ROWS = 8

    def make_engine(self):
        rng = random.Random(5)
        rows = [
            (
                f"part-{i:03d}",
                f"sup-{rng.randrange(6):02d}",
                round(rng.uniform(0.0, 1000.0), 2),
                rng.randrange(50),
            )
            for i in range(160)
        ]
        catalog = FederationCatalog(SimClock())
        for name in SITES:
            catalog.make_site(name)
        catalog.load_fragmented(
            Table(SCAN_PARTS, rows), 4, [["s0", "s1"], ["s1"], ["s2"], ["s2", "s0"]]
        )
        return rows, FederatedEngine(catalog)

    @pytest.mark.parametrize(
        "sql, params",
        [(SCAN_GROUPED, (600.0, "sup-03")), (SCAN_RANGE, (30, 100.0, 700.0))],
        ids=["grouped", "range"],
    )
    def test_no_take_no_concat_and_one_env_per_result_group(
        self, monkeypatch, sql, params
    ):
        rows, engine = self.make_engine()
        copies, envs, site = [], [], []
        take, concat, env_at = ColumnBatch.take, columnar.concat, ColumnBatch.env_at
        open_site = physical.SiteOperator.open

        def site_open(operator, ctx):
            site.append(operator)
            try:
                open_site(operator, ctx)
            finally:
                site.pop()

        def taking(batch, selection):
            if site:
                copies.append(("take", type(site[-1]).__name__))
            return take(batch, selection)

        def concatenating(batches):
            if site:
                copies.append(("concat", type(site[-1]).__name__))
            return concat(batches)

        def env(batch, i):
            envs.append(i)
            return env_at(batch, i)

        inner = columnar.table_chunks
        monkeypatch.setattr(
            columnar,
            "table_chunks",
            lambda binding, table: inner(binding, table, self.CHUNK_ROWS),
        )
        monkeypatch.setattr(physical.SiteOperator, "open", site_open)
        monkeypatch.setattr(ColumnBatch, "take", taking)
        monkeypatch.setattr(columnar, "concat", concatenating)
        monkeypatch.setattr(ColumnBatch, "env_at", env)
        prepared = engine.prepare(sql)
        for _ in range(3):  # cold, marked, ordered: the probe path included
            del envs[:]
            result = engine.execute(prepared, params)
            operators = {stats.name for stats in result.report.operators.walk()}
            assert {"SiteFilter", "PartialAggregate", "FinalAggregate"} <= operators
            assert copies == []
            assert len(envs) == len(result.table.rows)
        # Site partial sums add in another order than one loop: totals to
        # the last bits are the reference engine's business.
        expected = expected_scan_agg(sql, params, rows)
        assert [row[:-1] for row in result.table.rows] == [r[:-1] for r in expected]
        assert [row[-1] for row in result.table.rows] == pytest.approx(
            [r[-1] for r in expected]
        )
        # Every fragment spans several chunks, and the grouped statement
        # merges more site groups than it returns.
        catalog = engine.catalog
        assert min(len(fragment_table(catalog, i)) for i in range(4)) > self.CHUNK_ROWS
        if sql == SCAN_GROUPED:
            assert result.report.rows_shipped > len(result.table.rows)


def expected_scan_agg(sql, params, rows):
    """The two statements' answers, by a loop over the rows in order."""
    if sql == SCAN_RANGE:
        top, low, high = params
        kept = [qty for _, _, price, qty in rows if qty < top and low <= price <= high]
        return [(len(kept), sum(kept))]
    floor, supplier = params
    groups: dict = {}
    for _, name, price, _ in rows:
        if price >= floor or name == supplier:
            groups.setdefault(name, []).append(price)
    return [(name, len(prices), sum(prices)) for name, prices in sorted(groups.items())]
