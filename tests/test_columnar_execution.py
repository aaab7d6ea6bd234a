"""Columnar kernels and wire-encoding round-trips.

The vectorized data plane (``repro.federation.columnar``) replaced the
row-at-a-time operator loops.  Its answers are refereed by sqlite3
(``tests/test_against_sqlite.py``) and its accounting by the row engine it
replaced (``tests/test_reference_site.py``); here every form of a filter
kernel keeps the same rows, and every column encoding must decode to
exactly the values that went in -- types, NULLs and float signs included.
These tests state both contracts as hypothesis properties and pin the
Ship-accounting rules (cache-served, pruned and coordinator-local scans
never count as shipped) with deterministic regressions.
"""

import collections
import math
import random
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DataType, Field, Schema, Table
from repro.core.values import Money
from repro.federation import FederatedEngine, FederationCatalog, SemanticCache
from repro.federation import columnar
from repro.federation.columnar import (
    decode_batch,
    decode_column,
    encode_batch,
    encode_column,
    table_chunks,
)
from repro.sim import SimClock
from repro.sql.ast import (
    Between,
    BinaryOp,
    Column,
    InList,
    Like,
    Literal,
    UnaryOp,
    negate,
)
from repro.sql.expressions import evaluate
from tests.reference_codec import encode_column as reference_encode_column
from tests.reference_site import ReferenceSitePlanner


def build_pair(rows, fragment_count=3, site_count=4):
    """Two engines over *identical* catalogs: the product, and one whose
    site side is the row-at-a-time reference."""
    engines = []
    for reference in (False, True):
        clock = SimClock()
        catalog = FederationCatalog(clock)
        names = [catalog.make_site(f"s{i}").name for i in range(site_count)]
        schema = Schema(
            "t",
            (
                Field("k", DataType.INTEGER),
                Field("v", DataType.INTEGER),
                Field("tag", DataType.STRING),
                Field("price", DataType.FLOAT),
            ),
        )
        table = Table(schema, rows, validate=False)
        placement = [
            [names[i % site_count], names[(i + 1) % site_count]]
            for i in range(fragment_count)
        ]
        catalog.load_fragmented(table, fragment_count, placement)
        engines.append(with_site_engine(FederatedEngine(catalog), reference))
    return engines


def with_site_engine(engine, reference):
    if reference:
        engine.executor.planner = ReferenceSitePlanner(engine.catalog)
    return engine


def exact_rows(result):
    """Ordered, type-tagged row images: catches bool/int and 0.0/-0.0."""
    return [
        tuple((type(v).__name__, repr(v)) for v in row)
        for row in result.table.rows
    ]


# -- filter kernels: selections, and probe against comprehension ---------------

ONE_COLUMN = Schema("c", (Field("c", DataType.INTEGER), Field("d", DataType.STRING)))


def resident_chunk(values, probed=3):
    """One chunk over ``values`` (and a second, string column) as a scan
    hands it out, each column asked for its order ``probed`` times: three
    is what the third statement sees."""
    rows = [(value, f"d{i % 3}") for i, value in enumerate(values)]
    table = Table(ONE_COLUMN, rows, validate=False)
    (chunk,) = table_chunks("c", table, max(len(rows), 1))
    for _ in range(probed - 1):
        for column in chunk.columns:
            chunk.orders.of(column)
    return chunk


def filtered(batch, condition):
    """``filter_batch``'s rows, or the error it raised."""
    kernel = columnar.compile_predicate(condition, batch)
    assert kernel is not None
    try:
        return columnar.filter_batch(batch, condition, kernel).to_envs()
    except Exception as error:  # noqa: BLE001 -- compared between paths
        return type(error).__name__, str(error)


# Resolved, as name resolution leaves them: the chunks key them ``c.c``, ``c.d``.
C, D = Column("c", binding="c"), Column("d", binding="c")
SELECTION_PREDICATES = [
    BinaryOp(">=", C, Literal(3)),
    BinaryOp("=", Literal(4), C),
    BinaryOp("!=", C, Literal(4)),
    Between(C, Literal(2), Literal(6)),
    Between(C, Literal(2), Literal(6), negated=True),
    InList(C, (Literal(1), Literal(5), Literal(8))),
    Like(D, Literal("d1")),
    UnaryOp("is-not-null", C),
    BinaryOp("contains", D, Literal("2")),
    BinaryOp("and", BinaryOp("<", C, Literal(8)), BinaryOp(">", C, Literal(1))),
    BinaryOp("and", BinaryOp("=", D, Literal("d0")), BinaryOp("<=", C, Literal(6))),
    BinaryOp("or", BinaryOp("<", C, Literal(2)), BinaryOp("=", D, Literal("d2"))),
    BinaryOp("or", Like(D, Literal("d0")), BinaryOp(">", C, Literal(7))),
    negate(BinaryOp("<", C, Literal(5))),
    BinaryOp(
        "and",
        BinaryOp("or", BinaryOp(">", C, Literal(6)), BinaryOp("<", C, Literal(3))),
        negate(BinaryOp("=", D, Literal("d1"))),
    ),
]


class TestKernelSelections:
    """A kernel takes every row as ``None`` or spelt out, and any subset in
    any order -- ``AND`` hands its later conjuncts a slice of a column
    order -- and keeps the same rows, on a chunk with orders and without."""

    VALUES = [5, 3, 8, 1, 9, 4, 4, 7, 2, 6, 0, 5]

    @pytest.mark.parametrize("probed", [1, 3], ids=["unordered", "ordered"])
    @pytest.mark.parametrize("condition", SELECTION_PREDICATES, ids=repr)
    def test_same_rows_for_every_form_of_a_selection(self, condition, probed):
        chunk = resident_chunk(self.VALUES, probed)
        kernel = columnar.compile_predicate(condition, chunk)
        envs = chunk.to_envs()
        count = chunk.count
        shuffled = random.Random(3).sample(range(count), count)
        for sel in (None, range(count), list(range(count)), shuffled,
                    [1, 4, 5, 9, 11], [9, 1, 11, 5, 4], []):  # fmt: skip
            rows = range(count) if sel is None else sel
            expected = sorted(i for i in rows if evaluate(condition, envs[i]))
            kept = kernel(chunk, sel)
            assert sorted(kept) == expected and isinstance(kept, list)

    def test_and_drives_from_the_conjunct_keeping_the_fewest_rows(self):
        chunk = resident_chunk(self.VALUES)
        wide, narrow = BinaryOp("<", C, Literal(9)), BinaryOp("=", D, Literal("d1"))  # not row 4
        seen = []

        def spying(kernel):
            def spy(batch, sel):
                seen.append(sel)
                return kernel(batch, sel)

            spy.probe = kernel.probe
            return spy

        kernels = [
            spying(columnar.compile_predicate(part, chunk)) for part in (wide, narrow)
        ]
        kept = columnar._and_kernel(kernels)(chunk, None)
        assert sorted(kept) == [1, 7, 10]
        # Only the wide conjunct ran, over the narrow one's four rows.
        assert [sorted(sel) for sel in seen] == [[1, 4, 7, 10]]

    def test_all_rows_passing_hands_the_batch_on_and_none_gathers_narrow(self):
        chunk = resident_chunk(self.VALUES)
        everything = BinaryOp(">=", C, Literal(0))
        kernel = columnar.compile_predicate(everything, chunk)
        assert columnar.select_rows(chunk, everything, kernel) is None
        assert columnar.filter_batch(chunk, everything, kernel) is chunk
        # Selecting copies nothing; the kept rows of the narrowed chunk are
        # gathered when asked for, in those columns alone.
        some = BinaryOp(">", C, Literal(6))
        selection = columnar.select_rows(
            chunk, some, columnar.compile_predicate(some, chunk)
        )
        assert selection == [2, 4, 7]
        narrowed = chunk.project(chunk.narrowing({"c.d"}))
        kept = columnar.gather(narrowed, selection)
        assert kept.to_envs() == [{"c.d": d} for d in ("d2", "d1", "d1")]
        assert kept.orders is None and narrowed.orders is chunk.orders
        assert narrowed.to_envs(selection) == kept.to_envs()


COLUMN_KINDS = {
    "int": st.integers(min_value=-6, max_value=6),
    "float": st.sampled_from([-2.5, -0.0, 0.0, 0.5, 1.0, 3.25, math.inf, -math.inf]),
    "int/float": st.one_of(
        st.integers(min_value=-3, max_value=3),
        st.sampled_from([-1.5, 0.0, 1.0, 2.5, 9007199254740992.0]),
        st.just(2**53 + 1),
    ),
    "str": st.sampled_from(["", "a", "alpha", "alto", "b", "beta"]),
    # No order: these keep the comprehension on both sides.
    "int with NULL": st.one_of(st.none(), st.integers(min_value=-3, max_value=3)),
    "float with NaN": st.sampled_from([0.5, 1.0, math.nan]),
    "int with bool": st.one_of(st.booleans(), st.integers(min_value=-2, max_value=2)),
}
LITERALS = st.one_of(
    st.integers(min_value=-7, max_value=7),
    st.sampled_from([-2.5, -0.0, 0.5, 1.0, 9007199254740992.0, math.inf, math.nan]),
    st.booleans(),
    st.sampled_from(["", "alpha", "az", "c"]),
    st.none(),
    st.just(2**53 + 1),
    st.sampled_from([Decimal("1.5"), Money(1, "USD"), (1,)]),  # no probing these
)


class TestProbeMatchesComprehension:
    @settings(max_examples=400, deadline=None)
    @given(
        kind=st.sampled_from(sorted(COLUMN_KINDS)),
        op=st.sampled_from(["=", "!=", "<", "<=", ">", ">=", "between"]),
        flipped=st.booleans(),
        low=LITERALS,
        high=LITERALS,
        data=st.data(),
    )
    def test_on_one_chunk(self, kind, op, flipped, low, high, data):
        values = data.draw(st.lists(COLUMN_KINDS[kind], min_size=1, max_size=24))
        if op == "between":
            condition = Between(C, Literal(low), Literal(high), negated=flipped)
        elif flipped:
            condition = BinaryOp(op, Literal(low), C)
        else:
            condition = BinaryOp(op, C, Literal(low))
        ordered = resident_chunk(values)
        plain = columnar.ColumnBatch(
            ordered.names, [list(c) for c in ordered.columns]
        )
        try:
            expected = [env for env in plain.to_envs() if evaluate(condition, env)]
        except Exception as error:  # noqa: BLE001
            expected = type(error).__name__, str(error)
        assert filtered(plain, condition) == expected
        assert filtered(ordered, condition) == expected

    def test_the_ordered_side_really_probes(self):
        """Without this the property above compares the comprehension with
        itself: orderable column kinds get an order, the rest do not."""
        for kind, has_order in (("int", True), ("float", True), ("int/float", True),
                                ("str", True), ("int with NULL", False),
                                ("float with NaN", False), ("int with bool", False)):  # fmt: skip
            values = {
                "int with NULL": [1, None], "float with NaN": [0.5, math.nan],
                "int with bool": [1, True], "str": ["b", "a"], "float": [0.5, -0.0],
                "int/float": [2**53 + 1, 9007199254740992.0, 1],
            }.get(kind, [3, 1, 2])  # fmt: skip
            chunk = resident_chunk(values)
            assert (chunk.orders.of(chunk.columns[0]) is not None) == has_order, kind
        chunk = resident_chunk([3, 1, 2, 1])
        values, rows = chunk.orders.of(chunk.columns[0])
        assert (values, rows) == ([1, 1, 2, 3], [1, 3, 2, 0])  # stable
        probe = columnar.compile_predicate(BinaryOp("<=", C, Literal(2)), chunk).probe
        assert probe(chunk) == [1, 3, 2]
        for unanswerable in (None, math.nan, Decimal(1), "x"):
            kernel = columnar.compile_predicate(
                BinaryOp("<=", C, Literal(unanswerable)), chunk
            )
            assert kernel.probe is None or kernel.probe(chunk) is None


class TestFloatSumsOverAnOrderedSelection:
    """Float addition is not associative: a partial sum must add a group's
    prices in row order although the filter found the rows in value order."""

    PRICES = [1e16, 0.1, -1e16, 0.2, 0.3, 1e16, 1.5, -1e16, 0.7, 0.1, 2.5, 0.2]

    def test_group_sums_equal_the_reference_bit_for_bit(self):
        rows = [
            (i, i % 4, "ab"[i % 2], self.PRICES[i % len(self.PRICES)])
            for i in range(48)
        ]
        in_row_order = sum(r[3] for r in rows if r[2] == "a")
        in_value_order = sum(sorted(r[3] for r in rows if r[2] == "a"))
        assert in_row_order != in_value_order  # the fixture can tell
        vec, row = build_pair(rows, fragment_count=2, site_count=2)
        sql = (
            "select tag, sum(price) as s, avg(price) as a, count(*) as n from t "
            "where price >= ? or k = ? group by tag order by tag"
        )
        for run in ("cold", "marked", "ordered"):
            answers = [
                exact_rows(engine.execute(engine.prepare(sql), (-2e16, 5)))
                for engine in (vec, row)
            ]
            assert answers[0] == answers[1], run
            assert answers[0][0][1] == ("float", repr(in_row_order))


# Value pools exercising every encoder edge: NULLs, bool-vs-int identity,
# negative-zero floats, NaN, empty strings, shared-prefix identifiers.
scalar_strategy = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=True, allow_infinity=True, width=64),
    st.sampled_from(["", "a", "hotel-001", "hotel-002", "hotel-010", "täg"]),
    st.text(max_size=12),
)

column_strategy = st.lists(scalar_strategy, min_size=0, max_size=120)


def same_values(decoded, original):
    assert len(decoded) == len(original)
    for got, want in zip(decoded, original):
        assert type(got) is type(want)
        assert repr(got) == repr(want)


class TestEncodingRoundTrips:
    @settings(max_examples=150, deadline=None)
    @given(column_strategy)
    def test_any_column_round_trips(self, values):
        encoded = encode_column("c", values)
        same_values(decode_column(encoded), values)
        assert encoded.count == len(values)
        assert encoded.encoded_bytes <= encoded.raw_bytes

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.sampled_from([None, "gold", "silver", "bronze"]),
            min_size=80,
            max_size=200,
        )
    )
    def test_low_cardinality_strings_pick_dictionary(self, values):
        encoded = encode_column("chain", values)
        same_values(decode_column(encoded), values)
        assert encoded.encoding in ("dict", "rle")
        assert encoded.encoded_bytes < encoded.raw_bytes

    def test_constant_column_picks_rle(self):
        encoded = encode_column("flag", [True] * 500)
        assert encoded.encoding == "rle"
        same_values(decode_column(encoded), [True] * 500)

    def test_sorted_ints_pick_delta(self):
        values = list(range(10_000, 11_000))
        encoded = encode_column("id", values)
        assert encoded.encoding == "delta"
        same_values(decode_column(encoded), values)
        assert encoded.encoded_bytes < encoded.raw_bytes // 4

    def test_clustered_identifiers_pick_prefix(self):
        values = [f"hotel/chain-07/property-{i:05d}" for i in range(400)]
        encoded = encode_column("name", values)
        assert encoded.encoding == "prefix"
        same_values(decode_column(encoded), values)
        assert encoded.encoded_bytes < encoded.raw_bytes // 2

    def test_unhashable_values_fall_back_to_plain(self):
        values = [[1], [2], [1], None]
        encoded = encode_column("blob", values)
        assert encoded.encoding == "plain"
        assert decode_column(encoded) == values

    def test_bool_and_int_never_collapse(self):
        values = [True, 1, False, 0, True, 1] * 40
        encoded = encode_column("mixed", values)
        same_values(decode_column(encoded), values)

    def test_negative_zero_and_nan_survive(self):
        values = [0.0, -0.0, math.nan, math.nan, -0.0, 0.0] * 30
        encoded = encode_column("f", values)
        same_values(decode_column(encoded), values)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=-100, max_value=100),
                st.one_of(st.none(), st.sampled_from(["x", "y"])),
            ),
            min_size=1,
            max_size=80,
        )
    )
    def test_batch_round_trip_preserves_envs(self, rows):
        schema = Schema(
            "t", (Field("k", DataType.INTEGER), Field("tag", DataType.STRING))
        )
        table = Table(schema, rows, validate=False)
        for chunk in table_chunks("t", table, batch_size=16):
            decoded = decode_batch(encode_batch(chunk))
            assert decoded.to_envs() == chunk.to_envs()
            assert decoded.count == chunk.count


# -- the production codec against the reference codec ---------------------------
#
# Each generator takes (rng, n) and returns n values of one column shape
# the codec classifies differently.  Columns are built from a seeded
# ``random.Random`` rather than drawn value by value, so a 1024-value
# column costs hypothesis one integer.


def _ids(rng, n):
    start, stride = rng.randrange(10**5), rng.randrange(1, 40)
    return [f"part-{start + i * stride:06d}" for i in range(n)]


def _shuffled_ids(rng, n):
    values = _ids(rng, n)
    rng.shuffle(values)
    return values


def _low_cardinality_strings(rng, n):
    pool = rng.choice([3, 40, 300, 70000])
    values = [f"sup-{rng.randrange(pool):02d}" for _ in range(n)]
    return sorted(values) if rng.random() < 0.3 else values


def _non_ascii_strings(rng, n):
    pool = ["", "a", "täg", "tägx", "täglich", "日本", "日本語", "日本語版", "😀", "😀b"]
    values = [rng.choice(pool) for _ in range(n)]
    return sorted(values) if rng.random() < 0.5 else values


def _strings_with_null(rng, n):
    base = rng.choice([_ids, _low_cardinality_strings, _non_ascii_strings])
    rate = rng.choice([0.05, 0.5, 1.0])
    return [None if rng.random() < rate else v for v in base(rng, n)]


def _low_cardinality_ints(rng, n):
    values = [rng.randrange(rng.choice([2, 7, 300])) for _ in range(n)]
    return sorted(values) if rng.random() < 0.3 else values


def _high_cardinality_ints(rng, n):
    bound = rng.choice([10**6, 2**40, 2**70])
    return [rng.randrange(-bound, bound) for _ in range(n)]


def _arithmetic_ints(rng, n):
    # Steps either side of the zigzag-varint byte boundaries, and past 64 bits.
    step = rng.choice([0, 1, -1, 63, 64, -64, -65, 8191, 8192, -8192, -8193,
                       2**20, -(2**20), 2**62, -(2**69), 10**30])
    start = rng.randrange(-1000, 1000)
    return [start + i * step for i in range(n)]


def _flags(rng, n):
    pool = rng.choice([[True, False], [True, False, None], [None], [True]])
    noise = rng.choice([0.02, 0.5])
    return [rng.choice(pool) if rng.random() < noise else pool[0] for _ in range(n)]


def _numeric_mix(rng, n):
    pool = rng.choice([[1, 1.0, True], [0, 0.0, -0.0, False], [1, 2.5, None, "1"]])
    values = [rng.choice(pool) for _ in range(n)]
    return sorted(values, key=repr) if rng.random() < 0.5 else values


def _special_floats(rng, n):
    pool = [0.0, -0.0, math.nan, float("nan"), math.inf, -math.inf, 1.5, 0.1]
    pool = rng.sample(pool, rng.randrange(1, len(pool) + 1))
    values = [rng.choice(pool) for _ in range(n)]
    return sorted(values, key=repr) if rng.random() < 0.5 else values


def _decimals_scale_10(rng, n):
    return [round(rng.uniform(-50, 50), 1) for _ in range(n)]


def _decimals_scale_100(rng, n):
    bound = rng.choice([10.0, 1000.0])  # dense (repeats) or sparse (distinct)
    return [round(rng.uniform(0.0, bound), 2) for _ in range(n)]


def _unscalable_floats(rng, n):
    pool = rng.choice([None, [0.125, 1e300, 1.7e308, 5e-324, 123456789.123]])
    if pool is None:
        return [rng.random() for _ in range(n)]
    # Scalable almost everywhere: the misfit may sit anywhere in the column.
    values = _decimals_scale_100(rng, n)
    if values:
        values[rng.randrange(n)] = rng.choice(pool)
    return values


def _money(rng, n):
    pool = [Money(rng.randrange(5), rng.choice(["USD", "EUR"])) for _ in range(4)]
    pool += rng.choice([[], [None], [Decimal("1.5"), Decimal("2")], [7]])
    values = [rng.choice(pool) for _ in range(n)]
    return sorted(values, key=repr) if rng.random() < 0.5 else values


def _lists(rng, n):
    pool = rng.choice([[[1], [2]], [[1], [1, 2], None], [[1], 1, "1"]])
    values = [rng.choice(pool) for _ in range(n)]
    return sorted(values, key=repr) if rng.random() < 0.5 else values


COLUMN_SHAPES = [
    _ids, _shuffled_ids, _low_cardinality_strings, _non_ascii_strings,
    _strings_with_null, _low_cardinality_ints, _high_cardinality_ints,
    _arithmetic_ints, _flags, _numeric_mix, _special_floats,
    _decimals_scale_10, _decimals_scale_100, _unscalable_floats, _money,
    _lists,
]  # fmt: skip
COLUMN_LENGTHS = st.one_of(
    st.sampled_from([0, 1, 2, 255, 256, 257, 1024]), st.integers(0, 120)
)


class TestCodecMatchesReference:
    """The vectorised codec is the reference codec, field for field."""

    @settings(max_examples=2000, deadline=None)
    @given(
        st.sampled_from(COLUMN_SHAPES),
        COLUMN_LENGTHS,
        st.integers(0, 2**32),
        st.sampled_from([list, tuple]),
    )
    def test_same_encoded_column_as_the_reference(self, shape, n, seed, box):
        values = shape(random.Random(seed), n)
        assert len(values) == n
        want = reference_encode_column("c", list(values))
        # Resident scan columns are tuples, selections of them are lists.
        got = encode_column("c", box(values))
        assert (got.name, got.encoding, got.count) == (
            want.name,
            want.encoding,
            want.count,
        )
        assert (got.encoded_bytes, got.raw_bytes) == (
            want.encoded_bytes,
            want.raw_bytes,
        )
        # repr, not ==: it tells 0.0 from -0.0 and equates NaN with NaN.
        assert type(got.payload) is type(want.payload)
        assert repr(got.payload) == repr(want.payload)
        same_values(decode_column(got), values)

    def test_every_encoding_is_reached(self):
        """The shapes above exercise each candidate, so the property test
        compares winners of every kind (and their losers' early exits)."""
        rng = random.Random(14)
        reached = collections.Counter(
            encode_column("c", shape(rng, n)).encoding
            for shape in COLUMN_SHAPES
            for n in (3, 40, 257)
            for _ in range(6)
        )
        assert set(reached) == {
            "plain", "dict", "rle", "delta", "bits", "scaled", "prefix"
        }  # fmt: skip


def single_table_engine(rows, site_count, reference=False, cache=False):
    clock = SimClock()
    catalog = FederationCatalog(clock)
    names = [catalog.make_site(f"s{i}").name for i in range(site_count)]
    schema = Schema(
        "t", (Field("k", DataType.INTEGER), Field("tag", DataType.STRING))
    )
    table = Table(schema, rows, validate=False)
    fragment_count = min(3, max(1, site_count))
    placement = [[names[i % site_count]] for i in range(fragment_count)]
    catalog.load_fragmented(table, fragment_count, placement)
    return with_site_engine(
        FederatedEngine(catalog, cache=SemanticCache(clock) if cache else None),
        reference,
    )


ROWS = [(i, f"tag-{i % 5}") for i in range(60)]


class TestShipAccounting:
    """rows_shipped/bytes_shipped count only real cross-site transfers."""

    def test_multi_site_query_ships_bytes(self):
        engine = single_table_engine(ROWS, site_count=3)
        result = engine.query("select k, tag from t", advance_clock=False)
        assert result.report.rows_shipped > 0
        assert result.report.bytes_shipped > 0

    def test_single_site_ships_nothing(self):
        engine = single_table_engine(ROWS, site_count=1)
        result = engine.query("select k, tag from t", advance_clock=False)
        assert len(result.table) == len(ROWS)
        assert result.report.rows_shipped == 0
        assert result.report.bytes_shipped == 0

    def test_cache_served_scan_ships_nothing(self):
        engine = single_table_engine(ROWS, site_count=3, cache=True)
        engine.query("select k, tag from t where k >= 0", advance_clock=False)
        hit = engine.query(
            "select k, tag from t where k >= 10", advance_clock=False
        )
        assert hit.plan.assignments["t"].kind == "cache"
        assert hit.report.rows_shipped == 0
        assert hit.report.bytes_shipped == 0
        assert len(hit.table) == 50

    def test_fully_pruned_scan_ships_nothing(self):
        engine = single_table_engine(ROWS, site_count=3)
        result = engine.query(
            "select k from t where k > 10000", advance_clock=False
        )
        assignment = result.plan.assignments["t"]
        assert assignment.pruned_fragments == assignment.total_fragments
        assert len(result.table) == 0
        assert result.report.rows_shipped == 0
        assert result.report.bytes_shipped == 0
        assert result.report.rows_fetched == 0

    def test_row_engine_counts_same_rows_but_prices_bytes_only_when_columnar(
        self,
    ):
        vec = single_table_engine(ROWS, site_count=3)
        row = single_table_engine(ROWS, site_count=3, reference=True)
        vec_result = vec.query("select k, tag from t", advance_clock=False)
        row_result = row.query("select k, tag from t", advance_clock=False)
        assert vec_result.report.rows_shipped == row_result.report.rows_shipped
        assert vec_result.report.bytes_shipped > 0
        assert row_result.report.bytes_shipped == 0

    def test_encoding_beats_naive_rows_on_wire(self):
        """Encoded shipment must land under the naive per-row serialization
        it replaces (dict/RLE on the low-cardinality tag column)."""
        engine = single_table_engine(ROWS, site_count=3)
        result = engine.query("select k, tag from t", advance_clock=False)
        ship = next(
            (
                stats
                for stats in result.report.operators.walk()
                if stats.name == "Ship"
            ),
            None,
        )
        assert ship is not None
        assert ship.raw_bytes > 0
        assert ship.encoded_bytes < ship.raw_bytes
        assert result.report.bytes_shipped == ship.encoded_bytes

    def test_explain_analyze_reports_batches_and_bytes(self):
        engine = single_table_engine(ROWS, site_count=3)
        result = engine.query(
            "select k, tag from t where k < 40", advance_clock=False
        )
        rendered = engine.render_analyze(result)
        assert "bytes shipped:" in rendered
        assert "batches=" in rendered
        assert "bytes=" in rendered


# -- golden wire accounting -----------------------------------------------------
#
# The byte model is deterministic, so its outputs on a fixed federation are
# pinned to the numbers the reference codec produced (commit b4bf28b).  The
# determinism CI job double-runs one commit and cannot see the model drift
# between commits; these cases can.  A deliberate change to an encoding's
# size, the candidate order or the tie rule must update them (and
# BENCH_E3.json's hotel_wire block) in the same change.

GOLDEN_JOIN_TOP = (
    "select p.sku, p.price, s.region from parts p "
    "join suppliers s on p.supplier = s.supplier "
    "where p.price >= 700.0 order by p.price desc, p.sku limit 100"
)
GOLDEN_JOIN_GROUPED = (
    "select s.region, count(*) as n, sum(p.price) as total from parts p "
    "join suppliers s on p.supplier = s.supplier "
    "where p.price >= 700.0 group by s.region"
)
# Per shipped column: how many batches chose each encoding, then the
# column's encoded and raw bytes summed over those batches.
GOLDEN_SUPPLIER = ({"dict": 1, "prefix": 3}, 377, 720)
GOLDEN_PRICE = ({"scaled": 4}, 308, 720)
GOLDEN_WIRE = [
    pytest.param(
        GOLDEN_JOIN_TOP,
        {
            "rows": 100,
            "rows_shipped": 88,
            "bytes_shipped": 1109,
            "response_seconds": 0.12205110899999998,
            "ships": [(1109, 2600), (0, 0)],
            "columns": {
                "p.sku": ({"prefix": 4}, 424, 1160),
                "p.supplier": GOLDEN_SUPPLIER,
                "p.price": GOLDEN_PRICE,
            },
        },
        id="join_top",
    ),
    # The aggregation is pushed below the join: the parts stage ships each
    # fragment's batch of groups by p.supplier, sized as records
    # (partial_wire_bytes), so no column goes through encode_batch.
    pytest.param(
        GOLDEN_JOIN_GROUPED,
        {
            "rows": 5,
            "rows_shipped": 38,
            "bytes_shipped": 1368,
            "response_seconds": 0.10634999999999997,
            "ships": [(1368, 1368), (0, 0)],
            "columns": {},
        },
        id="join_grouped",
    ),
]


def golden_engine():
    """600 parts x 40 suppliers, 4 sites, 8 fragments at RF=2; every value
    comes from arithmetic on the row number, no generator state."""
    catalog = FederationCatalog(SimClock())
    sites = [catalog.make_site(f"s{i}").name for i in range(4)]
    parts = Schema(
        "parts",
        (
            Field("sku", DataType.STRING),
            Field("supplier", DataType.STRING),
            Field("price", DataType.FLOAT),
            Field("qty", DataType.INTEGER),
        ),
    )
    suppliers = Schema(
        "suppliers",
        (
            Field("supplier", DataType.STRING),
            Field("region", DataType.STRING),
            Field("tier", DataType.INTEGER),
        ),
    )
    part_rows = [
        (
            f"part-{i:06d}",
            f"sup-{(i * 7 // 3) % 40:02d}",
            (i * 7919 % 100000) / 100,
            i % 50,
        )
        for i in range(600)
    ]
    supplier_rows = [(f"sup-{i:02d}", f"r{i % 5}", i % 7) for i in range(40)]
    catalog.load_fragmented(
        Table(parts, part_rows),
        8,
        [[sites[i % 4], sites[(i + 1) % 4]] for i in range(8)],
    )
    catalog.load_fragmented(
        Table(suppliers, supplier_rows), 1, [[sites[0], sites[1]]]
    )
    return FederatedEngine(catalog)


# The coordinator's accounting is defined by rows consumed, and the batch
# operators must reproduce it to the byte: per operator rows in / out, the
# modeled response and the EXPLAIN ANALYZE text of both join_ship shapes,
# and of LIMIT over an unsorted join and over a residual filter (streaming
# shapes that stop pulling mid-input), as the row-at-a-time coordinator
# produced them (commit 3e6200c).  join_top's parts scan has carried a
# SiteTopK since the per-fragment top-k: no fragment here holds more than
# 100 qualifying rows, so it passes every batch on unranked and uncharged,
# and every other figure is the one that commit produced.  join_grouped's
# aggregation is pushed below its join (the eager rule of
# rewrite.AggregateSplitting), so its figures are the eager plan's: the
# reference coordinator's Regroup reproduces them.
GOLDEN_LIMIT_OVER_JOIN = (
    "select p.sku, s.region from parts p "
    "join suppliers s on p.supplier = s.supplier limit 5"
)
GOLDEN_LIMIT_OVER_FILTER = (
    "select p.sku, s.region from parts p "
    "join suppliers s on p.supplier = s.supplier "
    "where p.price + s.tier >= 700.0 limit 5"
)
GOLDEN_ACCOUNTING = [
    pytest.param(
        GOLDEN_JOIN_TOP,
        0.12205110899999998,
        [
            ("Limit", 100, 100),
            ("Project", 100, 100),
            ("Sort", 177, 100),
            ("HashJoin", 217, 177),
            ("Ship", 177, 177),
            ("SiteTopK", 177, 177),
            ("SiteProject", 177, 177),
            ("SiteScan", 0, 177),
            ("Ship", 40, 40),
            ("SiteProject", 40, 40),
            ("SiteScan", 0, 40),
        ],
        """\
optimizer: agoric  coordinator: s0  price: 0.1021
response: 0.122051s  rows fetched: 217  shipped: 88  returned: 100  bytes shipped: 1109
pruned fragments 0/9
Limit  @ s0  rows_in=100 rows_out=100  seconds=0.000000  100
  Project  @ s0  rows_in=100 rows_out=100  seconds=0.005000  sku, price, region
    Sort  @ s0  rows_in=177 rows_out=100  seconds=0.008850  p.price desc, p.sku
      HashJoin  @ s0  rows_in=217 rows_out=177  seconds=0.010850  (p.supplier = s.supplier)
        Ship  @ s0  rows_in=177 rows_out=177  seconds=0.089131  batches=8  bytes=1109/2600 (2.34x)  encode=0.000002 decode=0.000001  from s1, s2
          SiteTopK  @ s0,s1,s2  rows_in=177 rows_out=177  seconds=0.000000  batches=8  top 100 by p.price desc
            SiteProject  @ s0,s1,s2  rows_in=177 rows_out=177  seconds=0.008850  batches=8  keep(price, sku, supplier)
              SiteScan  @ s0,s1,s2  rows_in=0 rows_out=177  seconds=0.088850  batches=8  parts as p: fragments [f0@s0, f1@s1, f2@s2, f3@s0, f4@s0, f5@s1, f6@s2, f7@s0] pushdown(price >= 700.0)
        Ship  @ s0  rows_in=40 rows_out=40  seconds=0.002000  batches=1  coordinator-local
          SiteProject  @ s0  rows_in=40 rows_out=40  seconds=0.002000  batches=1  keep(region, supplier)
            SiteScan  @ s0  rows_in=0 rows_out=40  seconds=0.012000  batches=1  suppliers as s: fragments [f0@s0]
""",
        id="join_top",
    ),
    pytest.param(
        GOLDEN_JOIN_GROUPED,
        0.10634999999999997,
        [
            ("FinalAggregate", 40, 5),
            ("HashJoin", 80, 40),
            ("MergePartials", 74, 40),
            ("Ship", 74, 74),
            ("PartialAggregate", 177, 74),
            ("SiteProject", 177, 177),
            ("SiteScan", 0, 177),
            ("Ship", 40, 40),
            ("SiteProject", 40, 40),
            ("SiteScan", 0, 40),
        ],
        """\
optimizer: agoric  coordinator: s0  price: 0.1021
response: 0.106350s  rows fetched: 217  shipped: 38  returned: 5  bytes shipped: 1368
pruned fragments 0/9
FinalAggregate  @ s0  rows_in=40 rows_out=5  seconds=0.002000  region, n, total
  HashJoin  @ s0  rows_in=80 rows_out=40  seconds=0.004000  (p.supplier = s.supplier)
    MergePartials  @ s0  rows_in=74 rows_out=40  seconds=0.003700  p.supplier
      Ship  @ s0  rows_in=74 rows_out=74  seconds=0.084042  bytes=1368/1368 (1.00x)  from s1, s2
        PartialAggregate  @ s0,s1,s2  rows_in=177 rows_out=74  seconds=0.008850  count(*), sum(p.price)
          SiteProject  @ s0,s1,s2  rows_in=177 rows_out=177  seconds=0.008850  batches=8  keep(price, supplier)
            SiteScan  @ s0,s1,s2  rows_in=0 rows_out=177  seconds=0.088850  batches=8  parts as p: fragments [f0@s0, f1@s1, f2@s2, f3@s0, f4@s0, f5@s1, f6@s2, f7@s0] pushdown(price >= 700.0)
    Ship  @ s0  rows_in=40 rows_out=40  seconds=0.002000  batches=1  coordinator-local
      SiteProject  @ s0  rows_in=40 rows_out=40  seconds=0.002000  batches=1  keep(region, supplier)
        SiteScan  @ s0  rows_in=0 rows_out=40  seconds=0.012000  batches=1  suppliers as s: fragments [f0@s0]
""",
        id="join_grouped",
    ),
    pytest.param(
        GOLDEN_LIMIT_OVER_JOIN,
        0.142102008,
        [
            ("Limit", 5, 5),
            ("Project", 5, 5),
            ("HashJoin", 45, 5),
            ("Ship", 600, 5),
            ("SiteProject", 600, 600),
            ("SiteScan", 0, 600),
            ("Ship", 40, 40),
            ("SiteProject", 40, 40),
            ("SiteScan", 0, 40),
        ],
        """\
optimizer: agoric  coordinator: s0  price: 0.1266
response: 0.142102s  rows fetched: 640  shipped: 300  returned: 5  bytes shipped: 2008
pruned fragments 0/9
Limit  @ s0  rows_in=5 rows_out=5  seconds=0.000000  5
  Project  @ s0  rows_in=5 rows_out=5  seconds=0.000250  sku, region
    HashJoin  @ s0  rows_in=45 rows_out=5  seconds=0.002250  (p.supplier = s.supplier)
      Ship  @ s0  rows_in=600 rows_out=5  seconds=0.110508  batches=8  bytes=2008/6332 (3.15x)  encode=0.000004 decode=0.000002  from s1, s2
        SiteProject  @ s0,s1,s2  rows_in=600 rows_out=600  seconds=0.030000  batches=8  keep(sku, supplier)
          SiteScan  @ s0,s1,s2  rows_in=0 rows_out=600  seconds=0.110000  batches=8  parts as p: fragments [f0@s0, f1@s1, f2@s2, f3@s0, f4@s0, f5@s1, f6@s2, f7@s0]
      Ship  @ s0  rows_in=40 rows_out=40  seconds=0.002000  batches=1  coordinator-local
        SiteProject  @ s0  rows_in=40 rows_out=40  seconds=0.002000  batches=1  keep(region, supplier)
          SiteScan  @ s0  rows_in=0 rows_out=40  seconds=0.012000  batches=1  suppliers as s: fragments [f0@s0]
""",
        id="limit_over_join",
    ),
    pytest.param(
        GOLDEN_LIMIT_OVER_FILTER,
        0.141352952,
        [
            ("Limit", 5, 5),
            ("Project", 5, 5),
            ("Filter", 15, 5),
            ("HashJoin", 55, 15),
            ("Ship", 600, 15),
            ("SiteProject", 600, 600),
            ("SiteScan", 0, 600),
            ("Ship", 40, 40),
            ("SiteScan", 0, 40),
        ],
        """\
optimizer: agoric  coordinator: s0  price: 0.1266
response: 0.141353s  rows fetched: 640  shipped: 300  returned: 5  bytes shipped: 2952
pruned fragments 0/9
Limit  @ s0  rows_in=5 rows_out=5  seconds=0.000000  5
  Project  @ s0  rows_in=5 rows_out=5  seconds=0.000250  sku, region
    Filter  @ s0  rows_in=15 rows_out=5  seconds=0.000750  ((p.price + s.tier) >= 700.0)
      HashJoin  @ s0  rows_in=55 rows_out=15  seconds=0.002750  (p.supplier = s.supplier)
        Ship  @ s0  rows_in=600 rows_out=15  seconds=0.110747  batches=8  bytes=2952/8748 (2.96x)  encode=0.000006 decode=0.000003  from s1, s2
          SiteProject  @ s0,s1,s2  rows_in=600 rows_out=600  seconds=0.030000  batches=8  keep(price, sku, supplier)
            SiteScan  @ s0,s1,s2  rows_in=0 rows_out=600  seconds=0.110000  batches=8  parts as p: fragments [f0@s0, f1@s1, f2@s2, f3@s0, f4@s0, f5@s1, f6@s2, f7@s0]
        Ship  @ s0  rows_in=40 rows_out=40  seconds=0.002000  batches=1  coordinator-local
          SiteScan  @ s0  rows_in=0 rows_out=40  seconds=0.012000  batches=1  suppliers as s: fragments [f0@s0]
""",
        id="limit_over_filter",
    ),
]


class TestGoldenWireAccounting:
    @pytest.mark.parametrize("sql, golden", GOLDEN_WIRE)
    def test_join_ship_wire_numbers_are_pinned(self, sql, golden, monkeypatch):
        shipped = collections.defaultdict(
            lambda: [collections.Counter(), 0, 0]
        )

        def recording_encode_batch(batch, encode=columnar.encode_batch):
            encoded = encode(batch)
            for column in encoded.columns:
                tally = shipped[column.name]
                tally[0][column.encoding] += 1
                tally[1] += column.encoded_bytes
                tally[2] += column.raw_bytes
            return encoded

        monkeypatch.setattr(columnar, "encode_batch", recording_encode_batch)
        result = golden_engine().query(sql)
        report = result.report
        ships = [
            (stats.encoded_bytes, stats.raw_bytes)
            for stats in report.operators.walk()
            if stats.name == "Ship"
        ]
        assert {
            "rows": len(result.table),
            "rows_shipped": report.rows_shipped,
            "bytes_shipped": report.bytes_shipped,
            "response_seconds": report.response_seconds,
            "ships": ships,
            "columns": {
                name: (dict(encodings), encoded, raw)
                for name, (encodings, encoded, raw) in shipped.items()
            },
        } == golden

    def test_no_payload_is_built(self, monkeypatch):
        built = []
        monkeypatch.setattr(
            columnar, "_build_payload", lambda *args: built.append(args)
        )
        engine = golden_engine()
        for param in GOLDEN_WIRE:
            assert engine.query(param.values[0]).report.bytes_shipped > 0
        assert built == []

    @pytest.mark.parametrize(
        "sql, response_seconds, operators, explain", GOLDEN_ACCOUNTING
    )
    def test_coordinator_accounting_is_pinned(
        self, sql, response_seconds, operators, explain
    ):
        report = golden_engine().query(sql).report
        assert report.response_seconds == response_seconds
        assert [
            (stats.name, stats.rows_in, stats.rows_out)
            for stats in report.operators.walk()
        ] == operators
        assert golden_engine().explain(sql, analyze=True) + "\n" == explain
