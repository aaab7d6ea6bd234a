"""The columnar site engine against the row-at-a-time one it replaced.

``tests/reference_site.py`` keeps the env-looping ``SiteScan`` /
``SiteFilter`` / ``SiteProject`` / ``PartialAggregate`` and the per-row
``Ship`` as the oracle.  Statements run through both, on two identically
built federations, and must agree on the rows *in order* (values and
their types), on ``rows_fetched`` / ``rows_shipped``, on every operator's
placement, ``rows_in`` / ``rows_out`` / ``detail``, on the modeled seconds
of every operator but ``Ship``, and on the rows each site processed -- or
fail with the same error.

Every comparison runs its statement three times on one pair of engines:
a filter builds a column's sort order only the second time it probes the
column (DESIGN §5f), so the passes are cold (no order), marked (orders
being built as their columns are probed again) and ordered (every
comparison of an orderable column with a literal answered by bisect).

What legitimately differs is the wire: the reference prices rows, the
product encodes columns and prices bytes, charging encode work to the
shipping site and decode work to the coordinator.  So ``Ship`` seconds,
``bytes_shipped`` and ``batches=`` are not compared, and
``report.site_work`` is compared exactly only where nothing ships (one
site); with three sites the per-site processed-row counters stand in.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DataType, Field, Schema, Table
from repro.core.records import ColumnOrders
from repro.federation import FederatedEngine, FederationCatalog, columnar, site_ops
from repro.federation.governance import GovernanceRegistry
from repro.sim import SimClock
from tests.reference_site import ReferenceSitePlanner

T = Schema(
    "t",
    (
        Field("k", DataType.INTEGER),
        Field("v", DataType.INTEGER),
        Field("tag", DataType.STRING),
        Field("price", DataType.FLOAT),
    ),
)
FRAGMENTS = 3


def build_engine(rows, sites, reference, replicas=1, governance=None):
    catalog = FederationCatalog(SimClock())
    names = [catalog.make_site(f"s{i}").name for i in range(sites)]
    placement = [
        [names[(i + r) % sites] for r in range(replicas)] for i in range(FRAGMENTS)
    ]
    table = Table(T, rows, validate=False)
    catalog.load_fragmented(table, FRAGMENTS, placement)
    engine = FederatedEngine(catalog, governance=governance)
    if reference:
        engine.executor.planner = ReferenceSitePlanner(catalog)
    return engine


def observed(engine, result):
    report = result.report
    operators = list(report.operators.walk())
    seen = {
        "columns": result.table.schema.field_names,
        # repr: 1, 1.0 and True are different answers, as are 0.0 and -0.0
        "rows": repr(result.table.rows),
        "rows_fetched": report.rows_fetched,
        "rows_shipped": report.rows_shipped,
        "rows_filtered_by_rls": report.rows_filtered_by_rls,
        "failovers": (report.failovers, report.failover_attempts),
        "operators": [
            (stats.name, stats.site, stats.rows_in, stats.rows_out, stats.detail)
            for stats in operators
        ],
        "seconds": [
            (stats.name, stats.seconds) for stats in operators if stats.name != "Ship"
        ],
        "rows_processed": {
            site.name: site.rows_processed for site in engine.catalog.sites.values()
        },
    }
    if len(engine.catalog.sites) == 1:
        seen["site_work"] = report.site_work
        seen["response_seconds"] = report.response_seconds
    return seen


def outcome(engine, sql, params=None, **options):
    """Everything comparable about running ``sql`` -- prepared and executed
    with ``params`` when given -- or the error it raised."""
    try:
        if params is None:
            result = engine.query(sql, **options)
        else:
            result = engine.execute(engine.prepare(sql), params, **options)
    except Exception as error:  # noqa: BLE001 -- both sides must raise alike
        return type(error).__name__, str(error)
    return observed(engine, result)


PASSES = ("cold", "marked", "ordered")


def assert_same(rows, sql, sites, params=None, manifest=None, **options):
    """Three executions on one product / reference engine pair.  Backlogs
    carry over, so from the second on queue delays may differ (the
    product's encode work sits in the shipping sites' backlogs): there
    everything but the operators' seconds is compared.  Returns what the
    product's last execution showed."""
    engines = [
        build_engine(
            rows,
            sites,
            reference,
            governance=None if manifest is None else GovernanceRegistry(manifest),
        )
        for reference in (False, True)
    ]
    for run in PASSES:
        product, reference = (
            outcome(engine, sql, params, **options) for engine in engines
        )
        if run != "cold" and isinstance(product, dict) and isinstance(reference, dict):
            del product["seconds"], reference["seconds"]
        assert product == reference, run
    return product


TAGS = st.sampled_from(["alpha", "alto", "beta", "b"])
PRICES = st.sampled_from(
    [0.0, -0.0, 0.1, 0.2, 0.3, 1.5, -2.25, 49.99, 1e16, 9007199254740992.0]
)


def rows_of(v, tag, price):
    return st.lists(
        st.tuples(st.integers(min_value=-20, max_value=20), v, tag, price),
        max_size=60,
    )


# Whether a column has a sort order to probe is decided per chunk by what
# is in it, so beside the mix of everything there are tables whose columns
# are all orderable, and ones a single kind of value keeps unordered: a
# NULL, a NaN, a bool among ints, nothing but NULLs.  ``2**53 + 1`` sits
# beside the float it rounds to; ``k`` repeats, also across chunks.
ROWS = st.one_of(
    rows_of(
        st.one_of(st.none(), st.integers(min_value=-50, max_value=50)),
        st.one_of(st.none(), TAGS),
        st.one_of(st.none(), PRICES),
    ),
    rows_of(st.integers(min_value=-50, max_value=50), TAGS, PRICES),
    rows_of(
        st.one_of(st.booleans(), st.integers(min_value=-3, max_value=3)),
        st.none(),
        st.one_of(
            PRICES,
            st.sampled_from(
                [float("nan"), float("inf"), float("-inf"), 2**53 + 1, 7]
            ),
        ),
    ),
)
SITES = st.sampled_from([1, 3])  # coordinator-local, shipped

# Sargable conjuncts are pushed into the scan; the rest reach SiteFilter,
# which compiles a selection-vector kernel for them or, when one does not
# compile (arithmetic, functions, negative literals), runs evaluate() over
# each chunk's envs.  The reachability test below counts both kinds.
FILTERS = [
    "select k, v from t where v > 0",
    "select k, v, tag, price from t where v >= 10 and k < 5",
    "select k from t where tag = 'alpha' or v < -10",
    "select k, tag from t where not (v > 0)",
    "select k from t where tag != 'beta' and price <= 50",
    "select k, v from t where k in (0, 3, -7)",
    "select k from t where tag not in ('alpha', 'b')",
    "select k, v from t where v between -5 and 5",
    "select k, tag from t where tag like 'al%'",
    "select k from t where tag not like '%a' order by k limit 9",
    "select k, price from t where price > 1.5 or price < -1.5",
    "select k from t where v = k",
    "select k, v from t where v = price or tag = 'b'",  # NULL = NULL: unknown
    "select k, v from t where v != k order by k, v limit 12",
    "select k from t where tag is null or v is not null",
    "select k, v from t where v + 1 > k",
    "select k from t where upper(tag) = 'ALPHA'",
    "select k, tag from t where v * 2 > k or tag = 'b'",
    "select k from t where v > 0 and price + k > 1",
    "select k from t where tag > v",  # str vs int: both raise, or neither
    # Not sargable, so they reach SiteFilter on the resident fragment:
    "select k, v from t where k between 0 and 5",
    "select k from t where k >= 3 or k < 1",
    "select k, price from t where price between 10 and 1",  # empty, no error
    "select k, tag from t where tag >= 'alto' or price <= 0.2",
    "select k from t where not (k between 0 and 20) or v = 1",
]
# ``?`` is no literal when the plan is rewritten, so these comparisons are
# not pushed into the source either: the shapes a prepared statement (and
# the scan_agg benchmark) hands SiteFilter.
PARAMETRISED = [
    ("select k, v from t where k >= ?", (0,)),
    ("select k from t where ? < k", (2,)),
    ("select k, tag from t where k = ? or tag = ?", (3, "beta")),
    ("select k, v from t where k between ? and ?", (-1, 2)),
    ("select k from t where k < ? and price between ? and ?", (5, 0.1, 2.0)),
    # The second conjunct keeps fewer rows and drives; the first still counts.
    ("select k, price from t where k < ? and price between ? and ?", (1, 2.0, 4.0)),
    ("select k from t where price <= ? and k > ? and v != ?", (1.5, -4, 2)),
    (
        "select tag, count(*) as n, sum(price) as s from t "
        "where price >= ? or tag = ? group by tag order by tag",
        (0.3, "alpha"),
    ),
    ("select count(*) as n, sum(v) as s from t where v < ? and k between ? and ?",
     (10, -10, 10)),  # fmt: skip
    ("select k from t where v >= ?", (True,)),
    ("select k from t where price > ?", (float("nan"),)),
    ("select k from t where price <= ? or k = ?", (float("nan"), float("nan"))),
    ("select k from t where price <= ?", (9007199254740993,)),
    ("select k from t where k >= ?", (None,)),
    ("select k from t where tag = ?", (3,)),  # never equal, never an error
    # An incomparable literal raises wherever a row reaches it -- after an
    # orderable conjunct, and written first, when an order could have
    # answered the other side.
    ("select k from t where k between ? and ? and v < ?", (-5, 5, "x")),
    ("select k from t where v < ? and k between ? and ?", ("x", -5, 5)),
    ("select k from t where k > ? or tag < ?", (0, 3)),
]
PROJECTIONS = [
    "select k from t",  # three of four columns pruned at the site
    "select tag, k from t",
    "select * from t",  # nothing to prune: no SiteProject at all
    "select price, price from t where k > 0",
    "select k from t where tag = 'alpha' limit 3",
    "select k + v as total, tag from t order by tag, k limit 10",
]
# Plain-column keys and arguments: picked from the chunk as they are ...
TIGHT_AGGREGATES = [
    "select tag, count(*) as n from t group by tag",
    "select tag, count(v) as n, sum(v) as s from t group by tag order by tag",
    "select count(*) as n, max(v) as m, min(price) as lo from t",
    "select tag, avg(price) as a from t where k >= 0 group by tag order by tag",
    "select min(tag) as lo, max(tag) as hi from t where v > -10",
    "select avg(v) as a, sum(price) as s from t where tag like 'a%'",
    "select k, tag, sum(price) as s, count(*) as n from t group by k, tag",
    "select upper(tag) as u, count(*) as n from t group by tag",  # representative row
    "select tag, sum(price) as s from t group by tag having count(*) > 2",
    "select tag, sum(v) + count(*) as score from t group by tag order by tag",
    "select count(*) as n, sum(v) as s from t where k > 1000",  # no input rows
    # Site filters, which the fold reads through: one every row passes, one
    # that empties whole 4-row chunks of DENSE, and count(*) alone.
    "select tag, sum(price) as s, count(*) as n from t "
    "where k between -100 and 100 group by tag",
    "select tag, max(price) as m, sum(v) as s from t where v between 0 and 7 "
    "group by tag order by tag",
    "select count(*) as n from t where k >= 1 or tag = 'b'",
    # A lone key groups on its raw values: 1 and True one group, NULL one,
    # a NaN its own.
    "select v, count(*) as n, sum(price) as s from t group by v",
    "select price, count(*) as n from t group by price",
]
# ... general expressions: evaluated over the envs of each chunk's kept rows.
FALLBACK_AGGREGATES = [
    "select tag, sum(v + k) as s from t group by tag",
    "select upper(tag) as u, count(*) as n from t group by upper(tag)",
    "select k + 1 as bucket, min(v) as lo, avg(price) as a from t group by k + 1",
    "select max(v * 2) as m, count(v + 1) as n from t",
    # Arguments are evaluated on the rows the site filter kept alone (the OR
    # keeps it a site filter, not a pushdown): 100 / 0 is never computed.
    "select tag, sum(100 / v) as s from t where v > 0 or v < 0 group by tag",
]
AGGREGATES = TIGHT_AGGREGATES + FALLBACK_AGGREGATES
EVERY_STATEMENT = FILTERS + PROJECTIONS + AGGREGATES
CHUNK_ROWS = st.sampled_from([4, columnar.DEFAULT_BATCH_SIZE])


class TestColumnarSiteEngineEqualsTheReference:
    @settings(max_examples=120, deadline=None)
    @given(ROWS, st.sampled_from(FILTERS), SITES, CHUNK_ROWS)
    def test_filters(self, rows, sql, sites, chunk_rows):
        with small_chunks(chunk_rows):
            assert_same(rows, sql, sites)

    @settings(max_examples=120, deadline=None)
    @given(ROWS, st.sampled_from(PARAMETRISED), SITES, CHUNK_ROWS)
    def test_parametrised_filters(self, rows, statement, sites, chunk_rows):
        with small_chunks(chunk_rows):
            assert_same(rows, statement[0], sites, statement[1])

    @settings(max_examples=60, deadline=None)
    @given(ROWS, st.sampled_from(PROJECTIONS), SITES)
    def test_projection_pruning(self, rows, sql, sites):
        assert_same(rows, sql, sites)

    @settings(max_examples=120, deadline=None)
    @given(ROWS, st.sampled_from(AGGREGATES), SITES, CHUNK_ROWS)
    def test_partial_aggregates_including_float_bits(
        self, rows, sql, sites, chunk_rows
    ):
        with small_chunks(chunk_rows):
            assert_same(rows, sql, sites)


# -- deterministic shapes --------------------------------------------------------

DENSE = [
    (i % 7 - 3, None if i % 5 == 0 else i - 20, ["alpha", "alto", "beta", "b", None][i % 5],
     None if i % 11 == 0 else (i * 37 % 100) / 10)
    for i in range(45)
]  # fmt: skip


def small_chunks(size):
    """Scans hand out ``size``-row chunks, so 15-row fragments span several
    and partial states stream across chunk boundaries."""
    inner = columnar.table_chunks

    def chunked(binding, table):
        return inner(binding, table, size)

    return mock.patch.object(columnar, "table_chunks", chunked)


@pytest.mark.parametrize("sites", [1, 3])
@pytest.mark.parametrize("sql", EVERY_STATEMENT)
def test_multi_chunk_fragments(sql, sites):
    with small_chunks(4):
        assert_same(DENSE, sql, sites)


@pytest.mark.parametrize("sites", [1, 3])
@pytest.mark.parametrize("statement", PARAMETRISED, ids=lambda s: s[0])
def test_multi_chunk_fragments_parametrised(statement, sites):
    with small_chunks(4):
        assert_same(DENSE, *statement[:1], sites, statement[1])


# Every third v is 0, beside kept rows of the same 4-row chunk.
ZEROS = [(i, (i % 3) * (i - 7), ["alpha", "b"][i % 2], i / 4) for i in range(30)]


@pytest.mark.parametrize("sites", [1, 3])
def test_a_row_the_filter_rejected_is_never_evaluated(sites):
    """``100 / v`` raises on v = 0, which the site filter rejects: the fold
    evaluates its argument on the kept rows alone, as the reference does."""
    (sql,) = (sql for sql in FALLBACK_AGGREGATES if "100 / v" in sql)
    with small_chunks(4):
        product = assert_same(ZEROS, sql, sites)
    assert isinstance(product, dict) and product["rows"] != "[]"


def fragment_tables(engine):
    """The resident table behind each fragment of ``t`` (replicas share it)."""
    catalog = engine.catalog
    for fragment in catalog.entry("t").fragments:
        site = fragment.replica_sites()[0]
        yield catalog.site(site).source(fragment.replicas[site]).fetch().table


def test_the_ordered_pass_is_answered_from_column_orders():
    """The three passes are only a property over the probe path if the
    third one takes it.  ``k < ? and v >= ?`` asks for ``k``'s order in
    every chunk, and for ``v``'s behind it once ``k`` has one: nothing is
    sorted the first time a column is asked for, every chunk of it the
    second time, and nothing ever again."""
    engine = build_engine(DENSE, 3, reference=False)
    chunks = sum(-(-len(table) // 4) for table in fragment_tables(engine))
    sorts = []

    def sorting(orders, column, inner=ColumnOrders._sorted):
        sorts.append(column)
        return inner(orders, column)

    with small_chunks(4), mock.patch.object(ColumnOrders, "_sorted", sorting):
        for sorted_now in (0, chunks, chunks, 0, 0):  # -, k, v, -, -
            del sorts[:]
            outcome(engine, "select k from t where k < ? and v >= ?", (2, 0))
            assert len(sorts) == sorted_now
    for table in fragment_tables(engine):
        chunks, orders = table.column_layout(4)
        for _, (k, v, _tag, _price) in chunks:
            values, rows = orders.of(k)
            assert values == sorted(k) and [k[row] for row in rows] == values
            assert (orders.of(v) is None) == (None in v)


def test_the_statements_reach_every_site_operator_and_both_fallbacks():
    """The lists above are only a property over the site engine if they
    drive it: every site operator, kernel and fallback filters, and partial
    aggregates whose keys and arguments are picked as columns as well as
    ones that go through ``evaluate`` on a chunk's envs."""
    names = set()
    kernels, to_envs = [], []
    compile_predicate = columnar.compile_predicate
    batch_to_envs = columnar.ColumnBatch.to_envs

    def compiling(expr, layout, depth=[0]):
        # compile_predicate recurses through the module attribute: keep
        # only what SiteFilter's own call got back.
        depth[0] += 1
        try:
            kernel = compile_predicate(expr, layout)
        finally:
            depth[0] -= 1
        if not depth[0]:
            kernels.append(kernel is not None)
        return kernel

    def recording(batch, selection=None):
        to_envs.append((batch, selection))
        return batch_to_envs(batch, selection)

    def aggregating(self, ctx, inner=site_ops.PartialAggregate._compute):
        # Its children computed when they were opened: what is recorded is
        # the aggregate's own doing, not a fallback filter's under it.
        with mock.patch.object(columnar.ColumnBatch, "to_envs", recording):
            return inner(self, ctx)

    def run(sql):
        del to_envs[:]
        seen = outcome(build_engine(DENSE, 3, reference=False), sql)
        if isinstance(seen, dict):
            names.update(op[0] for op in seen["operators"])

    with mock.patch.object(columnar, "compile_predicate", compiling):
        for sql in FILTERS:
            run(sql)
        assert kernels.count(True) >= 6 and kernels.count(False) >= 6
    with mock.patch.object(site_ops.PartialAggregate, "_compute", aggregating):
        for sql in TIGHT_AGGREGATES:
            run(sql)
            assert not to_envs, sql
        for sql in FALLBACK_AGGREGATES:
            run(sql)
            # Every chunk, once: however many expressions need its envs,
            # and of the rows the filter kept alone.
            # (The one filtered statement keeps the rows where v is not 0.)
            kept = sum(1 for row in DENSE if row[1]) if "where" in sql else len(DENSE)
            assert sum(
                batch.count if selection is None else len(selection)
                for batch, selection in to_envs
            ) == kept, sql
            assert len({id(batch) for batch, _ in to_envs}) == len(to_envs), sql
            assert len(to_envs) == FRAGMENTS, sql
    for sql in PROJECTIONS:
        run(sql)
    assert {"SiteScan", "SiteFilter", "SiteProject", "PartialAggregate", "Ship",
            "FinalAggregate"} <= names  # fmt: skip


# The reference has its own row-at-a-time governance and site filter
# (``tests/reference_site.py``): these compare two implementations.
GOVERNED = {
    "version": 1,
    "tenants": {
        "acme": {
            "tables": {
                "t": {
                    # Not sargable: a residual the scan filters its chunks by.
                    "row_filter": "v + 0 >= 0",
                    "masks": {"tag": "redact"},
                }
            }
        },
        "globex": {"tables": {"t": {"row_filter": "k >= 0"}}},  # pushed down
        "initech": {  # one conjunct pushed, one residual; two more mask styles
            "tables": {
                "t": {
                    "row_filter": "k >= 0 and v + 0 >= 0",
                    "masks": {"tag": "hash", "price": "null"},
                }
            }
        },
        # Masks alone; ``v`` changes type under its mask.
        "umbrella": {"tables": {"t": {"masks": {"tag": "last4", "v": "redact"}}}},
        # ``tag`` stays raw, so ``match(tag, ...)`` reads raw values.
        "hooli": {
            "tables": {"t": {"row_filter": "v + 0 >= 0", "masks": {"price": "null"}}}
        },
    },
}
GOVERNED_STATEMENTS = [
    "select k, v, tag from t",
    "select k, tag from t where price > 2",
    "select tag, count(*) as n, sum(v) as s from t group by tag",
    "select count(*) as n from t where v + 1 > k",
    "select k, v, tag, price from t where tag = '***' or price is null",  # masked
]


@pytest.mark.parametrize("sites", [1, 3])
@pytest.mark.parametrize("tenant", ["acme", "globex", "initech", "umbrella", None])
@pytest.mark.parametrize("sql", GOVERNED_STATEMENTS)
def test_governed_scans(sql, tenant, sites):
    for chunk_rows in (4, columnar.DEFAULT_BATCH_SIZE):
        with small_chunks(chunk_rows):
            product = assert_same(DENSE, sql, sites, manifest=GOVERNED, tenant=tenant)
        if not isinstance(product, dict):  # '***' + 1: both raised alike
            assert tenant == "umbrella" and "v + 1" in sql
            continue
        scan_detail = product["operators"][-1][4]
        if tenant in ("acme", "initech"):
            assert product["rows_filtered_by_rls"] > 0
            assert "mask(tag)" in scan_detail
        assert ("rls(tenant=globex" in scan_detail) == (tenant == "globex")
        assert ("k >= 0" in scan_detail) == (tenant in ("globex", "initech"))


TEXT_STATEMENTS = [
    "select k, tag from t where match(tag, 'alpha')",
    "select k, v from t where match(tag, 'alto') and v > 0",
    "select k, v, price from t where match(tag, 'beta') and v + 1 > k",
    "select tag, count(*) as n, sum(v) as s from t where match(tag, 'b') group by tag",
    "select k from t where match(tag, 'nosuchword')",
]


@pytest.mark.parametrize("sites", [1, 3])
@pytest.mark.parametrize("tenant", ["hooli", "globex", None])
@pytest.mark.parametrize("sql", TEXT_STATEMENTS)
def test_text_filtered_scans(sql, tenant, sites):
    """``match`` is a site filter: it keeps rows after the tenant's
    residual RLS and masks."""
    for chunk_rows in (4, columnar.DEFAULT_BATCH_SIZE):
        with small_chunks(chunk_rows):
            product = assert_same(DENSE, sql, sites, manifest=GOVERNED, tenant=tenant)
        filters = [op[4] for op in product["operators"] if op[0] == "SiteFilter"]
        assert "match(tag, " in filters[0]


@pytest.mark.parametrize("sql", ["select k, tag from t where v > 0",
                                 "select tag, count(*) as n from t group by tag"])
def test_failover_to_a_replica(sql):
    """A site dies after planning: both engines re-route the fragment to
    its replica inside the shared ``SiteScan`` machinery and still agree."""
    outcomes = []
    for reference in (False, True):
        engine = build_engine(DENSE, 3, reference, replicas=2)
        prepared = engine.prepare(sql)
        dead = prepared.physical.assignments["t"].choices[0].site_name
        engine.catalog.site(dead).up = False
        outcomes.append(observed(engine, engine.execute(prepared)))
    product, reference = outcomes
    assert product == reference
    assert product["failovers"][0] >= 1
    assert "failover" in product["operators"][-1][4]


def test_a_refresh_answers_as_the_production_engine():
    """A narrowed stage ships its stale fragment alone, and the Ship hands
    the batches to the stage, which serves the current parts beside them:
    the reference site engine answers a refresh as the columnar one."""
    from tests.test_artifact_reuse import ROWS_SQL, make_engine, rewrite_fragment

    answers = []
    for reference in (False, True):
        catalog, engine, store = make_engine()
        if reference:
            engine.executor.planner = ReferenceSitePlanner(catalog)
        engine.query(ROWS_SQL)
        store._sweep()
        rewrite_fragment(catalog, "f0", [("n0", 1), ("n1", 2)])
        result = engine.query(ROWS_SQL)
        assert store.refreshes == 1
        answers.append(sorted(result.table.rows))
    assert len(answers[0]) == 29 and answers[1] == answers[0]
