"""The columnar site engine against the row-at-a-time one it replaced.

``tests/reference_site.py`` keeps the env-looping ``SiteScan`` /
``SiteFilter`` / ``SiteProject`` / ``PartialAggregate`` and the per-row
``Ship`` as the oracle.  Statements run through both, on two identically
built federations, and must agree on the rows *in order* (values and
their types), on ``rows_fetched`` / ``rows_shipped``, on every operator's
placement, ``rows_in`` / ``rows_out`` / ``detail``, on the modeled seconds
of every operator but ``Ship``, and on the rows each site processed -- or
fail with the same error.

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
from repro.federation import FederatedEngine, FederationCatalog, columnar, physical
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
    catalog.load_fragmented(Table(T, rows, validate=False), FRAGMENTS, placement)
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


def outcome(engine, sql, **options):
    """Everything comparable about running ``sql``, or the error it raised."""
    try:
        result = engine.query(sql, **options)
    except Exception as error:  # noqa: BLE001 -- both sides must raise alike
        return type(error).__name__, str(error)
    return observed(engine, result)


def assert_same(rows, sql, sites):
    product = outcome(build_engine(rows, sites, reference=False), sql)
    reference = outcome(build_engine(rows, sites, reference=True), sql)
    assert product == reference


ROWS = st.lists(
    st.tuples(
        st.integers(min_value=-20, max_value=20),
        st.one_of(st.none(), st.integers(min_value=-50, max_value=50)),
        st.one_of(st.none(), st.sampled_from(["alpha", "alto", "beta", "b"])),
        st.one_of(
            st.none(),
            st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.3, 1.5, -2.25, 49.99, 1e16]),
        ),
    ),
    max_size=60,
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
    "select k, v from t where v = price or tag = 'b'",  # NULL = NULL holds here
    "select k, v from t where v != k order by k, v limit 12",
    "select k from t where tag is null or v is not null",
    "select k, v from t where v + 1 > k",
    "select k from t where upper(tag) = 'ALPHA'",
    "select k, tag from t where v * 2 > k or tag = 'b'",
    "select k from t where v > 0 and price + k > 1",
    "select k from t where tag > v",  # str vs int: both raise, or neither
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
]
# ... general expressions: evaluated over each chunk's envs.
FALLBACK_AGGREGATES = [
    "select tag, sum(v + k) as s from t group by tag",
    "select upper(tag) as u, count(*) as n from t group by upper(tag)",
    "select k + 1 as bucket, min(v) as lo, avg(price) as a from t group by k + 1",
    "select max(v * 2) as m, count(v + 1) as n from t",
]
AGGREGATES = TIGHT_AGGREGATES + FALLBACK_AGGREGATES
EVERY_STATEMENT = FILTERS + PROJECTIONS + AGGREGATES


class TestColumnarSiteEngineEqualsTheReference:
    @settings(max_examples=120, deadline=None)
    @given(ROWS, st.sampled_from(FILTERS), SITES)
    def test_filters(self, rows, sql, sites):
        assert_same(rows, sql, sites)

    @settings(max_examples=60, deadline=None)
    @given(ROWS, st.sampled_from(PROJECTIONS), SITES)
    def test_projection_pruning(self, rows, sql, sites):
        assert_same(rows, sql, sites)

    @settings(max_examples=120, deadline=None)
    @given(ROWS, st.sampled_from(AGGREGATES), SITES)
    def test_partial_aggregates_including_float_bits(self, rows, sql, sites):
        assert_same(rows, sql, sites)

    @settings(max_examples=30, deadline=None)
    @given(ROWS, st.sampled_from(EVERY_STATEMENT), SITES)
    def test_a_second_statement_on_the_same_engines(self, rows, sql, sites):
        """Backlogs carry over and the layout is resident: answers and row
        accounting still agree (queue delays may not -- the product's
        encode work sits in the shipping sites' backlogs)."""
        engines = [build_engine(rows, sites, reference) for reference in (False, True)]
        for _ in range(2):
            first, second = (outcome(engine, sql) for engine in engines)
            if isinstance(first, dict):
                del first["seconds"], second["seconds"]
            assert first == second


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

    def chunked(binding, table, ambiguous):
        return inner(binding, table, ambiguous, size)

    return mock.patch.object(columnar, "table_chunks", chunked)


@pytest.mark.parametrize("sites", [1, 3])
@pytest.mark.parametrize("sql", EVERY_STATEMENT)
def test_multi_chunk_fragments(sql, sites):
    with small_chunks(4):
        assert_same(DENSE, sql, sites)


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

    def recording(batch):
        to_envs.append(batch)
        return batch_to_envs(batch)

    def aggregating(self, ctx, inner=physical.PartialAggregate._compute):
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
    with mock.patch.object(physical.PartialAggregate, "_compute", aggregating):
        for sql in TIGHT_AGGREGATES:
            run(sql)
            assert not to_envs, sql
        for sql in FALLBACK_AGGREGATES:
            run(sql)
            # Every chunk, once: however many expressions need its envs.
            assert sum(batch.count for batch in to_envs) == len(DENSE), sql
            assert len(set(map(id, to_envs))) == len(to_envs) == FRAGMENTS, sql
    for sql in PROJECTIONS:
        run(sql)
    assert {"SiteScan", "SiteFilter", "SiteProject", "PartialAggregate", "Ship",
            "FinalAggregate"} <= names  # fmt: skip


GOVERNED = {
    "version": 1,
    "tenants": {
        "acme": {
            "tables": {
                "t": {
                    # Not sargable: a residual evaluated row-wise at the scan.
                    "row_filter": "v + 0 >= 0",
                    "masks": {"tag": "redact"},
                }
            }
        },
        "globex": {"tables": {"t": {"row_filter": "k >= 0"}}},  # pushed down
    },
}
GOVERNED_STATEMENTS = [
    "select k, v, tag from t",
    "select k, tag from t where price > 2",
    "select tag, count(*) as n, sum(v) as s from t group by tag",
    "select count(*) as n from t where v + 1 > k",
]


@pytest.mark.parametrize("sites", [1, 3])
@pytest.mark.parametrize("tenant", ["acme", "globex", None])
@pytest.mark.parametrize("sql", GOVERNED_STATEMENTS)
def test_governed_scans(sql, tenant, sites):
    product, reference = (
        outcome(
            build_engine(
                DENSE, sites, reference, governance=GovernanceRegistry(GOVERNED)
            ),
            sql,
            tenant=tenant,
        )
        for reference in (False, True)
    )
    assert product == reference
    scan_detail = product["operators"][-1][4]
    if tenant == "acme":
        assert product["rows_filtered_by_rls"] > 0
        assert "mask(tag)" in scan_detail
    else:
        assert ("rls(tenant=globex" in scan_detail) == (tenant == "globex")


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
