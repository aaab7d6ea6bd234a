"""The batch coordinator against the row-at-a-time one it replaced.

``tests/reference_coordinator.py`` keeps the env-iterating coordinator
operators as the oracle.  Random statements run through both, on two
identically built federations, and must agree on the rows *in order*
(values and their types), on every operator's accounting, and on the
modeled response time -- or fail with the same error.  Accounting is
defined by rows consumed, so LIMIT sits above every streaming shape here.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DataType, Field, Schema, Table
from repro.core.values import Money
from repro.federation import FederatedEngine, FederationCatalog
from repro.sim import SimClock
from tests.reference_coordinator import ReferencePlanner

A = Schema(
    "a",
    (
        Field("k", DataType.INTEGER),
        Field("x", DataType.FLOAT),
        Field("tag", DataType.STRING),
        Field("z", DataType.STRING),
        Field("m", DataType.MONEY),
    ),
)
B = Schema(
    "b",
    (
        Field("k", DataType.INTEGER),
        Field("y", DataType.INTEGER),
        Field("label", DataType.STRING),
    ),
)

# Join keys: NULL, and ints / floats / bools that collide across types.
KEYS = st.sampled_from([None, 0, 1, 2, 1.0, 2.5, True])
NUMBERS = st.one_of(
    st.none(), st.integers(-3, 6), st.sampled_from([0.1, 0.2, 0.3, 1.5, -2.25])
)
TAGS = st.sampled_from([None, "t0", "t1", "t2"])
MIXED = st.sampled_from([None, "s", "t", 7, 2.5, True, Money(1.0, "USD")])
MONEY = st.sampled_from(
    [None, Money(1.0, "USD"), Money(2.5, "USD"), Money(2.0, "EUR"), Money(0.5, "EUR")]
)
A_ROWS = st.lists(st.tuples(KEYS, NUMBERS, TAGS, MIXED, MONEY), max_size=16)
B_ROWS = st.lists(st.tuples(KEYS, st.integers(0, 40), TAGS), max_size=16)


def build_engine(a_rows, b_rows, sites: int, reference: bool):
    catalog = FederationCatalog(SimClock())
    names = [catalog.make_site(f"s{i}").name for i in range(sites)]
    catalog.load_fragmented(
        Table(A, a_rows, validate=False), 2, [[names[i % sites]] for i in range(2)]
    )
    catalog.load_fragmented(
        Table(B, b_rows, validate=False),
        2,
        [[names[(i + 1) % sites]] for i in range(2)],
    )
    engine = FederatedEngine(catalog)
    if reference:
        engine.executor.planner = ReferencePlanner(catalog)
    return engine


ON = st.sampled_from(
    [
        "a.k = b.k",
        "a.k = b.k",
        "b.k = a.k",
        "a.k = b.k and a.x > 0",  # a residual: the nested-loop join
        "a.k = b.k and b.y > 20",
        "a.k = b.k and a.tag = b.label",
        "a.x < b.y",
    ]
)
WHERE = st.sampled_from(
    [
        "",
        " where b.y > 100",  # empties the right side at its sites
        " where a.x > 100",  # ... the left side
        " where a.x + b.y > 12",  # cross-binding: a coordinator Filter
        " where a.tag = b.label or a.x > 1",
        " where a.x is not null",
        " where a.x + 1 > b.y",
    ]
)
ITEMS = st.sampled_from(
    [
        "a.k, a.x, b.y",
        "a.tag, b.label, a.z",
        "distinct a.tag",
        "distinct a.k, b.label",
        "distinct a.z",
        "a.x + b.y as total, upper(a.tag) as up",
        "a.m, a.z, b.k",
        "*",
    ]
)
GROUPED = st.sampled_from(
    [
        ("a.tag, count(*) as n, sum(a.x) as sx", " group by a.tag", ["a.tag", "n", "sx"]),
        (
            "a.tag, b.label, min(b.y) as lo, max(b.y) as hi",
            " group by a.tag, b.label",
            ["a.tag", "b.label", "lo", "hi"],
        ),
        (
            "b.label, avg(a.x) as mean, count(a.x) as n",
            " group by b.label having count(*) > 1",
            ["b.label", "mean", "n"],
        ),
        ("count(*) as n, sum(a.x) as sx, max(a.m) as top", "", ["n", "sx"]),
        ("a.k, sum(b.y) + count(*) as score", " group by a.k", ["a.k", "score"]),
    ]
)
ROW_ORDER_KEYS = ["a.k", "a.x", "a.tag", "a.z", "a.m", "b.y", "b.label"]


@st.composite
def statements(draw):
    join = draw(st.sampled_from(["join", "left join"]))
    source = f"from a {join} b on {draw(ON)}{draw(WHERE)}"
    if draw(st.booleans()):
        items, group_by, order_keys = draw(GROUPED)
        sql = f"select {items} {source}{group_by}"
    else:
        items = draw(ITEMS)
        sql = f"select {items} {source}"
        # ORDER BY is resolved against the SELECT list for DISTINCT.
        order_keys = [] if items.startswith("distinct") else ROW_ORDER_KEYS
    if order_keys:
        keys = draw(st.lists(st.sampled_from(order_keys), max_size=3, unique=True))
        if keys:
            sql += " order by " + ", ".join(
                key + draw(st.sampled_from(["", " desc", " asc"])) for key in keys
            )
    limit = draw(st.one_of(st.none(), st.integers(0, 12)))
    if limit is not None:
        sql += f" limit {limit}"
    return sql


def outcome(engine, sql):
    """Everything observable about running ``sql``, or the error it raised."""
    try:
        result = engine.query(sql)
    except Exception as error:  # noqa: BLE001 -- both sides must raise alike
        return type(error).__name__, str(error)
    report = result.report
    return {
        "columns": result.table.schema.field_names,
        # repr: 1, 1.0 and True are different answers
        "rows": repr(result.table.rows),
        "operators": [
            (stats.name, stats.site, stats.rows_in, stats.rows_out, stats.seconds,
             stats.detail)
            for stats in report.operators.walk()
        ],
        "explain": report.operators.tree_lines(),
        "response_seconds": report.response_seconds,
        "site_work": report.site_work,
        "rows_shipped": report.rows_shipped,
    }


@settings(max_examples=250, deadline=None)
@given(
    a_rows=A_ROWS,
    b_rows=B_ROWS,
    sql=statements(),
    sites=st.sampled_from([1, 3]),  # coordinator-local, shipped
)
def test_batch_coordinator_equals_the_reference(a_rows, b_rows, sql, sites):
    batch = build_engine(a_rows, b_rows, sites, reference=False)
    reference = build_engine(a_rows, b_rows, sites, reference=True)
    assert outcome(batch, sql) == outcome(reference, sql)
    # A second statement on the same engines: site backlogs carried over.
    assert outcome(batch, sql) == outcome(reference, sql)


SINGLE_TABLE = [
    "select k, z from a order by z desc, m, k limit 4",
    "select distinct tag from a limit 2",
    "select tag, count(*) as n, sum(x) as sx from a group by tag order by n desc, tag limit 2",
    "select count(*) as n, min(x) as lo from a where x > 100",
    "select k, x from a where x + 1 > 2 limit 3",
    "select * from a limit 0",
]


@settings(max_examples=60, deadline=None)
@given(
    a_rows=A_ROWS,
    sql=st.sampled_from(SINGLE_TABLE),
    sites=st.sampled_from([1, 3]),
)
def test_single_table_shapes_equal_the_reference(a_rows, sql, sites):
    batch = build_engine(a_rows, [], sites, reference=False)
    reference = build_engine(a_rows, [], sites, reference=True)
    assert outcome(batch, sql) == outcome(reference, sql)


# -- LIMIT above each streaming shape, on data dense enough to stop early ------

DENSE_A = [(i % 4, float(i), f"t{i % 3}", None, None) for i in range(12)]
DENSE_B = [(i % 3, i, f"t{i % 2}") for i in range(12)]
LIMITED = [
    "select a.k, b.y from a join b on a.k = b.k limit 5",
    "select a.k, b.y from a left join b on a.k = b.k where a.x + b.y > 6 limit 3",
    "select distinct b.label from a join b on a.k = b.k limit 2",
    "select b.y, a.x from b join a on a.k = b.k limit 7",
]


def test_limit_counts_only_the_rows_consumed():
    for sql in LIMITED:
        for sites in (1, 3):
            batch = build_engine(DENSE_A, DENSE_B, sites, reference=False)
            reference = build_engine(DENSE_A, DENSE_B, sites, reference=True)
            seen = outcome(batch, sql)
            assert seen == outcome(reference, sql)
            left_ship = [op for op in seen["operators"] if op[0] == "Ship"][0]
            assert 0 < left_ship[3] < left_ship[2]  # rows_out < rows_in


# -- an aggregation pushed below its join, regrouped above it -------------------

# More rows in a than in b, NULL join keys and NULL arguments: every
# statement below pushes its aggregation below the join (a ``MergePartials``
# under it), and the reference ``Regroup`` merges the states the joined envs
# carry one env at a time.
REGROUP_A = [
    (None if i % 7 == 3 else i % 4, None if i % 5 == 0 else float(i), f"t{i % 3}")
    + (None, None)
    for i in range(20)
]
REGROUP_B = [(i % 3, i, f"t{i % 2}") for i in range(6)] + [(None, 9, "t0")]
REGROUPED = [
    "select a.tag, count(*) as n, sum(a.x) as sx from a join b on a.k = b.k "
    "group by a.tag",
    "select b.label, avg(a.x) as mean, count(a.x) as n from a left join b "
    "on a.k = b.k group by b.label having count(*) > 1",
    "select count(*) as n, sum(a.x) as sx, min(a.x) as lo, max(a.x) as hi "
    "from a join b on a.k = b.k and a.x > 3",
    "select a.k, count(*) as n, max(a.tag) as top from b join a on b.k = a.k "
    "group by a.k",
    "select count(*) as n, sum(a.x) as sx from a join b on a.k = b.k where a.x > 100",
]


@pytest.mark.parametrize("sql", REGROUPED)
@pytest.mark.parametrize("sites", [1, 3])
def test_a_regrouped_aggregation_equals_the_reference(sql, sites):
    batch = build_engine(REGROUP_A, REGROUP_B, sites, reference=False)
    reference = build_engine(REGROUP_A, REGROUP_B, sites, reference=True)
    seen = outcome(batch, sql)
    assert seen == outcome(reference, sql)
    names = [op[0] for op in seen["operators"]]
    assert names[0] == "FinalAggregate" and "MergePartials" in names
