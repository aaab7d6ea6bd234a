"""An aggregate call may stand anywhere in a select item or HAVING.

Both coordinator aggregators used to look for aggregate calls only under
``BinaryOp``, so ``having not (count(*) > 6)``, ``-sum(v)``, ``sum(v)
between ...``, ``count(w) in (...)`` and ``sum(w) is not null`` failed with
``unknown function 'sum'`` -- on the split path and on the join path alike.
There is now one evaluator for "an expression with aggregates, over a
group" (``coordinator_ops.finished_groups``), and sqlite3 is its oracle.  Every
shape runs over a single table (``PartialAggregate`` at the sites,
``FinalAggregate`` at the coordinator), over an inner join, where the
aggregation is pushed below the join (``PartialAggregate`` at the sites,
``FinalAggregate`` over the join), and over a left join that null-extends
the aggregated side, which keeps it whole-group (``Aggregate``).
"""

import re

import pytest

from repro.core.errors import QueryError
from repro.federation import site_ops
from repro.sql.ast import Column, FuncCall
from benchmarks.e2e.oracle import rows_match
from tests.sqlite_oracle import federation, sqlite_answer

# v and w hold NULLs; every w of group 3 is NULL.
T = [
    (i % 4, None if i % 5 == 0 else i, None if i % 3 == 0 or i % 4 == 3 else i * 2)
    for i in range(24)
]
U = [(g, z) for g in range(5) for z in (g, g + 10, None)]
TABLES = {"t": (("g", "v", "w"), T), "u": (("g", "z"), U)}

SPLIT = "t"
JOIN = "t join u on t.g = u.g"
LEFT = "u left join t on t.g = u.g"
OPERATOR = {SPLIT: "FinalAggregate", JOIN: "FinalAggregate", LEFT: "Aggregate"}

# ``{source}`` is SPLIT or JOIN.  Comparisons are over counts or guarded by
# IS NULL where a NULL could reach them: NULL comparisons are two-valued in
# this engine (ROADMAP item 4b), which is not what is tested here.
SHAPES = [
    "select t.g, count(*) from {source} group by t.g having not (count(*) > 6)",
    "select t.g, -sum(t.v) from {source} group by t.g",
    "select t.g, sum(t.v) from {source} group by t.g "
    "having sum(t.v) between 50 and 200",
    "select t.g, count(t.w) from {source} group by t.g "
    "having count(t.w) in (4, 5, 12)",
    "select t.g, sum(t.w) from {source} group by t.g having sum(t.w) is not null",
    "select t.g, sum(t.w) is null, -max(t.w) from {source} group by t.g",
    "select t.g, abs(-sum(t.v)), coalesce(min(t.w), -1) from {source} group by t.g",
    "select t.g, avg(t.v) from {source} group by t.g "
    "having count(*) > 0 and not (avg(t.v) is null)",
    # The right-hand side would divide by zero; like every other
    # ``evaluate`` call, OR does not look at it once the left side holds.
    "select t.g from {source} group by t.g "
    "having count(*) > 0 or 1 / (count(*) - count(*)) > 0",
    # These three already agreed.
    "select t.g, sum(t.v) + 1 from {source} group by t.g",
    "select t.g, sum(t.v + t.w) from {source} group by t.g",
    "select t.g + 1, count(*) from {source} group by t.g + 1",
    # Ungrouped, and over no rows at all.
    "select -count(*), sum(t.v) is null, count(t.w) in (8, 24) from {source}",
    "select count(*) as n, count(t.v) as nv, sum(t.v) as s, avg(t.v), min(t.v), "
    "max(t.w), -sum(t.v), sum(t.v) is null from {source} where t.v < 0",
    "select t.g, -sum(t.v) from {source} where t.v < 0 group by t.g",
]


def answer(sql):
    result = federation(TABLES).query(sql)
    operators = {stats.name for stats in result.report.operators.walk()}
    return result.table.rows, operators


@pytest.mark.parametrize("source", [SPLIT, JOIN, LEFT])
@pytest.mark.parametrize("shape", SHAPES)
def test_aggregates_under_any_operator_agree_with_sqlite(shape, source):
    sql = shape.format(source=source)
    rows, operators = answer(sql)
    assert rows_match(rows, sqlite_answer(TABLES, sql)[1], ordered=False)
    assert OPERATOR[source] in operators
    assert ("PartialAggregate" in operators) == (source != LEFT)
    assert ("MergePartials" in operators) == (source == JOIN)


def test_the_shown_cases():
    """Two of the issue's statements, with their answers spelled out."""
    rows, _ = answer("select g, -sum(v) from t group by g")
    assert sorted(rows) == [(0, -40), (1, -61), (2, -62), (3, -63)]
    rows, _ = answer(
        "select t.g, count(*) from t join u on t.g = u.g group by t.g "
        "having not (count(*) > 100)"
    )
    assert sorted(rows) == [(0, 18), (1, 18), (2, 18), (3, 18)]


# Select lists whose items would share an output name, and the names given.
REPEATED = [
    ("count(*), count(t.v)", ("count", "count_2")),
    ("min(t.v), max(t.v), min(t.v)", ("min", "max", "min_2")),
    ("count(*) as n, sum(t.v) as n, t.g + 1, t.g + 1", ("n", "n_2", "col2", "col3")),
]


@pytest.mark.parametrize("source", [SPLIT, JOIN])
@pytest.mark.parametrize("items,names", REPEATED)
def test_repeated_output_names_get_a_suffix(items, names, source):
    """An aggregation names its outputs by the rule a projection uses
    (``planner.item_names``); it used to fail with ``duplicate field``."""
    sql = f"select {items} from {source} group by t.g + 1"
    result = federation(TABLES).query(sql)
    assert tuple(result.table.schema.field_names) == names
    assert rows_match(result.table.rows, sqlite_answer(TABLES, sql)[1], ordered=False)


@pytest.mark.parametrize("source", [SPLIT, JOIN])
def test_an_order_key_spelled_like_a_repeated_item_reads_that_item(source):
    # count(*) ties everywhere; count(t.w) puts the all-NULL group 3 first.
    sql = (
        f"select t.g, count(*), count(t.w) from {source} group by t.g "
        "order by count(t.w), t.g"
    )
    result = federation(TABLES).query(sql)
    assert tuple(result.table.schema.field_names) == ("g", "count", "count_2")
    assert result.table.rows == sqlite_answer(TABLES, sql)[1]
    assert [row[0] for row in result.table.rows] == [3, 0, 1, 2]


MALFORMED = [
    ("sum(*)", "sum(*) is not a valid aggregate"),
    ("-max(*)", "max(*) is not a valid aggregate"),
    ("sum(t.v, t.w)", "aggregate sum takes exactly one argument"),
    ("count()", "aggregate count takes exactly one argument"),
]


@pytest.mark.parametrize("source", [SPLIT, JOIN])
@pytest.mark.parametrize("call,message", MALFORMED)
def test_a_malformed_call_is_refused_when_a_group_is_created(call, message, source):
    engine = federation(TABLES)
    with pytest.raises(QueryError, match=re.escape(message)):
        engine.query(f"select t.g, {call} from {source} group by t.g")
    with pytest.raises(QueryError):  # the one group of an ungrouped query
        engine.query(f"select {call} from {source} where t.v < 0")
    # A grouped query over no rows creates no group and looks at no call.
    empty = f"select t.g, {call} from {source} where t.v < 0 group by t.g"
    assert engine.query(empty).table.rows == []


def test_an_unknown_aggregate_name_is_refused():
    with pytest.raises(QueryError, match="unknown aggregate 'median'"):
        site_ops.empty_state(FuncCall("median", (Column("v"),)))
