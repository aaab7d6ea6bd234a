"""An equi-join key never matches NULL, whichever join operator runs.

``a join b on a.k = b.k`` compiles to ``HashJoin``, which never matched a
NULL key; add a residual (``... and a.x > 1``) and the same ON condition
compiles to ``NestedLoopJoin``, whose ``evaluate`` used to say
``NULL = NULL`` is true -- so the two disagreed, and the second disagreed
with SQL.  Under the one NULL rule ``NULL = NULL`` is unknown and an ON
condition keeps a pair only where it is true, in both.  sqlite3 is the
oracle.
"""

import pytest

from benchmarks.e2e.oracle import rows_match
from tests.sqlite_oracle import federation, sqlite_answer

TABLES = {
    "a": (("k", "x"), [(1, 10), (None, 20), (2, 30)]),
    "b": (("k", "y"), [(1, 100), (None, 200), (2, 300)]),
}
STATEMENTS = [
    # HashJoin
    "select a.k, a.x, b.y from a join b on a.k = b.k",
    "select a.k, a.x, b.y from a left join b on a.k = b.k",
    # NestedLoopJoin: the same key plus a residual
    "select a.k, a.x, b.y from a join b on a.k = b.k and a.x > 1",
    "select a.k, a.x, b.y from a join b on a.x > 1 and b.k = a.k",
    "select a.k, a.x, b.y from a left join b on a.k = b.k and b.y > 100",
    "select a.k, a.x, b.y from a left join b on a.k = b.k and a.x < 25",
    "select a.x, count(b.y) as n from a left join b on a.k = b.k and b.y > 0 "
    "group by a.x",
]


@pytest.mark.parametrize("sql", STATEMENTS)
def test_null_keys_never_match(sql):
    names, expected = sqlite_answer(TABLES, sql)
    result = federation(TABLES).query(sql)
    assert list(result.table.schema.field_names) == names
    assert rows_match(result.table.rows, expected, ordered=False)


def test_the_shown_case():
    """The issue's example: the nested-loop form returned (NULL, 20, 200)."""
    sql = "select a.k, a.x, b.y from a join b on a.k = b.k and a.x > 1"
    rows = federation(TABLES).query(sql).table.rows
    assert rows_match(rows, [(1, 10, 100), (2, 30, 300)], ordered=False)


def test_equality_under_or_is_unknown_on_null():
    """``NULL = NULL`` is unknown wherever it stands, under OR too: no key
    conjunct is singled out, the one NULL rule does it."""
    sql = "select a.x, b.y from a join b on a.k = b.k or a.x > 1000"
    rows = federation(TABLES).query(sql).table.rows
    assert (20, 200) not in rows
    assert sorted(rows) == sorted(sqlite_answer(TABLES, sql)[1])
