"""Zero-row inputs keep their columns through the batch coordinator.

A batch protocol can lose its layout exactly where no batch flows: an
empty join, filter or DISTINCT result must still name its columns, a LEFT
JOIN whose right side ships nothing must still pad with NULL columns, and
an ungrouped aggregate over nothing still yields its one row.  sqlite3 is
the oracle for names and rows alike.
"""

import pytest

from benchmarks.e2e.oracle import rows_match
from tests.sqlite_oracle import federation, sqlite_answer

A_ROWS = [(1, 10), (2, 20), (3, 30), (None, 40)]
B_ROWS = [(1, 100), (2, 200), (2, 250)]
FULL = {"a": (("k", "x"), A_ROWS), "b": (("k", "y"), B_ROWS)}
NO_B = {"a": (("k", "x"), A_ROWS), "b": (("k", "y"), [])}
NO_A = {"a": (("k", "x"), []), "b": (("k", "y"), B_ROWS)}

CASES = [
    # empty result through join / filter / DISTINCT
    (FULL, "select a.x, b.y from a join b on a.k = b.k where b.y > 1000"),
    (FULL, "select a.x, b.y from a join b on a.k = b.k where a.x + b.y > 1000"),
    (FULL, "select distinct a.x from a join b on a.k = b.k where a.x + b.y < 0"),
    (NO_B, "select a.x, b.y from a join b on a.k = b.k"),
    (NO_A, "select a.x, b.y from a join b on a.k = b.k"),
    (NO_A, "select a.x, b.y from a left join b on a.k = b.k"),
    (NO_B, "select a.x, b.y from a join b on a.k = b.k and a.x > 0"),
    (FULL, "select a.x, b.y from a join b on a.k = b.k order by a.x limit 0"),
    # a LEFT JOIN whose right side ships no rows: padding columns, all NULL
    (NO_B, "select a.x, b.k, b.y from a left join b on a.k = b.k"),
    (NO_B, "select a.x, b.y from a left join b on a.k = b.k and a.x > 15"),
    (FULL, "select a.x, b.y from a left join b on a.k = b.k and b.y > 1000"),
    (NO_B, "select a.x, b.y from a left join b on a.k = b.k order by a.x desc limit 2"),
    # ungrouped vs grouped aggregates over empty input
    (NO_B, "select count(*) as n, sum(b.y) as total, min(a.x) as lo "
           "from a join b on a.k = b.k"),
    (FULL, "select count(*) as n, max(b.y) as hi from a join b on a.k = b.k "
           "where a.x + b.y > 1000"),
    (NO_B, "select a.x, count(*) as n from a join b on a.k = b.k group by a.x"),
    (NO_B, "select a.x, count(b.y) as n, sum(b.y) as total "
           "from a left join b on a.k = b.k group by a.x"),
    (NO_A, "select count(*) as n, sum(x) as total from a"),
    (NO_A, "select k, count(*) as n from a group by k"),
]


@pytest.mark.parametrize("tables, sql", CASES)
def test_empty_inputs_keep_their_columns(tables, sql):
    names, expected = sqlite_answer(tables, sql)
    result = federation(tables).query(sql)
    assert list(result.table.schema.field_names) == names
    assert rows_match(result.table.rows, expected, ordered=" order by " in sql)
