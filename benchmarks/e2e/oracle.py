"""An independent answer oracle: stdlib ``sqlite3`` over the same rows.

The benchmark's statement shapes are restricted to SQL whose semantics
coincide in both dialects (see the README for what is left out), so the
text and the ``?`` parameters are passed through unchanged.  Float
aggregates are compared with a relative tolerance: the engine folds
per-fragment partial sums, sqlite one running sum.
"""

from __future__ import annotations

import math
import sqlite3

REL_TOL = 1e-9
ABS_TOL = 1e-9


class SqliteOracle:
    """In-memory sqlite loaded with ``{table: (columns, rows)}``."""

    def __init__(self, tables: dict) -> None:
        self.db = sqlite3.connect(":memory:")
        for name, (columns, rows) in tables.items():
            declared = ", ".join(f"{column} {kind}" for column, kind in columns)
            self.db.execute(f"create table {name} ({declared})")
            slots = ", ".join("?" for _ in columns)
            self.db.executemany(f"insert into {name} values ({slots})", rows)
        self.db.commit()

    def query(self, sql: str, params: tuple = ()) -> list[tuple]:
        return self.db.execute(sql, tuple(params)).fetchall()


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _same(a, b) -> bool:
    if isinstance(a, bool):
        a = int(a)
    if isinstance(b, bool):
        b = int(b)
    if _is_number(a) and _is_number(b):
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    return a == b


def _sort_key(row: tuple) -> tuple:
    # Floats are rounded in the *key* only, so answers that differ in the
    # last bits still line up for the element-wise tolerant comparison.
    return tuple(
        (value is None, round(value, 6) if isinstance(value, float) else value)
        for value in row
    )


def rows_match(actual: list, expected: list, ordered: bool) -> bool:
    """Equal as a sequence (``ordered``) or as a multiset of rows."""
    if len(actual) != len(expected):
        return False
    if not ordered:
        try:
            actual = sorted(actual, key=_sort_key)
            expected = sorted(expected, key=_sort_key)
        except TypeError:
            return False  # mixed types in one column: not the same answer
    return all(
        len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
        for a, b in zip(actual, expected)
    )
