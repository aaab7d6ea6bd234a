"""SQL's NULL semantics, refereed by sqlite3.

One rule: a comparison with a NULL side is unknown, ``=`` and ``!=``
included; AND, OR and NOT are Kleene's, and NOT is pushed down to the
atoms as it is parsed; a filter keeps a row only where its condition is
true.  Part one is the probe table that used to disagree with sqlite, one
statement per row, and two rows of README's divergence table pinned.  Part
two is a grammar of WHERE predicates over NULL-bearing int columns, run
under every optimizer with the reuse stores off and on, three times each
(column orders answer a filter from the second), ad hoc and prepared with
``?``.  The grammar that holds the whole dialect to sqlite is
``tests/test_against_sqlite.py``.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from benchmarks.e2e.oracle import rows_match
from tests.sqlite_oracle import (
    OPTIMIZERS,
    federation,
    joined,
    literal,
    phrase,
    sql,
    sqlite_answer,
)

# t(k, v, w) holds NULLs in v and w, and the w = 2 group's v is all NULL;
# u(x) holds one NULL.  Rows are dealt to the two fragments alternately, so
# each fragment holds NULL and non-NULL cells of v and w alike: no fragment
# is pruned as all-NULL, and the NULL cells reach the source's kernels.
TABLES = {
    "t": (
        ("k", "v", "w"),
        [(1, 1, 1), (2, None, 2), (3, 3, 3), (4, 4, None), (5, None, 2),
         (6, 2, 1), (7, None, None)],  # fmt: skip
    ),
    "u": (("x",), [(1,), (3,), (None,)]),
}

# -- part one: the probes ------------------------------------------------------

USED_TO_DISAGREE = [
    "select k from t where v <> 1",
    "select k from t where v != w",
    "select k from t where v <> 1 or w = 2",
    "select k from t where v = w",
    "select k from t where not (v = w)",
    "select k from t where not (v >= 2)",
    "select k from t where not (v between 2 and 4)",
    "select k from t where not (v > 1 and w > 1)",
    "select k from t where not (v + w > 1)",
    "select k from t where v not in (1, null)",
    "select k from t where k not in (select x from u)",
    "select w, sum(v) from t group by w having not (sum(v) > 3)",
    "select t.k, u.x from t left join u on t.v = u.x where not (u.x = 1)",
    "select k, v = w from t",
]
ALWAYS_AGREED = [
    "select k from t where v is null",
    "select k from t where v is not null",
    "select k from t where v in (1, 3)",
    "select k from t where v between 2 and 4",
    "select k from t where v = 1 or w = 2",
    "select count(*), count(v) from t",
]


@pytest.mark.parametrize("sql", USED_TO_DISAGREE + ALWAYS_AGREED)
def test_probe(sql):
    rows = federation(TABLES).query(sql).table.rows
    assert rows_match(rows, sqlite_answer(TABLES, sql)[1], ordered=False)


def test_an_incomparable_later_conjunct_raises_only_on_the_row_path():
    """README's divergence table: a row whose first conjunct is unknown is
    never handed to the second by a kernel, so an incomparable pair there
    raises on the row path only (here ``v + 0`` keeps the first conjunct
    off the kernels)."""
    from repro.core.errors import QueryError

    engine = federation({"t": (("k", "v"), [(1, None), (2, 5)])})
    kernel = "select k from t where v > ? and k < ?"
    row_path = "select k from t where v + 0 > ? and k < ?"
    prepared = engine.prepare(kernel)
    for _ in range(3):
        assert engine.execute(prepared, (9, "x")).table.rows == []
    with pytest.raises(QueryError, match="cannot compare"):
        engine.execute(engine.prepare(row_path), (9, "x"))


def test_not_of_a_comparison_is_its_complement_so_nan_is_false_both_ways():
    """README's divergence table: ``not (x < 1)`` is stored as ``x >= 1``,
    and NaN compares false with everything, so both keep no NaN row."""
    from repro.sql import evaluate, parse_sql

    where = parse_sql("select * from t where not (x < 1)").where
    assert where == parse_sql("select * from t where x >= 1").where
    assert evaluate(where, {"x": float("nan")}) is False


# -- part two: a grammar of WHERE predicates -----------------------------------

COLUMNS = st.sampled_from(["k", "v", "w"])
LITERALS = st.sampled_from([None, *range(-2, 6)]).map(literal)
COMPARE = st.sampled_from([" = ", " != ", " <> ", " < ", " <= ", " > ", " >= "])
ATOMS = st.one_of(COLUMNS, LITERALS)
OPERANDS = ATOMS | phrase(ATOMS, st.sampled_from([" + ", " - "]), ATOMS)
SUBQUERIES = st.one_of(
    st.just(sql("(select x from u)")),
    phrase("(select x from u where x > ", LITERALS, ")"),
    phrase("(select x from u where x is null or x > ", LITERALS, ")"),
)
ATOMIC_PREDICATES = st.one_of(
    # ``column <op> literal`` either way round is sargable: pushed into the
    # source, zone-map pruned, a cache region.
    phrase(COLUMNS, COMPARE, LITERALS),
    phrase(LITERALS, COMPARE, COLUMNS),
    phrase(OPERANDS, COMPARE, OPERANDS),
    phrase(OPERANDS, st.sampled_from([" is null", " is not null"])),
    phrase(
        OPERANDS,
        st.sampled_from([" in (", " not in ("]),
        st.lists(ATOMS, min_size=1, max_size=3).map(joined),
        ")",
    ),
    phrase(OPERANDS, st.sampled_from([" in ", " not in "]), SUBQUERIES),
    phrase(
        OPERANDS, st.sampled_from([" between ", " not between "]),
        OPERANDS, " and ", OPERANDS,
    ),  # fmt: skip
)
PREDICATES = st.recursive(
    ATOMIC_PREDICATES,
    lambda inner: st.one_of(
        phrase("not (", inner, ")"),
        phrase("(", inner, ")", st.sampled_from([" and ", " or "]), "(", inner, ")"),
    ),
    max_leaves=4,
)
ENGINES = [(optimizer, reuse) for optimizer in OPTIMIZERS for reuse in (False, True)]


def answers(engine, inlined, template, values):
    """Three ad-hoc executions, then three of the prepared template."""
    for _ in range(3):
        yield engine.query(inlined).table.rows
    prepared = engine.prepare(template)
    for _ in range(3):
        yield engine.execute(prepared, values).table.rows


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(predicates=st.lists(PREDICATES, min_size=1, max_size=2))
def test_a_where_clause_keeps_what_sqlite_keeps(predicates):
    """Two statements share each engine, so with reuse on the second may be
    answered from a cache region or an artifact the first left behind."""
    statements = [sql("select k from t where ", p) for p in predicates]
    wants = [sqlite_answer(TABLES, statement[0])[1] for statement in statements]
    for optimizer, reuse in ENGINES:
        engine = federation(TABLES, OPTIMIZERS[optimizer], reuse)
        for statement, want in zip(statements, wants):
            for run, rows in enumerate(answers(engine, *statement)):
                assert rows_match(rows, want, ordered=False), (
                    optimizer, reuse, run, statement
                )  # fmt: skip


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(predicate=PREDICATES.filter(lambda p: "select" not in p[0]))
def test_a_selected_predicate_is_true_false_or_null_as_in_sqlite(predicate):
    statement = sql("select k, ", predicate, " from t")
    want = sqlite_answer(TABLES, statement[0])[1]
    for run, rows in enumerate(answers(federation(TABLES), *statement)):
        assert rows_match(rows, want, ordered=False), (run, statement)

