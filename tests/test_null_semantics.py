"""SQL's NULL semantics, refereed by sqlite3.

One rule: a comparison with a NULL side is unknown, ``=`` and ``!=``
included; AND, OR and NOT are Kleene's, and NOT is pushed down to the
atoms as it is parsed; a filter keeps a row only where its condition is
true.  Part one is the probe table that used to disagree with sqlite, one
statement per row.  Part two is a grammar of WHERE predicates over
NULL-bearing int columns, run under every optimizer with the reuse stores
off and on, three times each (column orders answer a filter from the
second), ad hoc and prepared with ``?``.  Booleans are compared as the
ints sqlite gives; the grammar leaves out only what README's divergence
table lists.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.federation import CentralizedOptimizer, PolicyOptimizer, RoundRobinPolicy

from tests.sqlite_oracle import federation, row_order, sqlite_answer

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


def normalised(rows):
    """Rows in one order, booleans as the ints sqlite renders them."""
    return sorted(
        (tuple(int(v) if isinstance(v, bool) else v for v in row) for row in rows),
        key=row_order,
    )


def expected(sql):
    return normalised(sqlite_answer(TABLES, sql)[1])


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
    assert normalised(federation(TABLES).query(sql).table.rows) == expected(sql)


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
# A predicate is built as (text with literals inlined, text with ``?`` in
# their place, the values those bind).


def sql(*parts):
    """Concatenate fixed text and (inlined, template, values) parts."""
    inlined, template, values = "", "", ()
    for part in parts:
        if isinstance(part, str):
            part = (part, part, ())
        inlined, template, values = (
            inlined + part[0], template + part[1], values + part[2]
        )
    return inlined, template, values


def literal(value):
    text = "null" if value is None else f"({value})" if value < 0 else str(value)
    return text, "?", (value,)


def joined(parts, separator=", "):
    out = [parts[0]]
    for part in parts[1:]:
        out += [separator, part]
    return sql(*out)


COLUMNS = st.sampled_from(["k", "v", "w"]).map(sql)
LITERALS = st.sampled_from([None, *range(-2, 6)]).map(literal)
COMPARE = st.sampled_from([" = ", " != ", " <> ", " < ", " <= ", " > ", " >= "])
ATOMS = st.one_of(COLUMNS, LITERALS)
OPERANDS = st.one_of(
    ATOMS,
    st.tuples(ATOMS, st.sampled_from([" + ", " - "]), ATOMS).map(lambda t: sql(*t)),
)
SUBQUERIES = st.one_of(
    st.just(sql("(select x from u)")),
    LITERALS.map(lambda lit: sql("(select x from u where x > ", lit, ")")),
    LITERALS.map(lambda lit: sql("(select x from u where x is null or x > ", lit, ")")),
)


def _in(operand, negated, items):
    return sql(operand, " not in " if negated else " in ", items)


ATOMIC_PREDICATES = st.one_of(
    # ``column <op> literal`` either way round is sargable: pushed into the
    # source, zone-map pruned, a cache region.
    st.tuples(COLUMNS, COMPARE, LITERALS).map(lambda t: sql(*t)),
    st.tuples(LITERALS, COMPARE, COLUMNS).map(lambda t: sql(*t)),
    st.tuples(OPERANDS, COMPARE, OPERANDS).map(lambda t: sql(*t)),
    st.tuples(OPERANDS, st.sampled_from([" is null", " is not null"])).map(
        lambda t: sql(*t)
    ),
    st.builds(
        _in,
        OPERANDS,
        st.booleans(),
        st.lists(ATOMS, min_size=1, max_size=3).map(
            lambda items: sql("(", joined(items), ")")
        ),
    ),
    st.builds(_in, OPERANDS, st.booleans(), SUBQUERIES),
    st.tuples(
        OPERANDS,
        st.sampled_from([" between ", " not between "]),
        OPERANDS,
        st.just(" and "),
        OPERANDS,
    ).map(lambda t: sql(*t)),
)
PREDICATES = st.recursive(
    ATOMIC_PREDICATES,
    lambda inner: st.one_of(
        inner.map(lambda p: sql("not (", p, ")")),
        st.tuples(inner, st.sampled_from([" and ", " or "]), inner).map(
            lambda t: sql("(", t[0], ")", t[1], "(", t[2], ")")
        ),
    ),
    max_leaves=4,
)

OPTIMIZERS = {
    "agoric": None,
    "centralized": CentralizedOptimizer,
    "policy": lambda catalog: PolicyOptimizer(catalog, RoundRobinPolicy()),
}
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
    wants = [expected(statement[0]) for statement in statements]
    for optimizer, reuse in ENGINES:
        engine = federation(TABLES, OPTIMIZERS[optimizer], reuse)
        for statement, want in zip(statements, wants):
            for run, rows in enumerate(answers(engine, *statement)):
                assert normalised(rows) == want, (optimizer, reuse, run, statement)


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(predicate=PREDICATES.filter(lambda p: "select" not in p[0]))
def test_a_selected_predicate_is_true_false_or_null_as_in_sqlite(predicate):
    statement = sql("select k, ", predicate, " from t")
    want = expected(statement[0])
    for run, rows in enumerate(answers(federation(TABLES), *statement)):
        assert normalised(rows) == want, (run, statement)
