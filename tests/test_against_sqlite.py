"""The engine's answers, refereed by sqlite3.

A Hypothesis grammar over the supported dialect, on one fixed fixture of
NULL-bearing int, float, str and bool columns:

* select lists of columns, ``+ - *`` arithmetic and selected predicates;
* WHERE: comparisons, IN / NOT IN over lists and subqueries, BETWEEN,
  LIKE / NOT LIKE, IS [NOT] NULL, ``[not] match(t.s, q)`` (which sqlite
  answers through an FTS5 index of ``t.s``) and nested NOT / AND / OR;
* inner and left joins on an equi-key with an optional residual conjunct;
* GROUP BY / HAVING over ``count(*)``, ``count``, ``sum``, ``avg``, ``min``
  and ``max``, and DISTINCT;
* ORDER BY a total key, then LIMIT -- and a family of its own, joins under
  ORDER BY ... LIMIT 1 to 4, where each fragment of the binding the first
  key reads may ship its top k alone and the coordinator Sort must notice
  when the join dropped too many of them;
* an ordinal family: every ORDER BY and GROUP BY key written as its output
  position, which sqlite3 reads an integer literal in either clause as;
* a one-side-aggregate family: joins whose aggregates all read one side, so
  the aggregation is pushed below the join wherever the eager rule allows.

Each example draws one value per switch the engine has -- optimizer, reuse
stores, a governed tenant, re-optimization, the entry (ad hoc with the
literals inlined, or prepared or through a gateway session with ``?``) and
the layout (1, 2 or 4 fragments; one replica, or two with a replica's site
down after the first execution) -- and runs each statement three times
(column orders answer a filter from the second).  A second property adds a
write: one fragment of ``t`` changes between the statements' runs and the
catalog hears of it by fragment id or for the whole table, so with reuse on
the runs after it refresh stale parts of cache regions and stage artifacts
-- over zone-map-pruned fragments and partial-aggregate stages too -- and
under ``LIVE_ONLY`` serve none.  Rows and floats are
compared by ``benchmarks.e2e.oracle.rows_match``, and the engine's value
types must be exact.  The grammar leaves out exactly README's divergence
table: CASE, ``%`` and ``/`` are never written, the fixture holds no NaN,
no aggregate is DISTINCT, the sides of a comparison are both numbers,
both strings or both booleans, and a ``match`` query is one ASCII word.
The table's refusal rows are data here
(``DIVERGENCES``): each example is answered by sqlite3 and refused by the
engine, through every entry, with the listed error naming the form.
"""

import sqlite3
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from benchmarks.e2e.oracle import rows_match
from repro.connect.source import StaticSource
from repro.core import DataType, Field, Table
from repro.core.errors import PartialFailureError, QueryError
from repro.sql.lexer import SqlLexError
from repro.sql.parser import SqlParseError
from repro.federation import Gateway, WorkloadManager, dbapi
from repro.federation.engine import LIVE_ONLY
from repro.federation.governance import GovernanceRegistry
from repro.sim import EventLoop

from tests.sqlite_oracle import (
    OPTIMIZERS,
    federation,
    fts5_match,
    fts5_shadow,
    joined,
    literal,
    phrase,
    sql,
    sqlite_answer,
)

I, F, S, B = DataType.INTEGER, DataType.FLOAT, DataType.STRING, DataType.BOOLEAN
# k is t's key.  As join keys, u.k repeats 1, holds a NULL and a 20 no t.k
# matches, and t.v repeats values and holds NULLs.  The s = 'b' group's v and
# x are all NULL; most other groups have non-NULL values on more than one
# of 2 or 4 fragments (rows are dealt round-robin), so partial aggregates
# merge.  The floats are dyadic, so sums are exact in any order.
TABLES = {
    "t": (
        (Field("k", I), Field("v", I), Field("x", F), Field("s", S), Field("b", B)),
        [(1, 1, 0.5, "ab", True), (2, None, None, "b", False),
         (3, 3, None, "abc", None), (4, 4, -2.0, None, True),
         (5, None, None, "b", True), (6, 2, 3.75, "ca", False),
         (7, None, 0.5, None, None), (8, 3, 1.25, "ab", False),
         (9, 4, 3.75, "ca", True), (10, 1, -2.0, "abc", False),
         (11, 2, 0.5, "ab", None), (12, None, 1.25, None, True)],  # fmt: skip
    ),
    "u": (
        (Field("k", I), Field("w", I), Field("s", S)),
        [(1, 10, "ab"), (1, None, "b"), (3, 2, None), (None, 4, "ab"),
         (4, None, "c"), (20, 1, "ca")],  # fmt: skip
    ),
}
TYPES = {I: int, F: float, S: str, B: bool}


def columns_of(table, prefix=""):
    return {prefix + f.name: TYPES[f.dtype] for f in TABLES[table][0]}


# -- the grammar ---------------------------------------------------------------

NUMBER = (int, float)
KINDS = (NUMBER, (str,), (bool,))
ANY = NUMBER + (str, bool)
LITERALS = [None, *range(-2, 6), -2.0, 0.5, 1.25, "", "a", "ab", "b", "ca", True, False]
PATTERNS = st.sampled_from(["%", "a%", "A%", "%b", "_b%", "a_", "_", "%a%c"])
# ``match(t.s, q)``: t.s's tokens, and a miss that is a prefix of two of them.
TEXT = ("s", "t.s")
MATCH_QUERIES = st.sampled_from(["ab", "abc", "b", "ca", "a"])
COMPARE = st.sampled_from([" = ", " != ", " <> ", " < ", " <= ", " > ", " >= "])
ARITHMETIC = st.sampled_from([" + ", " - ", " * "])
AND_OR = st.sampled_from([" and ", " or "])
AGGREGATES = {"count": ANY, "sum": NUMBER, "avg": NUMBER, "min": ANY, "max": ANY}


def literals(kinds):
    values = [value for value in LITERALS if value is None or type(value) in kinds]
    return st.sampled_from(values).map(literal)


def subqueries(column):
    return st.one_of(
        st.just(sql(f"(select {column} from u)")),
        phrase(f"(select {column} from u where w > ", literals(NUMBER), ")"),
        phrase(
            f"(select {column} from u where w is null or k > ", literals(NUMBER), ")"
        ),
    )


def nested(atoms):
    return st.recursive(
        atoms,
        lambda inner: st.one_of(
            phrase("not (", inner, ")"),
            phrase("(", inner, ")", AND_OR, "(", inner, ")"),
        ),
        max_leaves=3,
    )


class Grammar:
    """The strategies over one FROM clause's columns (name -> type)."""

    def __init__(self, columns):
        self.columns = columns
        text = [column for column in columns if column in TEXT]
        self.matches = phrase(
            st.sampled_from(["match(", "not match("]),
            st.sampled_from(text), ", ", MATCH_QUERIES.map(literal), ")",
        )  # fmt: skip
        self.atomic = self._weighted(subquery=False)
        self.plain = nested(self.atomic)  # no subquery
        self.predicates = nested(self._weighted(subquery=True))

    def _weighted(self, subquery):
        """Atomic predicates, numbers twice as often as strings or booleans."""
        atomic = {kinds: self._atomic(kinds, subquery) for kinds in KINDS}
        return st.sampled_from([NUMBER, *KINDS]).flatmap(atomic.__getitem__)

    def column(self, kinds):
        return st.sampled_from([c for c, t in self.columns.items() if t in kinds])

    def _operands(self, kinds):
        atoms = st.one_of(self.column(kinds), literals(kinds))
        return atoms | phrase(atoms, ARITHMETIC, atoms) if kinds == NUMBER else atoms

    def _subjects(self, kinds):
        """Operands that hold a column, so the predicate is not a constant."""
        column = self.column(kinds)
        if kinds != NUMBER:
            return column
        return column | phrase(column, ARITHMETIC, self._operands(kinds))

    def _atomic(self, kinds, subquery):
        subjects, operands = self._subjects(kinds), self._operands(kinds)
        atoms = st.one_of(self.column(kinds), literals(kinds))
        items = st.lists(atoms, min_size=1, max_size=3).map(joined)
        forms = [
            # ``column <op> literal`` either way round is sargable: pushed
            # into the source, zone-map pruned, a cache region.
            phrase(self.column(kinds), COMPARE, literals(kinds)),
            phrase(literals(kinds), COMPARE, self.column(kinds)),
            phrase(subjects, COMPARE, operands),
            phrase(operands, st.sampled_from([" is null", " is not null"])),
            phrase(subjects, st.sampled_from([" in (", " not in ("]), items, ")"),
            phrase(
                subjects, st.sampled_from([" between ", " not between "]),
                operands, " and ", operands,
            ),  # fmt: skip
        ]
        if kinds == (str,):
            like = st.sampled_from([" like ", " not like "])
            forms.append(phrase(self.column(kinds), like, PATTERNS.map(literal)))
            forms.append(self.matches)
        if subquery and kinds != (bool,):
            in_subquery = st.sampled_from([" in ", " not in "])
            column = "k" if kinds == NUMBER else "s"
            forms.append(phrase(subjects, in_subquery, subqueries(column)))
        return st.one_of(*forms)

    def select_items(self):
        """(select item, the type of its non-NULL values)."""
        columns = [(c, kind) for c, kind in self.columns.items() if kind in NUMBER]
        numbers = [(literal(v), type(v)) for v in LITERALS if type(v) in NUMBER]
        numbers += columns

        def arithmetic(a, op, b):
            return sql(a[0], op, b[0]), float if float in (a[1], b[1]) else int

        return st.one_of(
            st.sampled_from(sorted(self.columns.items())),
            st.builds(
                arithmetic,
                st.sampled_from(columns),
                ARITHMETIC,
                st.sampled_from(numbers),
            ),
            self.plain.map(lambda p: (p, bool)),
        )

    def aggregates(self):
        def call(name, column):
            kind = {"count": int, "avg": float}.get(name, self.columns[column])
            return sql(f"{name}({column})"), kind

        return st.one_of(
            st.just((sql("count(*)"), int)),
            *(
                st.builds(call, st.just(name), self.column(kinds))
                for name, kinds in AGGREGATES.items()
            ),
        )

    def having(self):
        numeric = st.one_of(
            st.just("count(*)"),
            phrase(st.sampled_from(sorted(AGGREGATES)), "(", self.column(NUMBER), ")"),
        )
        comparison = phrase(numeric, COMPARE, literals(NUMBER))
        return phrase(st.sampled_from(["", "not "]), "(", comparison, ")")


T = Grammar(columns_of("t"))
JOINED = Grammar({**columns_of("t", "t."), **columns_of("u", "u.")})
JOIN_KEYS = [("t.k", "u.k"), ("t.v", "u.k"), ("t.v", "u.w")]


class Statement(NamedTuple):
    text: tuple  # (inlined, template, values)
    types: tuple  # the type of each output column's non-NULL values
    ordered: bool = False
    narrowed: bool = False  # first run served by a cache region when reuse is on


@st.composite
def statements(draw, top_k=False, ordinal=False, match=False):
    """A drawn statement; with ``top_k``, a join under ORDER BY ... LIMIT
    1 to 4 with no grouping and no DISTINCT; with ``ordinal``, ordered, and
    every ORDER BY and GROUP BY key written as its output position; with
    ``match``, its WHERE a ``match`` atom, alone or beside a predicate."""
    joins = [" join ", " left join "] if top_k else [None, None, " join ", " left join "]
    join = draw(st.sampled_from(joins))
    grammar, source = (T, ("t",)) if join is None else (JOINED, ())
    if join is not None:
        left, right = draw(st.sampled_from(JOIN_KEYS))
        residual = draw(st.none() | JOINED.atomic)
        source = (f"t{join}u on {left} = {right}",)
        source += () if residual is None else (" and ", residual)
    where = draw(st.none() | grammar.predicates)
    if match:
        around = st.just(()) if where is None else st.tuples(AND_OR, st.just(where))
        where = sql(draw(grammar.matches), *draw(around))
    clauses = () if where is None else (" where ", where)
    if not top_k and draw(st.booleans()):
        # Not t's key: its groups are single rows, which merge no partials.
        group_keys = grammar.column(ANY).filter(lambda c: c not in ("k", "t.k"))
        key = draw(st.none() | group_keys)
        items = draw(st.lists(grammar.aggregates(), min_size=1, max_size=3))
        distinct, keys = "", []
        if key is not None:
            items, keys = [(key, grammar.columns[key]), *items], [0]
            having = draw(st.none() | grammar.having())
            clauses += (f" group by {1 if ordinal else key}",)
            clauses += () if having is None else (" having ", having)
    else:
        items = draw(st.lists(grammar.select_items(), min_size=1, max_size=3))
        distinct = "" if top_k else draw(st.sampled_from(["", "distinct "]))
        keys = list(range(len(items)))
    ordered = bool(keys) and (top_k or ordinal or draw(st.booleans()))
    if ordered:
        directions = [draw(st.sampled_from(["", " desc"])) for _ in keys]
        keys = [str(i + 1) if ordinal else f"c{i}" for i in keys]
        clauses += (" order by ", ", ".join(map(str.__add__, keys, directions)))
        count = draw(st.integers(1, 4) if top_k else st.none() | st.integers(0, 4))
        clauses += () if count is None else (" limit ", literal(count))
    columns = joined([sql(item, f" as c{i}") for i, (item, _) in enumerate(items)])
    text = sql(f"select {distinct}", columns, " from ", *source, *clauses)
    return Statement(text, tuple(kind for _, kind in items), ordered)


NARROWING = f"select {', '.join(T.columns)} from t where "
# ``v > c`` caches a region that also answers the narrower ``v > c + d``
# or ``v = c + d``, leaving ``k <= e`` a residual.
NARROWING_PAIRS = st.builds(
    lambda c, op, d, e: [
        Statement(sql(NARROWING, "v > ", literal(c)), tuple(T.columns.values())),
        Statement(
            sql(NARROWING, "v", op, literal(c + d), " and k <= ", literal(e)),
            tuple(T.columns.values()),
            narrowed=True,
        ),
    ],
    st.integers(-2, 2),
    st.sampled_from([" > ", " = "]),
    st.integers(1, 2),
    st.integers(2, 12),
)

# One or two drawn statements two times in five, else a narrowing pair, or
# one or two top-k statements, or of the match family: a ``[not] match(t.s,
# q)`` atom in every WHERE.
FAMILIES = ["drawn", "drawn", "narrowing", "top-k", "match"]
STATEMENTS = st.sampled_from(FAMILIES).flatmap(
    lambda family: NARROWING_PAIRS
    if family == "narrowing"
    else st.lists(
        statements(top_k=family == "top-k", match=family == "match"),
        min_size=1,
        max_size=2,
    )
)

# -- the switches --------------------------------------------------------------

MASKS = {
    "redact": "update t set s = '***' where s is not null",
    "null": "update t set s = null",
}


class Switches(NamedTuple):
    optimizer: str
    reuse: bool
    policy: tuple | None  # (row filter, mask style on t.s)
    reopt: bool
    entry: str
    fragments: int
    down: str | None  # two replicas, and this site down after the first execution


SWITCHES = st.builds(
    Switches,
    st.sampled_from(sorted(OPTIMIZERS)),
    st.booleans(),
    st.none() | st.tuples(T.atomic.map(lambda p: p[0]), st.sampled_from(sorted(MASKS))),
    st.booleans(),
    st.sampled_from(["ad hoc", "prepared", "gateway"]),
    st.sampled_from([1, 2, 4]),
    st.none() | st.sampled_from(["s0", "s1", "s2"]),
)


def expected(switches, statement, tables=TABLES):
    """sqlite's column names and rows; a governed tenant's ``t`` is the
    table its policy leaves, made by sqlite from the raw rows.  FTS5
    answers ``match`` over the raw ``s`` in the row filter and over the
    masked ``s`` in the statement."""
    text = fts5_match(statement.text[0], "t")
    if switches.policy is None:
        return sqlite_answer(tables, text, fts5_shadow("t", "s"))
    row_filter, mask = switches.policy
    prelude = (
        *fts5_shadow("raw", "s"),
        f"create table t as select * from raw where {fts5_match(row_filter, 'raw')}",
        MASKS[mask],
        *fts5_shadow("t", "s"),
    )
    tables = {"raw": tables["t"], "u": tables["u"]}
    return sqlite_answer(tables, text, prelude)


class Write(NamedTuple):
    """One fragment of ``t`` rewritten between the runs: ``fragment`` (an
    index, taken modulo the layout's fragment count), notified by its id or
    as the whole table, and every statement run ``LIVE_ONLY`` or not."""

    fragment: int
    whole: bool
    live_only: bool


# A notify by fragment id three times in four, and LIVE_ONLY one in four.
ONE_IN_FOUR = st.sampled_from([False, False, False, True])
WRITES = st.builds(Write, st.integers(0, 3), ONE_IN_FOUR, ONE_IN_FOUR)


def written(fragments, index):
    """``TABLES`` after the write, and fragment ``index``'s new rows: its
    ``v`` moved up by one and one row added, whose ``k`` no zone map of
    the old rows allows."""
    columns, rows = TABLES["t"]
    dealt = [list(rows[i::fragments]) for i in range(fragments)]  # as loaded
    dealt[index] = [
        (k, v if v is None else v + 1, x, s, b) for k, v, x, s, b in dealt[index]
    ] + [(13 + index, 5, 2.5, "ab", True)]
    tables = {**TABLES, "t": (columns, [row for part in dealt for row in part])}
    return tables, dealt[index]


def write(engine, fragments, change):
    """Host fragment ``change.fragment``'s new rows at each of its replicas,
    then notify the catalog."""
    index = change.fragment % fragments
    catalog = engine.catalog
    entry = catalog.entry("t")
    fragment = entry.fragments[index]
    table = Table(entry.schema, written(fragments, index)[1])
    for site_name, local_name in fragment.replicas.items():
        catalog.site(site_name).host(StaticSource(local_name, table), local_name)
    catalog.notify_table_updated("t", None if change.whole else fragment.fragment_id)


def engine_for(switches):
    """The federation the switches build, and the tenant that asks."""
    governance, tenant = None, None
    if switches.policy is not None:
        row_filter, mask = switches.policy
        policy = {"row_filter": row_filter, "masks": {"s": mask}}
        manifest = {"version": 1, "tenants": {"tenant": {"tables": {"t": policy}}}}
        governance, tenant = GovernanceRegistry(manifest), "tenant"
    engine = federation(
        TABLES,
        OPTIMIZERS[switches.optimizer],
        switches.reuse,
        fragments=switches.fragments,
        replicas=1 if switches.down is None else 2,
        governance=governance,
        reopt=switches.reopt,
    )
    return engine, tenant


def answers(switches, statements, change=None):
    """Yield (statement, run, result): each statement three times, in turn,
    on one engine; with a ``change``, then :func:`write` and each statement
    three times more (runs 3 to 5).  A prepared statement is prepared once,
    before its first run, and executed across the write."""
    engine, tenant = engine_for(switches)
    if switches.entry == "gateway":
        manager = WorkloadManager(engine, EventLoop(engine.catalog.clock))
        session = Gateway(manager).connect(tenant=tenant or "default")
    staleness = LIVE_ONLY if change is not None and change.live_only else None
    templates = {}
    for phase in range(1 if change is None else 2):
        if phase:
            write(engine, switches.fragments, change)
        for statement in statements:
            inlined, template, values = statement.text
            if switches.entry == "prepared" and statement not in templates:
                templates[statement] = engine.prepare(
                    template, tenant=tenant, max_staleness=staleness
                )
            prepared = templates.get(statement)
            for run in range(3 * phase, 3 * phase + 3):
                if switches.entry == "ad hoc":
                    result = engine.query(
                        inlined, tenant=tenant, max_staleness=staleness
                    )
                elif switches.entry == "prepared":
                    result = engine.execute(prepared, values)
                else:
                    result = session.execute(
                        template, values, max_staleness=staleness
                    ).result
                yield statement, run, result
                if switches.down is not None:
                    engine.catalog.site(switches.down).up = False


def assert_answers(statement, run, result, want):
    """``result`` has sqlite's column names and rows, and exact types."""
    names, rows_wanted = want
    rows = result.table.rows
    assert list(result.table.schema.field_names) == names
    assert rows_match(rows, rows_wanted, statement.ordered), (run, rows)
    for row in rows:
        for value, kind in zip(row, statement.types, strict=True):
            assert value is None or type(value) is kind, (run, row)


def is_fully_pruned(assignment):
    """A zero-price fragment plan whose zone maps proved every fragment
    empty -- it legitimately outbids even a covering cache region."""
    return (
        assignment.kind == "fragments"
        and assignment.total_fragments > 0
        and assignment.pruned_fragments >= assignment.total_fragments
    )


# Derandomized: every run checks the same 500 examples, so a fault one of
# them shows is shown on every run, by the same falsifying example.
@settings(
    max_examples=500,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(switches=SWITCHES, statements=STATEMENTS)
def test_a_statement_answers_what_sqlite_answers(switches, statements):
    """Two statements share each engine, so with reuse on the second may be
    answered from a cache region or an artifact the first left behind."""
    wants = {statement: expected(switches, statement) for statement in statements}
    for statement, run, result in answers(switches, statements):
        assert_answers(statement, run, result, wants[statement])
        if switches.reuse and statement.narrowed and run == 0:
            assignment = result.plan.assignments["t"]
            assert assignment.kind == "cache" or is_fully_pruned(assignment)


# The ordinal family: with or without the top-k shapes, one or two statements.
ORDINALS = st.booleans().flatmap(
    lambda top_k: st.lists(
        statements(top_k=top_k, ordinal=True), min_size=1, max_size=2
    )
)


@settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(switches=SWITCHES, statements=ORDINALS)
def test_an_ordinal_reads_the_output_position(switches, statements):
    """``order by 2`` sorts by the second output column, not by the
    constant 2, and ``group by 1`` groups by the first; a site top-k over
    an ordinal ships each fragment's top by that column."""
    wants = {statement: expected(switches, statement) for statement in statements}
    for statement, run, result in answers(switches, statements):
        assert_answers(statement, run, result, wants[statement])


# The one-side-aggregate family: every aggregate reads one side of a join,
# so the eager rule (rewrite.AggregateSplitting) pushes the aggregation below
# the join whenever that side is ``t`` -- it has more rows than ``u`` -- and
# the join keeps every row of ``t``.  Inner and left joins with either side
# first, NULL join keys (t.v, u.k and u.w hold NULLs), a side emptied at its
# sites, scalar aggregates and HAVING over count(*), count, sum, avg, min
# and max.
SIDES = {"t": Grammar(columns_of("t", "t.")), "u": Grammar(columns_of("u", "u."))}
ONE_SIDE_ON = [None, "t.x > 0", "u.w > 1", "t.v < u.w", "u.s is not null"]
ONE_SIDE_WHERE = [  # (the binding it reads, the predicate)
    ("t", sql("t.k > ", literal(100))),
    ("u", sql("u.k > ", literal(100))),
    ("t", sql("t.x is not null")),
    ("t", sql("t.v between ", literal(1), " and ", literal(3))),
    ("u", sql("u.w is null or u.w < ", literal(5))),
    ("t", sql("t.s like ", literal("a%"))),
]


class OneSide(NamedTuple):
    statement: Statement
    pushed: bool  # the eager rule must push the aggregation below the join


@st.composite
def one_side_statements(draw):
    first = draw(st.sampled_from(["t", "u"]))
    second = "u" if first == "t" else "t"
    join = draw(st.sampled_from([" join ", " left join "]))
    left, right = draw(st.permutations(draw(st.sampled_from(JOIN_KEYS))))
    residual = draw(st.sampled_from(ONE_SIDE_ON))
    source = (f"{first}{join}{second} on {left} = {right}",)
    source += () if residual is None else (f" and {residual}",)
    side = draw(st.sampled_from(["t", "t", "t", "u"]))  # the aggregated side
    items = draw(st.lists(SIDES[side].aggregates(), min_size=1, max_size=3))
    reads_t = side == "t" or all(item[0][0] == "count(*)" for item in items)
    where = draw(st.none() | st.sampled_from(ONE_SIDE_WHERE))
    clauses = () if where is None else (" where ", where[1])
    key = draw(st.none() | JOINED.column(ANY))
    if key is not None:
        items = [(key, JOINED.columns[key]), *items]
        clauses += (f" group by {key}",)
        having = draw(st.none() | SIDES[side].having())
        clauses += () if having is None else (" having ", having)
    columns = joined([sql(item, f" as c{i}") for i, (item, _) in enumerate(items)])
    text = sql("select ", columns, " from ", *source, *clauses)
    kept = join == " join " or first == "t"  # no row of t is null-extended
    # A WHERE over the null-extended side stays above the join.
    above = join != " join " and where is not None and where[0] != first
    statement = Statement(text, tuple(kind for _, kind in items))
    return OneSide(statement, reads_t and kept and not above)


@settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(switches=SWITCHES, drawn=st.lists(one_side_statements(), min_size=1, max_size=2))
def test_an_aggregate_over_one_side_of_a_join_answers_what_sqlite_answers(
    switches, drawn
):
    """The pushed aggregation's merged states cross the join unfinished and
    are merged again above it: a group joined to m rows counts m times, and
    a scalar aggregate over an empty join still counts 0."""
    pushed = {one.statement: one.pushed for one in drawn}
    statements = list(pushed)
    wants = {statement: expected(switches, statement) for statement in statements}
    for statement, run, result in answers(switches, statements):
        assert_answers(statement, run, result, wants[statement])
        operators = {stats.name for stats in result.report.operators.walk()}
        assert ("MergePartials" in operators) == pushed[statement], run


# ``k >= c`` over ``t`` dealt round-robin prunes fragments by their zone maps
# (f0 of four holds k = 1, 5, 9), grouped or not; the write's new row is
# what a written fragment's dropped zone map no longer rules out.
PRUNED = st.builds(
    lambda c, grouped: [
        Statement(
            sql("select s as c0, count(*) as c1, sum(v) as c2 from t where k >= ",
                literal(c), " group by s"),
            (str, int, int),
        )
        if grouped
        else Statement(sql("select k as c0, v as c1 from t where k >= ", literal(c)),
                       (int, int))
    ],
    st.integers(9, 16),
    st.booleans(),
)  # fmt: skip


def serves_no_part(result):
    """No stored answer in the plan or the run: every scan read live."""
    report = result.report
    return (
        all(a.kind == "fragments" for a in result.plan.assignments.values())
        and report.artifact_hits == report.artifact_joins == 0
        and not any(
            "artifact" in stats.detail for stats in report.operators.walk()
        )
    )


@settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    # With the reuse stores three times in four: they are what a write stales.
    switches=st.tuples(SWITCHES, ONE_IN_FOUR).map(
        lambda drawn: drawn[0]._replace(reuse=not drawn[1])
    ),
    statements=st.sampled_from([False, False, True]).flatmap(
        lambda pruned: PRUNED if pruned else STATEMENTS
    ),
    change=WRITES,
)
def test_a_statement_after_a_write_answers_what_sqlite_answers(
    switches, statements, change
):
    """Every answer after the write is sqlite's over the current content,
    however much of it the reuse stores kept.  A template executed across
    the write re-prepares only when its plan's zone maps pruned a written
    fragment: a prune reads content, a named copy is resolved per run."""
    index = change.fragment % switches.fragments
    after, _ = written(switches.fragments, index)
    wants = {
        statement: (expected(switches, statement), expected(switches, statement, after))
        for statement in statements
    }
    rewritten = {
        f"f{i}" for i in range(switches.fragments) if change.whole or i == index
    }
    pruned = {}  # statement -> the ids of t's fragments its plan pruned
    for statement, run, result in answers(switches, statements, change):
        assert_answers(statement, run, result, wants[statement][run >= 3])
        if change.live_only:
            assert serves_no_part(result), run
        if switches.entry == "ad hoc":
            continue
        template = result.prepared
        if run < 3:
            pruned[statement] = {
                f.fragment_id for f, _ in template.pruned if f.table_name == "t"
            }
        else:
            assert template.replans == bool(pruned[statement] & rewritten), run


# -- names: unknown and ambiguous -------------------------------------------------
# A statement with one name put in one slot of it.  The name is refused by
# sqlite3 when it prepares the text (no such column, ambiguous column name),
# or it is a column of the statement's scope: the engine must refuse exactly
# the former, with a QueryError that names it, before any row is read --
# under every switch, through every entry (a DB-API cursor the fourth), and
# whatever the zone maps prune: ``k >= c`` keeps every fragment of ``t`` at
# c = 0 and none at c = 13.  No drawn name is an output alias (sqlite reads
# those in WHERE) or a column of an enclosing scope (sqlite correlates it).

UNKNOWN = ["nope", "t.nope", "x.k", "zz"]
SLOTS = {  # slot -> (select list, the text after ``where {key} >= c``)
    "select": ("{name} as c0", ""),
    "where": ("{key} as c0", " and {name} is not null"),
    "order by": ("{key} as c0", " order by {name}"),
    "group by": ("count(*) as c0", " group by {name}"),
    "having": ("count(*) as c0", " group by {key} having count({name}) > 0"),
    "in": ("{key} as c0", " and {key} in (select {name} from u)"),
}
# The names each slot may draw over ``t`` alone and over ``t join u``
# besides its refused ones; IN's inner select reads ``u`` alone.
T_NAMES = ["k", "v", "x", "s", "t.k", "t.v"]
JOIN_NAMES = ["v", "x", "w", "t.k", "t.v", "u.s"]
IN_NAMES = ["k", "w", "u.k", "u.w"]


@st.composite
def named(draw, refused, join=None):
    """A statement with one drawn name in one slot: over ``t``, or over
    ``t {join} u`` with the name in the ON clause as one more slot."""
    slots = sorted(SLOTS) if join is None else sorted({*SLOTS, "on"} - {"in"})
    slot = draw(st.sampled_from(slots))
    names = IN_NAMES if slot == "in" else T_NAMES if join is None else JOIN_NAMES
    name = draw(st.sampled_from(refused + names))
    source, key = "t", "k"
    if join is not None:
        residual = f" and {name} is not null" if slot == "on" else ""
        source, key = f"t{join}u on t.k = u.k{residual}", "t.k"
    items, rest = SLOTS.get(slot, ("{key} as c0", ""))
    fill = {"name": name, "key": key}
    pruning = literal(draw(st.sampled_from([0, 5, 9, 13])))
    text = sql(
        f"select {items.format(**fill)} from {source} where {key} >= ",
        pruning,
        rest.format(**fill),
    )
    return Statement(text, ()), name


UNKNOWN_NAMES = st.sampled_from([None, " join ", " left join "]).flatmap(
    lambda join: named(UNKNOWN, join)
)
# Bare ``k`` and ``s`` are columns of both ``t`` and ``u``.
AMBIGUOUS_NAMES = st.sampled_from([" join ", " left join "]).flatmap(
    lambda join: named(["k", "s"], join)
)
# The existing switches, with a DB-API cursor as a fourth entry.
ENTRY_SWITCHES = st.tuples(
    SWITCHES, st.sampled_from(["ad hoc", "prepared", "gateway", "dbapi"])
).map(lambda drawn: drawn[0]._replace(entry=drawn[1]))


def run_once(switches, statement):
    """``statement`` run once through the switches' entry: (column names,
    rows), or the QueryError it raised."""
    engine, tenant = engine_for(switches)
    return ask(engine, switches.entry, statement, tenant or "default")


def ask(engine, entry, statement, tenant="default"):
    """``statement`` run once on ``engine`` through ``entry``: (column
    names, rows), or the QueryError it raised."""
    inlined, template, values = statement.text
    gateway = Gateway(WorkloadManager(engine, EventLoop(engine.catalog.clock)))
    try:
        if entry == "dbapi":
            cursor = dbapi.connect(gateway, tenant=tenant).cursor()
            cursor.execute(template, values)
            return [column[0] for column in cursor.description], cursor.fetchall()
        if entry == "ad hoc":
            table = engine.query(inlined, tenant=tenant).table
        elif entry == "prepared":
            prepared = engine.prepare(template, tenant=tenant)
            table = engine.execute(prepared, values).table
        else:
            table = gateway.connect(tenant).execute(template, values).result.table
    except QueryError as error:
        return error
    return list(table.schema.field_names), table.rows


def assert_refused_like_sqlite(switches, statement, name):
    try:
        want = expected(switches, statement)
    except sqlite3.OperationalError:
        want = None
    got = run_once(switches, statement)
    if want is None:
        assert isinstance(got, QueryError), got
        assert not isinstance(got, dbapi.InterfaceError)
        assert repr(name) in str(got), got
    else:
        assert not isinstance(got, QueryError), got
        assert got[0] == want[0]
        assert rows_match(got[1], want[1], False), got[1]


NAME_SETTINGS = settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@NAME_SETTINGS
@given(switches=ENTRY_SWITCHES, drawn=UNKNOWN_NAMES)
def test_an_unknown_name_is_refused_when_sqlite_refuses_it(switches, drawn):
    assert_refused_like_sqlite(switches, *drawn)


@NAME_SETTINGS
@given(switches=ENTRY_SWITCHES, drawn=AMBIGUOUS_NAMES)
def test_an_ambiguous_name_is_refused_when_sqlite_refuses_it(switches, drawn):
    assert_refused_like_sqlite(switches, *drawn)


# -- GROUP BY and HAVING read a select alias ---------------------------------------
# sqlite3 reads a bare name no binding holds as a select alias in GROUP BY and
# HAVING, also inside an expression; a column of the FROM clause wins over an
# alias of the same name, and GROUP BY may not name an aggregate.

ALIASED = [
    (sql("select s as g, count(*) as n from t group by g"), "g"),
    (sql("select s, count(*) as n from t group by s having n > ", literal(1)), "n"),
    (sql("select s as g, sum(v) as n from t where k >= ", literal(2),
         " group by g having n > 1"), "n"),
    (sql("select v + 1 as w, count(*) as n from t group by w"), "w"),
    (sql("select s as g, count(*) as n from t group by s having g is not null"), "g"),
    (sql("select s, count(*) as n from t group by s having n + 1 > 2"), "n"),
    # the column k wins: one group per row of t, not one per value of v
    (sql("select v as k, count(*) as n from t group by k, v"), "k"),
    # refused by both: an aggregate in GROUP BY
    (sql("select count(*) as n from t group by n"), "n"),
    # refused by both: an aliased aggregate inside an aggregate
    (sql("select s as g, sum(v) as n from t group by g having sum(n) > 1"), "n"),
    # refused by both: a reserved word is no alias
    (sql("select k as c0 from t union"), "union"),
]  # fmt: skip


@pytest.mark.parametrize("entry", ["ad hoc", "prepared", "gateway", "dbapi"])
@pytest.mark.parametrize("text, name", ALIASED)
def test_group_by_and_having_read_a_select_alias(entry, text, name):
    switches = Switches(sorted(OPTIMIZERS)[0], True, None, False, entry, 2, None)
    assert_refused_like_sqlite(switches, Statement(text, ()), name)


# -- README's divergence table, as data ------------------------------------------
# Each row of the table that makes the engine refuse what sqlite3 answers:
# an example over the fixture, the error class the engine raises through
# every entry, and the fragment of its message that names the form.  (The
# other rows answer differently rather than refuse: booleans render as
# Python's, NaN compares false, and an incomparable pair in a later AND
# conjunct raises on the row path but not in a filter kernel.  The ranked
# search row is no statement: test_ranked_search_refuses_after_a_write.)

DIVERGENCES = [
    ("no CASE", "select case when v > 1 then 1 else 0 end from t",
     SqlParseError, "unexpected token 'case'"),
    ("no %", "select k % 2 from t", SqlLexError, "'%'"),
    ("/ raises on zero", "select k / 0 from t", QueryError, "division by zero"),
    ("no aggregate DISTINCT", "select count(distinct v) from t",
     SqlParseError, "'distinct'"),
    ("a comparison across types", "select k from t where k < 'a'",
     QueryError, "cannot apply k < 'a'"),
    ("a scalar subquery in WHERE", "select k from t where v > (select min(w) from u)",
     SqlParseError, "unexpected token 'select'"),
    ("EXISTS", "select k from t where exists (select k from u)",
     SqlParseError, "unexpected token 'exists'"),
    ("UNION", "select k from t union select k from u",
     SqlParseError, "trailing input at offset 16: 'union'"),
    ("EXCEPT", "select k from t except select k from u",
     SqlParseError, "trailing input at offset 16: 'except'"),
    ("OFFSET", "select k from t order by k limit 2 offset 1",
     SqlParseError, "'offset'"),
    ("CAST", "select cast(v as text) from t", SqlParseError, "found 'as'"),
    ("a SELECT without FROM", "select 1", SqlParseError, "expected FROM"),
    ("||", "select s || 'x' from t", SqlLexError, "'|'"),
    ("a bare column beside an aggregate", "select s, count(*) from t",
     QueryError, "select item s is neither aggregated nor grouped"),
    ("a GROUP BY position past *", "select * from t group by 2",
     QueryError, "'*' cannot appear with GROUP BY/aggregates"),
]  # fmt: skip


@pytest.mark.parametrize("entry", ["ad hoc", "prepared", "gateway", "dbapi"])
@pytest.mark.parametrize(
    "text, error, fragment",
    [pytest.param(*row[1:], id=row[0]) for row in DIVERGENCES],
)
def test_a_divergence_is_a_typed_refusal_where_sqlite_answers(
    entry, text, error, fragment
):
    sqlite_answer(TABLES, text)  # sqlite3 answers it
    switches = Switches(sorted(OPTIMIZERS)[0], True, None, False, entry, 2, None)
    got = run_once(switches, Statement((text, text, ()), ()))
    assert type(got) is error, got
    assert fragment in str(got), got


# -- ordinals through every entry ---------------------------------------------
# An ordinal answers, counting through a ``*`` as sqlite3 expands it, and a
# position out of range or naming an aggregate in GROUP BY is refused,
# through every entry as sqlite3 does.  A ``?`` there
# stays an expression: a template's ``order by ?`` sorts by the constant it
# binds, while the inlined text's ``order by 2`` is an ordinal.

ORDINAL_ENTRIES = [
    # (statement, the position a refusal names, or None for an answer)
    (sql("select k as c0, v as c1 from t order by 2 desc, 1 limit ", literal(3)), None),
    (sql("select s as c0, count(*) as c1 from t group by 1 order by 2 desc, 1"), None),
    (sql("select k as c0, v as c1 from t order by ", literal(2), ", 1"), None),
    (sql("select k as c0 from t order by 2"), 2),
    (sql("select k as c0 from t order by 0"), 0),
    (sql("select k as c0 from t order by -1"), -1),
    (sql("select s as c0, count(*) as c1 from t group by 2"), 2),
    (sql("select s as c0, count(*) as c1 from t group by 3"), 3),
    (sql("select * from t order by 2 desc, 1"), None),
    (sql("select k as c0, * from t order by 3 desc, 1 limit ", literal(2)), None),
    (sql("select t.*, u.w from t join u on t.k = u.k order by 6 desc, 1"), None),
    (sql("select * from t order by 6"), 6),
]  # fmt: skip


@pytest.mark.parametrize("entry", ["ad hoc", "prepared", "gateway", "dbapi"])
@pytest.mark.parametrize("text, position", ORDINAL_ENTRIES)
def test_an_ordinal_answers_through_every_entry(entry, text, position):
    switches = Switches(sorted(OPTIMIZERS)[0], True, None, False, entry, 2, None)
    inlined, template, values = text
    sent = (inlined, ()) if entry == "ad hoc" else (template, values)
    got = run_once(switches, Statement(text, ()))
    if position is not None:
        with pytest.raises(sqlite3.OperationalError):
            sqlite_answer(TABLES, sent[0], params=sent[1])
        assert isinstance(got, QueryError), got
        assert f"position {position}" in str(got), got
        return
    names, rows = sqlite_answer(TABLES, sent[0], params=sent[1])
    assert not isinstance(got, QueryError), got
    assert got[0] == names
    assert rows_match(got[1], rows, True), got[1]


# -- degraded answers ------------------------------------------------------------
# ``t`` on s0 / s1, ``u`` on s1 / s2, and s2 down: half of ``u`` answers.  A
# degraded answer must be some of the content, never content that is not
# there: it raises, or it is within sqlite's full answer.

KEYS = [(1,), (2,), (3,), (4,)]
DEGRADED = {"t": (("k",), KEYS), "u": (("x",), KEYS)}
NOT_MONOTONE = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 1: an anti-join over a degraded input"
)


@pytest.mark.parametrize(
    "sql_text",
    [
        "select k from t where k in (select x from u)",
        pytest.param(
            "select k from t where k not in (select x from u)", marks=NOT_MONOTONE
        ),
        pytest.param(
            "select t.k from t left join u on t.k = u.x where u.x is null",
            marks=NOT_MONOTONE,
        ),
    ],
)
def test_a_degraded_answer_is_within_the_full_answer(sql_text):
    engine = federation(DEGRADED)
    engine.catalog.site("s2").up = False
    try:
        rows = engine.query(sql_text, degraded_ok=True).table.rows
    except PartialFailureError:
        return
    assert set(rows) <= set(sqlite_answer(DEGRADED, sql_text)[1])


# -- match: FTS5's rule ------------------------------------------------------------
# ``make_engine``'s part names and one NULL name, with a text index on
# ``name`` built as ``make_engine`` builds it: SQL ``match`` never reads it,
# so every entry answers by the one rule, and sqlite refers each answer to
# FTS5.  ``--``, ``AND`` and the empty query reach FTS5 quoted, as words.

PARTS = {
    "parts": (
        (Field("sku", S), Field("name", S), Field("price", F)),
        [("A-1", "black india ink", 5.0), ("A-2", "blue ink cartridge", 6.0),
         ("A-3", "cordless drill", 90.0), ("A-4", "corded drill press", 150.0),
         ("A-5", "hex bolt", 0.5), ("A-6", None, 2.0)],
    ),
}  # fmt: skip
MATCH_PROBES = ["dril", "cord", "in", "ink black", "drill", "", "--", "AND ink"]
ENTRIES = ["ad hoc", "prepared", "gateway", "dbapi"]


def parts_engine():
    engine = federation(PARTS, reuse=True)
    entry = engine.catalog.entry("parts")
    engine.catalog.build_text_index(
        "parts", "name", Table(entry.schema, PARTS["parts"][1]), "sku"
    )
    return engine


def assert_fts5_answers(got, statement, tables=PARTS):
    text = fts5_match(statement.text[0], "parts")
    names, rows = sqlite_answer(tables, text, fts5_shadow("parts", "name"))
    assert not isinstance(got, QueryError), got
    assert got[0] == names
    assert rows_match(got[1], rows, False), got[1]


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("negated", ["", "not "], ids=["match", "not match"])
@pytest.mark.parametrize("query", MATCH_PROBES, ids=map(repr, MATCH_PROBES))
def test_match_answers_what_fts5_answers(entry, negated, query):
    """A NULL name is unknown: neither ``match`` nor ``not match`` keeps it."""
    where = f"select sku from parts where {negated}match(name, "
    statement = Statement(sql(where, literal(query), ")"), (str,))
    got = ask(parts_engine(), entry, statement)
    assert_fts5_answers(got, statement)
    assert ("A-6",) not in got[1]


@pytest.mark.parametrize("entry", ENTRIES)
def test_match_answers_from_the_written_rows(entry):
    """Fragment f0 re-hosted with one more drill, and the catalog told: the
    next answer has it, however the first one was stored."""
    engine = parts_engine()
    text = sql("select sku from parts where match(name, ", literal("drill"), ")")
    statement = Statement(text, (str,))
    assert_fts5_answers(ask(engine, entry, statement), statement)
    written = write_hammer_drill(engine)
    got = ask(engine, entry, statement)
    assert_fts5_answers(got, statement, {"parts": (PARTS["parts"][0], written)})
    assert ("A-9",) in got[1]


def write_hammer_drill(engine):
    """Re-host fragment f0 with one more row, ``A-9 hammer drill``, tell the
    catalog, and return the table's rows after the write."""
    catalog, rows = engine.catalog, PARTS["parts"][1]
    parts = catalog.entry("parts")
    fragment = parts.fragments[0]
    hammer = ("A-9", "hammer drill", 40.0)
    table = Table(parts.schema, [*rows[0::2], hammer])  # f0's rows, dealt
    for site_name, local_name in fragment.replicas.items():
        catalog.site(site_name).host(StaticSource(local_name, table), local_name)
    catalog.notify_table_updated("parts", fragment.fragment_id)
    return [*rows, hammer]


def test_ranked_search_refuses_after_a_write():
    """The text index holds the rows it was built from: after a write,
    ``match`` answers from the written rows and ranked search refuses until
    the index is rebuilt, rather than answer from the rows as loaded."""
    engine = parts_engine()
    assert [hit.doc_id for hit in engine.search("parts", "hammer")] == []
    written = write_hammer_drill(engine)
    assert engine.query("select sku from parts where match(name, 'hammer')").table.rows == [
        ("A-9",)
    ]
    with pytest.raises(QueryError, match="predates a write; build_text_index rebuilds"):
        engine.search("parts", "hammer")
    entry = engine.catalog.entry("parts")
    engine.catalog.build_text_index("parts", "name", Table(entry.schema, written), "sku")
    assert [hit.doc_id for hit in engine.search("parts", "hammer")] == ["A-9"]
