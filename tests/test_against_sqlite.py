"""The engine's answers, refereed by sqlite3.

A Hypothesis grammar over the supported dialect, on one fixed fixture of
NULL-bearing int, float, str and bool columns:

* select lists of columns, ``+ - *`` arithmetic and selected predicates;
* WHERE: comparisons, IN / NOT IN over lists and subqueries, BETWEEN,
  LIKE / NOT LIKE, IS [NOT] NULL and nested NOT / AND / OR;
* inner and left joins on an equi-key with an optional residual conjunct;
* GROUP BY / HAVING over ``count(*)``, ``count``, ``sum``, ``avg``, ``min``
  and ``max``, and DISTINCT;
* ORDER BY a total key, then LIMIT -- and a family of its own, joins under
  ORDER BY ... LIMIT 1 to 4, where each fragment of the binding the first
  key reads may ship its top k alone and the coordinator Sort must notice
  when the join dropped too many of them.

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
no aggregate is DISTINCT, and the sides of a comparison are both numbers,
both strings or both booleans.
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
from repro.federation import Gateway, ReoptPolicy, WorkloadManager, dbapi
from repro.federation.engine import LIVE_ONLY
from repro.federation.governance import GovernanceRegistry
from repro.sim import EventLoop

from tests.sqlite_oracle import (
    OPTIMIZERS,
    federation,
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
def statements(draw, top_k=False):
    """A drawn statement; with ``top_k``, a join under ORDER BY ... LIMIT
    1 to 4 with no grouping and no DISTINCT."""
    joins = [" join ", " left join "] if top_k else [None, None, " join ", " left join "]
    join = draw(st.sampled_from(joins))
    grammar, source = (T, ("t",)) if join is None else (JOINED, ())
    if join is not None:
        left, right = draw(st.sampled_from(JOIN_KEYS))
        residual = draw(st.none() | JOINED.atomic)
        source = (f"t{join}u on {left} = {right}",)
        source += () if residual is None else (" and ", residual)
    where = draw(st.none() | grammar.predicates)
    clauses = () if where is None else (" where ", where)
    if not top_k and draw(st.booleans()):
        # Not t's key: its groups are single rows, which merge no partials.
        group_keys = grammar.column(ANY).filter(lambda c: c not in ("k", "t.k"))
        key = draw(st.none() | group_keys)
        items = draw(st.lists(grammar.aggregates(), min_size=1, max_size=3))
        distinct, keys = "", []
        if key is not None:
            items, keys = [(key, grammar.columns[key]), *items], ["c0"]
            having = draw(st.none() | grammar.having())
            clauses += (f" group by {key}",)
            clauses += () if having is None else (" having ", having)
    else:
        items = draw(st.lists(grammar.select_items(), min_size=1, max_size=3))
        distinct = "" if top_k else draw(st.sampled_from(["", "distinct "]))
        keys = [f"c{i}" for i in range(len(items))]
    ordered = bool(keys) and (top_k or draw(st.booleans()))
    if ordered:
        directions = [draw(st.sampled_from(["", " desc"])) for _ in keys]
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

# One or two drawn statements half the time, else a narrowing pair or one or
# two top-k statements.
STATEMENTS = st.sampled_from(["drawn", "drawn", "narrowing", "top-k"]).flatmap(
    lambda family: NARROWING_PAIRS
    if family == "narrowing"
    else st.lists(statements(top_k=family == "top-k"), min_size=1, max_size=2)
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
    table its policy leaves, made by sqlite from the raw rows."""
    if switches.policy is None:
        return sqlite_answer(tables, statement.text[0])
    row_filter, mask = switches.policy
    prelude = (f"create table t as select * from raw where {row_filter}", MASKS[mask])
    tables = {"raw": tables["t"], "u": tables["u"]}
    return sqlite_answer(tables, statement.text[0], prelude)


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
        reopt=ReoptPolicy() if switches.reopt else None,
    )
    return engine, tenant


def answers(switches, statements, change=None):
    """Yield (statement, run, result): each statement three times, in turn,
    on one engine; with a ``change``, then :func:`write` and each statement
    three times more (runs 3 to 5)."""
    engine, tenant = engine_for(switches)
    if switches.entry == "gateway":
        manager = WorkloadManager(engine, EventLoop(engine.catalog.clock))
        session = Gateway(manager).connect(tenant=tenant or "default")
    staleness = LIVE_ONLY if change is not None and change.live_only else None
    for phase in range(1 if change is None else 2):
        if phase:
            write(engine, switches.fragments, change)
        for statement in statements:
            inlined, template, values = statement.text
            if switches.entry == "prepared":
                prepared = engine.prepare(
                    template, tenant=tenant, max_staleness=staleness
                )
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
    however much of it the reuse stores kept."""
    after, _ = written(switches.fragments, change.fragment % switches.fragments)
    wants = {
        statement: (expected(switches, statement), expected(switches, statement, after))
        for statement in statements
    }
    for statement, run, result in answers(switches, statements, change):
        assert_answers(statement, run, result, wants[statement][run >= 3])
        if change.live_only:
            assert serves_no_part(result), run


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
    inlined, template, values = statement.text
    tenant = tenant or "default"
    gateway = Gateway(WorkloadManager(engine, EventLoop(engine.catalog.clock)))
    try:
        if switches.entry == "dbapi":
            cursor = dbapi.connect(gateway, tenant=tenant).cursor()
            cursor.execute(template, values)
            return [column[0] for column in cursor.description], cursor.fetchall()
        if switches.entry == "ad hoc":
            table = engine.query(inlined, tenant=tenant).table
        elif switches.entry == "prepared":
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


# -- text match: the index against the scalar fallback ---------------------------
# ``make_engine``'s ``parts`` has a text index on ``name``: ``match(name, q)``
# alone is answered from it, OR-ed with a false conjunct by the scalar
# fallback.  Both should answer by one rule (FTS5's), which sqlite then
# referees.

TWO_MATCH_RULES = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 2: the text index and the scalar match disagree",
)


@TWO_MATCH_RULES
@pytest.mark.parametrize("query", ["dril", "cord", "in", "ink black"])
def test_text_index_and_scalar_fallback_agree(query):
    from tests.test_federation_engine import make_engine

    engine = make_engine()
    indexed = f"select sku from parts where match(name, '{query}')"
    fallback = f"{indexed} or 1 = 0"
    assert "text-index" in engine.explain(indexed)
    assert "text-index" not in engine.explain(fallback)
    assert sorted(engine.query(indexed).table.rows) == sorted(
        engine.query(fallback).table.rows
    )
