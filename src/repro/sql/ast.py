"""AST node types for the SQL subset."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import Any, Callable, Iterator, Union

from repro.core.errors import BindError

# -- expressions ------------------------------------------------------------


@dataclass(frozen=True)
class Literal:
    value: Any  # str | int | float | bool | None


@dataclass(frozen=True)
class Parameter:
    """One ``?`` placeholder, numbered left to right across the statement.

    Parameters survive planning: a prepared statement's logical plan keeps
    them in place so the plan can be optimized once and bound many times
    (:mod:`repro.sql.params` substitutes values at execution).  An unbound
    Parameter reaching row evaluation is an error.
    """

    index: int  # 0-based position among the statement's placeholders


@dataclass(frozen=True)
class Column:
    name: str
    qualifier: str | None = None  # table alias, as written
    # The scan binding the name resolved to (``repro.sql.planner.resolve``),
    # outside equality and repr: resolving changes what a column reads,
    # never how it prints, keys an aggregate state or digests a stage.
    binding: str | None = field(default=None, compare=False, repr=False)

    @property
    def qualified(self) -> str:
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name

    @property
    def key(self) -> str:
        """The env / batch key this column reads: ``binding.name`` once
        resolved (a scan's columns are keyed so), else as written."""
        owner = self.binding or self.qualifier
        return f"{owner}.{self.name}" if owner else self.name


@dataclass(frozen=True)
class Star:
    qualifier: str | None = None


@dataclass(frozen=True)
class BinaryOp:
    op: str  # and or = != < <= > >= + - * / contains
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class UnaryOp:
    op: str  # not, -, is-null, is-not-null
    operand: "Expr"


@dataclass(frozen=True)
class FuncCall:
    name: str  # lowercased
    args: tuple["Expr", ...]
    star: bool = False  # COUNT(*)


@dataclass(frozen=True)
class InList:
    operand: "Expr"
    items: tuple["Expr", ...]
    negated: bool = False


@dataclass(frozen=True)
class InSubquery:
    """``expr [NOT] IN (SELECT ...)`` -- uncorrelated subqueries only.

    The engine rewrites this into an :class:`InList` by executing the inner
    select first (a semijoin by materialization, the natural federated
    strategy for cross-enterprise membership tests).
    """

    operand: "Expr"
    subquery: "SelectStatement"
    negated: bool = False


@dataclass(frozen=True)
class Between:
    operand: "Expr"
    low: "Expr"
    high: "Expr"
    negated: bool = False


@dataclass(frozen=True)
class Like:
    """``operand [NOT] LIKE pattern``.  The pattern is a string literal or
    a ``?`` that binds to one: a bound value of any other type is refused
    here, where binding builds the node."""

    operand: "Expr"
    pattern: "Literal | Parameter"
    negated: bool = False

    def __post_init__(self) -> None:
        pattern = self.pattern
        if isinstance(pattern, Literal) and not isinstance(pattern.value, str):
            raise BindError(
                f"LIKE needs a string pattern, got {pattern.value!r}"
            )


Expr = Union[
    Literal, Parameter, Column, Star, BinaryOp, UnaryOp, FuncCall, InList,
    InSubquery, Between, Like,
]

AGGREGATE_FUNCTIONS = frozenset({"count", "sum", "avg", "min", "max"})


def children(expr: Expr) -> tuple[Expr, ...]:
    """The direct sub-expressions of ``expr``, left to right.

    An :class:`InSubquery`'s inner select is its own scope (its columns,
    aggregates and subqueries belong to it): only the operand is a child.
    """
    if isinstance(expr, BinaryOp):
        return (expr.left, expr.right)
    if isinstance(expr, (UnaryOp, InSubquery)):
        return (expr.operand,)
    if isinstance(expr, Like):
        return (expr.operand, expr.pattern)
    if isinstance(expr, FuncCall):
        return expr.args
    if isinstance(expr, InList):
        return (expr.operand, *expr.items)
    if isinstance(expr, Between):
        return (expr.operand, expr.low, expr.high)
    return ()  # Literal, Parameter, Column, Star


def rebuild(expr: Expr, fn: Callable[..., Expr], *args: Any) -> Expr:
    """``expr`` with each of its :func:`children` replaced by
    ``fn(child, *args)``; a leaf is returned as it is.  A rewrite handles
    the node type it is about and hands every other node here, with itself
    as ``fn`` and its own arguments as ``args`` (a plain recursive function
    this way, not a closure over them: a recursive closure is a reference
    cycle, and statements leave none behind)."""
    if isinstance(expr, BinaryOp):
        return BinaryOp(expr.op, fn(expr.left, *args), fn(expr.right, *args))
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, fn(expr.operand, *args))
    if isinstance(expr, FuncCall):
        return FuncCall(expr.name, tuple(fn(a, *args) for a in expr.args), expr.star)
    if isinstance(expr, InList):
        items = tuple(fn(item, *args) for item in expr.items)
        return InList(fn(expr.operand, *args), items, expr.negated)
    if isinstance(expr, InSubquery):
        return InSubquery(fn(expr.operand, *args), expr.subquery, expr.negated)
    if isinstance(expr, Between):
        low, high = fn(expr.low, *args), fn(expr.high, *args)
        return Between(fn(expr.operand, *args), low, high, expr.negated)
    if isinstance(expr, Like):
        return Like(fn(expr.operand, *args), fn(expr.pattern, *args), expr.negated)
    return expr


# The comparison true exactly where another is false; with a NULL side both
# are unknown, so under the one NULL rule it is that comparison's NOT.
_COMPLEMENT = {"=": "!=", "!=": "=", "<": ">=", ">=": "<", ">": "<=", "<=": ">"}


def negate(expr: Expr) -> Expr:
    """``NOT expr``, pushed down to its atoms.

    De Morgan through AND / OR; a comparison becomes its complement; IS
    NULL and IS NOT NULL swap; IN, BETWEEN and LIKE toggle ``negated``.
    Under three-valued logic each step is exact, so a filter kernel only
    ever answers "where is it true".  Anything else is wrapped in
    ``UnaryOp("not", ...)``, which the row path evaluates.  The parser's
    NOT calls this, and it is the one builder of that node."""
    if isinstance(expr, BinaryOp):
        if expr.op in ("and", "or"):
            op = "or" if expr.op == "and" else "and"
            return BinaryOp(op, negate(expr.left), negate(expr.right))
        if expr.op in _COMPLEMENT:
            return BinaryOp(_COMPLEMENT[expr.op], expr.left, expr.right)
    if isinstance(expr, UnaryOp) and expr.op in ("is-null", "is-not-null"):
        op = "is-not-null" if expr.op == "is-null" else "is-null"
        return UnaryOp(op, expr.operand)
    if isinstance(expr, (InList, InSubquery, Between, Like)):
        return replace(expr, negated=not expr.negated)
    return UnaryOp("not", expr)


def walk(expr: Expr) -> Iterator[Expr]:
    """``expr`` and every expression under it, in appearance order."""
    yield expr
    for child in children(expr):
        yield from walk(child)


def is_aggregate(expr: Expr) -> bool:
    return isinstance(expr, FuncCall) and expr.name in AGGREGATE_FUNCTIONS


def aggregate_calls(expr: Expr) -> Iterator[FuncCall]:
    """The aggregate calls of ``expr`` in appearance order.  What stands
    inside an aggregate's argument is per-row, not per-group, and is not
    looked into."""
    if is_aggregate(expr):
        yield expr
    else:
        for child in children(expr):
            yield from aggregate_calls(child)


def contains_aggregate(expr: Expr) -> bool:
    """True if any aggregate function call appears in ``expr``."""
    return any(map(is_aggregate, walk(expr)))


def columns_in(expr: Expr) -> list[Column]:
    """All column references in ``expr``, in appearance order."""
    return [node for node in walk(expr) if isinstance(node, Column)]


def render(
    expr: Expr, column: Callable[[Column], str] = attrgetter("qualified")
) -> str:
    """Compact SQL-ish rendering: EXPLAIN's operator details and, with a
    ``column`` speller that hides the scan's alias, the text a stage's
    content hash digests."""
    if isinstance(expr, Literal):
        return repr(expr.value)
    if isinstance(expr, Column):
        return column(expr)
    if isinstance(expr, Star):
        return "*"
    if isinstance(expr, BinaryOp):
        return f"({render(expr.left, column)} {expr.op} {render(expr.right, column)})"
    if isinstance(expr, UnaryOp):
        return f"({expr.op} {render(expr.operand, column)})"
    if isinstance(expr, FuncCall):
        args = "*" if expr.star else ", ".join(render(a, column) for a in expr.args)
        return f"{expr.name}({args})"
    if isinstance(expr, (InList, Between, Like)):
        operand = render(expr.operand, column)
        negated = "not " if expr.negated else ""
        if isinstance(expr, InList):
            items = ", ".join(render(i, column) for i in expr.items)
            return f"({operand} {negated}in ({items}))"
        if isinstance(expr, Between):
            low, high = render(expr.low, column), render(expr.high, column)
            return f"({operand} {negated}between {low} and {high})"
        return f"({operand} {negated}like {render(expr.pattern, column)})"
    # Parameters and subqueries render by repr: distinct from every
    # literal, so an unbound template never collides with bound data.
    return repr(expr)


# -- statement structure -----------------------------------------------------


@dataclass(frozen=True)
class SelectItem:
    expr: Expr
    alias: str | None = None


@dataclass(frozen=True)
class TableRef:
    name: str
    alias: str | None = None

    @property
    def binding(self) -> str:
        return self.alias or self.name


@dataclass(frozen=True)
class JoinClause:
    table: TableRef
    condition: Expr
    join_type: str = "inner"  # "inner" | "left"


@dataclass(frozen=True)
class OrderItem:
    expr: Expr
    descending: bool = False


@dataclass
class SelectStatement:
    items: list[SelectItem]
    table: TableRef
    joins: list[JoinClause] = field(default_factory=list)
    where: Expr | None = None
    group_by: list[Expr] = field(default_factory=list)
    having: Expr | None = None
    order_by: list[OrderItem] = field(default_factory=list)
    limit: Literal | Parameter | None = None  # the count, or the ``?`` it binds to
    distinct: bool = False
    # Stamped by the parser, outside equality and repr: how many ``?`` the
    # statement carries (its inner selects' included), and whether an
    # ``IN (SELECT ...)`` sits in its own scope.
    parameter_count: int = field(default=0, compare=False, repr=False)
    has_subqueries: bool = field(default=False, compare=False, repr=False)
    # Stamped by ``repro.sql.planner.resolve``: each FROM binding's field
    # names; ``None`` until the statement's names are resolved.
    scope: "dict[str, set[str]] | None" = field(
        default=None, compare=False, repr=False
    )
