"""Parameter binding for prepared statements.

A statement parsed with ``?`` placeholders carries :class:`~repro.sql.ast.Parameter`
nodes, numbered left to right.  Plans built from such a statement are
*templates*: parse + rewrite + optimize happen once, and each execution
substitutes that call's values with :func:`bind_plan` (or
:func:`bind_statement` for templates that hold no plan) into a fresh copy, so
the prepared plan itself stays immutable and reusable.

Parameterized comparisons deliberately do **not** become source-level
pushdown predicates (those carry concrete values the optimizers feed to
zone maps and selectivity estimation); they travel as site filters
instead, which any binding-local conjunct may.  The prepared plan is
therefore a *generic* plan -- sound for every binding, priced without
value-specific pruning -- exactly the classic prepared-statement
trade-off.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.core.errors import BindError
from repro.sql.ast import (
    Expr,
    InSubquery,
    JoinClause,
    Literal,
    OrderItem,
    Parameter,
    SelectItem,
    SelectStatement,
    rebuild,
)
from repro.sql.planner import PlanNode


def bind_expr(expr: Expr | None, values: Sequence[Any]) -> Expr | None:
    """A copy of ``expr`` with every Parameter replaced by its Literal."""
    if expr is None:
        return None
    if isinstance(expr, Parameter):
        return Literal(values[expr.index])
    if isinstance(expr, InSubquery):
        return InSubquery(
            bind_expr(expr.operand, values),
            bind_statement(expr.subquery, values),
            expr.negated,
        )
    return rebuild(expr, bind_expr, values)


def bind_statement(
    statement: SelectStatement, values: Sequence[Any]
) -> SelectStatement:
    """A deep copy of ``statement`` with parameters bound to ``values``.

    Used where an execution plans (statements with subqueries, whose
    inner selects materialize data-dependent IN lists).  The copy keeps the
    parser's subquery stamp and carries no placeholder.
    """
    return SelectStatement(
        items=[
            SelectItem(bind_expr(item.expr, values), item.alias)
            for item in statement.items
        ],
        table=statement.table,
        joins=[
            JoinClause(
                join.table, bind_expr(join.condition, values), join.join_type
            )
            for join in statement.joins
        ],
        where=bind_expr(statement.where, values),
        group_by=[bind_expr(g, values) for g in statement.group_by],
        having=bind_expr(statement.having, values),
        order_by=[
            OrderItem(bind_expr(o.expr, values), o.descending)
            for o in statement.order_by
        ],
        limit=bind_expr(statement.limit, values),
        distinct=statement.distinct,
        has_subqueries=statement.has_subqueries,
    )


def bind_plan(node: PlanNode, values: Sequence[Any]) -> PlanNode:
    """A copy of a logical plan with parameters bound to ``values``.

    Scan annotations are copied, not shared: the bound plan is free to be
    mutated by execution-time passes without dirtying the prepared
    template.  Source-level pushdown predicates never contain parameters
    (see module docstring), so their list is shallow-copied.  Without
    values every expression is shared: AST nodes are frozen.
    """
    return node.mapped(bind_plan, bind_expr if values else _shared, values)


def _shared(expr: Expr, values: Sequence[Any]) -> Expr:
    return expr


def check_parameters(expected: int, values: Sequence[Any]) -> tuple:
    """Validate a binding's arity; returns the values as a tuple."""
    bound = tuple(values)
    if len(bound) != expected:
        raise BindError(
            f"prepared statement takes {expected} parameter(s), "
            f"got {len(bound)}"
        )
    return bound
