"""Parameter binding for prepared statements.

A statement parsed with ``?`` placeholders carries :class:`~repro.sql.ast.Parameter`
nodes, numbered left to right.  Plans built from such a statement are
*templates*: parse + rewrite + optimize happen once, and each execution
substitutes that call's values with :func:`bind_plan` (or
:func:`bind_statement` for the subquery slow path) into a fresh copy, so
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

from typing import Any, Iterator, Sequence

from repro.core.errors import QueryError
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
    walk,
)
from repro.sql.planner import (
    AggregateNode,
    AggregateSplit,
    FilterNode,
    JoinNode,
    LimitNode,
    PlanNode,
    ProjectNode,
    ScanGovernance,
    ScanNode,
    SortNode,
)


def statement_exprs(statement: SelectStatement) -> Iterator[Expr]:
    """The expression in every position of ``statement``."""
    for item in statement.items:
        yield item.expr
    for join in statement.joins:
        yield join.condition
    if statement.where is not None:
        yield statement.where
    yield from statement.group_by
    if statement.having is not None:
        yield statement.having
    for order in statement.order_by:
        yield order.expr


def _nodes(statement: SelectStatement) -> Iterator[Expr]:
    """Every expression node of ``statement``'s own scope."""
    for expr in statement_exprs(statement):
        yield from walk(expr)


def count_parameters(statement: SelectStatement) -> int:
    """How many distinct ``?`` placeholders ``statement`` carries, those of
    its ``IN (SELECT ...)`` inner statements included."""

    def indices(scope: SelectStatement) -> Iterator[int]:
        for node in _nodes(scope):
            if isinstance(node, Parameter):
                yield node.index
            elif isinstance(node, InSubquery):
                yield from indices(node.subquery)

    return len(set(indices(statement)))


def statement_has_subqueries(statement: SelectStatement) -> bool:
    """True if any ``IN (SELECT ...)`` appears anywhere in the statement.

    Subquery statements take the prepared slow path: the inner select
    materializes a data-dependent IN list, so the outer plan cannot be
    optimized once and reused -- each execution re-plans from a bound copy
    of the statement.
    """
    return any(isinstance(node, InSubquery) for node in _nodes(statement))


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

    Used by the prepared-statement slow path (statements with subqueries,
    which must re-plan per execution because the subquery materializes
    data-dependent IN lists).
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
        limit=statement.limit,
        distinct=statement.distinct,
    )


def bind_plan(node: PlanNode, values: Sequence[Any]) -> PlanNode:
    """A copy of a logical plan with parameters bound to ``values``.

    Scan annotations are copied, not shared: the bound plan is free to be
    mutated by execution-time passes without dirtying the prepared
    template.  Source-level pushdown predicates never contain parameters
    (see module docstring), so their list is shallow-copied.
    """
    if isinstance(node, ScanNode):
        governance = None
        if node.governance is not None:
            # Policy expressions never contain parameters (manifests hold
            # concrete values), but the lists must not be shared with the
            # prepared template.
            governance = ScanGovernance(
                node.governance.tenant,
                rls_pushed=list(node.governance.rls_pushed),
                rls_residual=list(node.governance.rls_residual),
                masks=dict(node.governance.masks),
            )
        return ScanNode(
            node.table,
            node.binding,
            pushdown=list(node.pushdown),
            site_filters=[bind_expr(e, values) for e in node.site_filters],
            needed_columns=(
                set(node.needed_columns)
                if node.needed_columns is not None
                else None
            ),
            text_filter=node.text_filter,
            governance=governance,
        )
    if isinstance(node, FilterNode):
        return FilterNode(
            bind_plan(node.child, values), bind_expr(node.condition, values)
        )
    if isinstance(node, JoinNode):
        return JoinNode(
            bind_plan(node.left, values),
            bind_plan(node.right, values),
            bind_expr(node.condition, values),
            node.join_type,
        )
    if isinstance(node, ProjectNode):
        return ProjectNode(
            bind_plan(node.child, values),
            [SelectItem(bind_expr(i.expr, values), i.alias) for i in node.items],
            node.distinct,
        )
    if isinstance(node, AggregateNode):
        bound = AggregateNode(
            bind_plan(node.child, values),
            [bind_expr(g, values) for g in node.group_by],
            [SelectItem(bind_expr(i.expr, values), i.alias) for i in node.items],
            bind_expr(node.having, values),
        )
        if node.split is not None:
            bound.split = AggregateSplit(
                calls=[bind_expr(c, values) for c in node.split.calls]
            )
        return bound
    if isinstance(node, SortNode):
        return SortNode(
            bind_plan(node.child, values),
            [OrderItem(bind_expr(o.expr, values), o.descending)
             for o in node.order_by],
        )
    if isinstance(node, LimitNode):
        return LimitNode(bind_plan(node.child, values), node.limit)
    raise QueryError(f"cannot bind parameters into plan node {node!r}")


def check_parameters(expected: int, values: Sequence[Any]) -> tuple:
    """Validate a binding's arity; returns the values as a tuple."""
    bound = tuple(values)
    if len(bound) != expected:
        raise QueryError(
            f"prepared statement takes {expected} parameter(s), "
            f"got {len(bound)}"
        )
    return bound
