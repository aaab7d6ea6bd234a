"""Logical planning: AST -> operator tree with predicate pushdown.

The plan shapes are deliberately conventional (scan / filter / join /
aggregate / project / sort / limit) because the interesting part in this
reproduction happens *below* the logical plan: the federated optimizers in
:mod:`repro.federation` decide which site executes each scan (and at what
price), and the logical tree is what they bid on.

Names are resolved once, before any plan exists: :func:`resolve` maps every
column of a parsed statement to the scan binding that holds it, or refuses
the statement, and every consumer below reads ``Column.binding``.

Pushdown: the WHERE clause is split into conjuncts; any conjunct of the form
``column op literal`` becomes a :class:`~repro.connect.source.Predicate`
attached to its column's scan, so sources (live sources, scraped sites,
fragments) filter locally.  Everything else stays in a residual
:class:`FilterNode`.  The pushdown itself is a rewrite pass
(:class:`repro.sql.rewrite.PredicatePushdown`) that :func:`build_plan`
applies, and the engine layers further passes (site-local filters,
projection pruning, aggregate splitting) on top -- see
:mod:`repro.sql.rewrite`.

Scan nodes carry the physical-placement annotations those passes write:
``site_filters`` (residual conjuncts evaluable at the owning site),
``needed_columns`` (projection pruning) and ``top_k`` (a per-fragment
top-k under ORDER BY ... LIMIT).  Aggregate nodes carry ``split`` when the
aggregation can be computed as site-local partials merged at the
coordinator -- over its scan, or, pushed below a join, as a second
aggregate node over the scan whose states the join carries up.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable

from repro.connect.source import Predicate
from repro.core.errors import BindError, QueryError
from repro.sql.ast import (
    BinaryOp,
    Column,
    Expr,
    FuncCall,
    InSubquery,
    JoinClause,
    Literal,
    OrderItem,
    Parameter,
    SelectItem,
    SelectStatement,
    Star,
    UnaryOp,
    aggregate_calls,
    columns_in,
    contains_aggregate,
    is_aggregate,
    rebuild,
    render,
)

_PUSHABLE_OPS = {"=", "!=", "<", "<=", ">", ">="}
_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}


@dataclass
class PlanNode:
    """Base class for logical operators.

    A node type declares once what it holds -- :meth:`children`,
    :meth:`exprs`, :meth:`mapped` -- and every traversal reads those
    declarations: :func:`walk`, :func:`scans_in`, parameter binding, the
    rewrite passes and stage formation.  Only compiling a node and
    labelling it in EXPLAIN are per type.
    """

    def children(self) -> list["PlanNode"]:
        return []

    def replace_children(self, plan_fn: Callable[..., "PlanNode"], *args: Any) -> None:
        """In place: every child becomes ``plan_fn(child, *args)``."""

    def exprs(self) -> list[Expr]:
        """The expressions this node itself evaluates, not its children's."""
        return []

    def row_sources(self) -> list["PlanNode"]:
        """The children whose every row reaches this node's output whole --
        as itself or as part of a wider row -- or not at all: no row is
        invented for them and none of their values changes."""
        return []

    def mapped(
        self,
        plan_fn: Callable[..., "PlanNode"],
        expr_fn: Callable[..., Expr],
        *args: Any,
    ) -> "PlanNode":
        """A copy with every child replaced by ``plan_fn(child, *args)`` and
        every expression by ``expr_fn(expr, *args)``: the idiom of
        :func:`repro.sql.ast.rebuild` one level up -- plain functions plus
        their arguments, never a closure, so statements leave no cycles."""
        raise NotImplementedError


@dataclass
class ScanGovernance:
    """Per-tenant policy work compiled into one scan.

    Written by :class:`repro.sql.rewrite.GovernanceInjection`: row-level
    security conjuncts that were pushable land in the scan's ordinary
    ``pushdown`` list (and are echoed in ``rls_pushed`` so EXPLAIN can
    attribute them), the rest stay here as ``rls_residual`` expressions the
    owning site filters its chunks by *before* masking; ``masks`` maps column
    name to mask style applied at the scan's output.  The annotation rides
    the logical plan, so the optimizers price policy work like any other
    site work and the artifact hash can fold it into the stage identity.
    """

    tenant: str
    rls_pushed: list[Predicate] = field(default_factory=list)
    rls_residual: list[Expr] = field(default_factory=list)
    masks: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class ScanTopK:
    """A LIMIT's per-fragment top-k, pushed to one scan.

    Written by :class:`repro.sql.rewrite.TopKPushdown`: ``order`` is the
    Sort's first key (it reads this scan's columns alone) and ``limit`` the
    LIMIT's count, a literal or a ``?`` until bound.
    """

    order: OrderItem
    limit: Literal | Parameter

    @property
    def bound(self) -> int | None:
        """k, once the count is bound and there is something to rank."""
        limit = self.limit
        if isinstance(limit, Literal) and limit.value > 0:
            return limit.value
        return None


@dataclass
class ScanNode(PlanNode):
    """Read one base table (through whatever source the catalog maps it to).

    Beyond ``pushdown`` (source-level comparison predicates), the rewrite
    passes annotate scans with work that the *owning site* performs before
    rows ship to the coordinator:

    * ``site_filters`` -- residual conjuncts referencing only this binding,
      evaluated at the site (a physical ``SiteFilter`` operator);
    * ``needed_columns`` -- the only columns any later operator reads
      (``None`` means all; a physical ``SiteProject`` operator);
    * ``governance`` -- compiled per-tenant RLS / mask policy, if any;
    * ``top_k`` -- ship each fragment's top k rows alone (a physical
      ``SiteTopK`` operator; the coordinator ``Sort`` checks the answer).
    """

    table: str
    binding: str  # alias used in the query
    pushdown: list[Predicate] = field(default_factory=list)
    site_filters: list[Expr] = field(default_factory=list)
    needed_columns: set[str] | None = None
    governance: ScanGovernance | None = None
    top_k: ScanTopK | None = None

    def exprs(self) -> list[Expr]:
        return self.site_filters

    def mapped(self, plan_fn, expr_fn, *args) -> "ScanNode":
        # Annotation containers are copied, never shared: the copy may be
        # annotated further without dirtying the original.  Pushdown
        # predicates and policy expressions hold concrete values only.
        governance = self.governance
        if governance is not None:
            governance = ScanGovernance(
                governance.tenant,
                list(governance.rls_pushed),
                list(governance.rls_residual),
                dict(governance.masks),
            )
        needed = self.needed_columns
        top_k = self.top_k
        if top_k is not None:
            order = OrderItem(expr_fn(top_k.order.expr, *args), top_k.order.descending)
            top_k = ScanTopK(order, expr_fn(top_k.limit, *args))
        return ScanNode(
            self.table,
            self.binding,
            pushdown=list(self.pushdown),
            site_filters=[expr_fn(e, *args) for e in self.site_filters],
            needed_columns=None if needed is None else set(needed),
            governance=governance,
            top_k=top_k,
        )


@dataclass
class UnaryNode(PlanNode):
    """A node over one input."""

    child: PlanNode

    def children(self) -> list[PlanNode]:
        return [self.child]

    def replace_children(self, plan_fn, *args) -> None:
        self.child = plan_fn(self.child, *args)


@dataclass
class FilterNode(UnaryNode):
    condition: Expr

    def exprs(self) -> list[Expr]:
        return [self.condition]

    def row_sources(self) -> list[PlanNode]:
        return [self.child]

    def mapped(self, plan_fn, expr_fn, *args) -> "FilterNode":
        return FilterNode(
            plan_fn(self.child, *args), expr_fn(self.condition, *args)
        )


@dataclass
class JoinNode(PlanNode):
    left: PlanNode
    right: PlanNode
    condition: Expr
    join_type: str = "inner"  # "inner" | "left"

    def children(self) -> list[PlanNode]:
        return [self.left, self.right]

    def replace_children(self, plan_fn, *args) -> None:
        self.left = plan_fn(self.left, *args)
        self.right = plan_fn(self.right, *args)

    def exprs(self) -> list[Expr]:
        return [self.condition]

    def row_sources(self) -> list[PlanNode]:
        # A left join invents NULL rows for its right side.
        return [self.left, self.right] if self.join_type == "inner" else [self.left]

    def mapped(self, plan_fn, expr_fn, *args) -> "JoinNode":
        return JoinNode(
            plan_fn(self.left, *args),
            plan_fn(self.right, *args),
            expr_fn(self.condition, *args),
            self.join_type,
        )


def _mapped_items(items: list[SelectItem], expr_fn, args) -> list[SelectItem]:
    return [SelectItem(expr_fn(item.expr, *args), item.alias) for item in items]


@dataclass
class ProjectNode(UnaryNode):
    items: list[SelectItem]
    distinct: bool = False

    def exprs(self) -> list[Expr]:
        return [item.expr for item in self.items]

    def mapped(self, plan_fn, expr_fn, *args) -> "ProjectNode":
        return ProjectNode(
            plan_fn(self.child, *args),
            _mapped_items(self.items, expr_fn, args),
            self.distinct,
        )


@dataclass
class AggregateSplit:
    """Partial/final decomposition of an aggregation.

    ``calls`` lists the distinct aggregate :class:`FuncCall` expressions
    (keyed by ``repr``) whose partial states sites compute locally; the
    coordinator merges states and evaluates the final select items.
    ``pushed`` marks the aggregation the eager rule put below a join: it
    has no select items, and its merged states go up through the join
    unfinished, for the split aggregation above it to merge again.
    """

    calls: list[FuncCall]
    pushed: bool = False


@dataclass
class AggregateNode(UnaryNode):
    group_by: list[Expr]
    items: list[SelectItem]
    having: Expr | None = None
    # Written by repro.sql.rewrite.AggregateSplitting when the aggregation
    # decomposes into site-local partials merged at the coordinator.
    split: AggregateSplit | None = None

    def exprs(self) -> list[Expr]:
        having = [] if self.having is None else [self.having]
        return [*self.group_by, *(item.expr for item in self.items), *having]

    def mapped(self, plan_fn, expr_fn, *args) -> "AggregateNode":
        split = self.split
        if split is not None:
            split = AggregateSplit(
                [expr_fn(call, *args) for call in split.calls], split.pushed
            )
        return AggregateNode(
            plan_fn(self.child, *args),
            [expr_fn(group, *args) for group in self.group_by],
            _mapped_items(self.items, expr_fn, args),
            None if self.having is None else expr_fn(self.having, *args),
            split,
        )

    def calls(self) -> dict[str, FuncCall]:
        """The distinct aggregate calls of the select items and HAVING in
        appearance order, each under its state key -- its ``repr``, which
        tells ``sum(v + 1)`` from ``sum(v + 1.0)`` where ``==`` does not."""
        exprs = [item.expr for item in self.items]
        if self.having is not None:
            exprs.append(self.having)
        return {repr(call): call for expr in exprs for call in aggregate_calls(expr)}


@dataclass
class SortNode(UnaryNode):
    order_by: list[OrderItem]

    def exprs(self) -> list[Expr]:
        return [order.expr for order in self.order_by]

    def mapped(self, plan_fn, expr_fn, *args) -> "SortNode":
        order_by = [
            OrderItem(expr_fn(order.expr, *args), order.descending)
            for order in self.order_by
        ]
        return SortNode(plan_fn(self.child, *args), order_by)


@dataclass
class LimitNode(UnaryNode):
    """Keep the first ``limit`` rows.  The count is a literal or a ``?``
    that binds to one: a bound value that is not a row count is refused
    here, where binding builds the node."""

    limit: Literal | Parameter

    def __post_init__(self) -> None:
        limit = self.limit
        if isinstance(limit, Literal) and (
            type(limit.value) is not int or limit.value < 0
        ):
            raise BindError(
                f"LIMIT needs a non-negative integer, got {limit.value!r}"
            )

    def exprs(self) -> list[Expr]:
        return [self.limit]

    def mapped(self, plan_fn, expr_fn, *args) -> "LimitNode":
        return LimitNode(plan_fn(self.child, *args), expr_fn(self.limit, *args))


def split_conjuncts(expr: Expr | None) -> list[Expr]:
    """Flatten a WHERE tree into its top-level AND-ed conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, BinaryOp) and expr.op == "and":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def conjoin(conjuncts: list[Expr]) -> Expr | None:
    """Rebuild an AND tree from conjuncts (None when empty)."""
    if not conjuncts:
        return None
    combined = conjuncts[0]
    for conjunct in conjuncts[1:]:
        combined = BinaryOp("and", combined, conjunct)
    return combined


def _as_pushable(expr: Expr) -> tuple[Column, str, Any] | None:
    """Return (column, op, literal) if ``expr`` is a pushable comparison."""
    if not isinstance(expr, BinaryOp) or expr.op not in _PUSHABLE_OPS:
        return None
    left, right = expr.left, expr.right
    if isinstance(left, Column) and isinstance(right, Literal):
        return left, expr.op, right.value
    if isinstance(left, Literal) and isinstance(right, Column):
        return right, _FLIPPED[expr.op], left.value
    return None


def owner(expr: Expr) -> str | None:
    """The one binding every column of ``expr`` resolved to; None when it
    reads no column, or columns of several bindings or of none."""
    bindings = {column.binding for column in columns_in(expr)}
    return bindings.pop() if len(bindings) == 1 else None


# -- name resolution -----------------------------------------------------------


def resolve(
    statement: SelectStatement,
    binding_fields: Callable[[dict[str, str]], dict[str, set[str]]],
) -> SelectStatement:
    """``statement`` with every column resolved to the binding that holds
    it: the one place a name is looked up.

    ``binding_fields`` maps a FROM clause's bindings (alias -> table) to
    their field names -- :meth:`FederationCatalog.binding_fields`.  Select
    items, WHERE, GROUP BY and HAVING read the whole FROM clause, a JOIN's
    ON the bindings joined so far (the rows it is evaluated on); a bare
    name in GROUP BY or HAVING that no binding holds names a select alias,
    as sqlite3 reads it (a column wins over an alias, and GROUP BY never
    names an aggregate, nor an aggregate an aliased one).  An integer
    literal in ORDER BY or GROUP BY is a 1-based output position, as in
    sqlite3 (a ``?`` stays an expression).  ORDER BY reads the select
    aliases first, and above an aggregate nothing but its output columns;
    each ``IN (SELECT ...)`` is resolved in its own scope.
    An unknown name, an unknown qualifier or a bare name two bindings hold
    raises :class:`QueryError` naming the column and the bindings searched.
    The copy carries its scope (binding -> field names) as ``scope``.
    """
    tables = [statement.table, *(join.table for join in statement.joins)]
    bindings = {table.binding: table.name for table in tables}
    if len(bindings) != len(tables):
        raise QueryError(
            f"duplicate table binding in query: {[t.binding for t in tables]!r}"
        )
    scope = binding_fields(bindings)
    joined = {statement.table.binding: scope[statement.table.binding]}
    joins = []
    for join in statement.joins:
        joined[join.table.binding] = scope[join.table.binding]
        condition = _resolved(join.condition, joined, binding_fields)
        joins.append(JoinClause(join.table, condition, join.join_type))
    items = [
        SelectItem(_resolved(item.expr, scope, binding_fields), item.alias)
        for item in statement.items
    ]
    # A GROUP BY position names its select item; a bare name no binding
    # holds, there or in HAVING, the select item it aliases.
    group_by = []
    for g in statement.group_by:
        if (i := _position(g, items, "GROUP BY")) is None:
            g = _aliased(g, scope, statement.items, "in GROUP BY")
        else:
            g = _item(statement.items[i], f"GROUP BY position {i + 1}", "in GROUP BY")
        group_by.append(_resolved(g, scope, binding_fields))
    having = _aliased(statement.having, scope, statement.items, None)
    # A key naming no item reads the FROM clause, as the Sort below the
    # projection does, or above an aggregate its output columns alone.
    order_by = []
    if statement.order_by:
        aggregated = bool(group_by) or any(contains_aggregate(i.expr) for i in items)
        names = item_names(items) if aggregated else None
        for order in statement.order_by:
            expr, i = order.expr, _named_item(order.expr, items, aggregated)
            if aggregated:
                expr = _output_column(expr, names) if i is None else Column(names[i])
            elif i is None:
                expr = _resolved(expr, scope, binding_fields)
            else:
                expr = items[i].expr
            order_by.append(OrderItem(expr, order.descending))
    return replace(
        statement,
        items=items,
        joins=joins,
        where=_resolved(statement.where, scope, binding_fields),
        group_by=group_by,
        having=_resolved(having, scope, binding_fields),
        order_by=order_by,
        scope=scope,
    )


def _resolved(expr: Expr | None, scope: dict[str, set[str]], binding_fields):
    """A copy of ``expr`` with each column's binding set (see :func:`resolve`)."""
    if isinstance(expr, Column):
        return Column(expr.name, expr.qualifier, _owner(expr, scope))
    if expr is None or isinstance(expr, (Literal, Parameter)):
        return expr
    if isinstance(expr, Star):
        if expr.qualifier is not None and expr.qualifier not in scope:
            raise QueryError(
                f"unknown table binding {expr.qualifier!r} in "
                f"'{expr.qualifier}.*' (searched {', '.join(scope)})"
            )
        return expr
    if isinstance(expr, InSubquery):
        return InSubquery(
            _resolved(expr.operand, scope, binding_fields),
            resolve(expr.subquery, binding_fields),
            expr.negated,
        )
    return rebuild(expr, _resolved, scope, binding_fields)


def _aliased(expr, scope, items, nesting: str | None):
    """``expr`` of GROUP BY or HAVING with each bare name no binding holds
    replaced by the select item of that alias.  ``nesting`` says where an
    aggregate may not stand -- in GROUP BY, or inside an aggregate's
    argument -- and an alias of one there is refused."""
    if isinstance(expr, Column):
        if expr.qualifier is not None or any(
            expr.name in fields for fields in scope.values()
        ):
            return expr  # a column wins over an alias
        for item in items:
            if item.alias == expr.name:
                return _item(item, f"aliased aggregate {expr.name!r}", nesting)
        return expr
    if is_aggregate(expr):
        nesting = f"inside {expr.name}()"
    return rebuild(expr, _aliased, scope, items, nesting)


def _item(item: SelectItem, name: str, nesting: str | None) -> Expr:
    """The expression of the select item an alias or a position names,
    refused if it is an aggregate where one may not stand (``nesting``)."""
    if nesting is not None and contains_aggregate(item.expr):
        raise QueryError(f"misuse of {name}: an aggregate may not stand {nesting}")
    return item.expr


def _position(expr: Expr, items: list[SelectItem], clause: str) -> int | None:
    """The index of the select item an ORDER BY or GROUP BY term names by
    its 1-based output position, as sqlite3 reads an integer literal (and
    ``-k``) there; ``None`` for any other term, a ``?`` among them.  Out of
    range, or counting past a ``*`` (expanded at run time), it raises."""
    literal, sign = expr, 1
    if isinstance(expr, UnaryOp) and expr.op == "-":
        literal, sign = expr.operand, -1
    if not isinstance(literal, Literal) or type(literal.value) is not int:
        return None
    position = sign * literal.value
    if position > 0 and any(isinstance(item.expr, Star) for item in items[:position]):
        raise QueryError(f"{clause} position {position} counts past '*'")
    if not 1 <= position <= len(items):
        raise QueryError(f"{clause} position {position} is not in 1..{len(items)}")
    return position - 1


def _owner(column: Column, scope: dict[str, set[str]]) -> str:
    """The binding in ``scope`` that holds ``column``, or a QueryError."""
    if column.qualifier is not None:
        fields = scope.get(column.qualifier)
        if fields is not None and column.name in fields:
            return column.qualifier
        why = f": no table binding {column.qualifier!r}" if fields is None else ""
        raise QueryError(
            f"unknown column {column.qualified!r}{why} "
            f"(searched {', '.join(scope)})"
        )
    owners = [binding for binding, fields in scope.items() if column.name in fields]
    if len(owners) == 1:
        return owners[0]
    if owners:
        raise QueryError(
            f"ambiguous column {column.name!r}: held by {' and '.join(owners)} "
            f"(searched {', '.join(scope)})"
        )
    raise QueryError(
        f"unknown column {column.name!r} (searched {', '.join(scope)})"
    )


def _named_item(expr: Expr, items: list[SelectItem], aggregated: bool) -> int | None:
    """The index of the select item an ORDER BY key names -- by position,
    by alias or, above an aggregate, by being spelled like it -- the first
    one, as in sqlite3; ``None`` if it names none."""
    if (i := _position(expr, items, "ORDER BY")) is not None:
        return i
    named = isinstance(expr, Column) and expr.qualifier is None
    for j, item in enumerate(items):
        if (named and item.alias == expr.name) or (
            aggregated and repr(item.expr) == repr(expr)
        ):
            return j
    return None


def _output_column(expr: Expr, names: list[str]) -> Expr:
    """An ORDER BY key above an aggregate, whose columns can only be the
    aggregate's output columns ``names``."""
    if isinstance(expr, Column):
        if expr.qualifier is None and expr.name in names:
            return expr
        raise QueryError(
            f"unknown column {expr.qualified!r} (searched the aggregate's "
            f"output: {', '.join(names)})"
        )
    return rebuild(expr, _output_column, names)


def build_plan(statement: SelectStatement) -> PlanNode:
    """Build the logical plan for a :func:`resolve`-d ``statement``:
    single-table comparison conjuncts are pushed into their scan (an
    unresolved statement's columns name no scan, so none is).
    """
    scans: dict[str, ScanNode] = {
        statement.table.binding: ScanNode(statement.table.name, statement.table.binding)
    }
    for join in statement.joins:
        scans[join.table.binding] = ScanNode(join.table.name, join.table.binding)

    plan: PlanNode = scans[statement.table.binding]
    for join in statement.joins:
        plan = JoinNode(
            plan, scans[join.table.binding], join.condition, join.join_type
        )

    if statement.where is not None:
        # Predicate splitting is a composable rewrite pass; build_plan
        # applies it so every plan gets pushdown.
        from repro.sql.rewrite import PredicatePushdown

        plan = PredicatePushdown().run(FilterNode(plan, statement.where))

    has_aggregates = bool(statement.group_by) or any(
        contains_aggregate(item.expr) for item in statement.items
    )
    if has_aggregates:
        _validate_aggregate_items(statement)
        plan = AggregateNode(plan, statement.group_by, statement.items, statement.having)
        if statement.order_by:
            # Post-aggregation, only output columns exist: resolve rewrote
            # each order key into them.
            plan = SortNode(plan, statement.order_by)
    else:
        if statement.having is not None:
            raise QueryError("HAVING requires GROUP BY or aggregates")
        if statement.order_by:
            # Sort *below* the projection so order keys may reference any
            # underlying column; resolve put an alias's item expr in its place.
            plan = SortNode(plan, statement.order_by)
        plan = ProjectNode(plan, statement.items, statement.distinct)

    if statement.limit is not None:
        plan = LimitNode(plan, statement.limit)
    return plan


def item_names(items: list[SelectItem]) -> list[str]:
    """The output column name of each select item: its alias, else the
    column's or function's own name, else ``col<i>``; a name already taken
    gets ``_2``, ``_3``, ... so no two output columns share one."""
    names: list[str] = []
    for i, item in enumerate(items):
        base = item.alias
        if not base and isinstance(item.expr, (Column, FuncCall)):
            base = item.expr.name
        name = base = base or f"col{i}"
        suffix = 1
        while name in names:
            suffix += 1
            name = f"{base}_{suffix}"
        names.append(name)
    return names


def _validate_aggregate_items(statement: SelectStatement) -> None:
    """Non-aggregate select items must appear in GROUP BY."""
    group_keys = {repr(g) for g in statement.group_by}
    for item in statement.items:
        if isinstance(item.expr, Star):
            raise QueryError("'*' cannot appear with GROUP BY/aggregates")
        if contains_aggregate(item.expr):
            continue
        if repr(item.expr) in group_keys:
            continue
        if isinstance(item.expr, Column) and any(
            isinstance(g, Column) and g.name == item.expr.name for g in statement.group_by
        ):
            continue
        raise QueryError(
            f"select item {render(item.expr)} is neither aggregated nor grouped"
        )


def walk(plan: PlanNode) -> list[PlanNode]:
    """``plan`` and every node under it: parents first, left to right."""
    found = [plan]
    for child in plan.children():
        found.extend(walk(child))
    return found


def scans_in(plan: PlanNode) -> list[ScanNode]:
    """All scan leaves of ``plan`` in left-to-right order."""
    return [node for node in walk(plan) if isinstance(node, ScanNode)]
