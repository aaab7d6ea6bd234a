"""Logical planning: AST -> operator tree with predicate pushdown.

The plan shapes are deliberately conventional (scan / filter / join /
aggregate / project / sort / limit) because the interesting part in this
reproduction happens *below* the logical plan: the federated optimizers in
:mod:`repro.federation` decide which site executes each scan (and at what
price), and the logical tree is what they bid on.

Pushdown: the WHERE clause is split into conjuncts; any conjunct of the form
``column op literal`` whose column binds to exactly one scan becomes a
:class:`~repro.connect.source.Predicate` attached to that scan, so sources
(live sources, scraped sites, fragments) filter locally.  Everything else
stays in a residual :class:`FilterNode`.  The pushdown itself is a rewrite
pass (:class:`repro.sql.rewrite.PredicatePushdown`); :func:`build_plan`
applies it when given binding fields, and the engine layers further passes
(text-index access, site-local filters, projection pruning, aggregate
splitting) on top -- see :mod:`repro.sql.rewrite`.

Scan nodes carry the physical-placement annotations those passes write:
``site_filters`` (residual conjuncts evaluable at the owning site),
``needed_columns`` (projection pruning), ``text_filter`` (text-index
access path) and ``top_k`` (a per-fragment top-k under ORDER BY ...
LIMIT).  Aggregate nodes carry ``split`` when the aggregation can be
computed as site-local partials merged at the coordinator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.connect.source import Predicate
from repro.core.errors import BindError, QueryError
from repro.sql.ast import (
    BinaryOp,
    Column,
    Expr,
    FuncCall,
    Literal,
    OrderItem,
    Parameter,
    SelectItem,
    SelectStatement,
    Star,
    aggregate_calls,
    contains_aggregate,
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
    * ``text_filter`` -- a ``(column, query)`` text-index access path;
    * ``governance`` -- compiled per-tenant RLS / mask policy, if any;
    * ``top_k`` -- ship each fragment's top k rows alone (a physical
      ``SiteTopK`` operator; the coordinator ``Sort`` checks the answer).
    """

    table: str
    binding: str  # alias used in the query
    pushdown: list[Predicate] = field(default_factory=list)
    site_filters: list[Expr] = field(default_factory=list)
    needed_columns: set[str] | None = None
    text_filter: tuple[str, str] | None = None
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
            text_filter=self.text_filter,
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
    """

    calls: list[FuncCall]


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
            split = AggregateSplit([expr_fn(call, *args) for call in split.calls])
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


def _binding_of_column(
    column: Column,
    binding_fields: dict[str, set[str]],
) -> str | None:
    """Which scan binding does ``column`` belong to, if unambiguous?"""
    if column.qualifier is not None:
        return column.qualifier if column.qualifier in binding_fields else None
    owners = [b for b, fields in binding_fields.items() if column.name in fields]
    return owners[0] if len(owners) == 1 else None


def build_plan(
    statement: SelectStatement,
    binding_fields: dict[str, set[str]] | None = None,
) -> PlanNode:
    """Build the logical plan for ``statement``.

    ``binding_fields`` maps each table binding (alias) to its field names;
    when provided, single-table comparison conjuncts are pushed into their
    scan.  Without it every predicate stays in the residual filter (still
    correct, just less pushdown).
    """
    bindings = [statement.table.binding] + [j.table.binding for j in statement.joins]
    if len(set(bindings)) != len(bindings):
        raise QueryError(f"duplicate table binding in query: {bindings!r}")

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
        plan = FilterNode(plan, statement.where)
    if binding_fields is not None:
        # Predicate splitting is a composable rewrite pass; build_plan
        # applies it so callers with schema knowledge always get pushdown.
        from repro.sql.rewrite import PredicatePushdown

        plan = PredicatePushdown(binding_fields).run(plan)

    has_aggregates = bool(statement.group_by) or any(
        contains_aggregate(item.expr) for item in statement.items
    )
    if has_aggregates:
        _validate_aggregate_items(statement)
        plan = AggregateNode(plan, statement.group_by, statement.items, statement.having)
        if statement.order_by:
            # Post-aggregation, only output columns exist: rewrite each order
            # key that textually matches a select item into its output name.
            plan = SortNode(plan, _rewrite_aggregate_order(statement))
    else:
        if statement.having is not None:
            raise QueryError("HAVING requires GROUP BY or aggregates")
        if statement.order_by:
            # Sort *below* the projection so order keys may reference any
            # underlying column; alias references resolve to their item expr.
            plan = SortNode(plan, _resolve_order_aliases(statement))
        plan = ProjectNode(plan, statement.items, statement.distinct)

    if statement.limit is not None:
        plan = LimitNode(plan, statement.limit)
    return plan


def _resolve_order_aliases(statement: SelectStatement) -> list[OrderItem]:
    """Replace ORDER BY references to select aliases with their expressions."""
    alias_map = {
        item.alias: item.expr for item in statement.items if item.alias is not None
    }
    resolved = []
    for order in statement.order_by:
        expr = order.expr
        if isinstance(expr, Column) and expr.qualifier is None and expr.name in alias_map:
            expr = alias_map[expr.name]
        resolved.append(OrderItem(expr, order.descending))
    return resolved


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


def _rewrite_aggregate_order(statement: SelectStatement) -> list[OrderItem]:
    """Map ORDER BY keys onto the aggregate's output column names: a key
    naming an alias, or spelled like a select item, reads that item."""
    names = item_names(statement.items)
    rewritten = []
    for order in statement.order_by:
        expr = order.expr
        for name, item in zip(names, statement.items):
            if (
                item.alias is not None
                and isinstance(expr, Column)
                and expr.name == item.alias
            ) or repr(item.expr) == repr(expr):
                expr = Column(name)
                break
        rewritten.append(OrderItem(expr, order.descending))
    return rewritten


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
            f"select item {item.expr!r} is neither aggregated nor grouped"
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
