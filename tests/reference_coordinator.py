"""The coordinator operators as they stood before they went columnar.

``Filter``, ``HashJoin``, ``NestedLoopJoin``, ``Project``, ``Aggregate``,
``Sort`` and ``Limit`` (with the ``PhysicalOperator`` base, ``_nested_loop``,
``equality_keys`` and the two aggregate evaluators they lean on) are a
verbatim copy of ``repro.federation.physical`` at commit 3e6200c: one env
dict per ``next()``, pulled one row at a time.  They define what the
batch operators must reproduce -- rows in order, and per operator
``rows_in`` / ``rows_out`` / ``seconds`` / ``detail``, so that
``response_seconds`` and EXPLAIN ANALYZE do not move
(``tests/test_reference_coordinator.py``).  Do not optimise or tidy them.

One deliberate deviation from that commit: ``_JoinBase._null_right``
builds its all-NULL env through :func:`null_env`; ``ExecContext`` no
longer carries ``null_envs``.  Conditions are evaluated by today's
:func:`~repro.sql.expressions.evaluate`, so these operators follow the
engine's one NULL rule (``NULL = NULL`` is unknown, and a join key never
matches NULL, with sqlite3 as the oracle in ``tests/test_join_null_keys.py``).

A second one: ``Sort`` takes the ``k`` of a top-k stage below it and runs
the production :func:`~repro.federation.physical.check_top_k` on its
sorted rows before yielding any, so a truncated stage whose answer is not
known exact restarts here exactly as it does in production (the site
pipelines it pulls from are production ones, ``SiteTopK`` included).

:class:`ReferencePlanner` compiles a plan into these operators.  The
site side, ``Ship`` and ``FinalAggregate`` are the production ones;
:class:`Rows` turns their batches into the env stream these operators
pull (one row a pull, so every count below it is rows consumed) and
:class:`Batches` hands the root's envs back to the executor.
"""

from typing import Any, Iterator

from repro.core.errors import QueryError
from repro.federation import columnar, physical
from repro.federation.physical import (
    Env,
    ExecContext,
    OperatorStats,
    _sort_key,
    check_top_k,
    aggregate_names,
    describe_expr,
    expand_items,
    output_names,
    schema_of,
    top_k_bound,
)
from repro.sql.ast import (
    AGGREGATE_FUNCTIONS,
    BinaryOp,
    Column,
    Expr,
    FuncCall,
    Literal,
    OrderItem,
    SelectItem,
)
from repro.sql.expressions import evaluate
from repro.sql.planner import (
    AggregateNode,
    FilterNode,
    JoinNode,
    LimitNode,
    PlanNode,
    ProjectNode,
    ScanNode,
    SortNode,
    scans_in,
)

from tests.reference_site import row_env


def null_env(ctx: ExecContext, binding: str) -> Env:
    """One all-None env for a binding (was ``ctx.null_envs[binding]``)."""
    assignment = ctx.plan.assignments.get(binding)
    if assignment is None:
        return {}
    schema = schema_of(ctx.catalog, assignment)
    return row_env(binding, schema, (None,) * len(schema))


# -- verbatim from repro/federation/physical.py @ 3e6200c ----------------------


class PhysicalOperator:
    """Base coordinator operator: open(ctx) / next() / close() iteration."""

    name = "Operator"

    def __init__(self, *children: "PhysicalOperator") -> None:
        self.children = [child for child in children if child is not None]
        self.stats = OperatorStats(self.name)

    def open(self, ctx: ExecContext) -> None:
        self.stats = OperatorStats(self.name, site=ctx.coordinator)
        self._ctx = ctx
        self._closed = False
        for child in self.children:
            child.open(ctx)
        self._rows = self._produce(ctx)

    def next(self) -> Any:
        row = next(self._rows, None)
        if row is not None:
            self.stats.rows_out += 1
        return row

    def close(self, settle: bool = True) -> None:
        """Settle accounting (skipped when the execution failed) and drop
        per-execution state: the row generator's frame and a site
        operator's batches would otherwise stay pinned -- in a reference
        cycle with this operator -- until the plan is next compiled."""
        if getattr(self, "_closed", True):
            return
        self._closed = True
        if settle:
            self._finish(self._ctx)
        for child in self.children:
            child.close(settle)
        self._rows = self._batches = self._ctx = None

    def _produce(self, ctx: ExecContext) -> Iterator[Any]:
        return iter(())

    def _finish(self, ctx: ExecContext) -> None:
        """Settle accounting once, when the operator closes."""

    def output_names(self) -> list[str] | None:
        """Column names this operator produces (None: derive from env keys)."""
        return None

    def stats_tree(self) -> OperatorStats:
        self.stats.children = [child.stats_tree() for child in self.children]
        return self.stats


class Filter(PhysicalOperator):
    """Residual row filter at the coordinator (streaming)."""

    name = "Filter"

    def __init__(self, child: PhysicalOperator, condition: Expr) -> None:
        super().__init__(child)
        self.condition = condition

    def open(self, ctx: ExecContext) -> None:
        super().open(ctx)
        self.stats.detail = describe_expr(self.condition)

    def _produce(self, ctx: ExecContext) -> Iterator[Any]:
        child = self.children[0]
        while (env := child.next()) is not None:
            self.stats.rows_in += 1
            if evaluate(self.condition, env):
                yield env

    def _finish(self, ctx: ExecContext) -> None:
        self.stats.seconds += ctx.charge_coordinator(self.stats.rows_in)


class _JoinBase(PhysicalOperator):
    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        condition: Expr,
        join_type: str,
        right_bindings: list[str],
    ) -> None:
        super().__init__(left, right)
        self.condition = condition
        self.join_type = join_type
        self.right_bindings = right_bindings
        self._extra_charge = 0

    def _null_right(self, ctx: ExecContext) -> Env:
        null_right: Env = {}
        for binding in self.right_bindings:
            null_right.update(null_env(ctx, binding))
        return null_right

    def _finish(self, ctx: ExecContext) -> None:
        self.stats.seconds += ctx.charge_coordinator(
            self.stats.rows_in + self._extra_charge
        )


class HashJoin(_JoinBase):
    """Build on the right input, stream probes from the left.

    The equality keys are resolved at runtime against the first row of each
    input (qualified names may or may not be present depending on the
    projection); when they do not resolve, the operator degrades to a
    nested-loop evaluation of the same condition.
    """

    name = "HashJoin"

    def open(self, ctx: ExecContext) -> None:
        super().open(ctx)
        self.stats.detail = describe_expr(self.condition)

    def _produce(self, ctx: ExecContext) -> Iterator[Any]:
        left, right = self.children
        right_envs = []
        while (env := right.next()) is not None:
            self.stats.rows_in += 1
            right_envs.append(env)
        outer = self.join_type == "left"
        null_right = self._null_right(ctx) if outer else {}

        first_left = left.next()
        keys = equality_keys(
            self.condition, first_left, right_envs[0] if right_envs else None
        )
        if keys is not None:
            left_key, right_key = keys
            buckets: dict[Any, list[Env]] = {}
            for env in right_envs:
                buckets.setdefault(env.get(right_key), []).append(env)
            env = first_left
            while env is not None:
                self.stats.rows_in += 1
                value = env.get(left_key)
                matches = buckets.get(value, ()) if value is not None else ()
                if matches:
                    for right_env in matches:
                        yield {**env, **right_env}
                elif outer:
                    yield {**env, **null_right}
                env = left.next()
            return

        # Keys did not resolve (empty input or non-column condition form):
        # fall back to nested-loop semantics over the same condition.
        self.stats.detail = f"nested-loop fallback {describe_expr(self.condition)}"
        left_envs = []
        env = first_left
        while env is not None:
            self.stats.rows_in += 1
            left_envs.append(env)
            env = left.next()
        self._extra_charge = len(left_envs) * max(1, len(right_envs))
        yield from _nested_loop(
            left_envs, right_envs, self.condition, outer, null_right
        )


class NestedLoopJoin(_JoinBase):
    """General-condition join: evaluate the predicate per row pair."""

    name = "NestedLoopJoin"

    def open(self, ctx: ExecContext) -> None:
        super().open(ctx)
        self.stats.detail = describe_expr(self.condition)

    def _produce(self, ctx: ExecContext) -> Iterator[Any]:
        left, right = self.children
        right_envs = []
        while (env := right.next()) is not None:
            self.stats.rows_in += 1
            right_envs.append(env)
        left_envs = []
        while (env := left.next()) is not None:
            self.stats.rows_in += 1
            left_envs.append(env)
        outer = self.join_type == "left"
        null_right = self._null_right(ctx) if outer else {}
        self._extra_charge = len(left_envs) * max(1, len(right_envs))
        yield from _nested_loop(
            left_envs, right_envs, self.condition, outer, null_right
        )


def _nested_loop(
    left_envs: list[Env],
    right_envs: list[Env],
    condition: Expr,
    outer: bool,
    null_right: Env,
) -> Iterator[Env]:
    for left_env in left_envs:
        matched = False
        for right_env in right_envs:
            merged = {**left_env, **right_env}
            if evaluate(condition, merged):
                matched = True
                yield merged
        if outer and not matched:
            yield {**left_env, **null_right}


def equality_keys(
    condition: Expr, left_env: Env | None, right_env: Env | None
) -> tuple[str, str] | None:
    """Detect ``left.col = right.col`` to enable the hash path."""
    if not (isinstance(condition, BinaryOp) and condition.op == "="):
        return None
    if not (
        isinstance(condition.left, Column) and isinstance(condition.right, Column)
    ):
        return None
    if left_env is None or right_env is None:
        return None
    a, b = condition.left.key, condition.right.key
    if a in left_env and b in right_env:
        return a, b
    if b in left_env and a in right_env:
        return b, a
    return None


class Project(PhysicalOperator):
    """Evaluate select items (and DISTINCT) at the coordinator."""

    name = "Project"

    def __init__(
        self, child: PhysicalOperator, items: list[SelectItem], distinct: bool
    ) -> None:
        super().__init__(child)
        self.items = items
        self.distinct = distinct

    def open(self, ctx: ExecContext) -> None:
        super().open(ctx)
        self._expanded = expand_items(self.items, ctx.plan, ctx.catalog)
        self._names = output_names(self.items, ctx.plan, ctx.catalog)
        self.stats.detail = ("distinct " if self.distinct else "") + ", ".join(
            self._names
        )

    def _produce(self, ctx: ExecContext) -> Iterator[Any]:
        seen: set[tuple] = set()
        child = self.children[0]
        while (env := child.next()) is not None:
            self.stats.rows_in += 1
            out: Env = {}
            for item, name in zip(self._expanded, self._names):
                out[name] = evaluate(item.expr, env)
            if self.distinct:
                key = tuple(out[name] for name in self._names)
                try:
                    if key in seen:
                        continue
                    seen.add(key)
                except TypeError:
                    pass  # unhashable values: keep the row, as before
            yield out

    def _finish(self, ctx: ExecContext) -> None:
        self.stats.seconds += ctx.charge_coordinator(self.stats.rows_in)

    def output_names(self) -> list[str] | None:
        return self._names


class Aggregate(PhysicalOperator):
    """Whole-group aggregation at the coordinator (multi-table plans)."""

    name = "Aggregate"

    def __init__(self, child: PhysicalOperator, node: AggregateNode) -> None:
        super().__init__(child)
        self.node = node

    def open(self, ctx: ExecContext) -> None:
        super().open(ctx)
        self._names = aggregate_names(self.node.items)
        self.stats.detail = ", ".join(self._names)

    def _produce(self, ctx: ExecContext) -> Iterator[Any]:
        envs = []
        child = self.children[0]
        while (env := child.next()) is not None:
            envs.append(env)
        self.stats.rows_in = len(envs)

        node = self.node
        groups: dict[tuple, list[Env]] = {}
        if node.group_by:
            for env in envs:
                key = tuple(evaluate(g, env) for g in node.group_by)
                groups.setdefault(key, []).append(env)
        else:
            groups[()] = envs

        results: list[Env] = []
        for group_envs in groups.values():
            if not group_envs and node.group_by:
                continue
            out: Env = {}
            for item, name in zip(node.items, self._names):
                out[name] = eval_aggregate_expr(item.expr, group_envs)
            if node.having is not None:
                if not bool(eval_aggregate_expr(node.having, group_envs)):
                    continue
            results.append(out)
        # Deterministic output order: by group key representation.
        results.sort(key=lambda env: tuple(repr(v) for v in env.values()))
        yield from results

    def _finish(self, ctx: ExecContext) -> None:
        self.stats.seconds += ctx.charge_coordinator(self.stats.rows_in)

    def output_names(self) -> list[str] | None:
        return aggregate_names(self.node.items)


class Sort(PhysicalOperator):
    """Blocking multi-key sort at the coordinator."""

    name = "Sort"

    def __init__(
        self, child: PhysicalOperator, order_by: list[OrderItem], k: int | None
    ) -> None:
        super().__init__(child)
        self.order_by = order_by
        self.k = k

    def open(self, ctx: ExecContext) -> None:
        super().open(ctx)
        self.stats.detail = ", ".join(
            describe_expr(o.expr) + (" desc" if o.descending else "")
            for o in self.order_by
        )

    def _produce(self, ctx: ExecContext) -> Iterator[Any]:
        envs = []
        child = self.children[0]
        while (env := child.next()) is not None:
            envs.append(env)
        self.stats.rows_in = len(envs)
        # Stable sorts applied in reverse order give multi-key semantics.
        for order in reversed(self.order_by):
            envs.sort(
                key=lambda env: _sort_key(evaluate(order.expr, env)),
                reverse=order.descending,
            )
        k, first = self.k, self.order_by[0]
        if k is not None:
            kth = evaluate(first.expr, envs[k - 1]) if len(envs) >= k else None
            check_top_k(ctx, k, len(envs), kth, first.descending)
        yield from envs

    def _finish(self, ctx: ExecContext) -> None:
        self.stats.seconds += ctx.charge_coordinator(self.stats.rows_in)

    def output_names(self) -> list[str] | None:
        return self.children[0].output_names()


class Limit(PhysicalOperator):
    """Stop pulling from the child after ``limit`` rows."""

    name = "Limit"

    def __init__(self, child: PhysicalOperator, limit: int) -> None:
        super().__init__(child)
        self.limit = limit

    def open(self, ctx: ExecContext) -> None:
        super().open(ctx)
        self.stats.detail = str(self.limit)

    def _produce(self, ctx: ExecContext) -> Iterator[Any]:
        child = self.children[0]
        produced = 0
        while produced < self.limit:
            env = child.next()
            if env is None:
                return
            self.stats.rows_in += 1
            produced += 1
            yield env

    def output_names(self) -> list[str] | None:
        return self.children[0].output_names()


def eval_aggregate_expr(expr: Expr, group_envs: list[Env]) -> Any:
    """Evaluate an expression that may contain aggregate calls."""
    if isinstance(expr, FuncCall) and expr.name in AGGREGATE_FUNCTIONS:
        return compute_aggregate(expr, group_envs)
    if isinstance(expr, BinaryOp):
        left = eval_aggregate_expr(expr.left, group_envs)
        right = eval_aggregate_expr(expr.right, group_envs)
        return evaluate(BinaryOp(expr.op, Literal(left), Literal(right)), {})
    # Non-aggregate sub-expression: evaluate against a representative row.
    representative = group_envs[0] if group_envs else {}
    return evaluate(expr, representative)


def compute_aggregate(call: FuncCall, group_envs: list[Env]) -> Any:
    if call.star:
        if call.name != "count":
            raise QueryError(f"{call.name}(*) is not a valid aggregate")
        return len(group_envs)
    if len(call.args) != 1:
        raise QueryError(f"aggregate {call.name} takes exactly one argument")
    values = [evaluate(call.args[0], env) for env in group_envs]
    values = [v for v in values if v is not None]
    if call.name == "count":
        return len(values)
    if not values:
        return None
    if call.name == "sum":
        total = values[0]
        for value in values[1:]:
            total = total + value
        return total
    if call.name == "avg":
        total = values[0]
        for value in values[1:]:
            total = total + value
        return total / len(values)
    if call.name == "min":
        return min(values)
    if call.name == "max":
        return max(values)
    raise QueryError(f"unknown aggregate {call.name!r}")


# -- adapters between the two protocols ----------------------------------------


class Rows(PhysicalOperator):
    """A batch-protocol operator as the env stream the reference pulls.

    Transparent in the stats tree.  Asking the source for one row a pull
    keeps its ``rows_out`` (and everything under it) at rows consumed.
    """

    def __init__(self, source: physical.PhysicalOperator) -> None:
        self.source = source

    def open(self, ctx: ExecContext) -> None:
        self.source.open(ctx)

    def next(self) -> Any:
        while (batch := self.source.next(1)) is not None:
            if batch.count:
                return batch.env_at(0)
        return None

    def close(self, settle: bool = True) -> None:
        self.source.close(settle)

    def output_names(self) -> list[str] | None:
        return self.source.output_names()

    def stats_tree(self) -> OperatorStats:
        return self.source.stats_tree()


class Batches(physical.PhysicalOperator):
    """The reference root's envs as the one batch the executor drains."""

    def __init__(self, root: PhysicalOperator) -> None:
        self.root = root

    def open(self, ctx: ExecContext) -> None:
        self.root.open(ctx)
        self._drained = False

    def next(self, want: int | None = None):
        if self._drained:
            return None
        self._drained = True
        envs = []
        while (env := self.root.next()) is not None:
            envs.append(env)
        if not envs:
            return None
        # Every key of the first env is a column: the result builder reads
        # them by name, as ``env.get(name)`` did.
        names = list(envs[0])
        return columnar.ColumnBatch(
            names, [[env.get(name) for env in envs] for name in names], len(envs)
        )

    def close(self, settle: bool = True) -> None:
        self.root.close(settle)

    def output_names(self) -> list[str] | None:
        return self.root.output_names()

    def stats_tree(self) -> OperatorStats:
        return self.root.stats_tree()


class ReferencePlanner(physical.PhysicalPlanner):
    """Compiles the coordinator half of a plan into the reference operators."""

    def compile(self, plan: physical.PhysicalPlan) -> physical.PhysicalOperator:
        return Batches(self._reference(plan.logical, plan))

    def _reference(self, node: PlanNode, plan: physical.PhysicalPlan):
        if isinstance(node, ScanNode) or (
            isinstance(node, AggregateNode)
            and node.split is not None
            and isinstance(node.child, ScanNode)
        ):
            # Ship, or FinalAggregate over Ship: production operators.
            return Rows(self._node(node, plan))
        if isinstance(node, FilterNode):
            return Filter(self._reference(node.child, plan), node.condition)
        if isinstance(node, JoinNode):
            left = self._reference(node.left, plan)
            right = self._reference(node.right, plan)
            right_bindings = [scan.binding for scan in scans_in(node.right)]
            condition = node.condition
            if (
                isinstance(condition, BinaryOp)
                and condition.op == "="
                and isinstance(condition.left, Column)
                and isinstance(condition.right, Column)
            ):
                return HashJoin(left, right, condition, node.join_type, right_bindings)
            return NestedLoopJoin(
                left, right, condition, node.join_type, right_bindings
            )
        if isinstance(node, ProjectNode):
            return Project(self._reference(node.child, plan), node.items, node.distinct)
        if isinstance(node, AggregateNode):
            return Aggregate(self._reference(node.child, plan), node)
        if isinstance(node, SortNode):
            return Sort(
                self._reference(node.child, plan), node.order_by, top_k_bound(node)
            )
        if isinstance(node, LimitNode):
            return Limit(self._reference(node.child, plan), node.limit.value)
        raise QueryError(f"cannot compile plan node {node!r}")
