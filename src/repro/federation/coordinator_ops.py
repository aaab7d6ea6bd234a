"""The coordinator plane: ``open``/``next``/``close`` operators charged to
the coordinator, one column batch of at most the rows a LIMIT above still
wants a ``next``.  ``Filter``, the two joins, ``Project``, ``Aggregate`` /
``FinalAggregate`` (:func:`merged_groups`, :func:`finished_groups`) with
``MergePartials`` below a join (:func:`regrouped`), ``Sort`` with its top-k
check (:func:`check_top_k`) and ``Limit``.
"""

from __future__ import annotations

from itertools import chain, compress, repeat
from typing import Any

from repro.federation import columnar
from repro.federation.catalog import FederationCatalog
from repro.federation.physical import (
    BatchCursor,
    ExecContext,
    PhysicalOperator,
    PhysicalPlan,
    _Expressions,
    _sort_key,
    _sort_keys,
    schema_of,
)
from repro.federation.site_ops import (
    PARTIAL_ROWS,
    final_value,
    merge_state,
    partial_groups,
    partial_names,
)
from repro.sql.ast import (
    Column,
    Expr,
    FuncCall,
    OrderItem,
    SelectItem,
    Star,
    is_aggregate,
    rebuild,
    render,
)
from repro.sql.expressions import evaluate
from repro.sql.planner import AggregateNode, ScanNode, item_names


# -- coordinator operators -----------------------------------------------------


def _over_states(expr: Expr, calls: dict[str, FuncCall]) -> Expr:
    """``expr`` with every aggregate call replaced by a column named by the
    call's state key (no SQL column is spelled like one); the calls are
    collected into ``calls`` under those keys."""
    if is_aggregate(expr):
        key = repr(expr)
        calls[key] = expr
        return Column(key)
    return rebuild(expr, _over_states, calls)


def finished_groups(
    node: AggregateNode, names: list[str], groups: "columnar.ColumnBatch"
) -> "list[columnar.ColumnBatch]":
    """The aggregation's output batch: every group's select items, the
    groups failing HAVING dropped, in the deterministic order -- by the
    rows' value representations.

    This is the one evaluator of an expression that may contain aggregate
    calls: wherever a call stands, it reads as a column of the calls' final
    values, and the items and HAVING are evaluated over one batch of the
    key columns and those (:class:`_Expressions`): a key or a call is
    read as a column, and only any other expression is evaluated, against
    each group's first row extended by its row of that batch.
    """
    calls: dict[str, FuncCall] = {}
    items = [_over_states(item.expr, calls) for item in node.items]
    having = None if node.having is None else _over_states(node.having, calls)
    width = groups.names.index(PARTIAL_ROWS)
    counts = groups.columns[width]
    finals = [
        final_value(call, groups.columns[groups.index_of(key)], counts)
        for key, call in calls.items()
    ]
    keys = groups.columns[:width]
    finished = columnar.ColumnBatch(
        [*groups.names[:width], *calls], [*keys, *finals], groups.count
    )
    expressions = _Expressions(finished, firsts=groups.columns[-1])
    rows = zip(*[expressions.column(expr) for expr in items])
    if having is not None:
        rows = compress(rows, expressions.column(having))
    results = sorted(rows, key=lambda row: tuple(map(repr, row)))
    columns = [list(column) for column in zip(*results)] or [[] for _ in names]
    return [columnar.ColumnBatch(names, columns, len(results))]


class Filter(PhysicalOperator):
    """Residual row filter at the coordinator (streaming)."""

    name = "Filter"

    def __init__(self, child: PhysicalOperator, condition: Expr) -> None:
        super().__init__(child)
        self.condition = condition

    def open(self, ctx: ExecContext) -> None:
        super().open(ctx)
        self.stats.detail = render(self.condition)

    def _next(self, want: int | None) -> "columnar.ColumnBatch | None":
        # A row yields at most one row, so ``want`` input rows are never
        # more than ``want`` output rows take.
        batch = self.children[0].next(want)
        if batch is None:
            return None
        self.stats.rows_in += batch.count
        compiled = self._rows  # (names, kernel) of the last layout
        if compiled is None or compiled[0] != batch.names:
            kernel = columnar.compile_predicate(self.condition, batch)
            compiled = self._rows = (batch.names, kernel)
        return columnar.filter_batch(batch, self.condition, compiled[1])

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

    def open(self, ctx: ExecContext) -> None:
        super().open(ctx)
        self.stats.detail = render(self.condition)

    def _nested_loop(
        self,
        left: "columnar.ColumnBatch | None",
        right: "columnar.ColumnBatch | None",
    ) -> "list[columnar.ColumnBatch]":
        """Evaluate the condition per row pair of two whole inputs."""
        if left is None:
            return []  # and nothing extra to charge
        self._extra_charge = left.count * max(1, right.count if right else 0)
        outer = self.join_type == "left"
        if right is None:
            if not outer:
                return []
            # No right batch to take the layout from: null-extend with the
            # right scans' own columns.
            right = _side_by_side(
                [self._ctx.empty_batch(binding) for binding in self.right_bindings]
            )
        right_envs = right.to_envs()
        left_rows: list[int] = []
        right_rows: list[int] = []
        for i, env in enumerate(left.to_envs()):
            matched = False
            for j, right_env in enumerate(right_envs):
                # Every right env has the same keys, so each overwrites
                # the one before it: ``env`` is this pair's merged row.
                env.update(right_env)
                if evaluate(self.condition, env):
                    matched = True
                    left_rows.append(i)
                    right_rows.append(j)
            if outer and not matched:
                left_rows.append(i)
                right_rows.append(-1)
        return [_joined(left, left_rows, _null_padded(right, outer), right_rows)]

    def _finish(self, ctx: ExecContext) -> None:
        self.stats.seconds += ctx.charge_coordinator(
            self.stats.rows_in + self._extra_charge
        )


def _side_by_side(
    batches: "list[columnar.ColumnBatch]", count: int = 0
) -> "columnar.ColumnBatch":
    """One batch with the columns of all ``batches`` (``count`` rows each):
    their bindings differ, so no two of their names do."""
    names: list[str] = []
    columns: list = []
    for batch in batches:
        names += batch.names
        columns += batch.columns
    return columnar.ColumnBatch(names, columns, count)


def _null_padded(right: "columnar.ColumnBatch", outer: bool):
    """The build side's columns, each with a trailing NULL when the join
    null-extends: row ``-1`` of every column is then the padding."""
    if not outer:
        return right
    return columnar.ColumnBatch(
        right.names,
        [[*column, None] for column in right.columns],
        right.count,  # the padding is no row of the input
    )


def _joined(
    left: "columnar.ColumnBatch",
    left_rows: "list[int] | None",
    right: "columnar.ColumnBatch",
    right_rows: list[int],
) -> "columnar.ColumnBatch":
    """Gather matched row pairs; ``left_rows`` None means every left row
    once, in order, so the left columns pass by reference."""
    if left_rows is not None:
        left = left.take(left_rows)
    return _side_by_side([left, right.take(right_rows)], len(right_rows))


class _Probe:
    """A hash join's build side, kept while the left input streams by."""

    def __init__(
        self, left_key: str, key_column, right: "columnar.ColumnBatch", outer: bool
    ) -> None:
        self.left_key = left_key
        buckets: dict[Any, list[int]] = {}
        for row, key in enumerate(key_column):
            if key is not None:  # a NULL key matches nothing
                buckets.setdefault(key, []).append(row)
        self.buckets = buckets
        self.right = _null_padded(right, outer)
        self.miss = (-1,) if outer else ()
        # The most output rows one left row can yield.
        self.fanout = max(map(len, buckets.values()), default=0)
        if outer:
            self.fanout = max(self.fanout, 1)
        # Joined rows not handed on yet: under a LIMIT the last left row
        # pulled may match more rows than were asked for.
        self.pending = BatchCursor([])

    def join(self, left: "columnar.ColumnBatch") -> "columnar.ColumnBatch":
        keys = left.columns[left.index_of(self.left_key)]
        found = list(map(self.buckets.get, keys, repeat(self.miss)))
        matches = list(map(len, found))
        left_rows = None
        if matches.count(1) != left.count:
            left_rows = list(
                chain.from_iterable(map(repeat, range(left.count), matches))
            )
        return _joined(
            left, left_rows, self.right, list(chain.from_iterable(found))
        )


class HashJoin(_JoinBase):
    """Build on the right input, stream probes from the left.

    The equality keys are matched at runtime against the layout of each
    input's first rows (either side of the condition may name either
    input); when they do not match, the operator degrades to a
    nested-loop evaluation of the same condition.
    """

    name = "HashJoin"

    def _next(self, want: int | None) -> "columnar.ColumnBatch | None":
        if self._rows is None:
            self._rows = self._start(want)
        probe = self._rows
        if isinstance(probe, BatchCursor):  # the nested-loop fallback's output
            return probe.pull(want)
        while (batch := probe.pending.pull(want)) is None:
            # ``fanout`` rows per left row at most: this many left rows
            # cannot yield ``want`` rows before the last of them does.
            ask = want if want is None or not probe.fanout else -(-want // probe.fanout)
            left = self.children[0].next(ask)
            if left is None:
                return None
            self.stats.rows_in += left.count
            probe.pending = BatchCursor([probe.join(left)])
        return batch

    def _start(self, want: int | None) -> "_Probe | BatchCursor":
        """Build on the whole right input and resolve the keys against
        the first left rows."""
        left, right = self.children
        build = columnar.concat(self._drain(right))
        # One row is the least any demand takes; how many more it takes
        # depends on the fanout, known once the first rows named the key.
        first_want = None if want is None else 1
        while (first := left.next(first_want)) is not None and not first.count:
            pass
        if first is not None:
            self.stats.rows_in += first.count
            probe = self._probe_for(first, build)
            if probe is not None:
                probe.pending = BatchCursor([probe.join(first)])
                return probe
            first = columnar.concat([first, *self._drain(left)])
        # Keys did not resolve (empty input or non-column condition form):
        # fall back to nested-loop semantics over the same condition.
        self.stats.detail = f"nested-loop fallback {render(self.condition)}"
        return BatchCursor(self._nested_loop(first, build))

    def _probe_for(
        self, first: "columnar.ColumnBatch", build: "columnar.ColumnBatch | None"
    ) -> "_Probe | None":
        """The build side keyed by whichever condition column it holds, if
        the left rows hold the other one."""
        if build is None:
            return None
        a, b = self.condition.left.key, self.condition.right.key
        for left_key, right_key in ((a, b), (b, a)):
            index = build.index_of(right_key)
            if first.index_of(left_key) is not None and index is not None:
                return _Probe(
                    left_key, build.columns[index], build, self.join_type == "left"
                )
        return None


class NestedLoopJoin(_JoinBase):
    """General-condition join: evaluate the predicate per row pair."""

    name = "NestedLoopJoin"

    def _produce(self, ctx: ExecContext) -> "list[columnar.ColumnBatch]":
        right = columnar.concat(self._drain(self.children[1]))
        return self._nested_loop(columnar.concat(self._drain(self.children[0])), right)


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

    def _next(self, want: int | None) -> "columnar.ColumnBatch | None":
        batch = self.children[0].next(want)  # at most one row out per row in
        if batch is None:
            return None
        self.stats.rows_in += batch.count
        expressions = _Expressions(batch)
        out = columnar.ColumnBatch(
            self._names,
            [expressions.column(item.expr) for item in self._expanded],
            batch.count,
        )
        if not self.distinct:
            return out
        if self._rows is None:
            self._rows = set()  # the distinct rows seen so far
        seen = self._rows
        fresh = []
        for row, key in enumerate(zip(*out.columns)):
            try:
                if key in seen:
                    continue
                seen.add(key)
            except TypeError:
                pass  # unhashable values: keep the row, as before
            fresh.append(row)
        return out if len(fresh) == out.count else out.take(fresh)

    def _finish(self, ctx: ExecContext) -> None:
        self.stats.seconds += ctx.charge_coordinator(self.stats.rows_in)

    def output_names(self) -> list[str] | None:
        return self._names


class Aggregate(PhysicalOperator):
    """Whole-group aggregation at the coordinator (multi-table plans):
    the partial fold over everything the child produces, then the finish."""

    name = "Aggregate"

    def __init__(self, child: PhysicalOperator, node: AggregateNode) -> None:
        super().__init__(child)
        self.node = node

    def open(self, ctx: ExecContext) -> None:
        super().open(ctx)
        self._names = aggregate_names(self.node.items)
        self.stats.detail = ", ".join(self._names)

    def _produce(self, ctx: ExecContext) -> "list[columnar.ColumnBatch]":
        return finished_groups(self.node, self._names, self._groups())

    def _groups(self) -> "columnar.ColumnBatch":
        parts = [(batch, None) for batch in self._drain(self.children[0])]
        return partial_groups(parts, self.node.group_by, self.node.calls())

    def _finish(self, ctx: ExecContext) -> None:
        self.stats.seconds += ctx.charge_coordinator(self.stats.rows_in)

    def output_names(self) -> list[str] | None:
        return aggregate_names(self.node.items)


class FinalAggregate(Aggregate):
    """Merge partial aggregate states into final groups: the sites' batches
    of groups under a ``Ship``, or, over the join an aggregation was pushed
    below, its merged groups joined with the other side's rows
    (:func:`regrouped`)."""

    name = "FinalAggregate"

    def _groups(self) -> "columnar.ColumnBatch":
        batches, node = self._drain(self.children[0]), self.node
        calls = node.split.calls
        if not isinstance(node.child, ScanNode):
            batches = [regrouped(batch, node.group_by, calls) for batch in batches]
        return merged_groups(batches, node.group_by, calls)


class MergePartials(PhysicalOperator):
    """The sites' partial states of an aggregation pushed below a join,
    merged by its keys (:func:`merged_groups`) and handed on unfinished,
    one row per group: keys, row count, states."""

    name = "MergePartials"

    def __init__(self, child: PhysicalOperator, node: AggregateNode) -> None:
        super().__init__(child)
        self.node = node

    def open(self, ctx: ExecContext) -> None:
        super().open(ctx)
        self.stats.detail = ", ".join(map(render, self.node.group_by))

    def _produce(self, ctx: ExecContext) -> "list[columnar.ColumnBatch]":
        batches, node = self._drain(self.children[0]), self.node
        return [merged_groups(batches, node.group_by, node.split.calls)]

    def _finish(self, ctx: ExecContext) -> None:
        self.stats.seconds += ctx.charge_coordinator(self.stats.rows_in)


def regrouped(
    batch: "columnar.ColumnBatch", group_by: list[Expr], calls: list[FuncCall]
) -> "columnar.ColumnBatch":
    """Pushed groups joined with the other side's rows, laid out as a batch
    of groups by ``group_by`` for :func:`merged_groups`: the keys evaluated
    on the joined rows, the row counts and states as the pushed aggregation
    merged them, and each joined row its own first row."""
    expressions = _Expressions(batch)
    columns, index = batch.columns, batch.index_of
    return columnar.ColumnBatch(
        partial_names(group_by, [repr(call) for call in calls]),
        [
            *(expressions.column(expr) for expr in group_by),
            columns[index(PARTIAL_ROWS)],
            *(columns[index(repr(call))] for call in calls),
            list(zip(repeat(batch), range(batch.count))),
        ],
        batch.count,
    )


def merged_groups(
    batches: "list[columnar.ColumnBatch]", group_by: list[Expr], calls: list[FuncCall]
) -> "columnar.ColumnBatch":
    """Sites' batches of groups merged by key into one, in arrival order: a
    group's row counts added, its states merged (:func:`merge_state`), its
    first row the first arrival's."""
    width = len(group_by)
    index: dict = {}  # group key -> its row in the merged batch
    keys, counts, firsts, targets = [], [], [], []
    for batch in batches:
        columns = batch.columns
        keyed = zip(*columns[:width]) if width else repeat((), batch.count)
        into = []
        arrived = columns[0] if width == 1 else keyed
        for key, count, first in zip(arrived, columns[width], columns[-1]):
            target = index.setdefault(key, len(counts))
            if target == len(counts):
                keys.append(key)
                counts.append(count)
                firsts.append(first)
            elif counts[target]:
                counts[target] += count
            else:
                # A group of no row (the ungrouped one of a site that had
                # none) holds empty states: the arriving one's merge into
                # them, and its key and first row replace.
                keys[target], counts[target], firsts[target] = key, count, first
            into.append(target)
        targets.append(into)
    state_keys = [repr(call) for call in calls]
    if not counts:  # no site sent a group: what aggregating no rows gives
        return partial_groups((), group_by, dict(zip(state_keys, calls)))
    states = []
    for j, call in enumerate(calls, start=width + 1):
        merged = counts if call.star else []
        if not call.star:
            for batch, into in zip(batches, targets):
                merge_state(call, merged, into, batch.columns[j])
        states.append(merged)
    keys = [keys] if width == 1 else [list(column) for column in zip(*keys)]
    names = partial_names(group_by, state_keys)
    return columnar.ColumnBatch(names, [*keys, counts, *states, firsts], len(counts))


class TopKRestart(Exception):
    """A top-k stage's answer is not known exact: the executor runs the
    plan with the mark off, starting the truncated stage again.  The
    message says why, for EXPLAIN ANALYZE."""


def check_top_k(
    ctx: ExecContext, k: int, rows: int, kth: Any, descending: bool
) -> None:
    """Raise :class:`TopKRestart` unless the sorted answer is exact.

    It is when there are at least ``k`` rows and the k-th row's first key
    ``kth`` ranks no later than every cut fragment's boundary: each row a
    ``SiteTopK`` dropped ranks strictly after its boundary, so after the
    k-th row.  (A key that compares false both ways, NaN, restarts.)
    """
    cuts = ctx.top_k_cuts
    if not cuts:
        return
    if rows < k:
        raise TopKRestart(f"top-k restart: {rows} rows, fewer than {k}")
    key = _sort_key(kth)
    for label, boundary in cuts:
        edge = _sort_key(boundary)
        if not (edge <= key if descending else key <= edge):
            raise TopKRestart(
                f"top-k restart: {label} boundary {boundary!r} ranks before row {k}"
            )


class Sort(PhysicalOperator):
    """Blocking multi-key sort at the coordinator.

    Over a top-k stage it learns ``k`` and checks its answer
    (:func:`check_top_k`) before serving a row.
    """

    name = "Sort"

    def __init__(
        self, child: PhysicalOperator, order_by: list[OrderItem], k: int | None = None
    ) -> None:
        super().__init__(child)
        self.order_by = order_by
        self.k = k

    def open(self, ctx: ExecContext) -> None:
        super().open(ctx)
        self.stats.detail = ", ".join(
            render(o.expr) + (" desc" if o.descending else "")
            for o in self.order_by
        )

    def _next(self, want: int | None) -> "columnar.ColumnBatch | None":
        if self._rows is None:
            batch = columnar.concat(self._drain(self.children[0]))
            order = list(range(batch.count if batch else 0))
            first = None  # the first key's values
            if order:
                expressions = _Expressions(batch)
                # Stable sorts applied in reverse order give multi-key
                # semantics.
                for item in reversed(self.order_by):
                    first = expressions.column(item.expr)
                    keys = _sort_keys(first)
                    order.sort(key=keys.__getitem__, reverse=item.descending)
            k = self.k
            if k is not None:
                kth = first[order[k - 1]] if len(order) >= k else None
                check_top_k(self._ctx, k, len(order), kth, self.order_by[0].descending)
            self._rows = [batch, order, 0]  # input, its sorted order, rows served
        batch, order, served = self._rows
        if served == len(order):
            return None
        # Only the rows pulled are gathered: a LIMIT above pays for its own.
        stop = len(order) if want is None else min(len(order), served + want)
        self._rows[2] = stop
        return batch.take(order[served:stop])

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

    def _next(self, want: int | None) -> "columnar.ColumnBatch | None":
        remaining = self.limit - self.stats.rows_in
        if want is not None:
            remaining = min(remaining, want)
        if remaining <= 0:
            return None
        batch = self.children[0].next(remaining)
        if batch is not None:
            self.stats.rows_in += batch.count
        return batch

    def output_names(self) -> list[str] | None:
        return self.children[0].output_names()


# -- naming / projection helpers -----------------------------------------------


def expand_items(
    items: list[SelectItem], plan: PhysicalPlan, catalog: FederationCatalog
) -> list[SelectItem]:
    """Replace ``*`` / ``alias.*`` with explicit column items."""
    expanded: list[SelectItem] = []
    for item in items:
        if not isinstance(item.expr, Star):
            expanded.append(item)
            continue
        for binding, assignment in plan.assignments.items():
            if item.expr.qualifier is not None and item.expr.qualifier != binding:
                continue
            for field_def in schema_of(catalog, assignment).fields:
                expanded.append(SelectItem(Column(field_def.name, binding, binding)))
    return expanded


def output_names(
    items: list[SelectItem], plan: PhysicalPlan, catalog: FederationCatalog
) -> list[str]:
    return item_names(expand_items(items, plan, catalog))


aggregate_names = item_names  # an aggregation's items hold no ``*`` to expand
