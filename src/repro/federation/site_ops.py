"""The site plane: ``SiteScan`` → ``SiteFilter`` → ``SiteProject`` →
``SiteTopK`` → ``PartialAggregate``, a stage's pipeline where the rows live.

Each operator charges the site that owns the rows and hands on
:class:`~repro.federation.physical.SiteBatch` objects whose selections a
filter only narrows; every one but the scan is a ``_step`` of
:class:`~repro.federation.physical.SiteOperator`'s per-batch loop, which
does the charging.  The one aggregate definition starts here (the four
state functions and :func:`partial_groups`); the coordinator plane calls
it, and this module imports nothing from that plane.
"""

from __future__ import annotations

from collections import defaultdict
from functools import reduce
from operator import add
from typing import Any, Iterable

from repro.core.errors import QueryError
from repro.core.records import Table
from repro.federation import columnar
from repro.federation.catalog import Fragment
from repro.federation.governance import mask_value
from repro.federation.physical import (
    ExecContext,
    ScanAssignment,
    SiteBatch,
    SiteOperator,
    _Expressions,
    _sort_keys,
)
from repro.federation.report import (
    describe_access_path,
    describe_governance,
    describe_pushdown,
)
from repro.federation.stage import Stage
from repro.sql.ast import Column, Expr, FuncCall, OrderItem, render
from repro.sql.planner import AggregateNode, conjoin


# -- site-side operators -------------------------------------------------------


def chunk_filter(condition: Expr):
    """``keep(batch)``: a site batch's selections narrowed to the rows on
    which ``condition`` is truthy (:func:`columnar.select_rows`); no row is
    copied.  Compiled once, against the first chunk met: every chunk of a
    scan shares its layout."""
    compiled = []  # the kernel, once there was a chunk to compile against

    def keep(batch: SiteBatch) -> "list[list[int] | None]":
        if not compiled and batch.chunks:
            compiled.append(columnar.compile_predicate(condition, batch.chunks[0]))
        return [
            columnar.select_rows(chunk, condition, compiled[0], selection)
            for chunk, selection in batch.kept()
        ]

    return keep


class SiteScan(SiteOperator):
    """Scan one stage's input where the rows live.

    The stage runs the access path (:meth:`Stage.run
    <repro.federation.stage.Stage.run>`: placement, failover, a copy served
    whole, degrade-or-fail); this operator lays the rows it read out as
    column chunks and applies the residual RLS and the masks."""

    name = "SiteScan"

    def __init__(self, stage: Stage) -> None:
        super().__init__()
        self.stage = stage
        self.scan = stage.scan

    def _compute(self, ctx: ExecContext) -> list[SiteBatch]:
        table_batches = self.stage.run(ctx, self.stats)
        assignment = self.stage.assignment
        self.stats.detail = self._describe(assignment)
        return self._site_batches(ctx, assignment, table_batches)

    def _site_batches(
        self,
        ctx: ExecContext,
        assignment: ScanAssignment,
        table_batches: "list[tuple[str, Table, float, Fragment | None]]",
    ) -> list[SiteBatch]:
        """Each table's resident column layout under this query's batch
        headers, less the rows the residual RLS rejects, masks applied.
        Governance runs *after* the capture: cached regions keep raw rows
        under their predicate key, every consumer scan re-applies its own
        residual RLS and masks right here, and rows a policy hides never
        leave the site pipeline.
        """
        batches = []
        for site, table, elapsed, fragment in table_batches:
            chunks = columnar.table_chunks(assignment.binding, table)
            batches.append(
                SiteBatch(site, elapsed, chunks, [None] * len(chunks), fragment)
            )
        self._apply_governance(ctx, batches)
        ctx.report.rows_fetched += sum(batch.row_count() for batch in batches)
        return batches

    def _apply_governance(self, ctx: ExecContext, batches: list[SiteBatch]) -> None:
        """Residual RLS then column masks, per batch, as charged site work.

        Pushed RLS conjuncts already ran inside the access path (source
        pushdown / view / cache residual application); what remains here is
        the policy work the optimizers priced as ordinary row volume: the
        non-pushable RLS conjuncts over the *raw* columns, then masking at
        the scan's output.
        """
        governance = self.scan.governance
        if governance is None:
            return
        keep = (
            chunk_filter(conjoin(list(governance.rls_residual)))
            if governance.rls_residual
            else None
        )
        for batch in batches:
            if keep is not None:
                rows_in = batch.row_count()
                batch.selections = keep(batch)
                ctx.report.rows_filtered_by_rls += rows_in - batch.row_count()
                work = ctx.charge_site(batch.site, rows_in)
                self.stats.seconds += work
                batch.elapsed += work
            if governance.masks:
                work = ctx.charge_site(batch.site, batch.row_count())
                self.stats.seconds += work
                batch.elapsed += work
                # A mask writes new columns: of the kept rows alone.
                batch.chunks = [
                    self._masked(columnar.gather(chunk, selection))
                    for chunk, selection in batch.kept()
                ]
                batch.selections = [None] * len(batch.chunks)

    def _masked(self, chunk: "columnar.ColumnBatch") -> "columnar.ColumnBatch":
        # Masked columns are new lists beside the shared ones: the table
        # (the semantic-cache capture may hold it) keeps its raw values, and
        # the batch gives up the table's orders, which know resident slices.
        columns = list(chunk.columns)
        for name, style in self.scan.governance.masks.items():
            index = chunk.index_of(f"{self.scan.binding}.{name}")
            if index is not None:
                columns[index] = [mask_value(style, v) for v in columns[index]]
        return columnar.ColumnBatch(chunk.names, columns, chunk.count)

    def _describe(self, assignment: ScanAssignment) -> str:
        detail = describe_access_path(assignment) + describe_pushdown(self.scan)
        detail += describe_governance(self.scan)
        for event in self.stage.events:
            detail += f" [{event}]"
        return f"{self.scan.table} as {self.scan.binding}: {detail}"


class SiteFilter(SiteOperator):
    """Evaluate residual single-binding conjuncts where the rows live."""

    name = "SiteFilter"

    def __init__(self, child: SiteOperator, condition: Expr) -> None:
        super().__init__(child)
        self.condition = condition
        self._keep = chunk_filter(condition)

    def _step(self, batch: SiteBatch) -> SiteBatch:
        return batch.passed_on(batch.chunks, self._keep(batch))

    def _detail(self) -> str:
        return render(self.condition)


class SiteProject(SiteOperator):
    """Strip unneeded columns before rows ship (projection pruning)."""

    name = "SiteProject"

    def __init__(self, child: SiteOperator, binding: str, keep: tuple[str, ...]) -> None:
        super().__init__(child)
        self.binding = binding
        self.keep = keep
        self.allowed = set(columnar.scan_names(binding, keep))
        self._narrow = None  # resolved once: every chunk of a scan shares its layout

    def _step(self, batch: SiteBatch) -> SiteBatch:
        # Column-slice projection: kept columns are shared by reference,
        # dropped ones simply stop flowing, and the selections pass on as
        # they are.
        if self._narrow is None and batch.chunks:
            self._narrow = batch.chunks[0].narrowing(self.allowed)
        chunks = [chunk.project(self._narrow) for chunk in batch.chunks]
        return batch.passed_on(chunks, batch.selections)

    def _detail(self) -> str:
        return f"keep({', '.join(self.keep)})"


class SiteTopK(SiteOperator):
    """Ship each fragment's top k rows by the Sort's first key, not all.

    The last operator of a top-k scan's pipeline, so it ranks exactly the
    values ``Ship`` sends.  A batch (one fragment) of more than k kept rows
    has its selections narrowed to the rows whose first key ranks within
    the first k -- every row tied with the k-th stays -- and remembers that
    k-th key as its boundary (``cut``): every row it dropped ranks strictly
    after it.  Keys rank in :func:`_sort_key`'s order, the coordinator's.
    Ranking is site work per row in; a batch of k rows or fewer passes on
    unranked and uncharged.  A key the site cannot evaluate leaves the
    batch whole: the coordinator evaluates it as the ordinary plan would.
    """

    name = "SiteTopK"

    def __init__(self, child: SiteOperator, order: OrderItem, k: int) -> None:
        super().__init__(child)
        self.order = order
        self.k = k

    def _step(self, batch: SiteBatch) -> "SiteBatch | None":
        if batch.row_count() <= self.k:
            return None
        selections, cut = self._top(batch)
        return batch.passed_on(batch.chunks, selections, cut)

    def _detail(self) -> str:
        order = self.order
        return f"top {self.k} by {render(order.expr)}" + (
            " desc" if order.descending else ""
        )

    def _top(self, batch: SiteBatch) -> "tuple[list, tuple | None]":
        """The batch's selections narrowed to its top k, with the boundary;
        as they were, with no boundary, when no row ranks after the k-th or
        a key does not evaluate."""
        expr, descending = self.order.expr, self.order.descending
        rows, values = [], []
        try:
            for chunk, selection in batch.kept():
                column = _Expressions(chunk, selection).column(expr)
                if selection is None:
                    rows.append(range(chunk.count))
                    values += column
                else:
                    rows.append(selection)
                    values += [column[i] for i in selection]
        except QueryError:
            return batch.selections, None
        keys = _sort_keys(values)
        edge = sorted(keys, reverse=descending)[self.k - 1]
        ranked = iter(keys)  # zip takes as many keys as a chunk has rows
        selections, kept = [], 0
        for chunk_rows, selection in zip(rows, batch.selections):
            if descending:
                chosen = [r for r, key in zip(chunk_rows, ranked) if not key < edge]
            else:
                chosen = [r for r, key in zip(chunk_rows, ranked) if not key > edge]
            kept += len(chosen)
            selections.append(chosen if len(chosen) < len(chunk_rows) else selection)
        if kept == len(keys):
            return batch.selections, None
        return selections, (edge if keys is values else values[keys.index(edge)],)


# A batch of partial-aggregate groups (:func:`partial_groups`) holds, in
# this order: one column per group key, the groups' row counts, one state
# column per aggregate call under its state key, and where each group's
# first row is, ``(batch, row)`` -- ``None`` for the group of no row.
PARTIAL_ROWS, PARTIAL_FIRST = "#rows", "#first"


def partial_names(group_by: list[Expr], state_keys) -> list[str]:
    """A batch of groups' column names.  A key that is a plain column goes
    under that column's key, so a select item naming it reads the key; any
    other key under its ``repr``, which no SQL column is spelled like."""
    keys = [expr.key if isinstance(expr, Column) else repr(expr) for expr in group_by]
    return [*keys, PARTIAL_ROWS, *state_keys, PARTIAL_FIRST]


def empty_state(call: FuncCall) -> Any:
    """The partial state of ``call`` over no rows; refuses a malformed call.

    ``count`` is an int, ``avg`` a ``(total, n)`` pair and ``sum`` / ``min``
    / ``max`` the value so far, ``None`` until a non-NULL one arrives.
    ``count(*)`` folds nothing: its state is the group's row count.
    """
    if call.star:
        if call.name != "count":
            raise QueryError(f"{call.name}(*) is not a valid aggregate")
        return 0
    if len(call.args) != 1:
        raise QueryError(f"aggregate {call.name} takes exactly one argument")
    if call.name == "count":
        return 0
    if call.name == "avg":
        return (None, 0)
    if call.name in ("sum", "min", "max"):
        return None
    raise QueryError(f"unknown aggregate {call.name!r}")


def fold_state(call: FuncCall, groups: list) -> list:
    """Each group's state of ``call``, a column: ``groups`` holds a list of
    argument values per group, in row order with its NULLs, and only a
    list holding a NULL is filtered (``count(*)``: the row counts).

    Sums add left to right onto the running total, so a group's float
    total does not depend on how its rows were split into batches.
    """
    if call.star:
        return groups
    empty = empty_state(call)
    groups = [
        values if None not in values else [v for v in values if v is not None]
        for values in groups
    ]
    if call.name == "count":
        return list(map(len, groups))
    if call.name == "avg":
        return [
            (reduce(add, values), len(values)) if values else empty for values in groups
        ]
    if call.name == "sum":
        return [reduce(add, values) if values else empty for values in groups]
    if call.name == "min":
        return [min(values) if values else empty for values in groups]
    return [max(values) if values else empty for values in groups]


def merge_state(call: FuncCall, merged: list, into: list[int], states: list) -> None:
    """Merge one site's ``states`` of ``call`` into the ``merged`` column:
    state ``i`` into ``merged[into[i]]``, appended as a new group's when
    ``into[i]`` is the column's length."""
    if call.star or call.name == "count":
        combine = add
    elif call.name == "avg":  # a (total, n) pair: one of no value is the other

        def combine(a, b):
            return b if a[1] == 0 else a if b[1] == 0 else (a[0] + b[0], a[1] + b[1])
    else:
        pick = {"sum": add, "min": min, "max": max}.get(call.name)
        if pick is None:
            raise QueryError(f"unknown aggregate {call.name!r}")

        def combine(a, b):
            return b if a is None else a if b is None else pick(a, b)
    for target, state in zip(into, states):
        if target == len(merged):
            merged.append(state)
        else:
            merged[target] = combine(merged[target], state)


def final_value(call: FuncCall, states: list, counts: list) -> list:
    """Each group's value of ``call``, from its state and row count."""
    if call.star:
        return counts
    if call.name == "avg":
        return [None if n == 0 else total / n for total, n in states]
    return states  # count/sum/min/max carry their final value directly


def partial_groups(
    parts: "Iterable[tuple[columnar.ColumnBatch, list[int] | None]]",
    group_by: list[Expr],
    calls: dict[str, FuncCall],
) -> "columnar.ColumnBatch":
    """The kept rows of ``parts`` grouped into one batch of groups (see
    :data:`PARTIAL_ROWS`), in first-appearance order, each call's state
    folded over the group's rows in row order, batch after batch.

    ``parts`` are ``(batch, selection)`` pairs, a selection naming the
    batch's rows still in (``None``: all of them).  The fold reads through
    the selections and copies no batch: keys and arguments are taken a
    column at a time and evaluated on kept rows only (see
    :class:`_Expressions`), every key column before any argument; one loop
    groups the rows, and the states are then folded a column at a time; a
    group's first row is only pointed at.  Ungrouped input is the one
    group of every row, also when there are none; a grouped query over no
    rows has no group, and then the calls are not even looked at.
    ``calls`` come under their state keys, their ``repr``: a dataclass
    repr is recursive, so an operator computes it once.
    """
    kept = [
        (batch, rows, _Expressions(batch, selection))
        for batch, selection in parts
        if (rows := range(batch.count) if selection is None else selection)
    ]
    names = partial_names(group_by, calls)
    if group_by and not kept:
        return columnar.ColumnBatch(names, [[] for _ in names], 0)
    for call in calls.values():  # a group will be created: a malformed call is refused
        empty_state(call)
    arguments = [call for call in calls.values() if not call.star]
    keys = [_group_keys(expressions, rows, group_by) for _, rows, expressions in kept]
    scanned = [
        (batch, rows, batch_keys, [expressions.column(c.args[0]) for c in arguments])
        for (batch, rows, expressions), batch_keys in zip(kept, keys)
    ]
    grouped = _grouped if group_by else _ungrouped
    keys, counts, firsts, values = grouped(scanned, len(arguments))
    folded = iter(values)
    states = [
        fold_state(call, counts if call.star else next(folded))
        for call in calls.values()
    ]
    keys = [keys] if len(group_by) == 1 else list(zip(*keys)) if group_by else []
    return columnar.ColumnBatch(names, [*keys, counts, *states, firsts], len(counts))


def _group_keys(
    expressions: "_Expressions", rows: "list[int] | range", group_by: list[Expr]
):
    """One batch's group keys, read by row number: ``None`` for no key, a
    lone key's values, a tuple of several keys' values per row."""
    if not group_by:
        return None
    if len(group_by) == 1:
        return expressions.column(group_by[0])
    columns = [expressions.column(expr) for expr in group_by]
    values = [[column[row] for row in rows] for column in columns]
    return dict(zip(rows, zip(*values)))


def _ungrouped(scanned, width: int) -> tuple:
    """The one group of the ``scanned`` rows as :func:`_grouped` gives
    groups, also when there is no row."""
    values: list[list] = [[] for _ in range(width)]
    count = 0
    for _, rows, _, columns in scanned:
        count += len(rows)
        for seen, column in zip(values, columns):
            seen += map(column.__getitem__, rows)
    first = (scanned[0][0], scanned[0][1][0]) if scanned else None
    return [()], [count], [first], [[seen] for seen in values]


def _grouped(scanned, width: int) -> tuple:
    """``(keys, row counts, (batch, first row)s, values per argument)`` of
    the groups of the ``scanned`` rows, in first-appearance order; an
    argument's values are one list per group, NULLs included.

    A lone key groups on its raw values, with the 1-tuple's dict semantics
    (1, 1.0 and True are one group under the key seen first; a NaN equals
    nothing, so each NaN object is a group of its own, and one NaN object
    shared by several rows is one key -- why a compacted layout never
    repacks a column holding a NaN: :meth:`Table.column_layout`).  One
    loop over a batch's rows groups them and collects the first argument's
    values -- the row numbers when there is no argument -- so a group's
    count is how many it holds; every further argument is one more loop.
    """
    members: dict[Any, list] = {}  # group key -> the first argument's values
    firsts: list[tuple] = []
    more: list[dict[Any, list]] = [defaultdict(list) for _ in range(width - 1)]
    for batch, rows, keys, columns in scanned:
        lead, *others = columns or [range(batch.count)]
        for row in rows:
            key = keys[row]
            seen = members.get(key)
            if seen is None:
                members[key] = seen = []
                firsts.append((batch, row))
            seen.append(lead[row])
        for seen, column in zip(more, others):
            for row in rows:
                seen[keys[row]].append(column[row])
    keys = list(members)
    leads = list(members.values())
    values = [leads, *([seen[key] for key in keys] for seen in more)] if width else []
    return keys, list(map(len, leads)), firsts, values


class PartialAggregate(SiteOperator):
    """Aggregate each site's rows locally; ship one batch of groups."""

    name = "PartialAggregate"

    def __init__(self, child: SiteOperator, node: AggregateNode) -> None:
        super().__init__(child)
        self.node = node
        assert node.split is not None
        self.calls = node.split.calls
        self._state_keys = [repr(call) for call in self.calls]
        self._calls = dict(zip(self._state_keys, self.calls))

    def _step(self, batch: SiteBatch) -> SiteBatch:
        # Straight through the filter's selections: no row is copied.
        groups = partial_groups(batch.kept(), self.node.group_by, self._calls)
        return batch.passed_on([], [], groups=groups)

    def _detail(self) -> str:
        return ", ".join(render(c) for c in self.calls)
