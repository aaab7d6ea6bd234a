"""The row-at-a-time site engine as it stood behind ``columnar=False``.

Until commit 40b1b34 ``FederatedEngine(columnar=False)`` selected a second
site-side program: ``SiteScan`` built one env dict per row, ``SiteFilter``
/ ``SiteProject`` / ``PartialAggregate`` looped over those envs, and
``Ship`` charged the network per row and transposed the envs into one
batch for the coordinator.  The flag and those branches are gone from
``src/``; the bodies live on here, verbatim, as the oracle the columnar
site operators must reproduce -- rows in order, ``rows_fetched``,
``rows_shipped``, and per operator ``rows_in`` / ``rows_out`` /
``seconds`` / ``detail`` (``tests/test_reference_site.py``) -- and as the
"before" side of the E3c micro-bench.  Do not optimise or tidy them.

Each class subclasses its production operator and overrides only the step
that differed, so access paths (source pushdown included), the serving of
views and cache regions, failover, capture and artifact serving at the
``Ship`` boundary are the production code on both sides.
What follows the access path in a scan is no longer shared: when the
product's ``SiteScan`` began to keep rows of column chunks -- residual
RLS through ``columnar.select_rows``, masks a column at a time -- its
per-row ``evaluate(residual, row_env(...))``, ``governance.apply_masks``
and ``physical.row_env`` moved here verbatim (``SiteScan._site_batches``),
so governed scans are compared across two implementations.
(Pushdown has its own referee: ``tests/test_apply_predicates.py`` holds
``apply_predicates`` to the scalar ``Predicate.matches``.)  The row
aggregator -- ``partial_state`` over a group's envs and
``PartialAggregate._row_records`` -- was the product's fallback for
general-expression keys and arguments until the product got one fold over
column chunks (``site_ops.partial_groups``); it moved here verbatim and is
that fold's referee, float bits included.  Since partial aggregates cross
the wire as one batch of groups, ``_row_records`` lays its per-group
records out as that batch's rows (``site_ops.partial_names``), its
``partial_state`` fold unchanged.  What the row
engine never did, it does not do here either: no column batches are
counted (``batches=0``), nothing is encoded and no bytes are priced
(``bytes_shipped`` stays 0; the wire is charged ``latency + rows x
SECONDS_PER_ROW``, the per-row currency ``Network`` no longer has --
plain :class:`~repro.federation.network.Network` only, no handshakes).

The row engine's batches carried their envs in ``SiteBatch.rows``;
the product's batch has no such field (scanned rows travel in chunks, a
partial aggregate's in ``groups``), so they are :class:`RowBatch`, a
``SiteBatch`` with its own ``rows`` and ``row_count``, and the bodies
build that where they built a ``SiteBatch``.

``SiteTopK`` came after the row engine, so it has no verbatim body: the
one here is the same rule written one env at a time -- rank the batch's
envs by ``_sort_key`` of the first order key, keep every env tied with the
k-th, remember its key -- and so referees the selection-narrowing one.
``Ship`` hands the boundaries on as the production one does.

:class:`ReferenceSitePlanner` is plugged in the way ``ReferencePlanner``
is: ``engine.executor.planner = ReferenceSitePlanner(catalog)``.  The
module imports nothing from ``tests``, so ``benchmarks/`` can load it
with ``tests/`` on ``PYTHONPATH``.
"""

from typing import Any

from repro.core.errors import QueryError
from repro.core.records import Table
from repro.core.schema import Schema
from repro.federation import columnar, physical, site_ops
from repro.federation.governance import mask_value
from repro.federation.physical import Env, ExecContext, SiteBatch, _sort_key
from repro.sql.ast import FuncCall
from repro.sql.ast import render as describe_expr
from repro.sql.expressions import evaluate
from repro.sql.planner import conjoin

# ``Network(seconds_per_row=...)``'s default, the only value any caller used.
SECONDS_PER_ROW = 0.00001


class RowBatch(SiteBatch):
    """A row engine's site batch: ``rows`` holds its envs -- or, out of
    ``PartialAggregate``, the batch of groups -- and it has no chunk, so
    none is counted."""

    def __init__(self, site, rows, elapsed, fragment=None, cut=None) -> None:
        super().__init__(site, elapsed, [], [], fragment, cut)
        self.rows = rows

    def row_count(self) -> int:
        return len(self.rows)


def envs_batch(envs: "list[dict[str, Any]]") -> columnar.ColumnBatch:
    """Transpose row envs that share their keys into one batch.

    The only env-to-batch adapter: ``Ship`` applies it to what the legacy
    row-at-a-time site engine hands over.
    """
    names = list(envs[0])
    return columnar.ColumnBatch(
        names, [[env[name] for env in envs] for name in names], len(envs)
    )


def row_form_batches(rows) -> "list[columnar.ColumnBatch]":
    """What a site hands over -- the row engine's envs, or a partial
    aggregate's batch of groups -- as coordinator batches."""
    if isinstance(rows, columnar.ColumnBatch):
        return [rows]
    if not rows:
        return []
    return [envs_batch(rows)]


def transfer_seconds(network, site_a: str, site_b: str, rows: int) -> float:
    """``Network.transfer_seconds``: total seconds to move ``rows``."""
    if site_a == site_b:
        return 0.0
    return network.latency(site_a, site_b) + rows * SECONDS_PER_ROW


def row_env(binding: str, schema: Schema, values: tuple) -> Env:
    return {
        f"{binding}.{field_def.name}": value
        for field_def, value in zip(schema.fields, values)
    }


def apply_masks(table: Table, masks: dict[str, str]) -> Table:
    """A copy of ``table`` with each masked column's values replaced."""
    styles: dict[int, str] = {
        table.schema.index_of(name): style
        for name, style in masks.items()
        if name in table.schema.field_names
    }
    if not styles:
        return table
    masked = Table(table.schema, validate=False)
    masked.rows = [
        tuple(
            mask_value(styles[i], value) if i in styles else value
            for i, value in enumerate(row)
        )
        for row in table.rows
    ]
    return masked


class SiteScan(site_ops.SiteScan):
    def _site_batches(self, ctx: ExecContext, assignment, table_batches):
        table_batches = self._apply_governance(ctx, table_batches)
        ctx.report.rows_fetched += sum(len(t) for _, t, _, _ in table_batches)
        return [
            RowBatch(
                site,
                [
                    row_env(assignment.binding, table.schema, values)
                    for values in table.rows
                ],
                elapsed,
                fragment=fragment,
            )
            for site, table, elapsed, fragment in table_batches
        ]

    def _apply_governance(self, ctx, table_batches):
        governance = self.scan.governance
        if governance is None:
            return table_batches
        residual = (
            conjoin(list(governance.rls_residual))
            if governance.rls_residual
            else None
        )
        out = []
        for site, table, elapsed, fragment in table_batches:
            if residual is not None:
                kept = [
                    values
                    for values in table.rows
                    if evaluate(
                        residual,
                        row_env(self.scan.binding, table.schema, values),
                    )
                ]
                ctx.report.rows_filtered_by_rls += len(table.rows) - len(kept)
                work = ctx.charge_site(site, len(table.rows))
                self.stats.seconds += work
                elapsed += work
                filtered = Table(table.schema, validate=False)
                filtered.rows = kept
                table = filtered
            if governance.masks:
                work = ctx.charge_site(site, len(table.rows))
                self.stats.seconds += work
                elapsed += work
                table = apply_masks(table, governance.masks)
            out.append((site, table, elapsed, fragment))
        return out


class SiteFilter(site_ops.SiteFilter):
    def _compute(self, ctx: ExecContext) -> list[SiteBatch]:
        out = []
        for batch in self.children[0].batches():
            self.stats.rows_in += batch.row_count()
            kept = [env for env in batch.rows if evaluate(self.condition, env)]
            work = ctx.charge_site(batch.site, len(batch.rows))
            self.stats.seconds += work
            out.append(
                RowBatch(batch.site, kept, batch.elapsed + work, fragment=batch.fragment)
            )
        self.stats.detail = describe_expr(self.condition)
        return out


class SiteProject(site_ops.SiteProject):
    def _compute(self, ctx: ExecContext) -> list[SiteBatch]:
        allowed = {f"{self.binding}.{name}" for name in self.keep}
        out = []
        for batch in self.children[0].batches():
            self.stats.rows_in += batch.row_count()
            pruned = [
                {key: env[key] for key in env.keys() & allowed} for env in batch.rows
            ]
            work = ctx.charge_site(batch.site, len(batch.rows))
            self.stats.seconds += work
            out.append(
                RowBatch(
                    batch.site, pruned, batch.elapsed + work, fragment=batch.fragment
                )
            )
        self.stats.detail = f"keep({', '.join(self.keep)})"
        return out


class SiteTopK(site_ops.SiteTopK):
    def _compute(self, ctx: ExecContext) -> list[SiteBatch]:
        expr, descending, k = self.order.expr, self.order.descending, self.k
        out = []
        for batch in self.children[0].batches():
            rows_in = batch.row_count()
            self.stats.rows_in += rows_in
            kept, cut, work = batch.rows, None, 0.0
            if rows_in > k:
                try:
                    keys = [_sort_key(evaluate(expr, env)) for env in batch.rows]
                except QueryError:
                    keys = []  # the coordinator evaluates it, as unmarked
                if keys:
                    edge = sorted(keys, reverse=descending)[k - 1]
                    ranked = [
                        env
                        for env, key in zip(batch.rows, keys)
                        if not (key < edge if descending else key > edge)
                    ]
                    if len(ranked) < rows_in:
                        kept = ranked
                        cut = (evaluate(expr, batch.rows[keys.index(edge)]),)
                work = ctx.charge_site(batch.site, rows_in)
                self.stats.seconds += work
            out.append(
                RowBatch(
                    batch.site,
                    kept,
                    batch.elapsed + work,
                    fragment=batch.fragment,
                    cut=cut,
                )
            )
        self.stats.detail = f"top {k} by {describe_expr(expr)}" + (
            " desc" if descending else ""
        )
        return out


def partial_state(call: FuncCall, envs: list[Env]) -> Any:
    """This site's partial state for one aggregate call over one group."""
    if call.star:
        if call.name != "count":
            raise QueryError(f"{call.name}(*) is not a valid aggregate")
        return len(envs)
    if len(call.args) != 1:
        raise QueryError(f"aggregate {call.name} takes exactly one argument")
    values = [evaluate(call.args[0], env) for env in envs]
    values = [v for v in values if v is not None]
    if call.name == "count":
        return len(values)
    if call.name == "avg":
        if not values:
            return (None, 0)
        total = values[0]
        for value in values[1:]:
            total = total + value
        return (total, len(values))
    if not values:
        return None
    if call.name == "sum":
        total = values[0]
        for value in values[1:]:
            total = total + value
        return total
    if call.name == "min":
        return min(values)
    if call.name == "max":
        return max(values)
    raise QueryError(f"unknown aggregate {call.name!r}")


class PartialAggregate(site_ops.PartialAggregate):
    def _compute(self, ctx: ExecContext) -> list[SiteBatch]:
        out = []
        for batch in self.children[0].batches():
            rows_in = batch.row_count()
            self.stats.rows_in += rows_in
            records = self._row_records(batch.rows)
            work = ctx.charge_site(batch.site, rows_in)
            self.stats.seconds += work
            out.append(
                RowBatch(
                    batch.site, records, batch.elapsed + work, fragment=batch.fragment
                )
            )
        self.stats.detail = ", ".join(describe_expr(c) for c in self.calls)
        return out

    def _row_records(self, envs: list[Env]) -> columnar.ColumnBatch:
        """One record per group, a record a row of the batch of groups the
        production fold makes (``site_ops.partial_names``): its key
        values, row count, one state per call and its first row."""
        groups: dict[tuple, list[Env]] = {}
        if self.node.group_by:
            for env in envs:
                key = tuple(evaluate(g, env) for g in self.node.group_by)
                groups.setdefault(key, []).append(env)
        else:
            groups[()] = list(envs)
        representatives = [group_envs[0] for group_envs in groups.values() if group_envs]
        firsts = envs_batch(representatives) if representatives else None
        records = []
        for key, group_envs in groups.items():
            states = [partial_state(call, group_envs) for call in self.calls]
            first = (firsts, len(records)) if group_envs else None
            records.append((*key, len(group_envs), *states, first))
        names = site_ops.partial_names(self.node.group_by, self._state_keys)
        columns = [list(column) for column in zip(*records)] or [[] for _ in names]
        return columnar.ColumnBatch(names, columns, len(records))


class Ship(physical.Ship):
    def _produce(self, ctx: ExecContext) -> "list[columnar.ColumnBatch]":
        slots = []  # (fragment read, its arrived batches), one per site batch
        cuts = {}  # fragment read -> its top-k boundary, where one was cut
        arrival = 0.0
        shipped = 0
        shipped_bytes = 0
        encoded_total = 0
        raw_total = 0
        encode_total = 0.0
        decode_total = 0.0
        batch_count = 0
        transfer_total = 0.0
        sources = set()
        stage_sites = set()
        network = ctx.catalog.network
        for batch in self.children[0].batches():
            stage_sites.add(batch.site)
            local = batch.site == ctx.coordinator
            # Row-form batches: partial-aggregate records, or the legacy
            # row engine when columnar execution is off.  (The chunk arm
            # and the per-byte arm stood here; neither is reachable with
            # columnar execution off.  An artifact is served before the
            # pipeline opens, by the production ``Ship.open``.)
            transfer = transfer_seconds(
                network, batch.site, ctx.coordinator, len(batch.rows)
            )
            transfer_total += transfer
            if not local:
                shipped += len(batch.rows)
                sources.add(batch.site)
            arrival = max(arrival, batch.elapsed + transfer)
            slots.append((batch.fragment, row_form_batches(batch.rows)))
            if batch.cut is not None:
                fragment = batch.fragment
                label = batch.site if fragment is None else fragment.fragment_id
                cuts[label] = batch.cut
                ctx.top_k_cuts.append((label, batch.cut[0]))
        arrived = [batch for _, out in slots for batch in out]
        rows = sum(batch.count for batch in arrived)
        ctx.scan_elapsed = max(ctx.scan_elapsed, arrival)
        ctx.report.rows_shipped += shipped
        ctx.report.bytes_shipped += shipped_bytes
        self.stats.rows_in = rows
        self.stats.batches = batch_count
        self.stats.encoded_bytes = encoded_total
        self.stats.raw_bytes = raw_total
        self.stats.encode_seconds = encode_total
        self.stats.decode_seconds = decode_total
        # Unpacking arrived rows is coordinator work, as in the old walker.
        unpack = ctx.charge_coordinator(rows)
        self.stats.seconds = transfer_total + unpack + encode_total + decode_total
        self.stats.detail = (
            f"from {', '.join(sorted(sources))}" if sources else "coordinator-local"
        )
        if self.stage is not None:
            binding = self.stage.scan.binding
            ctx.report.stage_runtimes[binding] = (
                arrival, tuple(sorted(stage_sites))
            )
            if ctx.reopt is not None:
                note = ctx.reopt.describe(binding)
                if note:
                    self.stats.detail += f"  [{note}]"
        self.stage.capture(ctx, slots, arrived, shipped_bytes, arrival, cuts)
        return arrived


REFERENCE_CLASS = {
    site_ops.SiteScan: SiteScan,
    site_ops.SiteFilter: SiteFilter,
    site_ops.SiteProject: SiteProject,
    site_ops.SiteTopK: SiteTopK,
    site_ops.PartialAggregate: PartialAggregate,
    physical.Ship: Ship,
}


class ReferenceSitePlanner(physical.PhysicalPlanner):
    """Compiles the production tree, then re-classes its site operators and
    ``Ship`` to the reference ones.  The subclasses add no state, so the
    planner's construction logic is not copied; coordinator operators stay
    production."""

    def compile(self, plan: physical.PhysicalPlan):
        root, stages = super().compile(plan)
        pending = [root]
        while pending:
            op = pending.pop()
            op.__class__ = REFERENCE_CLASS.get(type(op), type(op))
            pending.extend(op.children)
        return root, stages
