"""The physical operator IR: where each piece of a query actually runs.

A :class:`PhysicalPlan` is the logical tree plus, per scan, the access path
the optimizer chose.  :class:`PhysicalPlanner` compiles it into a tree of
operators on two planes, a module each.  **Site-side operators**
(:mod:`repro.federation.site_ops`) run where the rows live and charge that
site; their :class:`SiteBatch` objects remember their pipeline time, so
fragment scans cost the slowest assignment, not the sum.  An explicit
:class:`Ship` moves each batch over the network model.  **Coordinator
operators** (:mod:`repro.federation.coordinator_ops`) are
``open``/``next``/``close`` iterators charged to the coordinator, one column
batch a ``next``, pulling no more than a LIMIT above still wants
(:meth:`PhysicalOperator.next`).

This module keeps what both planes stand on: the plan types,
:class:`QueryOptions`, :class:`ExecContext`, the operator protocol,
``Ship``, the evaluator and sort keys both planes call, the planner and
:func:`envs_to_table`.  Each scan's ``Ship`` and ``SiteScan`` share the one
:class:`~repro.federation.stage.Stage` the executor starts before the tree
opens, and every reuse decision is the stage's (DESIGN §5h "Stage
lifecycle").  Every operator records rows in/out, modeled seconds and
placement in :class:`~repro.federation.report.OperatorStats`, which the
engine renders as ``EXPLAIN ANALYZE``.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import TYPE_CHECKING, Any, Iterator

from repro.core.errors import QueryError
from repro.core.records import Table
from repro.core.schema import DataType, Field, Schema
from repro.core.values import Money
from repro.federation import columnar
from repro.federation.artifacts import StageSpec
from repro.federation.catalog import FederationCatalog, Fragment
from repro.federation.report import ExecutionReport, OperatorStats
from repro.federation.stage import Stage
from repro.federation.views import MaterializedView
from repro.sql.ast import BinaryOp, Column, Expr, Literal
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
    conjoin,
    scans_in,
)

if TYPE_CHECKING:  # access.py imports this module's plan dataclasses
    from repro.federation.access import AccessPaths

Env = dict[str, Any]


# -- the optimizer's output ---------------------------------------------------


@dataclass
class FragmentChoice:
    """One fragment scan placed on one site."""

    fragment: Fragment
    site_name: str


@dataclass
class ScanAssignment:
    """The optimizer's decision for one scan leaf."""

    binding: str
    table_name: str
    kind: str  # "fragments" | "view" | "cache" | "artifact"
    choices: list[FragmentChoice] = field(default_factory=list)
    view: MaterializedView | None = None
    # A priced copy is a label on its fragment placement: kind "cache"
    # names its region by ``(table_name, cached_region)``, kind "artifact"
    # names the stage alone (its key is computed when the stage runs), and
    # the choices below are what the stage runs when the copy is gone or
    # too stale by then.  A plan holds none of the copy's rows.
    cached_region: "frozenset | None" = None
    # Zone-map partition elimination accounting for a placement: of
    # ``total_fragments`` in the catalog, ``pruned_fragments`` were proven
    # empty under the scan's predicates and get no choice at all.
    pruned_fragments: int = 0
    total_fragments: int = 0
    # Optimizer's estimate of encoded wire bytes the placement or view
    # ships to the coordinator.
    est_bytes: int = 0
    # Fragments that had no live replica at *plan* time.  The optimizers
    # record them instead of refusing to plan: the executor retries them
    # (the site may have repaired) and otherwise applies the query's
    # degraded-answer policy -- availability is an execution-time property.
    unreachable: list[Fragment] = field(default_factory=list)

    def narrowed(self, fragment_ids: "frozenset[str]") -> "ScanAssignment":
        """This placement over ``fragment_ids`` alone: what a refresh runs
        (the stage holds it; the plan keeps the whole placement)."""
        return replace(
            self,
            choices=[
                c for c in self.choices if c.fragment.fragment_id in fragment_ids
            ],
            unreachable=[
                f for f in self.unreachable if f.fragment_id in fragment_ids
            ],
        )


@dataclass
class PhysicalPlan:
    """A logical plan plus all physical decisions."""

    logical: PlanNode
    assignments: dict[str, ScanAssignment]
    coordinator: str
    optimizer: str = ""
    # *Modeled* planning seconds (bid round trips, statistics collection,
    # enumeration work) -- this is what gets charged to the simulation
    # clock, so identical seeded runs stay byte-identical (DESIGN §7).
    optimization_seconds: float = 0.0
    # Real host wall-clock the optimizer burned deciding.  Reported for
    # profiling but never folded into simulated time.
    planner_wall_seconds: float = 0.0
    sites_contacted: int = 0
    total_price: float = 0.0
    # Each stage's artifact key, compiled with the plan (scan binding ->
    # ``artifacts.StageKey``, None for an ineligible stage; empty without
    # a store), and the values this execution binds into its slots.
    stage_keys: dict = field(default_factory=dict, repr=False, compare=False)
    params: tuple = ()

    def replay(self, logical: PlanNode, params: tuple = ()) -> "PhysicalPlan":
        """This plan's decisions over ``logical``, ``params`` bound into it,
        for one more execution.

        Planning was paid when the template was built, so the copy charges
        none, and its stage keys are the template's.  The assignments dict
        is copied so a re-optimization controller's migration never leaks
        into the template (which may be a cached prepared statement).
        """
        return PhysicalPlan(
            logical=logical,
            assignments=dict(self.assignments),
            coordinator=self.coordinator,
            optimizer=self.optimizer,
            sites_contacted=self.sites_contacted,
            total_price=self.total_price,
            stage_keys=self.stage_keys,
            params=params,
        )


@dataclass(frozen=True)
class QueryOptions:
    """One statement's answer policy, built once and carried by reference.

    ``FederatedEngine.query`` / ``prepare`` / ``execute`` / ``explain``
    build it from their keywords (``reuse_artifacts`` and ``deadline_at``
    have none: the workload manager and ``rerun_physical`` set them, and a
    caller that needs them passes ``options=``); every layer below (engine
    internals, executor, :class:`ExecContext`, the re-optimization
    controller, the workload manager's handles) receives this object,
    never the loose values.  ``max_staleness``, ``coordinator`` and the *policy signature*
    of ``tenant`` shape the plan (access-path choice, site assignments,
    compiled governance), so a prepared template is only valid under the
    three it was compiled with.  ``tenant`` itself is identity and binds
    per *execution* with the rest: it names whose report, bid cap and
    ledger the execution is (DESIGN §5g lists the step each field binds
    at).
    """

    # None accepts any materialized copy, a number bounds staleness in
    # seconds, engine.LIVE_ONLY forces fetch-on-demand.
    max_staleness: float | None = None
    coordinator: str | None = None  # pinned coordinator site, or optimizer's pick
    tenant: str | None = None  # who is asking (governance: policy, budget, bill)
    budget: float | None = None  # cap on the plan's total price
    degraded_ok: bool = False  # accept a partial answer over a typed failure
    # Whether this execution may consume and publish stage artifacts.
    reuse_artifacts: bool = True
    # Absolute sim-clock deadline the re-optimization controller projects
    # overruns against (the workload manager's, when the query had one).
    deadline_at: float | None = None
    advance_clock: bool = True  # charge the response time to the sim clock

# -- execution context ---------------------------------------------------------


def schema_of(catalog: FederationCatalog, assignment: ScanAssignment) -> Schema:
    if assignment.kind == "view":
        assert assignment.view is not None
        return assignment.view.schema
    return catalog.entry(assignment.table_name).schema


class ExecContext:
    """Shared state for one execution of a statement, top-k restart included."""

    def __init__(
        self,
        paths: AccessPaths,
        plan: PhysicalPlan,
        report: ExecutionReport,
        options: QueryOptions,
        reopt,
        failover: bool,
    ) -> None:
        # The engine's access-path seam: the catalog, per-site health
        # memory, and the semantic cache / artifact store each stage
        # consults (repro.federation.stage).
        self.paths = paths
        self.catalog = paths.catalog
        self.health = paths.health  # may be None
        self.plan = plan
        self.report = report
        self.coordinator = plan.coordinator
        self.scan_elapsed = 0.0  # slowest leaf pipeline (scans run in parallel)
        self.coordinator_seconds = 0.0  # serial coordinator work
        # Whether a failed scan re-routes to another replica (the stage's
        # retry budget bounds it) or raises at once.
        self.failover = failover
        # The statement's options, read where they bind: ``degraded_ok`` by
        # unreachable scans; ``reuse_artifacts`` by the stage's probe (the
        # workload manager's fallback re-execution sets False so a query
        # whose joined producer died recomputes independently and publishes
        # nothing); ``max_staleness`` by the covering fallback too -- a
        # LIVE_ONLY query must fail rather than silently serve stale data.
        self.options = options
        # Adaptive re-optimization controller (repro.federation.reopt), or
        # None for frozen-plan execution.  Each stage consults it once.
        self.reopt = reopt
        self.retries_used = 0  # failover attempts spent against RETRY_BUDGET
        self.unreachable_rows = 0  # estimated rows behind dead fragments
        self.unreachable_fragments: list[str] = []
        self.dead_sites: set[str] = set()
        # (fragment, boundary key) of each fragment a SiteTopK cut, as the
        # Ship of the top-k stage received or served it.
        self.top_k_cuts: list[tuple[str, Any]] = []
        # The stages whose Ship handed their output back, in order: the
        # report's captures (a top-k restart drops the truncated attempt's).
        self.captured: list[Stage] = []

    def empty_batch(self, binding: str) -> "columnar.ColumnBatch":
        """The layout of one scan's output, with no rows: what an outer
        join null-extends with when that side delivered no batch to take
        the layout from."""
        schema = schema_of(self.catalog, self.plan.assignments[binding])
        names = columnar.scan_names(binding, schema.field_names)
        return columnar.ColumnBatch(names, [[] for _ in names], 0)

    def charge_site(self, site_name: str, rows: int) -> float:
        """Enqueue per-row work on a site's backlog; returns work seconds."""
        work = self.catalog.site(site_name).process(rows)
        self.report.site_work[site_name] = (
            self.report.site_work.get(site_name, 0.0) + work
        )
        return work

    def charge_coordinator(self, rows: int) -> float:
        work = self.charge_site(self.coordinator, rows)
        self.coordinator_seconds += work
        return work

    def charge_site_seconds(self, site_name: str, seconds: float) -> float:
        """Enqueue a fixed amount of work (e.g. encode time) on a site."""
        if seconds <= 0.0:
            return 0.0
        self.catalog.site(site_name).enqueue(seconds)
        self.report.site_work[site_name] = (
            self.report.site_work.get(site_name, 0.0) + seconds
        )
        return seconds

    def charge_coordinator_seconds(self, seconds: float) -> float:
        work = self.charge_site_seconds(self.coordinator, seconds)
        self.coordinator_seconds += work
        return work


# -- operator base classes -----------------------------------------------------


class BatchCursor:
    """Hands out materialized batches in order, ``want`` rows at most a pull."""

    def __init__(self, batches: "list[columnar.ColumnBatch]") -> None:
        self.batches = batches
        self.index = 0
        self.offset = 0  # rows of batches[index] already handed out

    def pull(self, want: int | None) -> "columnar.ColumnBatch | None":
        if self.index == len(self.batches):
            return None
        whole = self.batches[self.index]
        start = self.offset
        stop = whole.count if want is None else min(whole.count, start + want)
        if stop == whole.count:
            self.index += 1
            self.offset = 0
        else:
            self.offset = stop
        return whole if stop - start == whole.count else whole.slice(start, stop)


class PhysicalOperator:
    """Base coordinator operator: open(ctx) / next(want) / close() iteration.

    Per-execution state hangs on ``_rows`` (``None`` until the first pull),
    which ``close`` drops.
    """

    name = "Operator"

    def __init__(self, *children: "PhysicalOperator") -> None:
        self.children = [child for child in children if child is not None]
        self.stats = OperatorStats(self.name)

    def open(self, ctx: ExecContext) -> None:
        self.stats.site = ctx.coordinator
        self._ctx = ctx
        self._closed = False
        for child in self.children:
            if not isinstance(child, SiteOperator):  # its stage opened it
                child.open(ctx)
        self._rows = None

    def next(self, want: int | None = None) -> "columnar.ColumnBatch | None":
        """The next batch of output (possibly empty), ``None`` at the end.

        Modeled accounting is defined by rows consumed, and LIMIT is the
        only source of finite demand: ``want`` is what a LIMIT above still
        needs.  The batch holds at most ``want`` rows, and to produce it
        the operator pulls no input row that producing those rows one at
        a time would not pull; nothing does work before its first pull.
        """
        batch = self._next(want)
        if batch is not None:
            self.stats.rows_out += batch.count
        return batch

    def close(self, settle: bool = True) -> None:
        """Settle accounting (skipped when the execution failed) and drop
        per-execution state, the batches this operator pins."""
        if not getattr(self, "_closed", True):
            self._closed = True
            if settle:
                self._finish(self._ctx)
        for child in self.children:  # a started site pipeline under an unopened Ship
            child.close(settle)
        self._rows = self._batches = self._ctx = None

    def _next(self, want: int | None) -> "columnar.ColumnBatch | None":
        """A blocking operator's pull: the first one materializes the whole
        output, every one serves it in order.  Streaming operators override."""
        if self._rows is None:
            self._rows = BatchCursor(self._produce(self._ctx))
        return self._rows.pull(want)

    def _produce(self, ctx: ExecContext) -> "list[columnar.ColumnBatch]":
        return []

    def _drain(self, child: "PhysicalOperator") -> "list[columnar.ColumnBatch]":
        """Pull ``child`` dry, counting its rows in: the batches that hold
        any, in order (``columnar.concat`` makes them one)."""
        batches = []
        while (batch := child.next()) is not None:
            if batch.count:
                self.stats.rows_in += batch.count
                batches.append(batch)
        return batches

    def _finish(self, ctx: ExecContext) -> None:
        """Settle accounting once, when the operator closes."""

    def output_names(self) -> list[str] | None:
        """The output column names, where the operator names them: a
        projection or an aggregation, and the Sort or Limit above one."""
        return None

    def stats_tree(self) -> OperatorStats:
        self.stats.children = [child.stats_tree() for child in self.children]
        return self.stats


@dataclass
class SiteBatch:
    """Rows produced at one site, with the pipeline time spent producing them.

    Scanned rows travel in ``chunks``, a list of fixed-size
    :class:`~repro.federation.columnar.ColumnBatch` slices.  ``selections``
    says, chunk by chunk, which rows are still in: a sorted list of row
    numbers (:func:`columnar.select_rows`), or ``None`` for all of them.  A
    filter only narrows selections; the kept rows are copied out when a
    consumer needs them as a batch of their own (``Ship``, a mask), and the
    partial aggregate folds through them.  ``groups`` is what a partial
    aggregate hands on instead, its batch of groups
    (:func:`partial_groups`), and a batch holding it has no chunk and no
    selection.  ``cut`` is ``(boundary key,)`` once a :class:`SiteTopK`
    dropped rows of the batch.
    """

    site: str
    elapsed: float  # queue delay + site-side work along this batch's pipeline
    chunks: "list[columnar.ColumnBatch]"
    selections: "list[list[int] | None]"  # one per chunk
    fragment: Fragment | None = None  # the fragment read; None for a copy
    cut: "tuple | None" = None
    groups: "columnar.ColumnBatch | None" = None

    def kept(self) -> "Iterator[tuple[columnar.ColumnBatch, list[int] | None]]":
        """``(chunk, selection)`` pairs, in order."""
        return zip(self.chunks, self.selections)

    def row_count(self) -> int:
        """The kept rows, or the groups of a batch of groups."""
        if self.groups is not None:
            return self.groups.count
        count = 0
        for chunk, selection in zip(self.chunks, self.selections):
            count += chunk.count if selection is None else len(selection)
        return count

    def passed_on(self, chunks, selections, cut=None, groups=None) -> "SiteBatch":
        """This batch as the next site operator hands it on: its
        ``chunks`` and ``selections``, the ``cut`` of a ``SiteTopK`` and
        the ``groups`` of a partial aggregate.  The operator adds its work
        to ``elapsed``."""
        return SiteBatch(
            self.site, self.elapsed, chunks, selections, self.fragment, cut, groups
        )


class SiteOperator(PhysicalOperator):
    """An operator that runs where the data lives, producing per-site batches.

    All but the scan share one loop, :meth:`_compute`: per child batch it
    counts the rows in, takes the operator's :meth:`_step` and charges the
    rows in to the batch's site, as this operator's seconds and the batch's
    pipeline time.  A step that returns ``None`` did no site work: the batch
    passes on as it is, uncharged."""

    def open(self, ctx: ExecContext) -> None:
        self._ctx = ctx
        self._closed = False
        for child in self.children:
            child.open(ctx)
        self._batches = self._compute(ctx)
        sites = sorted({batch.site for batch in self._batches})
        self.stats.site = ",".join(sites) if sites else ctx.coordinator
        self.stats.rows_out = sum(batch.row_count() for batch in self._batches)
        self.stats.batches += sum(len(batch.chunks) for batch in self._batches)

    def batches(self) -> list[SiteBatch]:
        return self._batches

    def next(self, want: int | None = None) -> Any:
        raise QueryError(
            f"{self.name} produces site batches; wrap it in a Ship operator"
        )

    def _compute(self, ctx: ExecContext) -> list[SiteBatch]:
        out = []
        for batch in self.children[0].batches():
            rows_in = batch.row_count()
            self.stats.rows_in += rows_in
            passed = self._step(batch)
            if passed is None:
                passed = batch
            else:
                work = ctx.charge_site(batch.site, rows_in)
                self.stats.seconds += work
                passed.elapsed += work
            out.append(passed)
        self.stats.detail = self._detail()
        return out

    def _step(self, batch: SiteBatch) -> "SiteBatch | None":
        raise NotImplementedError  # the batch handed on, its work not yet added

    def _detail(self) -> str:
        raise NotImplementedError  # what EXPLAIN ANALYZE prints beside it


# -- the network boundary ------------------------------------------------------


def partial_wire_bytes(groups: "columnar.ColumnBatch") -> int:
    """Deterministic wire size of a batch of groups, as records: per group
    a 12-byte header (row count, state count, key arity), then its keys and
    its states as plain values, a ``(total, n)`` state as its two values.
    Where a group's first row is does not travel."""
    width = groups.names.index(PARTIAL_ROWS)
    total = 12 * groups.count
    for column in groups.columns[:width]:
        total += columnar.plain_wire_bytes(column)
    for column in groups.columns[width + 1 : -1]:
        if column and type(column[0]) is tuple:
            column = list(chain.from_iterable(column))
        total += columnar.plain_wire_bytes(column)
    return total


class Ship(PhysicalOperator):
    """Move site batches to the coordinator over the network model.

    The slowest (pipeline + transfer) batch sets the parallel-scan phase's
    elapsed time; batches not already at the coordinator count as shipped,
    in rows *and* in encoded wire bytes.  The wire is a byte model: each
    kept chunk is gathered once, and a remote one is *sized* per column
    under the cheapest encoding (encode work charged to the producing site,
    decode work to the coordinator, both per encoded byte, as is the
    network), never serialized; coordinator-local batches cost no bytes.
    What arrives goes on to the coordinator operators as column batches:
    the gathered chunks themselves, cell for cell the resident objects,
    and a partial aggregate's batch of groups, sized a column at a time as
    records (:func:`partial_wire_bytes`).

    The executor started the stage (:mod:`repro.federation.stage`) before
    this operator opened; the Ship hands what it shipped back to the stage,
    whose output the coordinator gets.  A stage served whole, or kept
    across a top-k restart, ships nothing.
    """

    name = "Ship"

    def __init__(self, child: "SiteOperator", stage: Stage) -> None:
        super().__init__(child)
        self.stage = stage
        # A proxy: the pipeline's SiteScan holds the stage, by reference count.
        stage.pipeline, stage.stats = weakref.proxy(child), self.stats

    def _next(self, want: int | None) -> "columnar.ColumnBatch | None":
        if self._rows is None:
            if self.stage.output is None:  # not served whole, nor kept
                self._produce(self._ctx)  # ships, and the stage captures
            self._rows = BatchCursor(self.stage.output)
        return self._rows.pull(want)

    def _produce(self, ctx: ExecContext) -> None:
        # (fragment read, its arrived batches), one per site batch.
        slots: list = []
        cuts = {}  # fragment read -> its top-k boundary, where one was cut
        arrival = 0.0
        shipped = 0
        shipped_bytes = 0
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
            arrived: "list[columnar.ColumnBatch]" = []
            slots.append((batch.fragment, arrived))
            if batch.cut is not None:
                fragment = batch.fragment
                label = batch.site if fragment is None else fragment.fragment_id
                cuts[label] = batch.cut
                ctx.top_k_cuts.append((label, batch.cut[0]))
            local = batch.site == ctx.coordinator
            elapsed = batch.elapsed
            nbytes = 0
            if batch.groups is not None:
                if not local:
                    nbytes = partial_wire_bytes(batch.groups)
                    raw_total += nbytes
                arrived.append(batch.groups)
            else:
                batch_count += len(batch.chunks)
                gathered = [
                    columnar.gather(chunk, selection)
                    for chunk, selection in batch.kept()
                ]
                arrived.extend(gathered)
                if not local:
                    # Sized for the wire, not serialized: what arrives is
                    # the gathered batch itself, and the model still
                    # charges the encode and the decode per byte.
                    for part in gathered:
                        encoded = columnar.encode_batch(part)
                        nbytes += encoded.encoded_bytes
                        raw_total += encoded.raw_bytes
                    encode_seconds = nbytes * columnar.ENCODE_SECONDS_PER_BYTE
                    decode_seconds = nbytes * columnar.DECODE_SECONDS_PER_BYTE
                    ctx.charge_site_seconds(batch.site, encode_seconds)
                    ctx.charge_coordinator_seconds(decode_seconds)
                    encode_total += encode_seconds
                    decode_total += decode_seconds
                    elapsed += encode_seconds
            # The network moves nothing, for free, within a site.
            transfer = network.transfer_seconds_bytes(
                batch.site, ctx.coordinator, nbytes
            )
            if not local:
                shipped += batch.row_count()
                shipped_bytes += nbytes
                sources.add(batch.site)
            transfer_total += transfer
            arrival = max(arrival, elapsed + transfer)
        rows = sum(batch.count for _, out in slots for batch in out)
        ctx.scan_elapsed = max(ctx.scan_elapsed, arrival)
        ctx.report.rows_shipped += shipped
        ctx.report.bytes_shipped += shipped_bytes
        self.stats.rows_in = rows
        self.stats.batches = batch_count
        self.stats.encoded_bytes = shipped_bytes
        self.stats.raw_bytes = raw_total
        self.stats.encode_seconds = encode_total
        self.stats.decode_seconds = decode_total
        # Unpacking arrived rows is coordinator work, as in the old walker.
        unpack = ctx.charge_coordinator(rows)
        self.stats.seconds = transfer_total + unpack + encode_total + decode_total
        self.stats.detail = (
            f"from {', '.join(sorted(sources))}" if sources else "coordinator-local"
        )
        binding = self.stage.scan.binding
        ctx.report.stage_runtimes[binding] = (arrival, tuple(sorted(stage_sites)))
        if ctx.reopt is not None:
            note = ctx.reopt.describe(binding)
            if note:
                self.stats.detail += f"  [{note}]"
        arrived = [batch for _, out in slots for batch in out]
        self.stage.capture(ctx, slots, arrived, shipped_bytes, arrival, cuts)


# -- expression evaluation both planes call ------------------------------------


class _Expressions:
    """Evaluates expressions over one batch, a whole column at a time.

    A plain column is picked and a literal repeated; any other expression
    has no column form and goes through ``evaluate`` on the per-row envs
    of the batch's rows -- of the ``selection``'s alone when one is given
    -- built once, only then, so its values and errors are exactly the row
    engine's.  A column is read by row number: with a selection, an
    evaluated one holds the selected rows alone.  Over a batch of finished
    groups, ``firsts`` says where each group's first row is, and a row's
    env extends that row's.
    """

    def __init__(
        self,
        batch: "columnar.ColumnBatch",
        selection: "list[int] | None" = None,
        firsts: "list | None" = None,
    ) -> None:
        self.batch = batch
        self.selection = selection
        self.firsts = firsts
        self._envs: list[Env] | None = None

    def column(self, expr: Expr):
        batch = self.batch
        if isinstance(expr, Column):
            index = batch.index_of(expr.key)
            if index is not None:
                return batch.columns[index]
        elif isinstance(expr, Literal):
            return [expr.value] * batch.count
        if self._envs is None:
            self._envs = batch.to_envs(self.selection)
            if self.firsts is not None:
                self._envs = [
                    {**({} if first is None else first[0].env_at(first[1])), **env}
                    for first, env in zip(self.firsts, self._envs)
                ]
        values = [evaluate(expr, env) for env in self._envs]
        return values if self.selection is None else dict(zip(self.selection, values))


# -- compilation ---------------------------------------------------------------


class PhysicalPlanner:
    """Compiles a PhysicalPlan's logical tree into a physical operator tree."""

    def __init__(self, catalog: FederationCatalog) -> None:
        self.catalog = catalog

    def compile(self, plan: PhysicalPlan) -> "tuple[PhysicalOperator, list[Stage]]":
        """The coordinator tree, and its stages in the order the executor
        starts them: one per ``Ship``, left to right."""
        stages: list[Stage] = []
        return self._node(plan.logical, plan, stages), stages

    def _node(self, node: PlanNode, plan: PhysicalPlan, stages) -> PhysicalOperator:
        if isinstance(node, ScanNode):
            return self._ship(StageSpec(node), plan, stages)
        if isinstance(node, FilterNode):
            return Filter(self._node(node.child, plan, stages), node.condition)
        if isinstance(node, JoinNode):
            left = self._node(node.left, plan, stages)
            right = self._node(node.right, plan, stages)
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
            child = self._node(node.child, plan, stages)
            return Project(child, node.items, node.distinct)
        if isinstance(node, AggregateNode):
            if node.split is None:
                return Aggregate(self._node(node.child, plan, stages), node)
            if not isinstance(node.child, ScanNode):  # over the eager join
                return FinalAggregate(self._node(node.child, plan, stages), node)
            ship = self._ship(StageSpec(node.child, node), plan, stages)
            return (MergePartials if node.split.pushed else FinalAggregate)(ship, node)
        if isinstance(node, SortNode):
            child = self._node(node.child, plan, stages)
            return Sort(child, node.order_by, top_k_bound(node))
        if isinstance(node, LimitNode):
            child = self._node(node.child, plan, stages)
            return Limit(child, evaluate(node.limit, {}))
        raise QueryError(f"cannot compile plan node {node!r}")

    def _ship(self, spec: StageSpec, plan: PhysicalPlan, stages: list) -> Ship:
        """A new stage's site pipeline -- with the partial aggregate of a
        split one -- under its ``Ship``."""
        stage = Stage(spec)
        stages.append(stage)
        scan = stage.scan
        op: SiteOperator = SiteScan(stage)
        if scan.site_filters:
            op = SiteFilter(op, conjoin(list(scan.site_filters)))
        keep = self._kept_columns(scan, plan)
        if keep is not None:
            op = SiteProject(op, scan.binding, keep)
        k = top_k_bound(scan)
        if k is not None:
            op = SiteTopK(op, scan.top_k.order, k)
        if spec.agg is not None:
            op = PartialAggregate(op, spec.agg)
        return Ship(op, stage)

    def _kept_columns(
        self, scan: ScanNode, plan: PhysicalPlan
    ) -> tuple[str, ...] | None:
        if scan.needed_columns is None:
            return None
        assignment = plan.assignments.get(scan.binding)
        if assignment is None:
            return None
        fields = set(schema_of(self.catalog, assignment).field_names)
        keep = scan.needed_columns & fields
        if keep >= fields:
            return None  # nothing to prune
        return tuple(sorted(keep))


def top_k_bound(node: PlanNode) -> int | None:
    """k of the top-k stage under ``node`` (a Sort, or the scan itself), or
    None when nothing under it ships a truncated stage."""
    for scan in scans_in(node):
        if scan.top_k is not None:
            return scan.top_k.bound
    return None


# -- output construction -------------------------------------------------------


def envs_to_table(
    root: PhysicalOperator, batches: "list[columnar.ColumnBatch]"
) -> Table:
    """The result table of the batches ``root`` produced: a statement's
    plan ends in its projection or its aggregation, whose batches hold the
    output columns under their names.  (Per-row envs are gone; the name
    stays because the benchmark's trace targets it.)"""
    names = root.output_names()
    whole = columnar.concat([batch for batch in batches if batch.count])
    columns = whole.columns if whole is not None else [[] for _ in names]
    fields = [
        Field(_safe_name(name), _infer_dtype(column))
        for name, column in zip(names, columns)
    ]
    table = Table(Schema("result", tuple(fields)), validate=False)
    if names:
        table.rows = list(zip(*columns))
    else:
        table.rows = [()] * sum(batch.count for batch in batches)
    return table


def _sort_keys(values):
    """Keys that order ``values`` exactly as :func:`_sort_key` does.

    A column of only strings, or of only ints and floats (no bool), sorts
    by its raw values -- the tag every key would carry is the same.
    """
    kinds = set(map(type, values))
    if kinds == {str} or kinds <= {int, float}:
        return values
    return list(map(_sort_key, values))


def _sort_key(value: Any) -> tuple:
    """None sorts first; mixed types keep a stable, comparable form."""
    if value is None:
        return (0, "")
    if isinstance(value, bool):
        return (1, str(value))
    if isinstance(value, (int, float)):
        # Python orders int against float exactly; float(value) would tie
        # 2**53 with 2**53 + 1 and overflow on an int past 1e308.
        return (2, value)
    if isinstance(value, Money):
        return (3, value.currency, value.amount)
    return (4, str(value))


def _safe_name(name: str) -> str:
    cleaned = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    return cleaned or "col"


def _infer_dtype(values: list[Any]) -> DataType:
    for value in values:
        if value is None:
            continue
        if isinstance(value, bool):
            return DataType.BOOLEAN
        if isinstance(value, int):
            return DataType.INTEGER
        if isinstance(value, float):
            return DataType.FLOAT
        if isinstance(value, Money):
            return DataType.MONEY
        return DataType.STRING
    return DataType.STRING


# -- the operators the planner builds ------------------------------------------
# Imported last: both modules subclass this one's protocol and call its
# helpers, so they load once every name above is defined.  PARTIAL_ROWS is
# the batch-of-groups layout that partial_wire_bytes sizes.

from repro.federation.site_ops import (  # noqa: E402
    PARTIAL_ROWS,
    PartialAggregate,
    SiteFilter,
    SiteProject,
    SiteScan,
    SiteTopK,
)
from repro.federation.coordinator_ops import (  # noqa: E402
    Aggregate,
    FinalAggregate,
    Filter,
    HashJoin,
    Limit,
    MergePartials,
    NestedLoopJoin,
    Project,
    Sort,
)
