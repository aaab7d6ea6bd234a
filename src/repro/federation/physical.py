"""The physical operator IR: where each piece of a query actually runs.

A :class:`PhysicalPlan` is the logical tree plus, per scan, the access path
the optimizer chose.  :class:`PhysicalPlanner` compiles it into a tree of
operators split across two placements:

* **Site-side operators** (:class:`SiteScan`, :class:`SiteFilter`,
  :class:`SiteProject`, :class:`SiteTopK`, :class:`PartialAggregate`) run
  at the site that owns the rows and charge *that* site's backlog.  They
  produce :class:`SiteBatch` objects -- per-site row batches that remember
  how much pipeline time they took -- so fragment scans still cost the
  slowest assignment, not the sum.
* An explicit :class:`Ship` operator moves each batch over the network
  model to the coordinator, accounting the transfer and the rows shipped.
* **Coordinator operators** (:class:`Filter`, :class:`Project`,
  :class:`HashJoin`, :class:`NestedLoopJoin`, :class:`Aggregate`,
  :class:`FinalAggregate`, :class:`Sort`, :class:`Limit`) are
  ``open``/``next``/``close`` iterators charged to the coordinator site.
  One ``next`` hands on one :class:`~repro.federation.columnar.ColumnBatch`
  and the operator bodies work on whole columns; a caller under a LIMIT
  says how many rows it still wants, and an operator pulls no more input
  than producing those takes (see :meth:`PhysicalOperator.next`).

Every scan compiles to one ``Ship`` over its site pipeline, and both hold
the one :class:`~repro.federation.stage.Stage` of that scan: every reuse
decision -- serve an artifact, a view or a cache region whole, narrow to
the stale fragments, fail over, capture for the stores -- is the stage's
(DESIGN §5h "Stage lifecycle"); ``Ship`` and ``SiteScan`` move and scan
rows.

Every operator records rows in/out, seconds of modeled work and its
placement site in :class:`OperatorStats`; the engine renders the tree as
``EXPLAIN ANALYZE`` and feeds it to the metrics registry.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, replace
from functools import reduce
from itertools import chain, repeat
from operator import add
from typing import TYPE_CHECKING, Any, Iterable, Iterator

from repro.core.errors import QueryError
from repro.core.records import Table
from repro.core.schema import DataType, Field, Schema
from repro.core.values import Money
from repro.federation import columnar
from repro.federation.artifacts import StageSpec
from repro.federation.catalog import FederationCatalog, Fragment
from repro.federation.governance import mask_value
from repro.federation.health import RetryPolicy
from repro.federation.stage import Stage
from repro.federation.views import MaterializedView
from repro.sql.ast import (
    BinaryOp,
    Column,
    Expr,
    FuncCall,
    InList,
    Literal,
    OrderItem,
    SelectItem,
    Star,
    is_aggregate,
    rebuild,
)
from repro.sql.ast import render as describe_expr  # noqa: F401 -- re-exported
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
    item_names,
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
    cached_table: "Table | None" = None  # for kind "cache"
    cached_staleness: float = 0.0
    cached_region: "frozenset | None" = None  # the predicate region served
    # For kind "artifact": the committed stage artifact the plan embeds
    # (its parts re-checked for currency at the Ship).
    artifact: "Any | None" = None
    artifact_age: float = 0.0  # age in seconds at plan time (EXPLAIN)
    # Zone-map partition elimination accounting for kind "fragments":
    # of ``total_fragments`` in the catalog, ``pruned_fragments`` were
    # proven empty under the scan's predicates and get no choice at all.
    pruned_fragments: int = 0
    total_fragments: int = 0
    # Optimizer's estimate of encoded wire bytes this scan ships to the
    # coordinator (0 for coordinator-local paths such as cache scans).
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

    def replay(self, logical: PlanNode) -> "PhysicalPlan":
        """This plan's decisions over ``logical`` for one more execution.

        Planning was paid when the template was built, so the copy charges
        none.  The assignments dict is copied so a re-optimization
        controller's migration never leaks into the template (which may be
        a cached prepared statement).
        """
        return PhysicalPlan(
            logical=logical,
            assignments=dict(self.assignments),
            coordinator=self.coordinator,
            optimizer=self.optimizer,
            sites_contacted=self.sites_contacted,
            total_price=self.total_price,
        )


@dataclass(frozen=True)
class QueryOptions:
    """One statement's answer policy, built once and carried by reference.

    ``FederatedEngine.query`` / ``prepare`` / ``execute`` / ``explain``
    build it from their keywords; every layer below (engine internals,
    executor, :class:`ExecContext`, the re-optimization controller, the
    workload manager's handles) receives this object, never the loose
    values.  ``max_staleness``, ``coordinator`` and the *policy signature*
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


@dataclass
class OperatorStats:
    """Per-operator accounting surfaced by EXPLAIN ANALYZE."""

    name: str
    site: str = ""
    rows_in: int = 0
    rows_out: int = 0
    seconds: float = 0.0
    detail: str = ""
    children: list["OperatorStats"] = field(default_factory=list)
    # Columnar data-plane accounting (zero for pure row-path operators).
    batches: int = 0  # column batches this operator processed
    encoded_bytes: int = 0  # wire bytes after column encoding (Ship only)
    raw_bytes: int = 0  # wire bytes under naive row serialization
    encode_seconds: float = 0.0  # modeled serialization work (producer sites)
    decode_seconds: float = 0.0  # modeled deserialization work (coordinator)

    def tree_lines(self, depth: int = 0) -> list[str]:
        parts = [f"{'  ' * depth}{self.name}"]
        if self.site:
            parts.append(f"@ {self.site}")
        parts.append(f"rows_in={self.rows_in} rows_out={self.rows_out}")
        parts.append(f"seconds={self.seconds:.6f}")
        if self.batches:
            parts.append(f"batches={self.batches}")
        if self.raw_bytes:
            ratio = (
                self.raw_bytes / self.encoded_bytes if self.encoded_bytes else 0.0
            )
            parts.append(
                f"bytes={self.encoded_bytes}/{self.raw_bytes} ({ratio:.2f}x)"
            )
        if self.encode_seconds or self.decode_seconds:
            parts.append(
                f"encode={self.encode_seconds:.6f} decode={self.decode_seconds:.6f}"
            )
        if self.detail:
            parts.append(self.detail)
        lines = ["  ".join(parts)]
        for child in self.children:
            lines.extend(child.tree_lines(depth + 1))
        return lines

    def walk(self) -> Iterator["OperatorStats"]:
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass
class ScanCapture:
    """One live fragment scan's output, kept for the semantic cache.

    ``parts`` holds one ``(fragment, epoch read at, rows)`` per fragment of
    the table in fragment order -- a pruned fragment's rows are an empty
    table, and a refresh's not re-read fragments have ``None`` (the cache
    keeps their stored parts).  ``fetched_at`` is the simulated clock at
    the moment the sources were read -- the engine stamps cache entries
    with it so staleness is measured from the fetch, not from whenever the
    store happens to run.  ``fetch_seconds`` is the site work the scan
    cost, i.e. what a future cache hit saves (the benefit term in
    admission/eviction).
    """

    parts: "list[tuple[Fragment, int, Table | None]]"
    fetched_at: float
    fetch_seconds: float = 0.0


@dataclass
class ExecutionReport:
    """Accounting for one executed query."""

    response_seconds: float = 0.0
    rows_fetched: int = 0  # rows produced by scans (after source pushdown)
    rows_shipped: int = 0  # rows that crossed the network to the coordinator
    bytes_shipped: int = 0  # encoded wire bytes behind those shipped rows
    rows_returned: int = 0
    staleness_seconds: float = 0.0
    site_work: dict[str, float] = field(default_factory=dict)
    failovers: int = 0  # scans successfully re-routed after a site died mid-query
    failover_attempts: int = 0  # re-route attempts, successful or not
    retry_seconds: float = 0.0  # modeled backoff latency charged for retries
    # Graceful degradation: the fraction of the query's input rows that was
    # reachable (1.0 = complete answer), with the fragments left behind.
    completeness: float = 1.0
    degraded: bool = False
    unreachable_fragments: list[str] = field(default_factory=list)
    dead_sites: list[str] = field(default_factory=list)
    # Zone-map partition elimination: fragments skipped / considered.
    fragments_pruned: int = 0
    fragments_total: int = 0
    # Multi-tenant workload management (stamped by the WorkloadManager when
    # the query went through submit(): how long it queued before dispatch,
    # which tenant owned it, and which scheduling discipline dispatched it).
    queue_wait_seconds: float = 0.0
    tenant: str | None = None
    scheduler: str | None = None
    # Governance enforcement (stamped by the engine when the plan carried
    # compiled policy annotations): which tenant's policy governed the plan
    # and how many rows site-side residual RLS predicates dropped.
    governed_tenant: str | None = None
    rows_filtered_by_rls: int = 0
    # Live fragment-scan outputs, for the engine's semantic cache to store.
    scan_tables: dict[str, ScanCapture] = field(default_factory=dict)
    # Stage-artifact reuse accounting (see repro.federation.artifacts):
    # hits served from committed artifacts, joins onto in-flight stages,
    # the site rows / wire bytes those reuses avoided, the joined stage
    # keys (for the workload manager's subscription protocol), captured
    # stage outputs awaiting publication, and the keys the engine actually
    # registered in flight.
    artifact_hits: int = 0
    artifact_joins: int = 0
    artifact_rows_saved: int = 0
    artifact_bytes_saved: int = 0
    artifact_join_keys: list = field(default_factory=list)
    stage_outputs: list = field(default_factory=list)
    artifact_published_keys: list = field(default_factory=list)
    # Adaptive mid-query re-optimization (repro.federation.reopt): stages
    # re-quoted, stages actually migrated, the modeled seconds spent on
    # re-quotes that did *not* migrate (plus any superseded partial
    # execution the workload manager discarded), and the event trail.
    reoptimizations: int = 0
    migrated_stages: int = 0
    reopt_wasted_seconds: float = 0.0
    reopt_events: list = field(default_factory=list)
    # Per-stage runtime: binding -> (modeled arrival seconds, sites the
    # stage touched).  The workload manager projects which stages are
    # still pending at a disturbance from these.
    stage_runtimes: dict[str, tuple[float, tuple[str, ...]]] = field(
        default_factory=dict
    )
    operators: OperatorStats | None = None  # per-operator stats tree
    # Why a top-k stage's answer was not known exact, when the ordinary
    # plan ran after it (EXPLAIN ANALYZE prints it).
    top_k_restart: str | None = None


# -- execution context ---------------------------------------------------------


def schema_of(catalog: FederationCatalog, assignment: ScanAssignment) -> Schema:
    if assignment.kind == "view":
        assert assignment.view is not None
        return assignment.view.schema
    return catalog.entry(assignment.table_name).schema


class ExecContext:
    """Shared state for one execution of a physical plan."""

    def __init__(
        self,
        paths: AccessPaths,
        plan: PhysicalPlan,
        report: ExecutionReport,
        retry: RetryPolicy,
        options: QueryOptions,
        reopt,
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
        # Fault-tolerance state shared by every scan in this execution.
        self.retry = retry
        # The statement's options, read where they bind: ``degraded_ok`` by
        # unreachable scans; ``reuse_artifacts`` at the Ship boundary (the
        # workload manager's fallback re-execution sets False so a query
        # whose joined producer died recomputes independently and publishes
        # nothing); ``max_staleness`` by the covering fallback too -- a
        # LIVE_ONLY query must fail rather than silently serve stale data.
        self.options = options
        # Adaptive re-optimization controller (repro.federation.reopt), or
        # None for frozen-plan execution.  Each stage consults it once.
        self.reopt = reopt
        self.retries_used = 0  # failover attempts spent against retry.budget
        self.scan_total_rows = 0  # estimated input rows across all scans
        self.unreachable_rows = 0  # estimated rows behind dead fragments
        self.unreachable_fragments: list[str] = []
        self.dead_sites: set[str] = set()
        # (fragment, boundary key) of each fragment a SiteTopK cut, as the
        # Ship of the top-k stage received or served it.
        self.top_k_cuts: list[tuple[str, Any]] = []
        # Set when a top-k restart re-runs the plan after this attempt: its
        # stages settle their work but take their captures back.
        self.superseded = False

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
        self.stats = OperatorStats(self.name, site=ctx.coordinator)
        self._ctx = ctx
        self._closed = False
        for child in self.children:
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
        per-execution state: the batches would otherwise stay pinned by
        this operator until the plan is next compiled."""
        if getattr(self, "_closed", True):
            return
        self._closed = True
        if settle:
            self._finish(self._ctx)
        for child in self.children:
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

    def _drain(self, child: "PhysicalOperator") -> "columnar.ColumnBatch | None":
        """Pull ``child`` dry, counting its rows in: one batch holding them
        all, or ``None`` when there are none."""
        batches = []
        while (batch := child.next()) is not None:
            if batch.count:
                self.stats.rows_in += batch.count
                batches.append(batch)
        return columnar.concat(batches)

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
    :class:`~repro.federation.columnar.ColumnBatch` slices, and ``rows``
    stays empty.  ``selections`` says, chunk by chunk, which rows are still
    in: a sorted list of row numbers (:func:`columnar.select_rows`), or
    ``None`` for all of them.  A filter only narrows selections; the kept
    rows are copied out when a consumer needs them as a batch of their own
    (``Ship``, a mask), and the partial aggregate folds through them.
    ``chunks is None`` means ``rows`` holds partial-aggregate group records,
    which were not scanned in batches and so do not count as processed
    batches.  ``cut`` is ``(boundary key,)`` once a :class:`SiteTopK`
    dropped rows of the batch.
    """

    site: str
    rows: list
    elapsed: float  # queue delay + site-side work along this batch's pipeline
    chunks: "list[columnar.ColumnBatch] | None" = None
    selections: "list[list[int] | None] | None" = None  # one per chunk
    fragment: Fragment | None = None  # the fragment read; None for a copy
    cut: "tuple | None" = None

    def kept(self) -> "Iterator[tuple[columnar.ColumnBatch, list[int] | None]]":
        """``(chunk, selection)`` pairs, in order."""
        return zip(self.chunks, self.selections)

    def row_count(self) -> int:
        if self.chunks is None:
            return len(self.rows)
        count = 0
        for chunk, selection in zip(self.chunks, self.selections):
            count += chunk.count if selection is None else len(selection)
        return count


class SiteOperator(PhysicalOperator):
    """An operator that runs where the data lives, producing per-site batches."""

    def open(self, ctx: ExecContext) -> None:
        self.stats = OperatorStats(self.name)
        self._ctx = ctx
        self._closed = False
        for child in self.children:
            child.open(ctx)
        self._batches = self._compute(ctx)
        sites = sorted({batch.site for batch in self._batches})
        self.stats.site = ",".join(sites) if sites else ctx.coordinator
        self.stats.rows_out = sum(batch.row_count() for batch in self._batches)
        self.stats.batches += sum(
            len(batch.chunks) for batch in self._batches if batch.chunks is not None
        )

    def batches(self) -> list[SiteBatch]:
        return self._batches

    def next(self, want: int | None = None) -> Any:
        raise QueryError(
            f"{self.name} produces site batches; wrap it in a Ship operator"
        )

    def _compute(self, ctx: ExecContext) -> list[SiteBatch]:
        raise NotImplementedError


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
    column chunks, keeps the text index's hits, and applies the residual
    RLS and the masks."""

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
        headers, less the rows the text index and the residual RLS reject,
        masks applied.  Governance runs *after* the capture: cached regions
        keep raw rows under their predicate key, every consumer scan
        re-applies its own residual RLS and masks right here, and rows a
        policy hides never leave the site pipeline.
        """
        batches = []
        for site, table, elapsed, fragment in table_batches:
            chunks = columnar.table_chunks(assignment.binding, table)
            batches.append(
                SiteBatch(site, [], elapsed, chunks, [None] * len(chunks), fragment)
            )
        if self.scan.text_filter is not None:
            keep = chunk_filter(self._text_condition(ctx))
            for batch in batches:
                batch.selections = keep(batch)
        self._apply_governance(ctx, batches)
        ctx.report.rows_fetched += sum(batch.row_count() for batch in batches)
        return batches

    def _text_condition(self, ctx: ExecContext) -> Expr:
        """The text index's hits as a condition on the scan's key column."""
        entry = ctx.catalog.entry(self.scan.table)
        if entry.text_index is None or entry.key_column is None:
            raise QueryError(
                f"MATCH on {self.scan.table!r} but no text index is registered"
            )
        _, query = self.scan.text_filter
        hits = entry.text_index.search(query, limit=entry.estimated_rows() or 1000)
        return InList(
            Column(entry.key_column, self.scan.binding, self.scan.binding),
            tuple(Literal(doc_id) for doc_id in {hit.doc_id for hit in hits}),
        )

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
        if self.scan.text_filter is not None:
            detail += f" text-index{self.scan.text_filter!r}"
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

    def _compute(self, ctx: ExecContext) -> list[SiteBatch]:
        out = []
        keep = chunk_filter(self.condition)
        for batch in self.children[0].batches():
            rows_in = batch.row_count()
            self.stats.rows_in += rows_in
            selections = keep(batch)
            work = ctx.charge_site(batch.site, rows_in)
            self.stats.seconds += work
            out.append(
                SiteBatch(
                    batch.site,
                    [],
                    batch.elapsed + work,
                    batch.chunks,
                    selections,
                    batch.fragment,
                )
            )
        self.stats.detail = describe_expr(self.condition)
        return out


class SiteProject(SiteOperator):
    """Strip unneeded columns before rows ship (projection pruning)."""

    name = "SiteProject"

    def __init__(self, child: SiteOperator, binding: str, keep: tuple[str, ...]) -> None:
        super().__init__(child)
        self.binding = binding
        self.keep = keep
        self.allowed = set(columnar.scan_names(binding, keep))

    def _compute(self, ctx: ExecContext) -> list[SiteBatch]:
        out = []
        narrow = None  # resolved once: every chunk of a scan shares its layout
        for batch in self.children[0].batches():
            rows_in = batch.row_count()
            self.stats.rows_in += rows_in
            # Column-slice projection: kept columns are shared by
            # reference, dropped ones simply stop flowing, and the
            # selections pass on as they are.
            if narrow is None and batch.chunks:
                narrow = batch.chunks[0].narrowing(self.allowed)
            pruned_chunks = [chunk.project(narrow) for chunk in batch.chunks]
            work = ctx.charge_site(batch.site, rows_in)
            self.stats.seconds += work
            out.append(
                SiteBatch(
                    batch.site,
                    [],
                    batch.elapsed + work,
                    pruned_chunks,
                    batch.selections,
                    batch.fragment,
                )
            )
        self.stats.detail = f"keep({', '.join(self.keep)})"
        return out


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

    def _compute(self, ctx: ExecContext) -> list[SiteBatch]:
        out = []
        for batch in self.children[0].batches():
            rows_in = batch.row_count()
            self.stats.rows_in += rows_in
            selections, cut, work = batch.selections, None, 0.0
            if rows_in > self.k:
                selections, cut = self._top(batch)
                work = ctx.charge_site(batch.site, rows_in)
                self.stats.seconds += work
            out.append(
                SiteBatch(
                    batch.site,
                    [],
                    batch.elapsed + work,
                    batch.chunks,
                    selections,
                    batch.fragment,
                    cut,
                )
            )
        order = self.order
        self.stats.detail = (
            f"top {self.k} by {describe_expr(order.expr)}"
            + (" desc" if order.descending else "")
        )
        return out

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


class PartialGroup:
    """One group's partial aggregate state, computed at a site.

    ``representative`` is the group's first row as an env, for the
    non-aggregate expressions.  A fold gives it as ``first``, the batch and
    row number it is read from, and the env is built the first time
    something reads it: most site groups are merged into another one and
    never are.
    """

    __slots__ = ("key", "count", "states", "_representative", "_first")

    def __init__(
        self,
        key: tuple,
        count: int,  # rows in the group (count(*), avg denominators)
        states: dict[str, Any],  # repr(aggregate call) -> partial state
        representative: Env | None = None,
        first: "tuple[columnar.ColumnBatch, int] | None" = None,
    ) -> None:
        self.key = key
        self.count = count
        self.states = states
        self._representative = representative
        self._first = first

    @property
    def representative(self) -> Env:
        if self._representative is None:
            first, self._first = self._first, None
            self._representative = {} if first is None else first[0].env_at(first[1])
        return self._representative

    def copy(self) -> "PartialGroup":
        """The same group with states of its own, its representative
        still unbuilt if it was."""
        return PartialGroup(
            self.key, self.count, dict(self.states), self._representative, self._first
        )


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


def fold_state(call: FuncCall, state: Any, values: list) -> Any:
    """``state`` after the group's next argument ``values``: at least one,
    none of them NULL.

    Sums add left to right onto the running total, so a group folded a
    chunk at a time performs the additions one pass over its rows would:
    float results do not depend on where the chunk boundaries fall.
    """
    if call.name == "count":
        return state + len(values)
    if call.name == "avg":
        total, seen = state
        total = reduce(add, values) if seen == 0 else reduce(add, values, total)
        return (total, seen + len(values))
    if call.name == "sum":
        return reduce(add, values) if state is None else reduce(add, values, state)
    if call.name == "min":
        return min(values) if state is None else min(state, min(values))
    return max(values) if state is None else max(state, max(values))


def merge_state(call: FuncCall, a: Any, b: Any) -> Any:
    """Combine two sites' partial states for one aggregate call."""
    if call.star or call.name == "count":
        return a + b
    if call.name == "avg":
        (total_a, n_a), (total_b, n_b) = a, b
        if n_a == 0:
            return b
        if n_b == 0:
            return a
        return (total_a + total_b, n_a + n_b)
    if a is None:
        return b
    if b is None:
        return a
    if call.name == "sum":
        return a + b
    if call.name == "min":
        return min(a, b)
    if call.name == "max":
        return max(a, b)
    raise QueryError(f"unknown aggregate {call.name!r}")


def final_value(call: FuncCall, state: Any, group_rows: int) -> Any:
    if call.star:
        return group_rows
    if call.name == "avg":
        total, count = state
        return None if count == 0 else total / count
    return state  # count/sum/min/max carry their final value directly


def partial_groups(
    parts: "Iterable[tuple[columnar.ColumnBatch, list[int] | None]]",
    group_by: list[Expr],
    calls: dict[str, FuncCall],
) -> list[PartialGroup]:
    """The kept rows of ``parts`` grouped, one record per group in
    first-appearance order, each call's state folded over the group's rows
    in row order, batch after batch.

    ``parts`` are ``(batch, selection)`` pairs, a selection naming the
    batch's rows still in (``None``: all of them).  The fold reads through
    the selections and copies no batch: keys and arguments are taken a
    column at a time and evaluated on kept rows only (see
    :class:`_Expressions`), every key column before any argument; a group's
    argument values are collected across the batches and folded once; and
    its representative row is built only when it is read.  Ungrouped input
    is the one group of every row, also when there are none; a grouped
    query over no rows has no group, and then the calls are not even
    looked at.  ``calls`` come under their state keys, their ``repr``: a
    dataclass repr is recursive, so an operator computes it once.
    """
    kept = [
        (batch, rows, _Expressions(batch, selection))
        for batch, selection in parts
        if (rows := range(batch.count) if selection is None else selection)
    ]
    if group_by and not kept:
        return []
    # A group will be created: the point where a malformed call is refused.
    empty = {key: empty_state(call) for key, call in calls.items()}
    arguments = [(key, call) for key, call in calls.items() if not call.star]
    keys = [_group_keys(expressions, rows, group_by) for _, rows, expressions in kept]
    scanned = [
        (batch, rows, batch_keys, [expressions.column(c.args[0]) for _, c in arguments])
        for (batch, rows, expressions), batch_keys in zip(kept, keys)
    ]
    collected = (_grouped if group_by else _ungrouped)(scanned, len(arguments))
    # count(*) folds nothing: its state is the group's row count.
    stars = [key for key, call in calls.items() if call.star]
    lone_key = len(group_by) == 1
    groups = []
    for key, count, first, group_values in collected:
        states = dict(empty)
        for (state_key, call), values in zip(arguments, group_values):
            if values:
                states[state_key] = fold_state(call, states[state_key], values)
        for state_key in stars:
            states[state_key] = count
        key = (key,) if lone_key else key
        groups.append(PartialGroup(key, count, states, first=first))
    if not groups and not group_by:  # ungrouped, and no row
        groups.append(PartialGroup((), 0, empty, {}))
    return groups


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


def _ungrouped(scanned, width: int) -> list:
    """The one group of the ``scanned`` rows as :func:`_grouped` gives
    groups, or none when there is no row."""
    if not scanned:
        return []
    values: list[list] = [[] for _ in range(width)]
    for _, rows, _, columns in scanned:
        for seen, column in zip(values, columns):
            seen += [v for row in rows if (v := column[row]) is not None]
    batch, rows, _, _ = scanned[0]
    count = sum(len(rows) for _, rows, _, _ in scanned)
    return [((), count, (batch, rows[0]), values)]


def _grouped(scanned, width: int) -> list:
    """``(key, row count, (batch, first row), non-NULL values per
    argument)`` per group of the ``scanned`` rows, in first-appearance
    order.

    A lone key groups on its raw values, with the 1-tuple's dict semantics
    (1, 1.0 and True are one group under the key seen first; a NaN equals
    nothing, so each NaN object is a group of its own, and one NaN object
    shared by several rows is one key -- why a compacted layout never
    repacks a column holding a NaN: :meth:`Table.column_layout`).  One
    loop over a batch's rows groups them and collects the first argument's
    values, NULLs included -- the row numbers when there is no argument --
    so a group's count is how many it holds; every further argument is one
    more loop.
    """
    members: dict[Any, list] = {}  # group key -> the first argument's values
    firsts: dict[Any, tuple] = {}
    more: list[dict[Any, list]] = [defaultdict(list) for _ in range(width - 1)]
    for batch, rows, keys, columns in scanned:
        lead, *others = columns or [range(batch.count)]
        for row in rows:
            key = keys[row]
            seen = members.get(key)
            if seen is None:
                members[key] = seen = []
                firsts[key] = (batch, row)
            seen.append(lead[row])
        for seen, column in zip(more, others):
            for row in rows:
                seen[keys[row]].append(column[row])
    groups = []
    for key, lead in members.items():
        values = []
        if width:
            values.append([v for v in lead if v is not None])
            for seen in more:
                values.append([v for v in seen[key] if v is not None])
        groups.append((key, len(lead), firsts[key], values))
    return groups


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
    node: AggregateNode, names: list[str], groups: "Iterable[PartialGroup]"
) -> "list[columnar.ColumnBatch]":
    """The aggregation's output batch: every group's select items, the
    groups failing HAVING dropped, in the deterministic order -- by the
    rows' value representations.

    This is the one evaluator of an expression that may contain aggregate
    calls: wherever a call stands, it reads as a column, so ``evaluate``
    runs the rest against the group's representative row extended by the
    calls' final values.
    """
    calls: dict[str, FuncCall] = {}
    items = [_over_states(item.expr, calls) for item in node.items]
    having = None if node.having is None else _over_states(node.having, calls)
    results: list[Env] = []
    for group in groups:
        env = dict(group.representative)
        for key, call in calls.items():
            env[key] = final_value(call, group.states[key], group.count)
        out = {name: evaluate(expr, env) for name, expr in zip(names, items)}
        if having is None or evaluate(having, env):
            results.append(out)
    results.sort(key=lambda out: tuple(repr(v) for v in out.values()))
    columns = [[out[name] for out in results] for name in names]
    return [columnar.ColumnBatch(names, columns, len(results))]


class PartialAggregate(SiteOperator):
    """Aggregate each site's rows locally; ship one record per group."""

    name = "PartialAggregate"

    def __init__(self, child: SiteOperator, node: AggregateNode) -> None:
        super().__init__(child)
        self.node = node
        assert node.split is not None
        self.calls = node.split.calls
        self._state_keys = [repr(call) for call in self.calls]

    def _compute(self, ctx: ExecContext) -> list[SiteBatch]:
        out = []
        calls = dict(zip(self._state_keys, self.calls))
        for batch in self.children[0].batches():
            rows_in = batch.row_count()
            self.stats.rows_in += rows_in
            # Straight through the filter's selections: no row is copied.
            records = partial_groups(batch.kept(), self.node.group_by, calls)
            work = ctx.charge_site(batch.site, rows_in)
            self.stats.seconds += work
            out.append(
                SiteBatch(
                    batch.site, records, batch.elapsed + work, fragment=batch.fragment
                )
            )
        self.stats.detail = ", ".join(describe_expr(c) for c in self.calls)
        return out


# -- the network boundary ------------------------------------------------------


def record_wire_bytes(record: Any) -> int:
    """Deterministic wire size of one shipped partial-aggregate record."""
    if isinstance(record, PartialGroup):
        total = 12  # group header: row count + state count + key arity
        for value in record.key:
            total += columnar.value_wire_bytes(value)
        for state in record.states.values():
            if isinstance(state, tuple):
                total += sum(columnar.value_wire_bytes(v) for v in state)
            else:
                total += columnar.value_wire_bytes(state)
        return total
    return 8


class Ship(PhysicalOperator):
    """Move site batches to the coordinator over the network model.

    The slowest (pipeline + transfer) batch sets the parallel-scan phase's
    elapsed time; batches not already at the coordinator count as shipped,
    in rows *and* in encoded wire bytes.  Column batches are serialized
    per-column under the cheapest encoding (encode work charged to the
    producing site, decode work to the coordinator) and the network charges
    per encoded byte; coordinator-local batches are handed over by
    reference and never serialize.  What arrives goes on to the
    coordinator operators as column batches: decoded or local chunks as
    they are, partial-aggregate group records (charged per record byte) as
    a one-column batch.

    Every reuse decision is the stage's (:mod:`repro.federation.stage`):
    ``open`` probes it first, and a stage served whole from an artifact
    never opens the site pipeline; a narrowed one's output is spliced with
    the parts it serves, and the output is captured for the stores.
    """

    name = "Ship"

    def __init__(self, child: "PhysicalOperator", stage: Stage) -> None:
        super().__init__(child)
        self.stage = stage

    def open(self, ctx: ExecContext) -> None:
        self.stats = OperatorStats(self.name, site=ctx.coordinator)
        self._ctx = ctx
        self._closed = False
        self._rows = None
        served = self.stage.probe(ctx, self.stats)
        if served is not None:
            # The whole site-side pipeline is skipped: children are never
            # opened (their close() guards make that safe) and no site does
            # any scan work for this stage.
            self._rows = BatchCursor(row_form_batches(served))
            return
        before = ctx.report.rows_fetched
        for child in self.children:
            child.open(ctx)
        self.stage.rows_fetched = ctx.report.rows_fetched - before

    def close(self, settle: bool = True) -> None:
        if not getattr(self, "_closed", True):
            self.stage.release(self._ctx)
        super().close(settle)

    def _produce(self, ctx: ExecContext) -> "list[columnar.ColumnBatch]":
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
            if batch.chunks is None:  # partial-aggregate records
                if not local:
                    nbytes = sum(record_wire_bytes(r) for r in batch.rows)
                    raw_total += nbytes
                arrived.extend(row_form_batches(batch.rows))
            elif local:
                # Already at the coordinator: no wire, no encoding.  The
                # kept rows are gathered here, as they are for the wire.
                batch_count += len(batch.chunks)
                arrived.extend(
                    columnar.gather(chunk, selection)
                    for chunk, selection in batch.kept()
                )
            else:
                batch_count += len(batch.chunks)
                for chunk, selection in batch.kept():
                    encoded = columnar.encode_batch(columnar.gather(chunk, selection))
                    nbytes += encoded.encoded_bytes
                    raw_total += encoded.raw_bytes
                    arrived.append(columnar.decode_batch(encoded))
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
        if self.stage.stale is not None:
            slots, note = self.stage.spliced(ctx, slots, self.stats)
            self.stats.detail = f"{note}; {self.stats.detail}"
        binding = self.stage.scan.binding
        ctx.report.stage_runtimes[binding] = (arrival, tuple(sorted(stage_sites)))
        if ctx.reopt is not None:
            note = ctx.reopt.describe(binding)
            if note:
                self.stats.detail += f"  [{note}]"
        arrived = [batch for _, out in slots for batch in out]
        self.stage.capture(ctx, slots, arrived, shipped_bytes, arrival, cuts)
        return arrived


# What a row-form batch of partial-aggregate records travels as: one column.
RECORDS_COLUMN = ["#records"]


def row_form_batches(rows) -> "list[columnar.ColumnBatch]":
    """What reaches the coordinator outside a site's chunks, as coordinator
    batches: the batch an artifact served as itself, group records (a
    site's ``SiteBatch.rows`` or an artifact's) as one column of them."""
    if isinstance(rows, columnar.ColumnBatch):
        return [rows]
    if not rows:
        return []
    return [columnar.ColumnBatch(RECORDS_COLUMN, [rows], len(rows))]


# -- coordinator operators -----------------------------------------------------


class _Expressions:
    """Evaluates expressions over one batch, a whole column at a time.

    A plain column is picked and a literal repeated; any other expression
    has no column form and goes through ``evaluate`` on the per-row envs
    of the batch's rows -- of the ``selection``'s alone when one is given
    -- built once, only then, so its values and errors are exactly the row
    engine's.  A column is read by row number: with a selection, an
    evaluated one holds the selected rows alone.
    """

    def __init__(
        self, batch: "columnar.ColumnBatch", selection: "list[int] | None" = None
    ) -> None:
        self.batch = batch
        self.selection = selection
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
        values = [evaluate(expr, env) for env in self._envs]
        return values if self.selection is None else dict(zip(self.selection, values))


class Filter(PhysicalOperator):
    """Residual row filter at the coordinator (streaming)."""

    name = "Filter"

    def __init__(self, child: PhysicalOperator, condition: Expr) -> None:
        super().__init__(child)
        self.condition = condition

    def open(self, ctx: ExecContext) -> None:
        super().open(ctx)
        self.stats.detail = describe_expr(self.condition)

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
        self.stats.detail = describe_expr(self.condition)

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
        build = self._drain(right)
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
            rest = self._drain(left)
            first = columnar.concat([first] if rest is None else [first, rest])
        # Keys did not resolve (empty input or non-column condition form):
        # fall back to nested-loop semantics over the same condition.
        self.stats.detail = f"nested-loop fallback {describe_expr(self.condition)}"
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
        right = self._drain(self.children[1])
        return self._nested_loop(self._drain(self.children[0]), right)


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

    def _groups(self) -> list[PartialGroup]:
        batch = self._drain(self.children[0])
        parts = () if batch is None else [(batch, None)]
        return partial_groups(parts, self.node.group_by, self.node.calls())

    def _finish(self, ctx: ExecContext) -> None:
        self.stats.seconds += ctx.charge_coordinator(self.stats.rows_in)

    def output_names(self) -> list[str] | None:
        return aggregate_names(self.node.items)


class FinalAggregate(Aggregate):
    """Merge sites' partial aggregate states into final groups."""

    name = "FinalAggregate"

    def _groups(self) -> list[PartialGroup]:
        calls = {repr(call): call for call in self.node.split.calls}
        merged: dict[tuple, PartialGroup] = {}
        records = self._drain(self.children[0])
        for record in records.columns[0] if records is not None else ():
            seen = merged.get(record.key)
            if seen is None or not seen.count:
                # A group of no row (the ungrouped one of a site that had
                # none) holds empty states, which merge into the record's.
                merged[record.key] = record.copy()
                continue
            seen.count += record.count
            for key, call in calls.items():
                seen.states[key] = merge_state(call, seen.states[key], record.states[key])
        # No site sent a record: what aggregating no rows gives.
        return list(merged.values()) or partial_groups((), self.node.group_by, calls)


class TopKRestart(Exception):
    """A top-k stage's answer is not known exact: the executor re-runs the
    plan with the mark off.  The message says why, for EXPLAIN ANALYZE."""


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
            describe_expr(o.expr) + (" desc" if o.descending else "")
            for o in self.order_by
        )

    def _next(self, want: int | None) -> "columnar.ColumnBatch | None":
        if self._rows is None:
            batch = self._drain(self.children[0])
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


def describe_region(region: "frozenset | None") -> str:
    """Render a predicate region for EXPLAIN (``*`` = the whole table)."""
    if not region:
        return "*"
    rendered = sorted(
        f"{p.column} {p.op} {p.value!r}" for p in region
    )
    return " and ".join(rendered)


def describe_pruning(assignment: ScanAssignment) -> str:
    """Zone-map elimination as EXPLAIN shows it: `` pruned k/n`` or ``""``."""
    if assignment.pruned_fragments <= 0:
        return ""
    return (
        f" pruned {assignment.pruned_fragments}/{assignment.total_fragments}"
    )


def describe_cache_path(assignment: ScanAssignment) -> str:
    """The cache access path as EXPLAIN shows it: region plus entry age."""
    return (
        f"cache(region {describe_region(assignment.cached_region)}, "
        f"age {assignment.cached_staleness:.1f}s)"
    )


def describe_artifact_path(assignment: ScanAssignment) -> str:
    """The artifact access path as EXPLAIN shows it: stage key plus age."""
    artifact = assignment.artifact
    return (
        f"artifact(stage {artifact.key[:8]}, "
        f"rows {artifact.row_count}, age {assignment.artifact_age:.1f}s)"
    )


def describe_access_path(assignment: ScanAssignment) -> str:
    """The access path the optimizer chose for one scan, as EXPLAIN shows it."""
    if assignment.kind == "view":
        return f"view {assignment.view.name} @ {assignment.view.site_name}"
    if assignment.kind == "cache":
        return describe_cache_path(assignment)
    if assignment.kind == "artifact":
        return describe_artifact_path(assignment)
    placed = ", ".join(
        f"{c.fragment.fragment_id}@{c.site_name}" for c in assignment.choices
    )
    return f"fragments [{placed}]{describe_pruning(assignment)}"


def describe_pushdown(scan: ScanNode) -> str:
    """`` pushdown(...)`` for the predicates the *user* pushed into a scan.

    RLS conjuncts live in the ordinary pushdown list (that is how they
    prune and price); :func:`describe_governance` attributes them to the
    policy instead of listing them twice.
    """
    pushdown = scan.pushdown
    governance = scan.governance
    if governance is not None and governance.rls_pushed:
        pushdown = [p for p in pushdown if p not in governance.rls_pushed]
    if not pushdown:
        return ""
    predicates = ", ".join(f"{p.column} {p.op} {p.value!r}" for p in pushdown)
    return f" pushdown({predicates})"


def describe_governance(scan: ScanNode) -> str:
    """`` rls(tenant=...: ...)`` and `` mask(col)`` for a governed scan."""
    governance = scan.governance
    if governance is None:
        return ""
    detail = ""
    rls_parts = [f"{p.column} {p.op} {p.value!r}" for p in governance.rls_pushed]
    rls_parts.extend(describe_expr(c) for c in governance.rls_residual)
    if rls_parts:
        detail += f" rls(tenant={governance.tenant}: {', '.join(rls_parts)})"
    for column in sorted(governance.masks):
        detail += f" mask({column})"
    return detail


# -- compilation ---------------------------------------------------------------


class PhysicalPlanner:
    """Compiles a PhysicalPlan's logical tree into a physical operator tree."""

    def __init__(self, catalog: FederationCatalog) -> None:
        self.catalog = catalog

    def compile(self, plan: PhysicalPlan) -> PhysicalOperator:
        return self._node(plan.logical, plan)

    def _node(self, node: PlanNode, plan: PhysicalPlan) -> PhysicalOperator:
        if isinstance(node, ScanNode):
            stage = Stage(StageSpec(node))
            return Ship(self._site_pipeline(stage, plan), stage)
        if isinstance(node, FilterNode):
            return Filter(self._node(node.child, plan), node.condition)
        if isinstance(node, JoinNode):
            left = self._node(node.left, plan)
            right = self._node(node.right, plan)
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
            return Project(self._node(node.child, plan), node.items, node.distinct)
        if isinstance(node, AggregateNode):
            if node.split is not None and isinstance(node.child, ScanNode):
                stage = Stage(StageSpec(node.child, node))
                pipeline = PartialAggregate(self._site_pipeline(stage, plan), node)
                return FinalAggregate(Ship(pipeline, stage), node)
            return Aggregate(self._node(node.child, plan), node)
        if isinstance(node, SortNode):
            return Sort(self._node(node.child, plan), node.order_by, top_k_bound(node))
        if isinstance(node, LimitNode):
            return Limit(self._node(node.child, plan), evaluate(node.limit, {}))
        raise QueryError(f"cannot compile plan node {node!r}")

    def _site_pipeline(self, stage: Stage, plan: PhysicalPlan) -> SiteOperator:
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
        return op

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
