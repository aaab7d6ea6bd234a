"""The federated engine facade: SQL and XPath in, rows or XML out.

This is the integrator's query surface (§3.2 C6):

* :meth:`FederatedEngine.query` -- parse SQL, plan with catalog metadata,
  optimize (agoric by default, the centralized baseline pluggable), execute
  across sites, and charge the response time to the simulation clock.
  Its keywords (like those of ``prepare`` / ``execute`` / ``explain``) are
  the statement's answer policy: they become one frozen
  :class:`~repro.federation.physical.QueryOptions` here, and every layer
  below -- planning, executor, execution context, re-optimization, the
  workload manager's handles -- is handed that object by reference.
* :meth:`FederatedEngine.xpath_query` -- the same integrated content as an
  XML view, queried with XPath.
* :meth:`FederatedEngine.search` -- the IR surface: synonym/fuzzy/taxonomy
  expanded search over a table's text index.
* materialized views -- :meth:`create_materialized_view` /
  :meth:`refresh_view` / :meth:`schedule_view_refresh` implement the
  fetch-in-advance half of Characteristic 5; queries opt into staleness
  with ``max_staleness`` (``None`` = any cached copy is fine,
  ``LIVE_ONLY`` = must fetch on demand).
* the semantic cache -- when constructed with one, the engine's
  :class:`~repro.federation.access.AccessPaths` offers covering predicate
  regions (verbatim or implied: ``price < 5`` covers ``price < 3``) to the
  optimizer as a priced access path *bidding* against fragments and views,
  live scan results are admitted by benefit (rows x saved fetch seconds),
  kept in one part per fragment, and a base-table update notification
  stales the written fragments' parts (a region serves only while every
  part is current; a refresh re-reads the stale fragments alone).

Before optimization the logical plan runs through the engine's rewrite
pipeline (:mod:`repro.sql.rewrite`): residual single-binding filters
(``match(column, 'query')`` among them), projection pruning, and
partial/final aggregate splitting move work onto the sites that own the
rows.  The optimizers place the scans; the physical operator layer
(:mod:`repro.federation.physical`) executes the annotated plan and
:meth:`FederatedEngine.explain` with ``analyze=True`` shows the
per-operator accounting.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from repro.core.errors import PartialFailureError, QueryError, SourceUnavailableError
from repro.core.records import Table
from repro.federation.access import AccessPaths
from repro.federation.agoric import AgoricOptimizer
from repro.federation.cache import SemanticCache
from repro.federation.catalog import FederationCatalog
from repro.federation.executor import Executor
from repro.federation.governance import PolicyError
from repro.federation.health import SiteHealthTracker
from repro.federation.physical import PhysicalPlan, QueryOptions
from repro.federation.report import (
    ExecutionReport,
    describe_access_path,
    describe_governance,
    describe_pushdown,
)
from repro.federation.reopt import ReoptController
from repro.ir.search import CatalogSearch, SearchMode, SynonymExpander, TaxonomyExpander
from repro.federation.views import MaterializedView
from repro.sim.events import EventLoop
from repro.sim.metrics import Held, MetricsRegistry
from repro.sql.ast import (
    InList,
    InSubquery,
    Literal,
    SelectStatement,
    rebuild,
    render,
)
from repro.sql.params import (
    bind_plan,
    bind_statement,
    check_parameters,
)
from repro.sql.parser import parse_sql
from repro.sql.planner import (
    AggregateNode,
    FilterNode,
    JoinNode,
    LimitNode,
    PlanNode,
    ProjectNode,
    ScanNode,
    SortNode,
    build_plan,
    resolve,
    scans_in,
)
from repro.sql.rewrite import (
    AggregateSplitting,
    ProjectionPruning,
    RewritePipeline,
    SiteFilterPushdown,
    TopKPushdown,
)
from repro.xmlkit.model import XmlElement
from repro.xmlkit.xpath import xpath
from repro.xmlkit.xquery import xquery as run_xquery

# Passing this as max_staleness forbids every cached/materialized access
# path: the query must fetch on demand (staleness can never be negative).
LIVE_ONLY = -1.0


@dataclass
class PreparedStatement:
    """One statement's template: what every execution runs (DESIGN §5g).

    One built by :meth:`FederatedEngine.prepare` for a statement without
    subqueries holds an immutable logical plan, :class:`~repro.sql.ast.Parameter`
    nodes still in place, plus the optimizer's physical decisions: each
    execution binds values into a fresh copy and pays zero modeled planning
    seconds, and a stale one replans in place.  One without a plan --
    ``IN (SELECT ...)`` membership lists are data, an ad-hoc statement runs
    once -- is planned by each execution, which is charged for it.
    """

    sql: str
    param_count: int
    # What the template was compiled under: ``max_staleness``,
    # ``coordinator`` and the policy *signature* of ``tenant`` shape it.
    # Any tenant with that signature may execute it, under its own name
    # and on its own ledger.
    options: QueryOptions
    statement: SelectStatement
    has_subqueries: bool
    logical: PlanNode | None = None  # the reusable plan, if it holds one
    physical: PhysicalPlan | None = None
    catalog_version: int = -1
    # The ``(fragment, epoch)`` pairs the plan's zone maps ruled out: a
    # prune reads content, so a write to one of them re-prepares.
    pruned: tuple = ()
    # Content hash of the compiling tenant's governance policy (None for
    # ungoverned tenants); an edit makes its owner's next execution replan.
    policy_signature: str | None = None
    # Modeled time after which a cached/materialized access path in the
    # template would exceed ``options.max_staleness`` (None = no expiry).
    valid_until: float | None = None
    # Host wall-clock spent in parse+rewrite+optimize at prepare time; the
    # per-statement planning cost that re-execution amortizes away.
    prepare_wall_seconds: float = 0.0
    # Modeled planning seconds charged when this template was built.
    optimization_seconds: float = 0.0
    executions: int = 0
    replans: int = 0


@dataclass
class QueryResult:
    """Rows plus full accounting for one execution, and what was executed."""

    table: Table
    report: ExecutionReport
    plan: PhysicalPlan
    # What ``rerun_physical`` re-executes: the options the execution ran
    # under (so a replan keeps its tenant), its template and bound values.
    options: QueryOptions
    prepared: PreparedStatement
    params: tuple


class FederatedEngine:
    """The content integrator's federated query processor."""

    def __init__(
        self,
        catalog: FederationCatalog,
        optimizer=None,
        cache: "SemanticCache | None" = None,
        failover: bool = True,
        artifacts=None,
        reopt: bool = False,
        governance=None,
    ) -> None:
        self.catalog = catalog
        self.optimizer = optimizer or AgoricOptimizer(catalog)
        # Per-tenant governance (a GovernanceRegistry from
        # repro.federation.governance, or None): RLS predicates and column
        # masks compile into every plan built for a governed tenant, and
        # budgets cap agoric bids.  A policy naming a table or column the
        # catalog lacks would never apply, so it is refused here.
        if governance is not None:
            errors = governance.validate_against_catalog(catalog)
            if errors:
                raise PolicyError(
                    "governance manifest does not match the catalog: "
                    + "; ".join(errors)
                )
        self.governance = governance
        # Adaptive mid-query re-optimization (DESIGN §5i); off keeps every
        # plan frozen at dispatch.
        self.reopt = reopt
        self.health = SiteHealthTracker(catalog.clock)
        self.metrics = MetricsRegistry()
        # What record_report_metrics feeds on every statement.
        self._counters = Held(self.metrics.counter)
        self._histograms = Held(self.metrics.histogram)
        self.cache = cache
        # The content-hashed stage artifact store (an ArtifactStore from
        # repro.federation.artifacts, or None to disable stage reuse).
        self.artifacts = artifacts
        # One seam answers "which access paths can serve this scan" for
        # the optimizer (cache regions and artifacts bid, flaky sites carry
        # a risk penalty), the executor's failover and the re-opt
        # controller alike.
        self.paths = AccessPaths(catalog, cache, artifacts, self.health)
        self.optimizer.paths = self.paths
        # Scan-level failover; off, the first dead site fails the statement.
        self.executor = Executor(self.paths, failover)
        for store in (cache, artifacts):
            if store is None:
                continue
            if store.metrics is None:
                store.metrics = self.metrics
            # Base-table updates invalidate the table's cached regions and
            # stage artifacts: a staleness bound alone would still serve
            # pre-write rows.
            self.catalog.on_table_updated(store.invalidate_table)
        if governance is not None and governance.metrics is None:
            governance.metrics = self.metrics
        self.synonyms: SynonymExpander | None = None
        self.taxonomy_expander: TaxonomyExpander | None = None

    # -- SQL --------------------------------------------------------------------

    def query(
        self,
        sql: str,
        max_staleness: float | None = None,
        coordinator: str | None = None,
        advance_clock: bool = True,
        budget: float | None = None,
        degraded_ok: bool = False,
        tenant: str | None = None,
        options: QueryOptions | None = None,
    ) -> QueryResult:
        """Answer one SQL query: a one-shot template, planned by -- and its
        modeled planning seconds charged to -- this execution.

        The keywords are the statement's :class:`QueryOptions`, built here
        once and handed on by reference; a caller that already holds one
        (the workload manager's handles do) passes ``options`` instead.

        ``max_staleness``: ``None`` accepts any materialized copy, a number
        bounds acceptable staleness in seconds, :data:`LIVE_ONLY` forces
        fetch-on-demand.  ``budget`` caps the total price paid for the plan;
        an unaffordable market raises
        :class:`~repro.federation.agoric.BudgetExceededError`, and an
        optimizer that does not price plans (centralized, policy) raises
        :class:`~repro.core.errors.QueryError`.

        ``degraded_ok=True`` accepts a *partial* answer when content is
        unreachable even after failover: the result carries
        ``report.completeness`` (reachable rows / total rows) and
        ``report.unreachable_fragments`` instead of raising.  Without the
        flag an unreachable fragment raises a structured
        :class:`~repro.core.errors.PartialFailureError` naming the dead
        sites and fragments.

        ``tenant`` names who is asking.  With a governance registry
        attached, the tenant's RLS predicates and column masks compile into
        the plan during rewrite, its remaining cost budget caps the agoric
        bid and its ledger is debited the plan's price; without one (or for
        an ungoverned tenant) the plan is unchanged.
        """
        if options is None:
            options = QueryOptions(
                max_staleness=max_staleness,
                coordinator=coordinator,
                tenant=tenant,
                budget=budget,
                degraded_ok=degraded_ok,
                advance_clock=advance_clock,
            )
        return self._run_statement(
            self._template(sql, self._parse(sql), options), (), options
        )

    # -- the statement lifecycle (DESIGN §5g) -------------------------------------

    def _parse(self, sql: str) -> SelectStatement:
        """Parse ``sql`` and resolve its every name against the catalog:
        a statement naming a column no binding holds, or one two bindings
        hold bare, is refused here, before any plan or site work."""
        return resolve(parse_sql(sql), self.catalog.binding_fields)

    def _template(
        self,
        sql: str,
        statement: SelectStatement,
        options: QueryOptions,
        plan: bool = False,
    ) -> PreparedStatement:
        """Step 1: ``statement``'s template, stamped; with ``plan``, holding
        a reusable plan if the statement can have one."""
        prepared = PreparedStatement(
            sql=sql,
            param_count=statement.parameter_count,
            options=options,
            statement=statement,
            has_subqueries=statement.has_subqueries,
        )
        self._compile(prepared, options, plan and not prepared.has_subqueries)
        return prepared

    def _signature(self, tenant: str | None) -> str | None:
        if self.governance is None:
            return None
        return self.governance.signature_for(tenant)

    def _compile(
        self, prepared: PreparedStatement, options: QueryOptions, plan: bool
    ) -> None:
        """(Re)build the template's plan, if it is to hold one, then stamp
        what it was compiled against; a plan that cannot be bought leaves
        the template as it was."""
        if plan:
            logical, physical = self._plan(prepared.statement, options)
            prepared.logical = logical
            prepared.physical = physical
            prepared.optimization_seconds = physical.optimization_seconds
            prepared.valid_until = self._prepared_validity(physical, options)
            prepared.pruned = self._pruned(physical)
        prepared.catalog_version = self.catalog.version
        prepared.policy_signature = self._signature(options.tenant)

    def _run_statement(
        self,
        prepared: PreparedStatement,
        values: tuple,
        options: QueryOptions,
        paid: bool = False,
        replay: PhysicalPlan | None = None,
    ) -> QueryResult:
        """Steps 2-5, the one body every execution runs: *validate* the
        template for ``options.tenant``, *bind* ``values`` (planning where
        the template holds no valid plan), *run*, *settle*.  ``paid``: an
        earlier execution of this admitted statement was debited for it
        (:meth:`rerun_physical`); ``replay``: its plan, to re-run as it is.
        """
        # 2. validate: may this tenant run the template?  (Whether its plan
        # is still an answer is asked below, of templates that hold one.)
        foreign = prepared.policy_signature != self._signature(options.tenant)
        if foreign and options.tenant != prepared.options.tenant:
            raise QueryError(
                f"prepared statement was planned for tenant "
                f"{prepared.options.tenant!r} under a different governance "
                f"policy; prepare it for tenant {options.tenant!r}"
            )
        # 3. bind.
        inner_reports: list[ExecutionReport] = []
        if replay is not None:
            plan = replay.logical
            physical = replay.replay(plan, replay.params)
        elif prepared.logical is None:
            # No plan to reuse: this execution buys one, and is charged its
            # modeled planning seconds.  Uncorrelated IN-subqueries run
            # first (semijoin by materialization: the inner membership set
            # is fetched, then shipped into the outer query's filter).
            statement = prepared.statement
            if values:
                statement = bind_statement(statement, values)
            if prepared.has_subqueries:
                inner_options = replace(options, budget=None)

                def answer(subquery: SelectStatement) -> Table:
                    inner = self._run_statement(
                        self._template(prepared.sql, subquery, inner_options),
                        (),
                        inner_options,
                        paid,
                    )
                    inner_reports.append(inner.report)
                    return inner.table

                statement = replace(
                    statement,
                    where=self._rewrite_subqueries(statement.where, answer),
                    having=self._rewrite_subqueries(statement.having, answer),
                )
            options = self._bidding(options)
            plan, physical = self._plan(statement, options)
        else:
            if (
                foreign
                or prepared.catalog_version != self.catalog.version
                or any(f.epoch != epoch for f, epoch in prepared.pruned)
                or (
                    prepared.valid_until is not None
                    and self.catalog.clock.now() > prepared.valid_until
                )
            ):
                # A stale plan is rebought in place and amortized like the
                # first: the execution that tripped it pays no planning.
                self._compile(prepared, self._bidding(options), plan=True)
                prepared.replans += 1
                self.metrics.counter("prepared.replans").inc()
            plan = bind_plan(prepared.logical, values)
            physical = prepared.physical.replay(plan, values)
        # 4. run.
        table, report = self._run_physical(plan, physical, options)
        # 5. settle.  A degraded inner answer must not read as a complete
        # outer one.
        for inner in inner_reports:
            report.degraded = report.degraded or inner.degraded
            report.completeness = min(report.completeness, inner.completeness)
            report.unreachable_fragments.extend(
                name
                for name in inner.unreachable_fragments
                if name not in report.unreachable_fragments
            )
            report.dead_sites = sorted({*report.dead_sites, *inner.dead_sites})
        # Budgets are priced in the plan's own currency: the tenant that
        # asked is debited what the optimizer agreed to pay, once.
        if self.governance is not None and not paid:
            self.governance.charge(options.tenant, physical.total_price)
        return QueryResult(table, report, physical, options, prepared, values)

    def _bidding(self, options: QueryOptions) -> QueryOptions:
        """``options`` as an execution that *plans* bids under them: the
        tenant's remaining budget caps the bid on top of any caller-supplied
        cap.  Only a pricing optimizer can exceed it; the others rely on
        admission-time budget gates instead."""
        if options.budget is not None and not self.optimizer.prices_plans:
            raise QueryError(
                f"optimizer {self.optimizer.name!r} does not price plans, so "
                "budget= cannot be honored (use the agoric optimizer)"
            )
        if self.governance is not None:
            cap = self.governance.effective_budget(options.tenant, options.budget)
            if cap != options.budget:
                options = replace(options, budget=cap)
        return options

    def _plan(
        self, statement: SelectStatement, options: QueryOptions
    ) -> tuple[PlanNode, PhysicalPlan]:
        """Build, rewrite and optimize one resolved, subquery-free statement:
        its optimizer compiles the stage keys (with a store) before it bids,
        a template's once, each ``?`` a slot each execution fills."""
        plan = self._apply_rewrites(build_plan(statement), statement, options)
        physical = self.optimizer.optimize(
            plan, options.coordinator, options.max_staleness, options.budget
        )
        return plan, physical

    def _run_physical(
        self, plan: PlanNode, physical: PhysicalPlan, options: QueryOptions
    ) -> tuple[Table, ExecutionReport]:
        """Step 4: execute an optimized plan and do its accounting.

        ``physical.optimization_seconds`` is whatever planning this
        *particular* execution should be charged: the full modeled planning
        cost when the execution planned, zero for a template's replayed
        plan (that is the speedup being bought).
        """
        start = self.catalog.clock.now()
        controller = None
        if self.reopt:
            controller = ReoptController(self.optimizer, self.paths, options)
        try:
            table, report = self.executor.execute(physical, options, controller)
        except (PartialFailureError, SourceUnavailableError):
            self.metrics.counter("queries.partial_failures").inc()
            raise
        # Only *modeled* optimization seconds reach the simulated response
        # time (DESIGN §7 determinism); the host's real planning time stays
        # on the plan (``planner_wall_seconds``).
        report.response_seconds += physical.optimization_seconds
        # Pruning is counted over fragment plans, not a priced copy's label.
        placed = [a for a in physical.assignments.values() if a.kind == "fragments"]
        report.fragments_pruned = sum(a.pruned_fragments for a in placed)
        report.fragments_total = sum(a.total_fragments for a in placed)
        if self.governance is not None and options.tenant is not None:
            if any(scan.governance is not None for scan in scans_in(plan)):
                report.governed_tenant = options.tenant

        if options.advance_clock:
            target = start + report.response_seconds
            if target > self.catalog.clock.now():
                self.catalog.clock.advance_to(target)
        # Register captured stage outputs as *in-flight* artifacts.  The
        # stage becomes joinable immediately, but only commits to the store
        # once the producing query's modeled completion passes -- under the
        # workload manager's frozen-clock dispatch that is the window a
        # concurrent identical stage subscribes in.
        if self.artifacts is not None and options.reuse_artifacts:
            completes_at = start + report.response_seconds
            for artifact in report.stage_outputs:
                if self.artifacts.begin_stage(artifact, completes_at):
                    report.artifact_published_keys.append(artifact.key)
        # Store *after* the response clock has advanced: entries are stamped
        # with the fetch timestamp captured at scan time, so staleness is
        # measured from when the rows were read, never from "now".
        if self.cache is not None:
            self._store_in_cache(plan, report)

        self.record_report_metrics(report)
        return table, report

    # -- prepared statements -----------------------------------------------------

    def prepare(
        self,
        sql: str,
        max_staleness: float | None = None,
        coordinator: str | None = None,
        tenant: str | None = None,
    ) -> PreparedStatement:
        """Parse, rewrite and optimize ``sql`` once for repeated execution.

        ``?`` placeholders become :class:`~repro.sql.ast.Parameter` nodes
        that survive planning; :meth:`execute` binds values into a copy of
        the template.  ``max_staleness`` and ``coordinator`` are fixed at
        prepare time because they shape the plan (a plan reading a
        materialized view is only valid for queries that tolerate its
        staleness).  ``tenant`` names whose governance policy compiles into
        the template, which belongs to that policy *content*: any tenant
        with the same signature may execute it (and is billed), and a
        manifest edit replans on the tenant's next execution.  Preparing
        buys nothing, so no budget caps it.
        """
        wall_start = time.perf_counter()
        options = QueryOptions(
            max_staleness=max_staleness, coordinator=coordinator, tenant=tenant
        )
        prepared = self._template(sql, self._parse(sql), options, plan=True)
        prepared.prepare_wall_seconds = time.perf_counter() - wall_start
        self.metrics.counter("queries.prepared").inc()
        return prepared

    def _prepared_validity(
        self, physical: PhysicalPlan, options: QueryOptions
    ) -> float | None:
        """Modeled time at which the template's views go stale.

        A plan reads fragments, and names cache regions and artifacts that
        each execution resolves against its own ``max_staleness``, so none
        of those expire here (catalog version changes cover topology).  A
        view is planned by its freshness: under a numeric bound the plan
        stops being an answer the query would accept once the view's age
        exceeds it.
        """
        max_staleness = options.max_staleness
        if max_staleness is None or max_staleness < 0:
            return None
        bounds = [
            assignment.view.as_of + max_staleness
            for assignment in physical.assignments.values()
            if assignment.kind == "view" and assignment.view is not None
        ]
        return min(bounds) if bounds else None

    def _pruned(self, physical: PhysicalPlan) -> tuple:
        """The ``(fragment, epoch)`` pairs the plan's zone maps ruled out,
        a named copy's placement's among them."""
        stamp = []
        for placed in physical.assignments.values():
            if placed.pruned_fragments:
                kept = {c.fragment.fragment_id for c in placed.choices}
                kept |= {f.fragment_id for f in placed.unreachable}
                fragments = self.catalog.entry(placed.table_name).fragments
                stamp += [(f, f.epoch) for f in fragments if f.fragment_id not in kept]
        return tuple(stamp)

    def execute(
        self,
        prepared: PreparedStatement,
        params: "tuple | list" = (),
        advance_clock: bool = True,
        degraded_ok: bool = False,
        options: QueryOptions | None = None,
    ) -> QueryResult:
        """Run a prepared statement with ``params`` bound to its ``?`` slots.

        A template that holds a plan is revalidated, values are bound into
        a fresh copy of it, and execution pays **zero** modeled planning
        seconds -- plan once, bind many.  A stale one replans transparently
        (counted in ``prepared.replans`` and the ``prepared.replans``
        metric); one without (``IN (SELECT ...)``) plans per execution.

        The execution runs under ``prepared.options`` with the
        per-execution keywords rebound; ``options`` hands in that object
        ready-built (derive it from ``prepared.options`` -- staleness bound
        and coordinator are the template's; ``tenant`` is whoever asks, and
        must share the template's policy signature).
        """
        if options is None:
            options = replace(
                prepared.options,
                advance_clock=advance_clock,
                degraded_ok=degraded_ok,
            )
        values = check_parameters(prepared.param_count, params)
        prepared.executions += 1
        self.metrics.counter("queries.prepared_executions").inc()
        return self._run_statement(prepared, values, options)

    def rerun_physical(self, result: QueryResult, fresh: bool = False) -> QueryResult:
        """Re-execute an admitted statement against the *current* cluster:
        the one re-execution entry, and never a second debit of the
        tenant's budget.

        The workload manager calls this when a disturbance (site kill, load
        spike) lands on a running query's pending stages: the original
        physical plan re-runs under the options the result ran under (the
        manager's are frozen-clock), with zero additional planning charged,
        so the handle's completion can be rescheduled from whatever the
        federation looks like now.  Without a re-opt policy the frozen
        assignments stand and the execution pays failover backoff or
        congestion inflation; with one, the controller may migrate
        unstarted stages to healthier replicas.  Either way the answer is
        bit-identical to the original plan's (replicas hold the same
        fragment rows).  ``fresh=True`` is for a statement whose plan died
        with an in-flight stage producer it had joined: the whole lifecycle
        runs again with artifact reuse off.
        """
        options = result.options
        if fresh:
            options = replace(options, reuse_artifacts=False)
        return self._run_statement(
            result.prepared,
            result.params,
            options,
            paid=True,
            replay=None if fresh else result.plan,
        )

    def record_report_metrics(self, report: ExecutionReport) -> None:
        """Feed one execution report into the metrics registry.

        Public so harnesses that drive the optimizer/executor directly
        (e.g. the availability bench, which interleaves failures between
        planning and execution) surface the same counters as
        :meth:`query`.
        """
        counters, histograms = self._counters, self._histograms
        counters["queries"].inc()
        histograms["query.response_seconds"].observe(report.response_seconds)
        histograms["query.staleness_seconds"].observe(report.staleness_seconds)
        counters["rows.fetched"].inc(report.rows_fetched)
        counters["rows.shipped"].inc(report.rows_shipped)
        counters["bytes.shipped"].inc(report.bytes_shipped)
        if report.failover_attempts:
            counters["failover.attempts"].inc(report.failover_attempts)
        if report.failovers:
            counters["failover.successes"].inc(report.failovers)
        if report.retry_seconds:
            counters["failover.retry_seconds"].inc(report.retry_seconds)
        if report.degraded:
            counters["queries.degraded"].inc()
        if report.artifact_rows_saved:
            counters["artifacts.rows_saved"].inc(report.artifact_rows_saved)
        if report.artifact_bytes_saved:
            counters["artifacts.bytes_saved"].inc(report.artifact_bytes_saved)
        if report.reoptimizations:
            counters["reopt.attempts"].inc(report.reoptimizations)
        if report.migrated_stages:
            counters["reopt.migrations"].inc(report.migrated_stages)
        if report.reopt_wasted_seconds:
            counters["reopt.wasted_seconds"].inc(report.reopt_wasted_seconds)
        if report.governed_tenant is not None:
            counters["governance.queries_policed"].inc()
        if report.rows_filtered_by_rls:
            counters["governance.rows_filtered_by_rls"].inc(
                report.rows_filtered_by_rls
            )
        histograms["query.completeness"].observe(report.completeness)
        if report.fragments_total:
            counters["pruning.fragments_pruned"].inc(report.fragments_pruned)
            counters["pruning.fragments_total"].inc(report.fragments_total)
        if report.operators is not None:
            self._record_operator_metrics(report.operators)

    def _apply_rewrites(
        self, plan: PlanNode, statement: SelectStatement, options: QueryOptions
    ) -> PlanNode:
        """The standard rewrite pipeline, applied after pushdown in build_plan.

        Order matters: governance injects after the filter pass (so it can
        hoist user predicates off masked columns) but before projection
        pruning (whose column sets must include hoisted site filters); and
        aggregate splitting only fires once absorbed filters expose an
        aggregation sitting directly on its scan, or on a join it may go
        below.  The top-k mark reads the finished scans (a governed scan
        ranks its masked values, as they ship).
        """
        passes = [SiteFilterPushdown()]
        if self.governance is not None:
            governance_pass = self.governance.injection_pass(
                options.tenant, statement.scope
            )
            if governance_pass is not None:
                passes.append(governance_pass)
        passes += [
            ProjectionPruning(),
            AggregateSplitting(self.catalog.estimated_rows),
            TopKPushdown(),
        ]
        return RewritePipeline(passes).run(plan)

    def _record_operator_metrics(self, operators) -> None:
        """Feed the per-operator stats tree into the metrics registry."""
        counters = self._counters
        for stats in operators.walk():
            name = stats.name
            counters["operator", name, "rows_out"].inc(stats.rows_out)
            self._histograms["operator", name, "seconds"].observe(stats.seconds)
            if stats.batches:
                counters["operator", name, "batches_processed"].inc(stats.batches)
            if stats.encode_seconds:
                counters["operator", name, "encode_seconds"].inc(
                    stats.encode_seconds
                )
            if stats.decode_seconds:
                counters["operator", name, "decode_seconds"].inc(
                    stats.decode_seconds
                )

    def explain(
        self,
        sql: str,
        max_staleness: float | None = None,
        analyze: bool = False,
        tenant: str | None = None,
    ) -> str:
        """Render the physical plan for ``sql``.

        Without ``analyze`` the query is planned but not executed: the
        logical operator tree is shown with, for every scan, the access path
        the optimizer chose (fragments at which sites, a materialized view,
        or a cache region) and what was pushed down.  With ``analyze=True``
        the query **runs** (against a frozen clock) and every physical
        operator reports its placement site, rows in/out and seconds of
        modeled work.
        """
        options = QueryOptions(
            max_staleness=max_staleness, tenant=tenant, advance_clock=False
        )
        if analyze:
            return self.render_analyze(self.query(sql, options=options))

        plan, physical = self._plan(self._parse(sql), options)
        lines = [
            f"optimizer: {physical.optimizer}  "
            f"coordinator: {physical.coordinator}  "
            f"price: {physical.total_price:.4f}"
        ]
        lines.extend(self._explain_node(plan, physical, depth=0))
        return "\n".join(lines)

    def render_analyze(self, result: QueryResult) -> str:
        """Render an executed query's EXPLAIN ANALYZE accounting.

        Shared by :meth:`explain` (which runs the query itself) and
        :meth:`~repro.federation.workload.WorkloadManager.explain_analyze`
        (which runs it through the admission queue); a report stamped by the
        workload manager shows its tenant, scheduler and queue wait.
        """
        report = result.report
        lines = [
            f"optimizer: {result.plan.optimizer}  "
            f"coordinator: {result.plan.coordinator}  "
            f"price: {result.plan.total_price:.4f}",
            f"response: {report.response_seconds:.6f}s  "
            f"rows fetched: {report.rows_fetched}  "
            f"shipped: {report.rows_shipped}  "
            f"returned: {report.rows_returned}  "
            f"bytes shipped: {report.bytes_shipped}",
        ]
        if report.tenant is not None:
            lines.append(
                f"tenant: {report.tenant}  scheduler: {report.scheduler}  "
                f"queue wait: {report.queue_wait_seconds:.6f}s"
            )
        if report.artifact_hits or report.artifact_joins:
            lines.append(
                f"artifact reuse: hits {report.artifact_hits}  "
                f"joins {report.artifact_joins}  "
                f"rows saved {report.artifact_rows_saved}  "
                f"bytes saved {report.artifact_bytes_saved}"
            )
        if report.reoptimizations:
            lines.append(
                f"re-optimizations: {report.reoptimizations}  "
                f"migrated stages: {report.migrated_stages}  "
                f"wasted: {report.reopt_wasted_seconds:.6f}s"
            )
        if report.fragments_total:
            lines.append(
                f"pruned fragments {report.fragments_pruned}/"
                f"{report.fragments_total}"
            )
        if report.top_k_restart is not None:
            lines.append(report.top_k_restart)
        if report.operators is not None:
            lines.extend(report.operators.tree_lines())
        return "\n".join(lines)

    def _explain_node(self, node, physical: PhysicalPlan, depth: int) -> list[str]:
        pad = "  " * depth
        if isinstance(node, ScanNode):
            assignment = physical.assignments[node.binding]
            extras = describe_pushdown(node)
            if node.site_filters:
                rendered = ", ".join(render(c) for c in node.site_filters)
                extras += f" site-filter({rendered})"
            if node.needed_columns is not None:
                extras += f" columns({', '.join(sorted(node.needed_columns))})"
            extras += describe_governance(node)
            if node.top_k is not None:
                order = node.top_k.order
                extras += (
                    f" top-k({render(order.expr)}"
                    f"{' desc' if order.descending else ''}, "
                    f"{render(node.top_k.limit)})"
                )
            return [
                f"{pad}scan {node.table} as {node.binding}: "
                f"{describe_access_path(assignment)}{extras}"
            ]
        label = {
            FilterNode: "filter",
            JoinNode: "join",
            ProjectNode: "project",
            AggregateNode: "aggregate",
            SortNode: "sort",
            LimitNode: "limit",
        }.get(type(node), type(node).__name__)
        if isinstance(node, JoinNode):
            label = f"{node.join_type} join"
        if isinstance(node, AggregateNode) and node.split is not None:
            if node.split.pushed:
                keys = ", ".join(map(render, node.group_by))
                label = f"partial {label} by {keys} (at sites; states cross the join)"
            elif isinstance(node.child, ScanNode):
                label = f"{label} (partial at sites, final at coordinator)"
            else:
                label = f"{label} (final at coordinator, of the partial states below)"
        lines = [f"{pad}{label}"]
        for child in node.children():
            lines.extend(self._explain_node(child, physical, depth + 1))
        return lines

    def _rewrite_subqueries(self, expr, answer):
        """Replace ``IN (SELECT ...)`` with the materialized value list,
        NULLs included (one makes a ``NOT IN`` unknown where nothing matches).

        ``answer(subquery)`` runs an inner select as a one-shot template of
        its own under the outer statement's options -- the same tenant
        governs it (membership lists must not leak rows the policy hides)
        and is debited for it, and so do its staleness bound, pinned
        coordinator, degraded-answer policy, artifact reuse, deadline and
        clock mode.  Only ``budget`` is per *plan*: the caller's cap priced
        the outer plan, so an inner select gets ``None`` plus the tenant's
        governance cap.  Its report is kept for the outer one to fold in.
        """
        if expr is None:
            return None
        if isinstance(expr, InSubquery):
            table = answer(expr.subquery)
            if len(table.schema) != 1:
                raise QueryError(
                    "IN (SELECT ...) subquery must produce exactly one column, "
                    f"got {len(table.schema)}"
                )
            values = table.column(table.schema.field_names[0])
            items = tuple(map(Literal, values))
            operand = self._rewrite_subqueries(expr.operand, answer)
            return InList(operand, items, expr.negated)
        return rebuild(expr, self._rewrite_subqueries, answer)

    def _store_in_cache(self, plan, report) -> None:
        """Remember live fragment-scan results under their predicate region.

        Each capture carries its rows per fragment, tagged with the epochs
        read (a refresh's capture refills the stale parts of its region),
        the fetch timestamp (``as_of`` for staleness) and the site work the
        scan cost (the benefit a future hit saves).
        """
        for scan in scans_in(plan):
            capture = report.scan_tables.get(scan.binding)
            if capture is None:
                continue
            self.cache.store(
                scan.table,
                scan.pushdown,
                capture.parts,
                as_of=capture.fetched_at,
                fetch_seconds=capture.fetch_seconds,
            )

    # -- XML / XPath ---------------------------------------------------------------

    def xml_view(self, table_name: str, max_staleness: float | None = None) -> XmlElement:
        """The integrated content of one table as an XML document."""
        result = self.query(f"select * from {table_name}", max_staleness=max_staleness)
        root = XmlElement(table_name)
        for row in result.table.to_dicts():
            element = root.element("row")
            for name, value in row.items():
                child = element.element(name)
                if value is not None:
                    child.append(str(value))
        return root

    def xpath_query(
        self,
        table_name: str,
        path: str,
        max_staleness: float | None = None,
    ) -> "list[XmlElement] | list[str]":
        """Answer an XPath query over the table's XML view (§3.2 C6)."""
        return xpath(self.xml_view(table_name, max_staleness), path)

    def xquery(
        self,
        table_name: str,
        query: str,
        max_staleness: float | None = None,
    ) -> list[XmlElement]:
        """Answer a FLWOR query over the table's XML view -- the paper's
        "SQL and XQuery tomorrow" (§3.2 C6)."""
        return run_xquery(self.xml_view(table_name, max_staleness), query)

    # -- IR search --------------------------------------------------------------------

    def set_vocabulary(
        self,
        synonyms: SynonymExpander | None = None,
        taxonomy_expander: TaxonomyExpander | None = None,
    ) -> None:
        """Attach synonym and taxonomy expansion used by :meth:`search`."""
        self.synonyms = synonyms
        self.taxonomy_expander = taxonomy_expander

    def search(
        self,
        table_name: str,
        query_text: str,
        mode: SearchMode = SearchMode.FULL,
        limit: int = 10,
    ):
        """Ranked IR search over a table's registered text index."""
        entry = self.catalog.entry(table_name)
        if entry.text_index is None:
            raise QueryError(f"table {table_name!r} has no text index")
        search = CatalogSearch(
            entry.text_index,
            synonyms=self.synonyms,
            taxonomy_expander=self.taxonomy_expander,
        )
        return search.search(query_text, mode=mode, limit=limit)

    # -- materialized views -------------------------------------------------------------

    def create_materialized_view(
        self,
        name: str,
        base_table: str,
        site_name: str,
        refresh_interval: float | None = None,
    ) -> MaterializedView:
        """Register an engine-managed whole-table view and fill it once."""
        entry = self.catalog.entry(base_table)
        view = MaterializedView(
            name=name,
            base_table=base_table,
            schema=entry.schema,
            refresh_fn=None,
            site_name=site_name,
            refresh_interval=refresh_interval,
        )
        self.catalog.register_view(view)
        self.refresh_view(view)
        return view

    def refresh_view(self, view: MaterializedView) -> None:
        """Re-materialize a view from the live federation (bypassing views)."""
        result = self.query(
            f"select * from {view.base_table}", max_staleness=LIVE_ONLY
        )
        view.data = result.table
        view.as_of = self.catalog.clock.now()
        view.refresh_count += 1
        view.refresh_cost_seconds += result.report.response_seconds
        self.metrics.counter("view.refreshes").inc()
        self.metrics.counter("view.refresh_seconds").inc(result.report.response_seconds)

    def schedule_view_refresh(self, view: MaterializedView, loop: EventLoop) -> None:
        """Refresh ``view`` on its interval, driven by the event loop.

        A refresh that finds a base site down must not crash the event loop
        mid-simulation: the failure is counted on the view (and in metrics)
        and the next scheduled tick simply tries again -- the view serves
        its stale copy in the meantime, which is exactly its job.
        """
        if view.refresh_interval is None or view.refresh_interval <= 0:
            raise QueryError(f"view {view.name!r} has no positive refresh interval")

        def _refresh_or_skip() -> None:
            try:
                self.refresh_view(view)
            except (SourceUnavailableError, QueryError):
                view.refresh_failures += 1
                self.metrics.counter("view.refresh_failures").inc()

        loop.schedule_every(
            view.refresh_interval,
            _refresh_or_skip,
            name=f"refresh:{view.name}",
        )
