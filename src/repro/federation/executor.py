"""The distributed executor: drives a compiled physical operator tree.

The execution machinery itself lives in :mod:`repro.federation.physical`:
the optimizers produce a :class:`PhysicalPlan` (logical tree + per-scan
access path), :class:`~repro.federation.physical.PhysicalPlanner` compiles
it into site-side operators (SiteScan, SiteFilter, SiteProject, SiteTopK,
PartialAggregate) that work on column batches where the rows live, an
explicit Ship over the network model, and coordinator operators (joins,
residual filters, final aggregation, sort, limit) that hand column
batches upward; each scan's reuse decisions are its stage's
(:mod:`repro.federation.stage`).  There is one engine: the row-at-a-time
site operators it replaced survive only as the test oracle
``tests/reference_site.py``.
The :class:`Executor` here opens the root, drains it into the result
table, and settles the timing model:

* site-side batches run **in parallel** across their sites -- the scan
  phase costs the *slowest* pipeline, not the sum;
* every second of work lands on some site's backlog, so concurrent
  queries interfere realistically -- which makes load balancing measurable;
* response time is slowest-scan-pipeline plus serial coordinator work;
* a top-k stage (``SiteTopK``) whose answer the coordinator ``Sort`` cannot
  show exact is re-run as the ordinary plan, after it: the attempt's work
  and response time stay charged (:class:`TopKRestart`).

The report records response time, per-site work, rows fetched vs rows
actually shipped across the network, worst-case access-path staleness, and
a per-operator stats tree (rows in/out, seconds, placement) that the engine
renders as ``EXPLAIN ANALYZE``.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.records import Table
from repro.federation.access import AccessPaths
from repro.federation.physical import (
    ExecContext,
    ExecutionReport,
    PhysicalPlan,
    PhysicalPlanner,
    QueryOptions,
    TopKRestart,
    envs_to_table,
)
from repro.sql.rewrite import without_top_k


class Executor:
    """Runs physical plans against the catalog's sites.

    ``paths`` is the engine's :class:`~repro.federation.access.AccessPaths`
    (catalog, health memory that receives every scan outcome, and the
    cache / artifact store consulted at execution time); ``failover=False``
    makes the first failed scan fail the statement instead of re-routing it.
    """

    def __init__(self, paths: AccessPaths, failover: bool) -> None:
        self.paths = paths
        self.planner = PhysicalPlanner(paths.catalog)
        self.failover = failover

    def execute(
        self,
        plan: PhysicalPlan,
        options: QueryOptions = QueryOptions(),
        reopt=None,
    ) -> tuple[Table, ExecutionReport]:
        report = ExecutionReport()
        restarted = 0.0  # response seconds of a top-k attempt that missed
        while True:
            # Recompile every time: assignments may have changed since the
            # optimizer attached a tree (cache swap), and operators hold
            # per-execution state.
            root = self.planner.compile(plan)
            ctx = ExecContext(
                self.paths, plan, report, options, reopt, self.failover
            )
            batches = []
            try:
                root.open(ctx)
                while (batch := root.next()) is not None:
                    batches.append(batch)
            except TopKRestart as miss:
                # The truncated attempt did its work: settle and charge it,
                # then run the ordinary plan after it, into the same report.
                # Its stages take back what they captured for the stores.
                ctx.superseded = True
                root.close()
                restarted = ctx.scan_elapsed + ctx.coordinator_seconds
                report.top_k_restart = str(miss)
                plan = replace(plan, logical=without_top_k(plan.logical))
                continue
            except BaseException:
                # A failed statement settles nothing but must not keep its
                # batches alive through the (possibly cached) plan's tree.
                root.close(settle=False)
                raise
            root.close()
            break

        report.response_seconds = (
            restarted + ctx.scan_elapsed + ctx.coordinator_seconds
        )
        if reopt is not None:
            # Every re-quote costs modeled time whether or not it migrated
            # -- the economy pays for its own adaptivity.
            report.response_seconds += reopt.modeled_seconds
            report.reoptimizations = reopt.attempts
            report.migrated_stages = reopt.migrations
            report.reopt_wasted_seconds = reopt.wasted_seconds
            report.reopt_events = list(reopt.events)
        table = envs_to_table(root, batches)
        report.rows_returned = len(table.rows)
        report.operators = root.stats_tree()
        report.unreachable_fragments = list(ctx.unreachable_fragments)
        report.dead_sites = sorted(ctx.dead_sites)
        if ctx.unreachable_rows > 0:
            report.degraded = True
            if ctx.scan_total_rows > 0:
                report.completeness = (
                    ctx.scan_total_rows - ctx.unreachable_rows
                ) / ctx.scan_total_rows
            else:
                report.completeness = 0.0
        return table, report
