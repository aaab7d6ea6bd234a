"""The distributed executor: drives a statement's stages and operator tree.

The optimizers produce a :class:`PhysicalPlan` (logical tree + per-scan
access path); :class:`~repro.federation.physical.PhysicalPlanner` compiles
it into site-side operators (:mod:`repro.federation.site_ops`), an
explicit Ship per stage and coordinator operators
(:mod:`repro.federation.coordinator_ops`), and each scan's reuse
decisions are its stage's (:mod:`repro.federation.stage`).  The
:class:`Executor` here starts every stage, opens the root, drains it into
the result table, and settles the timing model:

* site-side batches run **in parallel** across their sites -- the scan
  phase costs the *slowest* pipeline, not the sum;
* every second of work lands on some site's backlog, so concurrent
  queries interfere realistically -- which makes load balancing measurable;
* response time is slowest-scan-pipeline plus serial coordinator work;
* a top-k stage (``SiteTopK``) whose answer the coordinator ``Sort`` cannot
  show exact starts again, untruncated, under the ordinary plan after it;
  every other stage's output is kept, and the attempt's work and response
  time stay charged (:class:`TopKRestart`).

The report records response time, per-site work, rows fetched vs rows
actually shipped across the network, worst-case access-path staleness, and
a per-operator stats tree (rows in/out, seconds, placement) that the engine
renders as ``EXPLAIN ANALYZE``.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.records import Table
from repro.federation.access import AccessPaths
from repro.federation.coordinator_ops import TopKRestart
from repro.federation.physical import (
    ExecContext,
    PhysicalPlan,
    PhysicalPlanner,
    QueryOptions,
    envs_to_table,
)
from repro.federation.report import ExecutionReport
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
        ctx = ExecContext(self.paths, plan, report, options, reopt, self.failover)
        root, stages = self.planner.compile(plan)
        while True:
            batches = []
            try:
                for stage in stages:
                    if stage.output is None:  # not kept across a restart
                        stage.start(ctx)
                root.open(ctx)
                while (batch := root.next()) is not None:
                    batches.append(batch)
            except TopKRestart as miss:
                # The truncated attempt did its work: settle and charge it,
                # then run the ordinary plan after it.  Every finished stage
                # but the truncated one keeps its output and its captures.
                root.close()
                report.response_seconds = ctx.scan_elapsed + ctx.coordinator_seconds
                ctx.scan_elapsed = ctx.coordinator_seconds = 0.0
                ctx.top_k_cuts = []
                report.top_k_restart = str(miss)
                done = {
                    stage.scan.binding: stage
                    for stage in stages
                    if stage.output is not None and stage.scan.top_k is None
                }
                ctx.captured = [s for s in ctx.captured if s.scan.binding in done]
                # The unmarked stages are other stages: each compiles its key.
                unmarked = without_top_k(plan.logical)
                ctx.plan = plan = replace(plan, logical=unmarked, stage_keys={})
                root, stages = self.planner.compile(plan)
                for stage in stages:
                    if stage.scan.binding in done:
                        stage.keep(done[stage.scan.binding])
                continue
            except BaseException:
                root.close(settle=False)
                raise
            root.close()
            break

        report.response_seconds += ctx.scan_elapsed + ctx.coordinator_seconds
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
        for stage in ctx.captured:  # the stages that answered, in that order
            if stage.scan_capture is not None:
                report.scan_tables[stage.scan.binding] = stage.scan_capture
            if stage.artifact is not None:
                report.stage_outputs.append(stage.artifact)
        report.operators = root.stats_tree()
        report.unreachable_fragments = list(ctx.unreachable_fragments)
        report.dead_sites = sorted(ctx.dead_sites)
        if ctx.unreachable_rows > 0:
            report.degraded = True
            total = sum(stage.total_rows for stage in stages)
            lost = ctx.unreachable_rows
            report.completeness = (total - lost) / total if total else 0.0
        return table, report
