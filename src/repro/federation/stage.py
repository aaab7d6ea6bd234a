"""A stage's one lifecycle: start (probe → serve whole | narrow → run) →
ship → capture (DESIGN §5h "Stage lifecycle").

A *stage* is one scan -- with its split aggregate when the partial
aggregate runs at the sites -- from the fragments to the coordinator: the
site pipeline and the ``Ship`` over it.  Every reuse decision for it is
made by the one :class:`Stage` the planner hands both operators and the
executor, which starts each stage of a statement, in compile order, before
the coordinator tree opens:

* **probe**: find the copy the plan priced -- a plan's cache region or
  artifact is a label on its fragment placement, naming the copy by key or
  by stage and holding none of its rows: a region is asked of the cache
  once; otherwise a store hit, a join onto an identical in-flight stage,
  or an artifact current in parts;
* **serve whole** the artifact, a planned view, a found region or the
  covering fallback's copy -- or **narrow** to the stale fragments;
* **run** (``SiteScan``, inside ``SiteOperator.open``): a copy not served
  runs the assignment's own placement -- re-optimization may migrate it
  while unstarted, each fragment scan fails over, and what stays
  unreachable degrades the answer or fails it;
* **capture**, as the ``Ship`` hands the shipped batches back: a narrowed
  run's are spliced with the current parts, and a complete run -- no
  fragment lost, no fallback copy -- keeps its rows per fragment for the
  semantic cache (``ScanCapture``) and its output per fragment for the
  store (``Artifact``).

A top-k restart starts the truncated stage alone again: every other
finished stage serves its output to the recompiled ``Ship``
(:meth:`Stage.keep`).  A narrowing lives on the stage alone: the plan's
assignments are written only by the optimizers and
``ReoptController.consider``.
"""

from __future__ import annotations

from repro.connect.source import apply_predicates
from repro.core.errors import PartialFailureError, QueryError, SourceUnavailableError
from repro.core.records import Table
from repro.federation import physical, report
from repro.federation.artifacts import (
    Artifact,
    StageSpec,
    compile_stage_key,
    groups_payload,
    rows_payload,
    stage_fields,
)
from repro.federation.parts import Part, splice

# Scan-level failover: one execution may spend this many re-routes after a
# failed or dead primary, and re-route ``i`` (0-based) pauses
# ``min(BACKOFF_CAP_SECONDS, BACKOFF_BASE_SECONDS * BACKOFF_MULTIPLIER ** i)``
# modeled seconds, charged to the scan pipeline's elapsed time.
RETRY_BUDGET = 8
BACKOFF_BASE_SECONDS = 0.02
BACKOFF_MULTIPLIER = 2.0
BACKOFF_CAP_SECONDS = 1.0


class Stage:
    """One ``Ship``'s stage for one execution, built by the planner with the
    ``Ship``, which hands it the site pipeline and the stats it books to."""

    def __init__(self, spec: StageSpec) -> None:
        self.spec = spec  # the content-hashable unit of artifact reuse
        self.scan = spec.scan
        self.pipeline = self.stats = None  # set by the Ship over this stage
        # What this execution runs: planned, migrated, or narrowed to the
        # stale fragments (ids ``rerun``) of the artifact ``stale``.
        self.assignment = self.stale = self.rerun = None
        self.key = None  # the store's key for this stage, when reuse applies
        self.region = None  # a priced cache region's (rows, age), once found
        self.complete = True  # no fragment lost, no fallback copy served
        self.total_rows = 0  # estimated input rows, for the answer's completeness
        # Fragment id -> rows read, with the site work it cost, for a capture.
        self.read, self.fetch_seconds = None, 0.0
        self.rows_fetched = 0  # rows the stage's scan produced
        # What it hands on: the coordinator's batches, once known, and what
        # a capture keeps for the semantic cache and for the store.
        self.output = self.scan_capture = self.artifact = None
        self.events: list[str] = []  # failover notes for EXPLAIN

    def start(self, ctx) -> None:
        """Probe; then the stage is served whole, or its site pipeline
        runs (narrowed, when an artifact is current in parts)."""
        self.probe(ctx)
        if self.output is None:
            before = ctx.report.rows_fetched
            self.pipeline.open(ctx)
            self.rows_fetched = ctx.report.rows_fetched - before

    def keep(self, done: "Stage") -> None:
        """Serve what ``done`` -- this stage in the attempt a top-k restart
        cut short -- handed the coordinator, booked there once."""
        self.output, self.total_rows = done.output, done.total_rows
        self.stats.rows_in = sum(batch.count for batch in done.output)
        self.stats.detail = "kept from the attempt before the top-k restart"

    # -- probe: serve whole from an artifact, or narrow ---------------------

    def probe(self, ctx) -> None:
        """Find the copy the plan priced.  A scan priced at a cache region
        asks the cache once (one hit or miss booked), and a region found is
        served when the stage runs.  Any other fragment scan probes the
        store: a committed-artifact hit (wait 0) or a join onto an identical
        in-flight stage (charged the wait until the producer's modeled
        completion) is the stage's ``output`` -- its rows, staleness and
        saved work booked, one coordinator pass charged, one hit (or join)
        counted -- and an artifact current in parts narrows the run."""
        scan, options = self.scan, ctx.options
        self.assignment = assignment = ctx.plan.assignments.get(scan.binding)
        if assignment is not None and assignment.kind == "cache":
            found = ctx.paths.cache.lookup_entry(
                assignment.table_name,
                scan.pushdown,
                options.max_staleness,
                region=assignment.cached_region,
            )
            if found is None:
                self.events.append("cache region gone → placement")
            else:
                rows, age, served = found
                self.region = (rows, age)
                if served != assignment.cached_region:
                    region = report.describe_region(served)
                    self.events.append(f"served by cache region {region}")
        store = ctx.paths.artifacts
        # A view or a region carries its own staleness semantics; the stage
        # hash only describes the base-table fragment scan.
        if (
            store is None
            or not options.reuse_artifacts
            or assignment is None
            or assignment.kind == "view"
            or self.region is not None
        ):
            return
        key = self.digest(ctx)
        if key is None:
            return
        self.key = key  # the capture target if we miss
        hit = store.acquire(key, options.max_staleness)
        if hit is None:
            stale = store.refreshable(key, options.max_staleness)
            if stale is not None:
                self.stale = stale
                self.rerun = frozenset(
                    p.fragment.fragment_id for p in stale.parts if not p.current
                )
                self.assignment = assignment.narrowed(self.rerun)
            return
        artifact, wait, joined = hit
        served = self._served(artifact)
        if served is None:
            # Payload-kind or call mismatch under an identical digest (a
            # hash-collision guard): never serve garbage -- recompute.
            self.key = None
            return
        age = ctx.catalog.clock.now() - artifact.fetched_at
        self.total_rows += served.count
        # The top-k boundaries of the parts served, for the coordinator.
        ctx.top_k_cuts += [
            (part.fragment.fragment_id, part.cut[0])
            for part in artifact.parts
            if part.cut
        ]
        self._stamp(ctx, age)
        ctx.report.artifact_rows_saved += artifact.rows_saved
        ctx.report.artifact_bytes_saved += artifact.bytes_saved
        serve = ctx.charge_coordinator(served.count)
        ctx.scan_elapsed = max(ctx.scan_elapsed, wait)
        key = artifact.key
        if joined:
            ctx.report.artifact_joins += 1
            ctx.report.artifact_join_keys.append(key)
        else:
            ctx.report.artifact_hits += 1
        self.stats.rows_in = served.count
        self.stats.seconds = serve
        label = "joined in-flight stage" if joined else "artifact hit"
        self.stats.detail = f"{label} {key[:8]} (age {age:.1f}s, wait {wait:.2f}s)"
        self.output = [served]

    def digest(self, ctx) -> str | None:
        """The store's key for this execution of the stage: the key its
        plan compiled, filled with the plan's bound values -- or compiled
        here from the stage's own spec, when the plan holds none or the
        catalog has moved since (None: the stage is not artifact-eligible)."""
        compiled = ctx.plan.stage_keys.get(self.scan.binding)
        values = ctx.plan.params
        if compiled is None or compiled.version != ctx.catalog.version:
            compiled, values = compile_stage_key(ctx.catalog, self.spec), ()
        return ctx.paths.artifacts.stage_key(compiled, values)

    def _served(self, artifact):
        """The artifact's payload as this stage reads it, one column batch
        (of rows, or of groups), None on a mismatch."""
        if self.spec.agg is not None:
            return artifact.serve_groups(self.scan.binding, self.spec.agg)
        return artifact.serve_rows(self.scan.binding)

    @staticmethod
    def _stamp(ctx, age: float) -> None:
        """A served copy's age, as the answer's staleness."""
        ctx.report.staleness_seconds = max(ctx.report.staleness_seconds, age)

    def spliced(self, ctx, slots: list) -> list:
        """A narrowed run's output slots with the refreshed artifact's
        current parts served beside them, in fragment order, noted on the
        Ship's EXPLAIN line: each run of neighbouring current parts is one
        slice of the served batch (:func:`~repro.federation.parts.splice`),
        so what a refresh adds is a batch per run, not per part.  The parts
        are one coordinator pass, charged once, and report the oldest
        part's age as staleness.  One pass over the splice reads what the
        kept parts hold -- their rows, estimated rows, oldest fetch and
        top-k cuts.  A run that fell back to a copy of the whole scan (a
        view, a cache region) is answered by that copy alone: parts beside
        it would repeat rows."""
        artifact, entry = self.stale, ctx.catalog.entry(self.scan.table)
        kept = 0
        if all(read is not None for read, _ in slots):
            served = self._served(artifact)
            if served is None:
                raise QueryError(f"artifact payload mismatch for {self.scan.binding!r}")

            def cut(start, stop):
                return [served.slice(start, stop)] if stop > start else []

            read = {fragment.fragment_id: out for fragment, out in slots}
            slots = splice(entry.fragments, read, artifact.parts, cut)
            whole = ctx.plan.assignments[self.scan.binding]  # never narrowed
            placed = {c.fragment.fragment_id for c in whole.choices}
            placed |= {f.fragment_id for f in whole.unreachable}
            count = estimated = 0
            oldest = float("inf")
            for part, _ in slots:
                if not isinstance(part, Part):
                    continue  # read again
                kept += 1
                count += part.size
                fragment_id = part.fragment.fragment_id
                if fragment_id in placed:
                    estimated += part.fragment.estimated_rows
                if part.fetched_at < oldest:
                    oldest = part.fetched_at
                if part.cut:
                    ctx.top_k_cuts.append((fragment_id, part.cut[0]))
            self.total_rows += estimated
            self._stamp(ctx, ctx.catalog.clock.now() - oldest)
            self.stats.rows_in += count
            self.stats.seconds += ctx.charge_coordinator(count)
        ids = [f.fragment_id for f in entry.fragments if f.fragment_id in self.rerun]
        self.stats.detail = (
            f"artifact refresh {artifact.key[:8]}: {kept}/{len(artifact.parts)}"
            f" parts served, re-ran {', '.join(ids)}; {self.stats.detail}"
        )
        return slots

    # -- run: placement, failover, degrade-or-fail -------------------------

    def run(self, ctx, stats) -> "list[tuple[str, Table, float, object]]":
        """The stage's input as ``[(site, rows, elapsed seconds, fragment
        read or None for a copy)]``: its placement's fragments scanned with
        failover, or a planned or fallback copy served whole; the site work
        is charged to ``stats``."""
        assignment = self.assignment
        if assignment is None:
            raise QueryError(f"no assignment for scan {self.scan.binding!r}")
        predicates = self.scan.pushdown
        if assignment.kind == "view" or self.region is not None:
            return self._planned_copy(ctx, assignment, predicates, stats)
        if ctx.reopt is not None:  # unstarted: migrating it wastes nothing
            migrated = ctx.reopt.consider(ctx, self)
            if migrated is not None:
                self.assignment = assignment = migrated
        batches = self._fragment_batches(ctx, assignment, predicates, stats)
        if self.complete and (ctx.paths.cache is not None or self.key is not None):
            # The rows before governance: each consumer re-applies its own.
            self.read = {f.fragment_id: table for _, table, _, f in batches}
            self.fetch_seconds = stats.seconds
        return batches

    def _fragment_batches(self, ctx, assignment, predicates, stats) -> list:
        choices, lost = list(assignment.choices), []  # lost: fragments
        # Fragments with no live replica at plan time are retried now -- the
        # site may have repaired between optimization and execution.
        for fragment in assignment.unreachable:
            preferred = self._preferred_replica(ctx, fragment)
            if preferred is None:
                lost.append(fragment)
            else:
                choices.append(physical.FragmentChoice(fragment, preferred))
        if not choices and not lost:
            total = assignment.total_fragments
            if self.rerun is not None or 0 < total <= assignment.pruned_fragments:
                # Every fragment (a refresh: every stale one) was eliminated
                # by its zone map: provably empty, no site does any work.
                return []
            raise QueryError(f"scan of {assignment.table_name!r} has no fragment choices")
        self.total_rows += sum(c.fragment.estimated_rows for c in choices)
        self.total_rows += sum(f.estimated_rows for f in lost)
        batches = []
        for choice in choices:
            outcome = self._scan_with_failover(ctx, choice, predicates)
            if outcome is None:
                lost.append(choice.fragment)
                continue
            result, work, delay, site_name = outcome
            ctx.report.site_work[site_name] = (
                ctx.report.site_work.get(site_name, 0.0) + work
            )
            stats.seconds += work
            batches.append((site_name, result.table, delay + work, choice.fragment))
        if lost:
            self.complete = False
            copy = self._covering_fallback(ctx, assignment, predicates)
            if copy is not None:
                view, region = copy
                ctx.report.failovers += 1
                self.events.append(
                    f"failover → view {view.name}@{view.site_name}"
                    if view is not None
                    else "failover → cache region"
                )
                return self._serve_copy(ctx, view, region, predicates, stats)
            _register_unreachable(ctx, [
                (f"{f.table_name}/{f.fragment_id}", f.estimated_rows, f.replica_sites())
                for f in lost
            ])
        return batches

    @staticmethod
    def _preferred_replica(ctx, fragment) -> str | None:
        """Best replica to (re)try for a fragment the planner gave up on."""
        replicas = fragment.replica_sites()
        if not replicas:
            return None
        candidates = ctx.paths.live_replicas(fragment) or replicas
        if ctx.health is not None:
            return ctx.health.prefer(candidates)[0]
        return candidates[0]

    def _scan_with_failover(self, ctx, choice, predicates):
        """Run one fragment scan, rerouting to live replicas if the chosen
        site died after optimization (§3.2 C8's robustness under "issues
        that lie outside the control of the query system").

        Each re-route charges a modeled exponential-backoff pause to the
        batch's pipeline time and spends one unit of the query's retry
        budget.  Returns ``(result, work, delay, site_name)``, or ``None``
        when every candidate failed (the fragment is unreachable); with
        failover disabled the primary is the only candidate and its
        :class:`SourceUnavailableError` propagates as it did before the
        failover layer existed.
        """
        fragment = choice.fragment
        candidates = [choice.site_name]
        backoff_delay = 0.0
        for index, site_name in enumerate(candidates):
            if index > 0:
                # A failover attempt: bounded by the per-query budget and
                # charged a backoff pause that escalates per attempt.
                if ctx.retries_used >= RETRY_BUDGET:
                    break
                pause = min(
                    BACKOFF_CAP_SECONDS,
                    BACKOFF_BASE_SECONDS * BACKOFF_MULTIPLIER ** (index - 1),
                )
                ctx.retries_used += 1
                backoff_delay += pause
                ctx.report.failover_attempts += 1
                ctx.report.retry_seconds += pause
            try:
                result, work, delay = ctx.catalog.site(site_name).execute_scan(
                    fragment.replicas[site_name], predicates
                )
            except SourceUnavailableError as error:
                if ctx.health is not None:
                    ctx.health.record_failure(site_name)
                if error.fragment is None:
                    error.fragment = f"{fragment.table_name}/{fragment.fragment_id}"
                if not ctx.failover:
                    raise
                if index == 0:
                    # The planned site failed: only now line up its
                    # siblings, best bet first; the loop walks on into them.
                    siblings = [
                        name for name in fragment.replica_sites() if name != site_name
                    ]
                    if ctx.health is not None:
                        siblings = ctx.health.prefer(siblings)
                    candidates += siblings
                continue
            if ctx.health is not None:
                ctx.health.record_success(site_name)
            if site_name != choice.site_name:
                ctx.report.failovers += 1
                self.events.append(
                    f"failover {choice.site_name}→{site_name}, "
                    f"+{backoff_delay:.2f}s retry"
                )
            return result, work, delay + backoff_delay, site_name
        # Unreachable: the pauses were still spent waiting -- they bound the
        # scan phase's elapsed time even though no batch carries them.
        ctx.scan_elapsed = max(ctx.scan_elapsed, backoff_delay)
        return None

    @staticmethod
    def _covering_fallback(ctx, assignment, predicates):
        """Last resort for dead fragments: the copy that answers the whole
        scan -- a live whole-table view, else a cache region covering the
        pushdown -- as ``(view, None)`` or ``(None, (rows, age))``, served
        like a planned one: complete, stale within the query's own
        ``max_staleness`` (LIVE_ONLY gets none), and never re-cached."""
        max_staleness = ctx.options.max_staleness
        view = ctx.paths.live_view(assignment.table_name, max_staleness)
        if view is not None:
            return view, None
        if ctx.paths.cache is not None:
            found = ctx.paths.cache.lookup_entry(
                assignment.table_name, list(predicates), max_staleness
            )
            if found is not None:
                return None, found[:2]
        return None

    def _planned_copy(self, ctx, assignment, predicates, stats) -> list:
        """A view the optimizer chose, or the cache region the probe found
        for a scan priced at one: its rows are the scan's input, and a view
        whose one host is down -- there is no replica to fail over to --
        registers the whole scan unreachable under the query's
        degraded-answer policy."""
        view = assignment.view
        rows = view.data if view is not None else self.region[0]
        if rows is None:
            raise QueryError(
                f"{assignment.kind} scan for {assignment.table_name!r} has no rows"
            )
        self.total_rows += len(rows)
        if view is not None and not ctx.catalog.site(view.site_name).up:
            self.complete = False
            lost = [(f"view:{view.name}", len(rows), [view.site_name])]
            _register_unreachable(ctx, lost)
            return []
        return self._serve_copy(ctx, view, self.region, predicates, stats)

    def _serve_copy(self, ctx, view, region, predicates, stats) -> list:
        """Serve a materialized copy, planned or found by the covering
        fallback: a view at its host with the pushdown applied, or a cache
        region's ``(rows, age)`` (its rows already reduced to the pushdown)
        at the coordinator.  One pass is charged where the copy lives and
        the copy's age is stamped on the report."""
        if view is not None:
            site, table = view.site_name, apply_predicates(view.data, predicates)
            age = view.staleness(ctx.catalog.clock.now())
            view.rows_served += len(table)
        else:
            site, (table, age) = ctx.coordinator, region
        work = ctx.charge_site(site, len(table))
        stats.seconds += work
        self._stamp(ctx, age)
        return [(site, table, work, None)]

    # -- capture ------------------------------------------------------------

    def _pruned(self, fragments) -> set:
        """The ids of the fragments the run did not read and no stored part
        answers for: their zone maps proved them empty (a refresh reads
        only stale ones)."""
        unread = self.rerun
        if unread is None:
            unread = [fragment.fragment_id for fragment in fragments]
        return {fragment_id for fragment_id in unread if fragment_id not in self.read}

    def capture(self, ctx, slots, batches, shipped_bytes, arrival, cuts) -> None:
        """Take the ``batches`` its ``Ship`` shipped as the stage's output
        (``slots`` pairs each slice with the fragment read, ``cuts`` the
        reads a ``SiteTopK`` cut with their boundaries): a narrowed run's
        spliced, then a complete run captured.  The semantic cache gets the
        rows read per fragment -- not of a truncated scan -- and the
        store the output, one part per fragment, a pruned one empty.  The
        executor reports the captures of the stages that answered."""
        if self.stale is not None:
            slots = self.spliced(ctx, slots)
            batches = [batch for _, out in slots for batch in out]
        self.output = batches
        ctx.captured.append(self)
        if self.read is None:
            return  # the output is stale or incomplete
        scan, agg = self.scan, self.spec.agg
        entry = ctx.catalog.entry(scan.table)
        pruned = self._pruned(entry.fragments)
        now = ctx.catalog.clock.now()
        if ctx.paths.cache is not None and physical.top_k_bound(scan) is None:
            rows = dict.fromkeys(pruned, Table(entry.schema, [])) | self.read
            self.scan_capture = report.ScanCapture(
                [(f, f.epoch, rows.get(f.fragment_id)) for f in entry.fragments],
                now,
                self.fetch_seconds,
            )
        if self.key is None:
            return  # no artifact reuse
        try:
            if agg is not None:
                payload = groups_payload(batches, scan.binding, agg)
            else:
                fields = stage_fields(entry.schema, scan)
                payload = rows_payload(batches, scan.binding, fields)
        except KeyError:
            return  # rows missing expected columns: not canonically capturable
        parts = [
            read if isinstance(read, Part) else Part(
                read, read.epoch, sum(b.count for b in out), now, cuts.get(read.fragment_id)
            )
            for read, out in slots
        ]
        parts += [Part(f, f.epoch, 0, now) for f in entry.fragments if f.fragment_id in pruned]
        old = self.stale  # a hit on a refresh avoids the whole stage, as it measured
        saved = (
            (self.rows_fetched, shipped_bytes, arrival)
            if old is None
            else (old.rows_saved, old.bytes_saved, old.fetch_seconds)
        )
        fetched_at = min(part.fetched_at for part in parts)
        self.artifact = Artifact(
            self.key, scan.table, payload, *saved, fetched_at, parts=tuple(parts)
        )


def _register_unreachable(ctx, lost) -> None:
    """Record what is lost -- ``(name, estimated rows, its sites)`` each --
    then the query's degraded-answer policy: carry on partial, or fail
    structurally."""
    for name, rows, sites in lost:
        if name not in ctx.unreachable_fragments:
            ctx.unreachable_fragments.append(name)
            ctx.unreachable_rows += rows
        ctx.dead_sites.update(s for s in sites if not ctx.catalog.site(s).up)
    if not ctx.options.degraded_ok:
        dead = sorted(ctx.dead_sites)
        raise PartialFailureError(ctx.unreachable_fragments, dead, retries_used=ctx.retries_used)
