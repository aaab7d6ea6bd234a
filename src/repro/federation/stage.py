"""A stage's one lifecycle: probe → serve whole | narrow → run → capture →
release (DESIGN §5h "Stage lifecycle").

A *stage* is one scan -- with its split aggregate when the partial
aggregate runs at the sites -- from the fragments to the coordinator: the
site pipeline and the ``Ship`` over it.  Every reuse decision for it is
made by the one :class:`Stage` the planner hands both operators:

* **probe** (``Ship.open``): a plan-embedded artifact, a store hit, a join
  onto an identical in-flight stage, or an artifact current in parts;
* **serve whole** the artifact, a planned view or cache region, or the
  covering fallback's copy -- or **narrow** to the stale fragments, whose
  output :meth:`Stage.spliced` serves beside the current parts;
* **run** (``SiteScan``, inside ``SiteOperator.open``): re-optimization may
  migrate the unstarted placement, each fragment scan fails over, and what
  stays unreachable degrades the answer or fails it;
* **capture**: a complete run -- no fragment lost, no fallback copy -- hands
  the report its rows per fragment (the semantic cache's ``ScanCapture``)
  and, from the ``Ship``, its output per fragment (the store's ``Artifact``);
* **release** (``Ship.close``): an attempt a top-k restart superseded takes
  its captures back, and the per-execution state is dropped.

A narrowing lives on the stage alone: the plan's assignments are written
only by the optimizers and ``ReoptController.consider``.
"""

from __future__ import annotations

from repro.connect.source import apply_predicates
from repro.core.errors import PartialFailureError, QueryError, SourceUnavailableError
from repro.core.records import Table
from repro.federation import columnar, physical
from repro.federation.artifacts import (
    Artifact,
    StageSpec,
    groups_payload,
    rows_payload,
    stage_fields,
)
from repro.federation.parts import Part, splice


class Stage:
    """One ``Ship``'s stage for one execution (the planner builds one per
    ``Ship`` it compiles, and the executor compiles per execution)."""

    def __init__(self, spec: StageSpec) -> None:
        self.spec = spec  # the content-hashable unit of artifact reuse
        self.scan = spec.scan
        # What this execution runs: planned, migrated, or narrowed to the
        # stale fragments (ids ``rerun``) of the artifact ``stale``.
        self.assignment = self.stale = self.rerun = None
        self.key = None  # the store's key for this stage, when reuse applies
        self.complete = True  # no fragment lost, no fallback copy served
        self.read = None  # fragment id -> rows read, kept for a capture
        self.artifact = None  # the output captured for the store
        self.rows_fetched = 0  # rows the stage's scan produced (the Ship counts)
        self.events: list[str] = []  # failover notes for EXPLAIN

    # -- probe: serve whole from an artifact, or narrow ---------------------

    def probe(self, ctx, stats):
        """Serve the stage from an artifact, whichever finder found it, or
        narrow this run to a part-current artifact's stale fragments; None
        when the pipeline runs.

        The optimizer embeds a committed artifact in the plan (an
        ``"artifact"`` assignment); like every decision a prepared plan
        carries it is re-checked here, and a stale or mismatched one raises
        rather than serve pre-write rows.  Otherwise a fragment scan probes
        the store: a committed-artifact hit (wait 0) or a join onto an
        identical in-flight stage (charged the remaining wait until the
        producer's modeled completion).  Either way the rows, staleness and
        saved work are booked, one coordinator pass is charged and one hit
        (or join) counted.
        """
        scan = self.scan
        self.assignment = assignment = ctx.plan.assignments.get(scan.binding)
        store = ctx.paths.artifacts
        if store is None:
            return None
        options = ctx.options
        planned = assignment is not None and assignment.kind == "artifact"
        if planned:
            artifact, wait, joined = assignment.artifact, 0.0, False
            if not artifact.current:
                raise QueryError(f"stale artifact plan for {scan.table!r}")
        else:
            # View/cache paths carry their own staleness semantics; the
            # stage hash only describes the base-table fragment scan.
            if (
                not options.reuse_artifacts
                or assignment is None
                or assignment.kind != "fragments"
            ):
                return None
            key = store.stage_key(ctx.catalog, self.spec)
            if key is None:
                return None
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
                return None
            artifact, wait, joined = hit
        age = ctx.catalog.clock.now() - artifact.fetched_at
        max_staleness = options.max_staleness
        if planned and max_staleness is not None and (
            max_staleness < 0 or age > max_staleness
        ):
            raise QueryError(
                f"artifact for {scan.table!r} too stale "
                f"({age:.1f}s > {max_staleness:.1f}s)"
            )
        rows = self._served(artifact)
        if rows is None:
            # Payload-kind or call mismatch under an identical digest (a
            # hash-collision guard): never serve garbage -- a planned
            # artifact raises, a probe hit recomputes.
            if planned:
                raise QueryError(f"artifact payload mismatch for {scan.binding!r}")
            self.key = None
            return None
        ctx.scan_total_rows += len(rows)
        _note_cuts(ctx, artifact.parts)
        self._stamp(ctx, age)
        ctx.report.artifact_rows_saved += artifact.rows_saved
        ctx.report.artifact_bytes_saved += artifact.bytes_saved
        serve = ctx.charge_coordinator(len(rows))
        ctx.scan_elapsed = max(ctx.scan_elapsed, wait)
        key = artifact.key
        if joined:
            ctx.report.artifact_joins += 1
            ctx.report.artifact_join_keys.append(key)
        else:
            if planned:  # the probe's acquire booked its own hit
                store.book_hit(artifact)
            ctx.report.artifact_hits += 1
        stats.rows_in = len(rows)
        stats.seconds = serve
        label = "joined in-flight stage" if joined else "artifact hit"
        stats.detail = f"{label} {key[:8]} (age {age:.1f}s, wait {wait:.2f}s)"
        return rows

    def _served(self, artifact):
        """The artifact's payload as this stage reads it (group records or
        one column batch), None on a mismatch."""
        if self.spec.agg is not None:
            calls = self.spec.agg.split.calls
            return artifact.serve_groups(self.scan.binding, calls)
        return artifact.serve_rows(self.scan.binding)

    @staticmethod
    def _stamp(ctx, age: float) -> None:
        """A served copy's age, as the answer's staleness."""
        ctx.report.staleness_seconds = max(ctx.report.staleness_seconds, age)

    def spliced(self, ctx, slots: list, stats) -> "tuple[list, str]":
        """A narrowed run's output slots with the refreshed artifact's
        current parts served beside them, in fragment order, and the EXPLAIN
        note.  The parts are one coordinator pass, charged once, and report
        the oldest part's age as staleness.  A run that fell back to a copy
        of the whole scan (a view, a cache region) is answered by that copy
        alone: serving parts beside it would repeat their rows."""
        artifact, rerun = self.stale, self.rerun
        entry = ctx.catalog.entry(self.scan.table)

        def note(served: int) -> str:
            ids = [f.fragment_id for f in entry.fragments if f.fragment_id in rerun]
            return (
                f"artifact refresh {artifact.key[:8]}: {served}/"
                f"{len(artifact.parts)} parts served, re-ran {', '.join(ids)}"
            )

        if any(read is None for read, _ in slots):
            return slots, note(0)
        served = self._served(artifact)
        if served is None:
            raise QueryError(f"artifact payload mismatch for {self.scan.binding!r}")
        if isinstance(served, columnar.ColumnBatch):
            def cut(start, stop):
                return [served.slice(start, stop)] if stop > start else []
        else:
            def cut(start, stop):
                return physical.row_form_batches(served[start:stop])
        read = {fragment.fragment_id: out for fragment, out in slots}
        spliced = splice(entry.fragments, read, artifact.parts, cut)
        parts = [part for part, _ in spliced if isinstance(part, Part)]
        _note_cuts(ctx, parts)
        count = sum(part.size for part in parts)
        whole = ctx.plan.assignments[self.scan.binding]  # never narrowed
        placed = {c.fragment.fragment_id for c in whole.choices}
        placed |= {f.fragment_id for f in whole.unreachable}
        ctx.scan_total_rows += sum(
            p.fragment.estimated_rows for p in parts if p.fragment.fragment_id in placed
        )
        self._stamp(ctx, ctx.catalog.clock.now() - min(p.fetched_at for p in parts))
        stats.rows_in += count
        stats.seconds += ctx.charge_coordinator(count)
        return spliced, note(len(parts))

    # -- run: placement, failover, degrade-or-fail -------------------------

    def run(self, ctx, stats) -> "list[tuple[str, Table, float, object]]":
        """The stage's input as ``[(site, rows, elapsed seconds, fragment
        read or None for a copy)]``: its placement's fragments scanned with
        failover, or a planned or fallback copy served whole; the site work
        is charged to ``stats``."""
        if ctx.reopt is not None:  # unstarted: migrating it wastes nothing
            migrated = ctx.reopt.consider(ctx, self)
            if migrated is not None:
                self.assignment = migrated
        assignment = self.assignment
        if assignment is None:
            raise QueryError(f"no assignment for scan {self.scan.binding!r}")
        predicates = self.scan.pushdown
        now = ctx.catalog.clock.now()
        if assignment.kind == "fragments":
            batches = self._fragment_batches(ctx, assignment, predicates, stats)
        elif assignment.kind in ("view", "cache"):
            batches = self._planned_copy(ctx, assignment, predicates, stats)
        else:
            raise QueryError(f"unknown scan kind {assignment.kind!r}")
        cache = ctx.paths.cache
        if not self.complete or assignment.kind != "fragments":
            return batches
        if cache is not None or self.key is not None:
            self.read = {f.fragment_id: table for _, table, _, f in batches}
        # The cache learns the predicate region from the rows before
        # governance (each consumer re-applies its own); not from a text-
        # filtered scan (the pushdown key does not say what it answered), nor
        # a truncated one (a miss re-runs it as the ordinary plan).
        if (
            cache is not None
            and self.scan.text_filter is None
            and physical.top_k_bound(self.scan) is None
        ):
            entry = ctx.catalog.entry(assignment.table_name)
            empty = Table(entry.schema, [])
            parts = [
                (f, f.epoch, empty if self._pruned(f) else self.read.get(f.fragment_id))
                for f in entry.fragments
            ]
            capture = physical.ScanCapture(parts, now, stats.seconds)
            ctx.report.scan_tables[assignment.binding] = capture
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
        ctx.scan_total_rows += sum(c.fragment.estimated_rows for c in choices)
        ctx.scan_total_rows += sum(f.estimated_rows for f in lost)
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
                ctx.report.failovers += 1
                self.events.append(
                    f"failover → view {copy.view.name}@{copy.view.site_name}"
                    if copy.kind == "view"
                    else "failover → cache region"
                )
                return self._serve_copy(ctx, copy, predicates, stats)
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
        retry = ctx.retry
        candidates = [choice.site_name]
        backoff_delay = 0.0
        for index, site_name in enumerate(candidates):
            if index > 0:
                # A failover attempt: bounded by the per-query budget and
                # charged a backoff pause that escalates per attempt.
                if ctx.retries_used >= retry.budget:
                    break
                pause = retry.backoff_seconds(index - 1)
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
                if not retry.enabled:
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
        """Last resort for dead fragments: the copy that answers the
        *whole* scan -- a live whole-table materialized view, else a cache
        region covering the pushdown -- as the assignment a planned copy
        would carry; the caller serves it like one.  The answer is complete
        but possibly stale (within the query's own ``max_staleness`` bound
        -- a LIVE_ONLY query gets no fallback), and never re-cached."""
        max_staleness = ctx.options.max_staleness
        binding, table_name = assignment.binding, assignment.table_name
        view = ctx.paths.live_view(table_name, max_staleness)
        if view is not None:
            return physical.ScanAssignment(binding, table_name, "view", view=view)
        if ctx.paths.cache is not None:
            found = ctx.paths.cache.lookup_entry(
                table_name, list(predicates), max_staleness
            )
            if found is not None:
                table, age = found
                return physical.ScanAssignment(
                    binding, table_name, "cache",
                    cached_table=table, cached_staleness=age,
                )
        return None

    def _planned_copy(self, ctx, assignment, predicates, stats) -> list:
        """A view or cache scan the optimizer chose: its rows are the scan's
        input, and a view whose one host is down -- there is no replica to
        fail over to -- registers the whole scan unreachable under the
        query's degraded-answer policy."""
        view = assignment.view
        rows = view.data if view is not None else assignment.cached_table
        if rows is None:
            raise QueryError(
                f"{assignment.kind} scan for {assignment.table_name!r} has no rows"
            )
        ctx.scan_total_rows += len(rows)
        if view is not None and not ctx.catalog.site(view.site_name).up:
            self.complete = False
            lost = [(f"view:{view.name}", len(rows), [view.site_name])]
            _register_unreachable(ctx, lost)
            return []
        return self._serve_copy(ctx, assignment, predicates, stats)

    def _serve_copy(self, ctx, copy, predicates, stats) -> list:
        """Serve a materialized copy, planned or found by the covering
        fallback: a view at its host with the pushdown applied, or a cache
        region (its rows already reduced to the pushdown) at the
        coordinator.  One pass is charged where the copy lives and the
        copy's age is stamped on the report."""
        view = copy.view
        if view is not None:
            site, table = view.site_name, apply_predicates(view.data, predicates)
            age = view.staleness(ctx.catalog.clock.now())
            view.rows_served += len(table)
        else:
            site, table, age = ctx.coordinator, copy.cached_table, copy.cached_staleness
        work = ctx.charge_site(site, len(table))
        stats.seconds += work
        self._stamp(ctx, age)
        return [(site, table, work, None)]

    # -- capture and release -------------------------------------------------

    def _pruned(self, fragment) -> bool:
        """A fragment the run did not read and no stored part answers for:
        its zone map proved it empty (a refresh reads only stale ones)."""
        fragment_id = fragment.fragment_id
        return fragment_id not in self.read and (
            self.rerun is None or fragment_id in self.rerun
        )

    def capture(self, ctx, slots, batches, shipped_bytes, arrival, cuts) -> None:
        """A complete run's output as an artifact for the store, one part
        per fragment in output order: ``slots`` pairs what each slice of
        ``batches`` came from -- the fragment read, or a served part -- with
        the slice, ``cuts`` holds the boundary of each fragment read that a
        ``SiteTopK`` cut, and a pruned fragment is an empty part.  The
        engine registers a successful report's outputs in flight; a failed
        execution drops them unseen."""
        if self.key is None or self.read is None:
            return  # no reuse, or the output is stale or incomplete
        scan, agg = self.scan, self.spec.agg
        entry = ctx.catalog.entry(scan.table)
        try:
            if agg is not None:
                records = [r for batch in batches for r in batch.columns[0]]
                payload = groups_payload(records, scan.binding, agg.split.calls)
            else:
                fields = stage_fields(entry.schema, scan)
                payload = rows_payload(batches, scan.binding, fields)
        except KeyError:
            return  # rows missing expected columns: not canonically capturable
        now = ctx.catalog.clock.now()
        parts = [
            read if isinstance(read, Part) else Part(
                read, read.epoch, sum(b.count for b in out), now, cuts.get(read.fragment_id)
            )
            for read, out in slots
        ]
        parts += [Part(f, f.epoch, 0, now) for f in entry.fragments if self._pruned(f)]
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
        ctx.report.stage_outputs.append(self.artifact)

    def release(self, ctx) -> None:
        """End the stage's execution.  A top-k attempt the plan re-ran takes
        its captures back out of the report -- the stores learn only from
        the attempt that answered -- and the per-execution state is
        dropped."""
        if ctx.superseded:
            report, artifact = ctx.report, self.artifact
            report.scan_tables.pop(self.scan.binding, None)
            report.stage_outputs = [a for a in report.stage_outputs if a is not artifact]
        self.read = self.stale = self.artifact = None


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


def _note_cuts(ctx, parts) -> None:
    """Hand the coordinator the top-k boundaries of the parts served."""
    ctx.top_k_cuts += [
        (part.fragment.fragment_id, part.cut[0]) for part in parts if part.cut
    ]
