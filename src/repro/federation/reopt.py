"""Adaptive mid-query re-optimization (DESIGN.md §5i).

A plan chosen at dispatch is otherwise frozen while the federation changes
under it.  This module lets an in-flight query re-solicit bids (agoric) or
re-price placements (centralized/policy) for its *unstarted* stages when a
triggering signal fires:

* a :class:`SiteHealthTracker` circuit is open on a site holding pending
  work, or the site is down outright;
* a site's live ``congestion_factor()`` reaches :data:`CONGESTION_HIGH`
  (with :data:`CONGESTION_LOW` providing hysteresis so a site that fired
  must cool off below it before it can fire again);
* the workload-manager deadline projects an overrun from the remaining
  stage's live cost estimate.

The unit of migration is the stage (:mod:`repro.federation.stage`, the
same boundary the artifact store hashes): :class:`ReoptController.consider`
runs as the stage's run step begins, *after* its artifact probe and
*before* any site does scan work, so a migrated stage has not started
anywhere.  A re-solicitation first probes the :class:`ArtifactStore` for
a committed or in-flight twin (if one exists the stage needs no sites at
all), then asks the session optimizer to re-quote the residual placement
at live prices.  The
migration only happens when the fresh placement covers every fragment the
original covered and beats the original's *live re-priced* cost by at
least :data:`MIN_IMPROVEMENT` — otherwise the original assignment stands, the
modeled re-solicitation seconds are booked as waste, and the answer stays
bit-identical to static execution by construction (replicas hold the same
fragment rows, so *which* replica scans them never changes the result).

Attempts are bounded by a per-query budget (:data:`MAX_ATTEMPTS`), each
stage is considered at most once per execution, the workload manager
re-plans one in-flight query at most :data:`MAX_REPLANS` times, and the
modeled seconds every re-solicitation costs (bid round trips for agoric, a
forced statistics refresh for the centralized baseline) are charged into
the query's response time — the economy pays for its own adaptivity.
``FederatedEngine(reopt=True)`` turns the machinery on; the tuning above
is fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import QueryError, SourceUnavailableError
from repro.federation.health import CircuitState
from repro.federation.stats import fragment_selectivity

__all__ = ["ReoptEvent", "ReoptController"]

# Per-query re-solicitation budget: how many stages one execution may
# re-quote; once spent, the remaining triggers are ignored.
MAX_ATTEMPTS = 3
# Congestion watermarks on ``Site.congestion_factor()``: a site fires at
# the high one and cannot fire again (within one execution) until it drops
# below the low one.
CONGESTION_HIGH = 3.0
CONGESTION_LOW = 1.5
# Thrash damping: a fresh placement must beat the original's live
# re-priced cost by this fraction, or the original stands.
MIN_IMPROVEMENT = 0.1
# How many times the workload manager re-plans one in-flight query after
# cluster disturbances (site kill / load spike wakeups).
MAX_REPLANS = 2


@dataclass(frozen=True)
class ReoptEvent:
    """One re-solicitation attempt for one stage, migrated or not."""

    binding: str
    reason: str  # "site-down:s1" | "circuit-open:s1" | "congestion:s1" | "deadline"
    migrated: bool
    from_sites: tuple[str, ...]
    to_sites: tuple[str, ...]
    modeled_seconds: float  # what the re-quote itself cost
    old_price: float  # live re-priced cost of the original placement
    new_price: float  # live cost of the fresh placement (inf if infeasible)

    def describe(self) -> str:
        if self.migrated:
            return (
                f"reopt {self.reason}: migrated "
                f"{','.join(self.from_sites)}→{','.join(self.to_sites)}"
            )
        return f"reopt {self.reason}: kept original assignment"


class ReoptController:
    """Per-execution re-optimization state: triggers, budget, hysteresis.

    Created by the engine for each execution when it was built with
    ``reopt=True``, threaded through :class:`ExecContext`, and consulted by
    every stage (:mod:`repro.federation.stage`) just before it runs.
    """

    def __init__(self, optimizer, paths, options) -> None:
        self.optimizer = optimizer
        # The engine's AccessPaths: catalog, health memory, artifact store.
        self.paths = paths
        self.catalog = paths.catalog
        self.health = paths.health
        # The statement's QueryOptions: the deadline trigger projects
        # against ``deadline_at``, the twin probe honors ``max_staleness``.
        self.options = options
        self.attempts = 0
        self.migrations = 0
        self.wasted_seconds = 0.0  # re-quotes that did not migrate
        self.modeled_seconds = 0.0  # all re-quote time, charged to response
        self.events: list[ReoptEvent] = []
        self._hot_sites: set[str] = set()  # congestion hysteresis state
        self._considered: set[str] = set()  # one attempt per stage

    # -- the stage's run hook ----------------------------------------------

    def consider(self, ctx, stage):
        """Re-evaluate one unstarted stage that is about to run its
        fragment placement -- never a served view or copy, which has no
        sites to migrate: on migrate the plan gets the fresh placement and
        the stage runs it (a refresh: over its stale fragments alone),
        returned; else None.  Every path that does not migrate leaves
        ``ctx.plan.assignments`` untouched, so static execution semantics
        (and bit-identical answers) are the fallback.
        """
        scan = stage.scan
        assignment = stage.assignment
        if not assignment.choices or scan.binding in self._considered:
            return None
        reason, bad_site = self._trigger(ctx, scan, assignment)
        if reason is None:
            return None
        if bad_site is not None and not self._can_move_off(
            assignment, bad_site
        ):
            # Every fragment on the degraded site is pinned there (no other
            # live, allowed replica): a re-solicitation provably cannot
            # migrate anything, so don't pay the market round trip for it.
            return None
        if self.attempts >= MAX_ATTEMPTS:
            return None  # budget exhausted: the trigger is ignored
        self._considered.add(scan.binding)
        self.attempts += 1
        from_sites = tuple(sorted({c.site_name for c in assignment.choices}))
        # Migration probe: a committed or in-flight twin makes the whole
        # solicitation moot — the stage needs no sites.  (On the normal
        # path the stage's artifact probe already ran and missed, so this
        # only fires for executions that disabled artifact *reuse*.)
        if self._artifact_twin(ctx, stage):
            self._record(
                scan.binding, f"{reason}+artifact-twin", False,
                from_sites, from_sites, 0.0, 0.0, 0.0,
            )
            return None
        quote = self._requote(scan)
        if quote is None:
            self._record(
                scan.binding, reason, False, from_sites, from_sites,
                0.0, float("inf"), float("inf"),
            )
            return None
        fresh, modeled = quote
        # A refresh re-runs its stale fragments alone: a migration moves
        # them, never the rest of the table back in.
        run = fresh if stage.rerun is None else fresh.narrowed(stage.rerun)
        self.modeled_seconds += modeled
        risk = self.paths.risk_multiplier
        old_price = self._live_makespan(scan, assignment, risk)
        new_price = self._live_makespan(scan, run, risk)
        to_sites = tuple(sorted({c.site_name for c in run.choices}))
        if not self._migratable(assignment, run, old_price, new_price):
            self.wasted_seconds += modeled
            self._record(
                scan.binding, reason, False, from_sites, to_sites,
                modeled, old_price, new_price,
            )
            return None
        ctx.plan.assignments[scan.binding] = fresh
        self.migrations += 1
        self._record(
            scan.binding, reason, True, from_sites, to_sites,
            modeled, old_price, new_price,
        )
        return run

    def describe(self, binding: str) -> str | None:
        """EXPLAIN ANALYZE detail for a stage's last re-opt event."""
        for event in reversed(self.events):
            if event.binding == binding:
                return event.describe()
        return None

    # -- triggers ----------------------------------------------------------

    def _trigger(self, ctx, scan, assignment) -> tuple[str | None, str | None]:
        """Returns ``(reason, degraded_site)``; the site is None for the
        deadline trigger (no single site is to blame for an overrun)."""
        for choice in assignment.choices:
            name = choice.site_name
            site = self.catalog.site(name)
            if not site.up:
                return f"site-down:{name}", name
            if (
                self.health is not None
                and self.health.state(name) is CircuitState.OPEN
            ):
                return f"circuit-open:{name}", name
            factor = site.congestion_factor()
            if name in self._hot_sites:
                if factor < CONGESTION_LOW:
                    self._hot_sites.discard(name)  # cooled off: re-arm
                continue  # hysteresis: holds until below the low watermark
            if factor >= CONGESTION_HIGH:
                self._hot_sites.add(name)
                return f"congestion:{name}", name
        if self.options.deadline_at is not None:
            remaining = self._live_makespan(scan, assignment)
            projected = self.catalog.clock.now() + ctx.scan_elapsed + remaining
            if projected > self.options.deadline_at:
                return "deadline", None
        return None, None

    def _can_move_off(self, assignment, bad_site: str) -> bool:
        """Does any fragment placed on ``bad_site`` have somewhere to go?"""
        paths = self.paths
        return any(
            name != bad_site
            for choice in assignment.choices
            if choice.site_name == bad_site
            for name in paths.without_open_breakers(
                paths.live_replicas(choice.fragment)
            )
        )

    def _live_makespan(self, scan, assignment, site_weight=None) -> float:
        """Live makespan of a fragment placement: the longest per-site
        chain of queue delay plus congestion-inflated work.

        Unweighted it is the deadline trigger's estimate of the stage's
        remaining seconds.  Weighted by health risk it is the cost both
        the incumbent and the candidate placement are compared on, so the
        improvement test compares like with like regardless of which
        optimizer produced the placement.  Makespan (not a price *sum*) is
        the right objective: the stage holds its execution slot until its
        slowest site finishes, so a placement that looks cheaper in total
        spend but stretches the critical path would occupy the federation
        longer and delay every queued query behind it.  Shipping cost is
        replica-independent (same fragment bytes either way) and cancels,
        so it is left out of both sides.
        """
        per_site: dict[str, float] = {}
        for choice in assignment.choices:
            name = choice.site_name
            site = self.catalog.site(name)
            if not site.up:
                return float("inf")
            selectivity = fragment_selectivity(choice.fragment, scan.pushdown)
            try:
                quote = site.quote_scan(
                    choice.fragment.replicas[name], row_fraction=selectivity
                )
            except (KeyError, SourceUnavailableError):
                return float("inf")
            work = quote.seconds * quote.congestion
            if site_weight is not None:
                work *= site_weight(name)
            per_site[name] = per_site.get(name, quote.queue_delay) + work
        return max(per_site.values(), default=0.0)

    # -- re-solicitation ---------------------------------------------------

    def _artifact_twin(self, ctx, stage) -> bool:
        artifacts = self.paths.artifacts
        if artifacts is None or self.options.reuse_artifacts:
            return False  # reuse on: the stage's own artifact probe governs
        key = stage.digest(ctx)  # the key its plan compiled, filled
        return key is not None and artifacts.has_twin(
            key, self.options.max_staleness
        )

    def _requote(self, scan):
        try:
            fresh, _price, modeled = self.optimizer.requote_scan(scan)
        except QueryError:
            return None
        if not fresh.choices:
            return None
        return fresh, modeled

    def _migratable(self, old, fresh, old_price: float, new_price: float) -> bool:
        old_map = {c.fragment.fragment_id: c.site_name for c in old.choices}
        new_map = {c.fragment.fragment_id: c.site_name for c in fresh.choices}
        if not set(new_map) >= set(old_map):
            return False  # the fresh placement lost coverage: never migrate
        if new_map == old_map:
            return False  # same placement: nothing to do
        if new_price >= old_price:
            return False
        if old_price == float("inf"):
            return True  # incumbent infeasible (dead site): any cover wins
        return new_price < old_price * (1.0 - MIN_IMPROVEMENT)

    def _record(
        self,
        binding: str,
        reason: str,
        migrated: bool,
        from_sites: tuple[str, ...],
        to_sites: tuple[str, ...],
        modeled: float,
        old_price: float,
        new_price: float,
    ) -> None:
        self.events.append(
            ReoptEvent(
                binding=binding,
                reason=reason,
                migrated=migrated,
                from_sites=from_sites,
                to_sites=to_sites,
                modeled_seconds=modeled,
                old_price=old_price,
                new_price=new_price,
            )
        )
