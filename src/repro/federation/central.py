"""The baseline: a centralized, compile-time, cost-based optimizer.

§3.2 C8: "we see no way for compile-time, centralized cost-based optimizers
to provide required scalability or adaptivity.  Hence, almost all of today's
commercial distributed and heterogeneous systems are unacceptable for
serious content integration."  To test that claim one must *build* such an
optimizer, so here it is, with the two properties the paper indicts:

* **Centralized statistics.**  It plans against a statistics snapshot
  (per-site load, liveness) collected from *every* site in the federation.
  Collection costs one round trip plus per-site processing, so optimizer
  latency grows linearly with federation size -- the scalability failure
  E3 measures.  Between refreshes the snapshot goes stale, so a burst of
  queries is routed by minutes-old load data -- the adaptivity failure E4
  measures.
* **Compile-time enumeration.**  Within a query it *jointly* enumerates
  fragment-to-site assignments (up to :data:`MAX_COMBINATIONS`) to minimize the
  estimated makespan under the snapshot, falling back to per-fragment
  greedy above the cap.  The enumeration is real work, measured and charged.

Given *fresh* statistics and an idle federation it produces excellent plans
-- the point is not that it is stupid, but that its information model does
not survive scale and volatility.
"""

from __future__ import annotations

import itertools
import time

from repro.federation.access import AccessPaths, FragmentSlot, place
from repro.federation.catalog import FederationCatalog
from repro.federation.physical import PhysicalPlan, ScanAssignment
from repro.sql.planner import PlanNode, ScanNode, scans_in

# Modeled statistics collection: one round trip plus per-site processing.
STATS_ROUND_TRIP_SECONDS = 0.02
PER_SITE_STAT_SECONDS = 0.001
# Modeled enumeration work per (combination x fragment) evaluated, and the
# joint-enumeration cap above which placement falls back to greedy.
PER_COMBINATION_SECONDS = 2e-6
MAX_COMBINATIONS = 4096

class CentralizedOptimizer:
    """Compile-time cost-based placement using a global statistics snapshot."""

    name = "centralized"
    prices_plans = False  # plans carry no market price, so no budget can bind

    def __init__(
        self,
        catalog: FederationCatalog,
        stats_refresh_interval: float = 300.0,
    ) -> None:
        self.catalog = catalog
        self.stats_refresh_interval = stats_refresh_interval
        # The engine assigns its own AccessPaths here so cache regions,
        # stage artifacts and site health inform placement.
        self.paths = AccessPaths(catalog)
        self._snapshot_loads: dict[str, float] = {}
        self._snapshot_congestion: dict[str, float] = {}
        self._snapshot_at = float("-inf")
        self.snapshots_taken = 0

    # -- statistics -----------------------------------------------------------

    def _refresh_stats(self) -> float:
        """Collect load statistics from every site; returns modeled seconds."""
        self._snapshot_loads = {
            name: site.backlog() for name, site in self.catalog.sites.items()
        }
        # Concurrency statistics age like load statistics: between refreshes
        # the optimizer plans against the congestion the federation had
        # minutes ago, while the agoric broker prices the congestion it has
        # *now* -- the adaptivity gap E4/E13 measure.
        self._snapshot_congestion = {
            name: site.congestion_factor()
            for name, site in self.catalog.sites.items()
        }
        self._snapshot_at = self.catalog.clock.now()
        self.snapshots_taken += 1
        return (
            STATS_ROUND_TRIP_SECONDS
            + len(self.catalog.sites) * PER_SITE_STAT_SECONDS
        )

    def _stats_cost_if_due(self) -> float:
        if self.catalog.clock.now() - self._snapshot_at >= self.stats_refresh_interval:
            return self._refresh_stats()
        return 0.0

    def snapshot_load(self, site_name: str) -> float:
        return self._snapshot_loads.get(site_name, 0.0)

    def snapshot_congestion(self, site_name: str) -> float:
        return self._snapshot_congestion.get(site_name, 1.0)

    # -- optimization ------------------------------------------------------------

    def optimize(
        self,
        plan: PlanNode,
        coordinator: str | None = None,
        max_staleness: float | None = None,
        budget: float | None = None,
    ) -> PhysicalPlan:
        """Place the plan under the snapshot.  ``budget`` is accepted for
        the optimizers' uniform signature and cannot bind: plans here carry
        no price (``total_price`` is 0.0)."""
        started = time.perf_counter()
        modeled = self._stats_cost_if_due()

        assignments: dict[str, ScanAssignment] = {}
        slots: list[FragmentSlot] = []
        owners: list[ScanAssignment] = []
        keys = self.paths.stage_keys(plan)
        for scan in scans_in(plan):
            # A whole answer that is already materialized -- the stage's
            # artifact, a covering cache region, a fresh view -- costs a
            # local pass with no remote queue: under any snapshot that is
            # the cheapest feasible plan, so the tightest one is taken
            # before placement is enumerated.  A named artifact or region
            # labels a greedy placement, made outside the enumeration and
            # charged nothing: what the stage runs should the copy be gone.
            offer = next(
                self.paths.offers(
                    scan,
                    keys.get(scan.binding),
                    max_staleness,
                    lambda: self._greedy_placement(scan)[0],
                ),
                None,
            )
            if offer is not None:
                assignments[scan.binding] = offer[0]
                continue
            assignment, scan_slots = self.paths.fragment_candidates(scan)
            assignments[scan.binding] = assignment
            slots += scan_slots
            owners += [assignment] * len(scan_slots)

        combinations = 1
        for slot in slots:
            combinations *= len(slot.replicas)
            if combinations > MAX_COMBINATIONS:
                break

        if slots and combinations <= MAX_COMBINATIONS:
            sites, evaluated = self._exhaustive(slots)
            modeled += evaluated * PER_COMBINATION_SECONDS * max(1, len(slots))
        else:
            sites, seconds = self._greedy(slots)
            modeled += seconds
        for assignment, slot, site_name in zip(owners, slots, sites):
            place(assignment, slot, site_name)

        # DESIGN §7: modeled seconds only on the simulated clock; real
        # planning CPU time is reported out-of-band as planner_wall_seconds.
        elapsed = time.perf_counter() - started
        return PhysicalPlan(
            logical=plan,
            assignments=assignments,
            coordinator=coordinator or self.paths.pick_coordinator(assignments),
            optimizer=self.name,
            optimization_seconds=modeled,
            planner_wall_seconds=elapsed,
            sites_contacted=len(self.catalog.sites),
            total_price=0.0,
            stage_keys=keys,
        )

    def requote_scan(self, scan: ScanNode) -> tuple[ScanAssignment, float, float]:
        """Re-price one scan's placement mid-query (DESIGN §5i).

        A centralized re-plan cannot trust the snapshot it planned with --
        the trigger that fired is exactly that snapshot going stale under
        the running plan -- so it pays for a fresh statistics collection
        round before re-placing.  This is the paper's scalability tax (E3)
        landing on the adaptivity path: the agoric re-quote prices one
        scan's replicas; the centralized one polls every site again.
        Returns ``(assignment, makespan, modeled_seconds)``.
        """
        modeled = self._refresh_stats()
        assignment, makespan, seconds = self._greedy_placement(scan)
        return assignment, makespan, modeled + seconds

    def _greedy_placement(self, scan: ScanNode) -> tuple[ScanAssignment, float, float]:
        """One scan placed by :meth:`_greedy` under the current snapshot:
        ``(assignment, makespan, modeled seconds)``."""
        assignment, slots = self.paths.fragment_candidates(scan)
        sites, seconds = self._greedy(slots)
        for slot, site_name in zip(slots, sites):
            place(assignment, slot, site_name)
        return assignment, self._estimate_makespan(slots, sites), seconds

    def _scan_seconds(self, slot: FragmentSlot, site_name: str) -> float:
        return self.catalog.site(site_name).quote_scan(
            slot.fragment.replicas[site_name], row_fraction=slot.selectivity
        ).seconds

    def _snapshot_seconds(self, slot: FragmentSlot, site_name: str) -> float:
        """Estimated scan seconds at ``site_name``: congestion from the
        (possibly stale) snapshot, never live, and a risk surcharge for a
        flaky site (the expected cost of a mid-scan failover)."""
        return (
            self._scan_seconds(slot, site_name)
            * self.snapshot_congestion(site_name)
            * self.paths.risk_multiplier(site_name)
        )

    def _transfer_seconds(self, slot: FragmentSlot) -> float:
        # Shipping the fragment's encoded bytes occupies the same pipeline:
        # a placement that balances CPU but funnels bytes through one site
        # is not free.  Replica-independent, like the byte estimate.
        return slot.est_bytes * self.catalog.network.seconds_per_byte

    def _estimate_makespan(self, slots, sites) -> float:
        """Estimated completion under the snapshot: max per-site finish time."""
        site_work: dict[str, float] = {}
        for slot, site_name in zip(slots, sites):
            seconds = self._snapshot_seconds(slot, site_name)
            seconds += self._transfer_seconds(slot)
            site_work[site_name] = site_work.get(site_name, 0.0) + seconds
        return max(
            (self.snapshot_load(name) + work for name, work in site_work.items()),
            default=0.0,
        )

    def _exhaustive(self, slots: list[FragmentSlot]) -> tuple[tuple[str, ...], int]:
        best: tuple[str, ...] | None = None
        best_cost = float("inf")
        evaluated = 0
        for choice in itertools.product(*(slot.replicas for slot in slots)):
            evaluated += 1
            cost = self._estimate_makespan(slots, choice)
            if cost < best_cost or (cost == best_cost and (best is None or choice < best)):
                best = choice
                best_cost = cost
        assert best is not None
        return best, evaluated

    def _greedy(self, slots: list[FragmentSlot]) -> tuple[list[str], float]:
        """Per-fragment least-snapshot-load choice (above the enumeration
        cap, and for re-quotes).  Returns ``(sites, modeled seconds)``."""
        planned_extra: dict[str, float] = {}
        chosen: list[str] = []
        for slot in slots:
            transfer = self._transfer_seconds(slot)

            def planned_cost(name: str) -> float:
                return (
                    self.snapshot_load(name)
                    + planned_extra.get(name, 0.0)
                    + self._snapshot_seconds(slot, name)
                    + transfer
                )

            winner = min(slot.replicas, key=lambda name: (planned_cost(name), name))
            planned_extra[winner] = (
                planned_extra.get(winner, 0.0)
                + self._scan_seconds(slot, winner)
                + transfer
            )
            chosen.append(winner)
        return chosen, sum(len(slot.replicas) for slot in slots) * 1e-5
