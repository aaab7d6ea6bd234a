"""Replica-choice policies.

"Replication allows the load to be shifted arbitrarily across machines.  In
this case, a strategy for load balancing is required to keep all machines
equally busy" (§3.2 C8).  These policies decide which replica of a fragment
serves a scan.  The agoric optimizer effectively *is* a live least-cost
policy (prices embed load).  :class:`SnapshotLoadPolicy` chooses by load
statistics that go stale between refreshes, as the centralized baseline
plans (:class:`~repro.federation.central.CentralizedOptimizer` keeps its own
snapshot and uses none of these policies); E4's ablation runs each policy
under :class:`PolicyOptimizer` beside the agoric market.
"""

from __future__ import annotations

import abc
import random

from repro.core.errors import QueryError
from repro.federation.access import AccessPaths, place
from repro.federation.catalog import FederationCatalog, Fragment
from repro.federation.physical import PhysicalPlan
from repro.sql.planner import scans_in


class ReplicaPolicy(abc.ABC):
    """Chooses one live replica site for a fragment."""

    @abc.abstractmethod
    def choose(self, fragment: Fragment, catalog: FederationCatalog) -> str:
        """Return the chosen site name; raises QueryError if none are up."""

    @staticmethod
    def live_sites(fragment: Fragment, catalog: FederationCatalog) -> list[str]:
        sites = [
            name for name in fragment.replica_sites() if catalog.site(name).up
        ]
        if not sites:
            raise QueryError(
                f"no live replica of fragment {fragment.fragment_id!r} "
                f"of table {fragment.table_name!r}"
            )
        return sites


class RandomPolicy(ReplicaPolicy):
    """Uniform random choice among live replicas."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng

    def choose(self, fragment: Fragment, catalog: FederationCatalog) -> str:
        return self.rng.choice(self.live_sites(fragment, catalog))


class RoundRobinPolicy(ReplicaPolicy):
    """Cycles deterministically through each fragment's replicas."""

    def __init__(self) -> None:
        self._counters: dict[tuple[str, str], int] = {}

    def choose(self, fragment: Fragment, catalog: FederationCatalog) -> str:
        sites = self.live_sites(fragment, catalog)
        key = (fragment.table_name, fragment.fragment_id)
        counter = self._counters.get(key, 0)
        self._counters[key] = counter + 1
        return sites[counter % len(sites)]


class LeastLoadedPolicy(ReplicaPolicy):
    """Live backlog inspection (an idealized omniscient balancer)."""

    def choose(self, fragment: Fragment, catalog: FederationCatalog) -> str:
        sites = self.live_sites(fragment, catalog)
        return min(sites, key=lambda name: (catalog.site(name).backlog(), name))


class PolicyOptimizer:
    """An optimizer that delegates every replica choice to one policy.

    This closes the loop between the policy zoo above and the optimizer
    interface: E4's ablation can run the *same* query stream under random,
    round-robin, live-least-loaded and snapshot policies and compare the
    resulting site utilization directly against the agoric market.
    """

    prices_plans = False  # policies place, they do not price

    def __init__(self, catalog: FederationCatalog, policy: ReplicaPolicy) -> None:
        self.catalog = catalog
        self.policy = policy
        self.name = f"policy:{type(policy).__name__}"
        # The engine assigns its own AccessPaths here so cache regions,
        # stage artifacts and open circuit breakers steer the policy.
        self.paths = AccessPaths(catalog)

    def optimize(self, plan, coordinator=None, max_staleness=None, budget=None):
        """Place the plan by policy.  ``budget`` is accepted for the
        optimizers' uniform signature and cannot bind: policies do not
        price plans (``total_price`` is 0.0)."""
        assignments = {}
        keys = self.paths.stage_keys(plan)
        for scan in scans_in(plan):
            # No replica beats an answer that is already materialized: the
            # stage's artifact, a covering cache region or a fresh view
            # pre-empts the replica choice entirely.  A named artifact or
            # region labels the policy's placement: what the stage runs
            # should the copy be gone by then.
            offer = next(
                self.paths.offers(
                    scan, keys.get(scan.binding), max_staleness, lambda: self._place(scan)
                ),
                None,
            )
            assignments[scan.binding] = self._place(scan) if offer is None else offer[0]
        return PhysicalPlan(
            logical=plan,
            assignments=assignments,
            coordinator=coordinator or self.paths.pick_coordinator(assignments),
            optimizer=self.name,
            stage_keys=keys,
        )

    def _place(self, scan):
        """Ask the policy for a site per fragment the scan must read."""
        assignment, slots = self.paths.fragment_candidates(scan)
        for slot in slots:
            site_name = self.policy.choose(slot.fragment, self.catalog)
            if site_name not in slot.replicas:
                # The policy picked a tripped site although an allowed
                # replica exists; reroute to the least-risky allowed one.
                site_name = min(
                    slot.replicas,
                    key=lambda name: (self.paths.health.risk_penalty(name), name),
                )
            place(assignment, slot, site_name)
        return assignment

    def requote_scan(self, scan):
        """Re-run the replica policy for one scan mid-query (DESIGN §5i).

        Policies are cheap -- one ``choose`` per fragment, no market round
        trip -- so the modeled re-quote cost is zero; the controller prices
        both placements itself on the shared live basis.  Returns
        ``(assignment, price=0.0, modeled_seconds=0.0)``.
        """
        return self._place(scan), 0.0, 0.0


class SnapshotLoadPolicy(ReplicaPolicy):
    """Least-loaded by a *periodically refreshed* statistics snapshot.

    This is how compile-time centralized optimizers see the world: load
    statistics are collected every ``refresh_interval`` simulated seconds
    and are stale in between, so a burst of queries all land on the site
    that was idle at snapshot time.
    """

    def __init__(self, refresh_interval: float = 60.0) -> None:
        self.refresh_interval = refresh_interval
        self._snapshot: dict[str, float] = {}
        self._snapshot_at = float("-inf")

    def _maybe_refresh(self, catalog: FederationCatalog) -> None:
        now = catalog.clock.now()
        if now - self._snapshot_at >= self.refresh_interval:
            self._snapshot = {
                name: site.backlog() for name, site in catalog.sites.items()
            }
            self._snapshot_at = now

    def choose(self, fragment: Fragment, catalog: FederationCatalog) -> str:
        self._maybe_refresh(catalog)
        sites = self.live_sites(fragment, catalog)
        return min(sites, key=lambda name: (self._snapshot.get(name, 0.0), name))
