"""One seam for the question "which access paths can answer this scan?".

§4 and C5/C6 treat every way of answering a scan -- a replica fragment, a
materialized view, a semantic-cache region, a committed stage artifact --
as an *access path* competing in one market.  :class:`AccessPaths` owns
that enumeration and the rules every path shares (the plan's stage keys,
compiled in one pass before any bid, zone-map pruning, replica liveness,
open circuit breakers, the shipped-bytes estimate, view freshness,
coordinator placement), so an optimizer is only its *choosing
rule*: the agoric broker solicits bids and takes the cheapest path, the
centralized baseline pre-empts with any whole answer and enumerates
makespan, a replica policy pre-empts and asks its policy.  The executor's
failover and the re-optimization controller read liveness from the same
object, so a new access path or liveness rule is one edit here.

The engine builds one instance and assigns it to its optimizer's
``paths``; an optimizer constructed on its own gets a bare
``AccessPaths(catalog)`` (no cache, artifacts or health memory).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Iterator, NamedTuple

from repro.core.errors import QueryError
from repro.federation.artifacts import StageKey, stage_keys
from repro.federation.catalog import FederationCatalog, Fragment
from repro.federation.physical import FragmentChoice, ScanAssignment
from repro.federation.stats import (
    estimated_shipped_bytes,
    fragment_can_match,
    fragment_selectivity,
)
from repro.federation.views import MaterializedView
from repro.sql.planner import PlanNode, ScanNode


class FragmentSlot(NamedTuple):
    """One surviving fragment of a scan and the sites that may serve it."""

    fragment: Fragment
    # Live replica sites; open circuit breakers sit out unless *every*
    # live replica is tripped (a probe beats an unplannable fragment).
    replicas: list[str]
    selectivity: float
    est_rows: int
    # Encoded wire bytes the fragment ships (zone-map distinct counts model
    # the dictionary encoding).  Depends only on the fragment, never on the
    # replica, so byte-aware costing cannot flip a replica tie-break.
    est_bytes: int


def place(assignment: ScanAssignment, slot: FragmentSlot, site_name: str) -> None:
    """Record the optimizer's decision that ``site_name`` scans ``slot``."""
    assignment.choices.append(FragmentChoice(slot.fragment, site_name))
    assignment.est_bytes += slot.est_bytes


class AccessPaths:
    """Enumerates and describes the access paths of one federation."""

    def __init__(
        self, catalog: FederationCatalog, cache=None, artifacts=None, health=None
    ) -> None:
        self.catalog = catalog
        self.cache = cache  # SemanticCache: covering predicate regions
        self.artifacts = artifacts  # ArtifactStore: committed stage outputs
        self.health = health  # SiteHealthTracker: breakers and risk pricing

    # -- whole-scan answers ------------------------------------------------

    def stage_keys(self, plan: PlanNode) -> dict[str, StageKey | None]:
        """The plan's compiled stage keys, keyed by scan binding: the one
        pass over its stages, made before any bid (none without a store)."""
        return stage_keys(self.catalog, plan) if self.artifacts is not None else {}

    def offers(
        self,
        scan: ScanNode,
        key: StageKey | None,
        max_staleness: float | None,
        placer: Callable[[], ScanAssignment],
    ) -> Iterator[tuple[ScanAssignment, float]]:
        """Yield ``(assignment, price)`` for every path that answers the
        scan *whole* without touching its fragments, tightest first: the
        stage's committed artifact, a covering cache region, a view.  An
        artifact or a region is named, never held, and labels the
        optimizer's own fragment placement -- ``placer()``, asked once and
        only for a copy -- which the stage runs when the copy is gone at
        execution.

        ``key`` is the stage's compiled key (:meth:`stage_keys`): the
        artifact bids on its digest alone, so a template's key, whose slots
        no artifact holds, bids on nothing, and so does a top-k stage (a
        restart runs it unmarked, which a truncated artifact must not answer).

        Lazy on purpose: the semantic cache books a miss when asked to bid,
        and a placer may draw on its policy's state, so a pre-empting
        optimizer that stops at the first offer never consults the rest.
        """
        placement = None
        if key is not None and key.digest is not None and scan.top_k is None:
            price = self.artifacts.bid(key.digest, max_staleness)
            if price is not None:
                placement = placer()
                yield replace(placement, kind="artifact"), price
        if self.cache is not None:
            bid = self.cache.bid(scan.table, scan.pushdown, max_staleness)
            if bid is not None:
                region, price = bid
                placement = placement or placer()
                yield replace(placement, kind="cache", cached_region=region), price
        # A view queried by its own name always serves the view -- from a
        # live host; catalog.direct_view raises if the site is down.
        view = self.catalog.direct_view(scan.table) or self.live_view(
            scan.table, max_staleness
        )
        if view is not None:
            # Views compete in the same congested market: a host swamped
            # with in-flight queries asks more, like any bid, and ships its
            # encoded rows at the same network tariff fragments pay.
            site = self.catalog.site(view.site_name)
            rows = len(view.data)
            est_bytes = estimated_shipped_bytes(view, view.schema, rows)
            seconds = rows * site.cpu_seconds_per_row * site.congestion_factor()
            price = (
                seconds + site.backlog() * site.load_price_factor
            ) * site.price_per_second
            yield ScanAssignment(
                scan.binding, scan.table, "view", view=view, est_bytes=est_bytes
            ), price + est_bytes * self.catalog.network.seconds_per_byte

    def live_view(
        self, table_name: str, max_staleness: float | None
    ) -> MaterializedView | None:
        """The first-registered fresh whole-table view on a *live* host."""
        for view in self.catalog.view_for_table(table_name, max_staleness):
            if self.catalog.site(view.site_name).up:
                return view
        return None

    # -- fragment scans ----------------------------------------------------

    def live_replicas(self, fragment: Fragment) -> list[str]:
        sites = self.catalog.sites
        return [name for name in fragment.replica_sites() if sites[name].up]

    # Only a site in the tracker's troubled set can have an open circuit
    # or a risk above zero; the rest pass both checks without asking.

    def without_open_breakers(self, names: list[str]) -> list[str]:
        if self.health is None or not self.health.troubled:
            return names
        troubled, allow = self.health.troubled, self.health.allow
        return [name for name in names if name not in troubled or allow(name)]

    def risk_multiplier(self, site_name: str) -> float:
        """Availability-aware pricing: recent failures inflate a site's
        cost (the expected price of a mid-scan failover)."""
        if self.health is None or site_name not in self.health.troubled:
            return 1.0
        return self.health.price_multiplier(site_name)

    def fragment_candidates(
        self, scan: ScanNode
    ) -> tuple[ScanAssignment, list[FragmentSlot]]:
        """What a fragment plan for ``scan`` must place.

        Returns an empty ``"fragments"`` assignment already carrying the
        pruning and unreachability accounting, plus one slot per fragment
        the optimizer has to choose a site for.  Fragments whose zone maps
        prove the pushdown unsatisfiable are eliminated outright -- they
        solicit no bids and enqueue no site work.  Fragments with no live
        replica are recorded as ``unreachable`` instead of failing the
        plan: the executor retries them (the site may have repaired) and
        otherwise applies the query's degraded-answer policy.
        """
        entry = self.catalog.entry(scan.table)
        if not entry.fragments:
            raise QueryError(f"table {scan.table!r} has no fragments to scan")
        assignment = ScanAssignment(
            scan.binding, scan.table, "fragments",
            total_fragments=len(entry.fragments),
        )
        slots = []
        for fragment in entry.fragments:
            if not fragment_can_match(fragment.zone_map, scan.pushdown):
                assignment.pruned_fragments += 1
                continue
            live = self.live_replicas(fragment)
            if not live:
                assignment.unreachable.append(fragment)
                continue
            selectivity = fragment_selectivity(fragment, scan.pushdown)
            est_rows = max(1, int(fragment.estimated_rows * selectivity))
            slots.append(
                FragmentSlot(
                    fragment,
                    self.without_open_breakers(live) or live,
                    selectivity,
                    est_rows,
                    estimated_shipped_bytes(fragment, entry.schema, est_rows),
                )
            )
        return assignment, slots

    # -- coordinator -------------------------------------------------------

    def pick_coordinator(self, assignments: dict[str, ScanAssignment]) -> str:
        """Run post-processing where the most data already is: the site
        holding the most chosen fragment rows (a view's host holds the
        view's rows), else the alphabetically-first live site."""
        rows_by_site: dict[str, int] = {}
        for assignment in assignments.values():
            if assignment.kind == "fragments":  # not a priced copy's placement
                for choice in assignment.choices:
                    rows_by_site[choice.site_name] = (
                        rows_by_site.get(choice.site_name, 0)
                        + choice.fragment.estimated_rows
                    )
            elif assignment.kind == "view":
                view = assignment.view
                rows_by_site[view.site_name] = (
                    rows_by_site.get(view.site_name, 0) + len(view.data)
                )
        if rows_by_site:
            return max(rows_by_site.items(), key=lambda kv: (kv[1], kv[0]))[0]
        up = self.catalog.up_sites()
        if not up:
            raise QueryError("no live sites to coordinate the query")
        return min(site.name for site in up)
