"""The agoric (Mariposa-style) federated optimizer.

§4: Cohera Integrate "is based on the agoric, federated query processor
architecture of the Mariposa system" [13], and §3.2 C8 claims this is what
makes "adaptive load balancing and scalability" possible where "compile-time,
centralized cost-based optimizers" fail.

The protocol reproduced here:

1. The broker (this optimizer) decomposes the logical plan into fragment
   scans.
2. For every fragment it solicits **bids** from the sites holding replicas
   -- at most ``sample_size`` of them, chosen deterministically from the
   query's RNG stream, so broker work stays O(replicas per fragment) no
   matter how many sites the federation has.
3. A bid's price is quoted *live* by the site and embeds its current
   backlog (see :meth:`repro.federation.site.Site.price_quote`), so busy
   sites price themselves out of the market: adaptivity and load balancing
   fall out of the economics rather than any global controller.
4. The cheapest bid per fragment wins; ties break deterministically.

Materialized views compete in the same market: a fresh-enough view is
priced like any other access path and wins when cheaper, which is the
paper's "optimizer treats these as alternative physical database designs".
So do semantic-cache regions: when the engine's cache holds a covering
predicate region, :meth:`repro.federation.cache.SemanticCache.bid` quotes
the local serving cost and the broker weighs it against the sites' and
views' asks -- a warm cache usually undercuts everything, and the chosen
path shows up in EXPLAIN as ``cache(region ...) else fragments [...]``:
the region is a label on the auction's placement, which the stage runs
when the region is gone at execution.

Optimization latency is *modeled* (one parallel bid round trip,
:data:`BID_ROUND_TRIP_SECONDS`, plus :data:`PER_BID_SECONDS` per bid) and
charged to the query, as is the real CPU time
spent brokering.
"""

from __future__ import annotations

import random
import time

from repro.core.errors import ContentIntegrationError, QueryError
from repro.federation.access import AccessPaths, FragmentSlot, place
from repro.federation.catalog import FederationCatalog
from repro.federation.physical import PhysicalPlan, ScanAssignment
from repro.sql.planner import PlanNode, ScanNode, scans_in

# Modeled brokering latency: one parallel bid round trip per auction, plus
# this much processing per bid received.
BID_ROUND_TRIP_SECONDS = 0.02
PER_BID_SECONDS = 0.0002

class BudgetExceededError(ContentIntegrationError):
    """The market's asking price exceeds the query's budget.

    Mariposa queries carry budgets; when the cheapest feasible plan costs
    more than the buyer will pay (e.g. every replica is swamped and pricing
    itself high), the broker refuses rather than silently overspending.
    Carries ``required`` so callers can retry with a bigger budget.
    """

    def __init__(self, budget: float, required: float) -> None:
        self.budget = budget
        self.required = required
        super().__init__(
            f"cheapest plan costs {required:.4f}, over the budget {budget:.4f}"
        )


class AgoricOptimizer:
    """Bid-based placement of scans onto replica sites."""

    name = "agoric"
    prices_plans = True  # total_price is real money: a budget can bind

    def __init__(
        self,
        catalog: FederationCatalog,
        sample_size: int | None = None,
        rng: random.Random | None = None,
    ) -> None:
        self.catalog = catalog
        self.sample_size = sample_size
        self.rng = rng or random.Random(0)
        # The engine assigns its own AccessPaths here so cache regions,
        # stage artifacts and site health join the market.
        self.paths = AccessPaths(catalog)

    # -- bidding -----------------------------------------------------------

    def collect_bids(
        self, scan: ScanNode
    ) -> tuple[ScanAssignment, list[tuple[FragmentSlot, float, str, int]]]:
        """Solicit bids for every fragment of the scan that needs a site.

        Pruned and unreachable fragments (see
        :meth:`AccessPaths.fragment_candidates`) solicit nothing and cost
        no broker work.  Returns the still-unplaced assignment and, per
        slot, ``(slot, price, site_name, bids solicited)`` of the winning
        bid: the least ``(price, site_name)``, so ties break by site name.
        """
        assignment, slots = self.paths.fragment_candidates(scan)
        sites = self.catalog.sites
        risk = self.paths.risk_multiplier
        per_byte = self.catalog.network.seconds_per_byte
        solicited = []
        for slot in slots:
            fragment, live, selectivity, _, est_bytes = slot
            if self.sample_size is not None and len(live) > self.sample_size:
                live = sorted(self.rng.sample(live, self.sample_size))
            # Shipping is priced in encoded bytes at the network tariff.
            ship_price = est_bytes * per_byte
            best = None
            for site_name in live:
                site = sites[site_name]
                quote = site.quote_scan(
                    fragment.replicas[site_name], row_fraction=selectivity
                )
                price = site.price_quote(quote) * risk(site_name) + ship_price
                bid = (price, site_name)
                if best is None or bid < best:
                    best = bid
            solicited.append((slot, *best, len(live)))
        return assignment, solicited

    # -- optimization --------------------------------------------------------------

    def optimize(
        self,
        plan: PlanNode,
        coordinator: str | None = None,
        max_staleness: float | None = None,
        budget: float | None = None,
    ) -> PhysicalPlan:
        """Place the plan by auction.

        ``budget`` is the Mariposa purchase order: if the cheapest feasible
        plan's total price exceeds it, :class:`BudgetExceededError` is
        raised instead of a plan.
        """
        started = time.perf_counter()
        assignments: dict[str, ScanAssignment] = {}
        contacted = 0
        total_price = 0.0
        keys = self.paths.stage_keys(plan)

        for scan in scans_in(plan):
            try:
                placed, price, solicited = self._auction(scan)
            except QueryError:
                placed = None  # no fragments to bid on (e.g. a view queried by name)
            # All four access paths compete on price in the same market:
            # a committed stage artifact, the semantic cache's local bid, a
            # fresh-enough materialized view, and the sites' fragment asks.
            # A named artifact or region labels the auction's placement.
            market = list(
                self.paths.offers(
                    scan, keys.get(scan.binding), max_staleness, lambda: placed
                )
            )
            if placed is not None:
                contacted += solicited
                if placed.unreachable and market:
                    # Part of the table is behind dead sites: a covering
                    # artifact, cache region or view answers *completely*,
                    # which beats a partial fragment plan at any price.
                    price = float("inf")
                market.append((placed, price))
            elif not market:
                raise QueryError(f"no access path for table {scan.table!r}")
            # Cheapest wins; ties go to the tighter (earlier) path.
            assignment, price = min(market, key=lambda offer: offer[1])
            assignments[scan.binding] = assignment
            total_price += price

        if budget is not None and total_price > budget:
            raise BudgetExceededError(budget, total_price)

        modeled_seconds = BID_ROUND_TRIP_SECONDS + contacted * PER_BID_SECONDS
        # DESIGN §7: only *modeled* seconds reach the simulated clock; the
        # host's real brokering time is reported separately so two identical
        # seeded runs stay byte-identical.
        elapsed = time.perf_counter() - started
        return PhysicalPlan(
            logical=plan,
            assignments=assignments,
            coordinator=coordinator or self.paths.pick_coordinator(assignments),
            optimizer=self.name,
            optimization_seconds=modeled_seconds,
            planner_wall_seconds=elapsed,
            sites_contacted=contacted,
            total_price=total_price,
            stage_keys=keys,
        )

    def _auction(self, scan: ScanNode) -> tuple[ScanAssignment, float, int]:
        """Hold the auction for one scan's fragments: the cheapest bid per
        fragment wins, ties break by site name.  Returns ``(assignment,
        price, bids solicited)``; raises :class:`QueryError` when the table
        has no fragments."""
        assignment, solicited = self.collect_bids(scan)
        price = 0.0
        contacted = 0
        for slot, bid_price, site_name, bids in solicited:
            contacted += bids
            price += bid_price
            place(assignment, slot, site_name)
        return assignment, price, contacted

    def requote_scan(self, scan: ScanNode) -> tuple[ScanAssignment, float, float]:
        """Re-solicit live bids for one scan mid-query (DESIGN §5i).

        The agoric answer to a degrading cluster: hold the auction again.
        Bids are collected exactly as at plan time -- live congestion,
        queue backlogs and health risk all priced in -- and cost another
        round trip plus per-bid work, charged to the querying execution.
        Returns ``(assignment, price, modeled_seconds)``.
        """
        assignment, price, contacted = self._auction(scan)
        modeled = BID_ROUND_TRIP_SECONDS + contacted * PER_BID_SECONDS
        return assignment, price, modeled
