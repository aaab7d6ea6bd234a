"""Materialized views with refresh policies.

The paper's prescription (§3.2 C5): "suppose slowly changing data is defined
in a view, the view materialized at one or more sites, and then refreshed at
a user-specified interval ... slowly changing data is elegantly cached
closer to the location of the user" -- while volatile data is fetched on
demand.  Crucially, "federated systems do not distinguish logically between
views that transform data on demand, and materialized views that have been
pre-loaded"; in this reproduction the engine consults the catalog for a
fresh-enough view before scheduling a live scan, and falls through to
fetch-on-demand transparently otherwise (data independence).

A view's ``refresh_fn`` re-derives its contents from the live federation; a
view may be attached to an :class:`~repro.sim.events.EventLoop` to refresh
periodically, which is also exactly how the warehouse baseline's ETL jobs
run -- the difference the benchmarks measure is *policy*, not machinery.
"""

from __future__ import annotations

from typing import Callable

from repro.core.errors import QueryError
from repro.core.records import Table
from repro.core.schema import Schema
from repro.sim.events import EventLoop


class MaterializedView:
    """A named, periodically refreshed copy of a whole base table."""

    def __init__(
        self,
        name: str,
        base_table: str,
        schema: Schema,
        refresh_fn: "Callable[[], Table] | None",
        site_name: str,
        refresh_interval: float | None = None,
    ) -> None:
        self.name = name
        self.base_table = base_table
        self.schema = schema
        self.refresh_fn = refresh_fn
        self.site_name = site_name
        self.refresh_interval = refresh_interval
        self.data: Table | None = None
        self.as_of: float = float("-inf")
        self.refresh_count = 0
        self.refresh_failures = 0  # scheduled refreshes lost to dead sources
        self.refresh_cost_seconds = 0.0
        self.rows_served = 0  # rows produced by SiteScan reads of this view

    # -- refresh -----------------------------------------------------------

    def refresh(self, now: float, cost_seconds: float = 0.0) -> Table:
        """Re-materialize from the live base; records cost and timestamp."""
        if self.refresh_fn is None:
            raise QueryError(
                f"view {self.name!r} is engine-managed; refresh it via "
                "FederatedEngine.refresh_view"
            )
        self.data = self.refresh_fn()
        self.as_of = now
        self.refresh_count += 1
        self.refresh_cost_seconds += cost_seconds
        return self.data

    def attach_to(self, loop: EventLoop, cost_seconds: float = 0.0) -> None:
        """Refresh now, then every ``refresh_interval`` on the event loop."""
        if self.refresh_interval is None or self.refresh_interval <= 0:
            raise QueryError(
                f"view {self.name!r} has no positive refresh interval to schedule"
            )
        self.refresh(loop.clock.now(), cost_seconds)
        loop.schedule_every(
            self.refresh_interval,
            lambda: self.refresh(loop.clock.now(), cost_seconds),
            name=f"refresh:{self.name}",
        )

    # -- freshness ---------------------------------------------------------------

    def staleness(self, now: float) -> float:
        """Seconds since the last refresh (inf if never refreshed)."""
        return now - self.as_of

    def is_fresh(self, max_staleness: float | None, now: float) -> bool:
        if self.data is None:
            return False
        if max_staleness is None:
            return True
        return self.staleness(now) <= max_staleness

    def __repr__(self) -> str:
        return (
            f"MaterializedView({self.name!r}, base={self.base_table!r}, "
            f"as_of={self.as_of!r})"
        )
