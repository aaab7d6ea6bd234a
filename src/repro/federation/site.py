"""Sites: the machines of the federation.

A :class:`Site` hosts :class:`~repro.connect.source.ContentSource` objects
(fragment replicas, gateway wrappers, materialized view copies), executes
scans against them at a per-row CPU rate, maintains a decaying work backlog
(its *load*), and quotes prices for work -- the raw material of the agoric
protocol.  Sites can be marked down, which is how the availability
experiments injure the federation.

Concurrency enters through the **congestion model**: the workload manager
raises :attr:`Site.active_scans` for every site a query touches while that
query is in flight, and the site inflates service times by a linear curve
``1 + congestion_alpha * active_scans``.  The inflation applies both to
*executed* work (physical operator timings stretch under concurrency) and
to *quoted* work (a busy site's live bid rises, so the agoric market routes
new scans toward idle replicas -- load balancing is emergent, not policy).
With no workload manager the gauge stays at zero and the factor is exactly
1.0, so single-query behavior is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.connect.source import ContentSource, FetchResult, Predicate
from repro.core.errors import SourceUnavailableError
from repro.sim.clock import SimClock


@dataclass
class ScanQuote:
    """A site's estimate for scanning one source."""

    seconds: float  # pure work time, uncontended
    queue_delay: float  # backlog ahead of this work
    rows: int
    congestion: float = 1.0  # live service-time inflation factor


class Site:
    """One machine: hosted sources, CPU rate, load backlog, pricing."""

    def __init__(
        self,
        name: str,
        clock: SimClock,
        cpu_seconds_per_row: float = 0.00005,
        price_per_second: float = 1.0,
        load_price_factor: float = 1.0,
        congestion_alpha: float = 0.5,
    ) -> None:
        self.name = name
        self.clock = clock
        self.cpu_seconds_per_row = cpu_seconds_per_row
        self.price_per_second = price_per_second
        self.load_price_factor = load_price_factor
        self.congestion_alpha = congestion_alpha
        self.up = True
        self.busy_seconds = 0.0  # lifetime work executed (utilization metric)
        self.rows_processed = 0  # lifetime rows this site scanned or processed
        self.active_scans = 0  # queries currently in flight on this site
        self.peak_active_scans = 0  # high-water mark of the gauge
        # Transient slowdown: a multiplicative service-time inflation on
        # top of the concurrency curve (1.0 = healthy).  Set by the
        # failure injector to model load spikes, noisy neighbors, or
        # degraded hardware without taking the site down.
        self.slowdown_factor = 1.0
        self._sources: dict[str, ContentSource] = {}
        self._backlog = 0.0
        self._backlog_as_of = clock.now()

    # -- hosting -----------------------------------------------------------

    def host(self, source: ContentSource, name: str | None = None) -> str:
        """Register a source on this site; returns its local name."""
        local_name = name or source.name
        self._sources[local_name] = source
        return local_name

    def unhost(self, name: str) -> None:
        self._sources.pop(name, None)

    def hosts(self, name: str) -> bool:
        return name in self._sources

    def source(self, name: str) -> ContentSource:
        if name not in self._sources:
            raise SourceUnavailableError(
                self.name,
                f"site {self.name!r} does not host {name!r}",
                site=self.name,
            )
        return self._sources[name]

    # -- load model ------------------------------------------------------------

    def backlog(self) -> float:
        """Seconds of queued work remaining right now (drains in real time)."""
        elapsed = self.clock.now() - self._backlog_as_of
        return max(0.0, self._backlog - elapsed)

    def enqueue(self, seconds: float) -> float:
        """Add work to the backlog; returns the queue delay it waited behind."""
        delay = self.backlog()
        self._backlog = delay + seconds
        self._backlog_as_of = self.clock.now()
        self.busy_seconds += seconds
        return delay

    # -- congestion model ------------------------------------------------------

    def scan_started(self) -> None:
        """One more in-flight query is scanning here (workload manager)."""
        self.active_scans += 1
        self.peak_active_scans = max(self.peak_active_scans, self.active_scans)

    def scan_finished(self) -> None:
        """An in-flight query finished its work on this site."""
        if self.active_scans <= 0:
            raise ValueError(
                f"site {self.name!r}: scan_finished without matching scan_started"
            )
        self.active_scans -= 1

    def set_slowdown(self, factor: float) -> None:
        """Enter a transient slowdown: services run ``factor`` times slower.

        The factor multiplies :meth:`congestion_factor`, so it inflates
        executed work, live quotes, *and* the re-optimization congestion
        trigger in one move — exactly like real contention would.
        """
        if factor < 1.0:
            raise ValueError(f"slowdown factor must be >= 1.0, got {factor}")
        self.slowdown_factor = factor

    def clear_slowdown(self) -> None:
        self.slowdown_factor = 1.0

    def congestion_factor(self, active: int | None = None) -> float:
        """Service-time inflation under ``active`` concurrent queries.

        A linear curve: every query concurrently scanning this site
        stretches service times by ``congestion_alpha``.  Zero in-flight
        queries means exactly 1.0, so the model is inert outside the
        workload manager.  A transient slowdown multiplies the whole
        curve (an injected load spike looks like contention everywhere
        work or prices are computed).
        """
        count = self.active_scans if active is None else active
        return (1.0 + self.congestion_alpha * max(0, count)) * self.slowdown_factor

    # -- scan estimation & execution -----------------------------------------------

    def quote_scan(self, source_name: str, row_fraction: float = 1.0) -> ScanQuote:
        """Estimate (not execute) a scan -- used when forming bids.

        Raises :class:`SourceUnavailableError` when the site is down, just
        like :meth:`execute_scan`: a dead site must not cheerfully price
        work it cannot do, or planning and execution disagree.
        """
        if not self.up:
            raise SourceUnavailableError(self.name, site=self.name)
        source = self.source(source_name)
        rows = max(1, int(source.estimated_rows() * row_fraction))
        seconds = source.estimated_cost() + rows * self.cpu_seconds_per_row
        return ScanQuote(
            seconds=seconds,
            queue_delay=self.backlog(),
            rows=rows,
            congestion=self.congestion_factor(),
        )

    def price_quote(self, quote: ScanQuote) -> float:
        """The agoric price this site asks for executing ``quote``.

        Load enters the price directly: a busy site asks more, steering
        work toward idle replicas (the adaptive half of the agoric claim).
        Both load signals count -- the decaying work backlog and the live
        congestion factor from queries currently in flight here.
        """
        return (
            quote.seconds * quote.congestion
            + quote.queue_delay * self.load_price_factor
        ) * self.price_per_second

    def execute_scan(
        self, source_name: str, predicates: Sequence[Predicate] = ()
    ) -> tuple[FetchResult, float, float]:
        """Run a scan; returns (result, work_seconds, queue_delay).

        Raises :class:`SourceUnavailableError` when the site is down.
        """
        if not self.up:
            raise SourceUnavailableError(self.name, site=self.name)
        source = self.source(source_name)
        result = source.fetch(predicates)
        work = (
            result.cost_seconds + len(result.table) * self.cpu_seconds_per_row
        ) * self.congestion_factor()
        self.rows_processed += len(result.table)
        delay = self.enqueue(work)
        return result, work, delay

    def process(self, rows: int) -> float:
        """Charge local processing of ``rows`` (joins, aggregation); returns work seconds."""
        work = rows * self.cpu_seconds_per_row * self.congestion_factor()
        self.rows_processed += rows
        self.enqueue(work)
        return work

    def __repr__(self) -> str:
        state = "up" if self.up else "DOWN"
        return f"Site({self.name!r}, {state}, backlog={self.backlog():.3f}s)"
