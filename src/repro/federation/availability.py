"""Availability: failures, placement strategies, and content reachability.

§3.2 C8 sets out the design space this module makes measurable:

* a central site delivers all of the content some of the time;
* fragmentation delivers "*some of the content all of the time*";
* a hot standby (full replication) delivers everything at double hardware;
* "a combination of replication and fragmentation can deliver *most of the
  content all of the time*, and is the design of choice".

:func:`place_fragments` produces the replica placement for each strategy,
:class:`FailureInjector` schedules site crashes and repairs on the event
loop, and :class:`AvailabilityProbe` reports what fraction of the catalog's
rows is reachable at any instant -- experiment E5 sweeps exactly this.
"""

from __future__ import annotations

import enum
import math
import random

from repro.core.errors import QueryError
from repro.federation.catalog import FederationCatalog
from repro.sim.events import EventLoop


class PlacementStrategy(enum.Enum):
    """The §3.2 C8 design points."""

    CENTRAL = "central"  # everything on one site
    FRAGMENTED = "fragmented"  # spread, no replication
    HOT_STANDBY = "hot-standby"  # full copy on a second site
    FRAGMENT_REPLICATE = "fragment+replicate"  # spread with replication factor k


def place_fragments(
    strategy: PlacementStrategy,
    fragment_count: int,
    site_names: list[str],
    replication_factor: int = 2,
) -> list[list[str]]:
    """Return ``placement[i]`` = sites holding replicas of fragment ``i``.

    The hardware cost of a placement is the total replica count (the
    paper's "doubling of all hardware resources" for hot standby).
    """
    if not site_names:
        raise QueryError("no sites to place fragments on")
    if strategy is PlacementStrategy.CENTRAL:
        return [[site_names[0]] for _ in range(fragment_count)]
    if strategy is PlacementStrategy.FRAGMENTED:
        return [
            [site_names[i % len(site_names)]] for i in range(fragment_count)
        ]
    if strategy is PlacementStrategy.HOT_STANDBY:
        if len(site_names) < 2:
            raise QueryError("hot standby needs at least two sites")
        return [[site_names[0], site_names[1]] for _ in range(fragment_count)]
    if strategy is PlacementStrategy.FRAGMENT_REPLICATE:
        if replication_factor < 1:
            raise QueryError(f"bad replication factor {replication_factor}")
        factor = min(replication_factor, len(site_names))
        return [
            [site_names[(i + r) % len(site_names)] for r in range(factor)]
            for i in range(fragment_count)
        ]
    raise QueryError(f"unknown placement strategy {strategy!r}")


def hardware_cost(placement: list[list[str]]) -> int:
    """Total replica count -- the unit of hardware spend E5 reports."""
    return sum(len(sites) for sites in placement)


class FailureInjector:
    """Schedules exponential crash/repair cycles for sites.

    Each site independently fails after ~Exp(mttf) and repairs after
    ~Exp(mttr), driven by the shared event loop, so availability windows
    interleave deterministically for a given seed.

    ``max_concurrent_failures`` optionally caps how many sites may be down
    at once: a failure drawn while the cap is reached is skipped and the
    site draws a fresh time-to-failure instead.  ``max_concurrent_failures=1``
    models the single-site-failure regime in which RF=2 placement
    guarantees every fragment a live replica -- the regime where failover
    should never lose a query.

    Every up/down transition is appended to :attr:`history` as
    ``(time, site_name, "fail" | "repair")``, so tests can assert that the
    same seed produces the identical failure schedule.

    Beyond hard crashes the injector also models **transient slowdowns**
    (load spikes, noisy neighbors): :meth:`slow_at` schedules a window in
    which a site's :attr:`~repro.federation.site.Site.slowdown_factor`
    multiplies all its service times, recorded in :attr:`history` as
    ``"slow"`` / ``"recover"``, and :meth:`start_slowdowns` runs a seeded
    recurring slowdown process alongside the crash process.  Deterministic
    one-shot scheduling (:meth:`fail_at` / :meth:`repair_at` /
    :meth:`slow_at`) lets benchmarks place disturbances at exact modeled
    times.  Observers registered with :meth:`on_transition` (the workload
    manager's mid-flight re-planner, for one) are called after every
    transition with ``(time, site_name, kind)``.
    """

    def __init__(
        self,
        loop: EventLoop,
        catalog: FederationCatalog,
        mttf: float,
        mttr: float,
        rng: random.Random,
        max_concurrent_failures: int | None = None,
    ) -> None:
        if mttf <= 0 or mttr <= 0:
            raise QueryError("mttf and mttr must be positive")
        if max_concurrent_failures is not None and max_concurrent_failures < 1:
            raise QueryError(
                f"max_concurrent_failures must be >= 1, got {max_concurrent_failures}"
            )
        self.loop = loop
        self.catalog = catalog
        self.mttf = mttf
        self.mttr = mttr
        self.rng = rng
        self.site_names = sorted(catalog.sites)
        self.max_concurrent_failures = max_concurrent_failures
        self.failures = 0
        self.repairs = 0
        self.skipped_failures = 0  # draws suppressed by the concurrency cap
        self.slowdowns = 0
        self.history: list[tuple[float, str, str]] = []
        self._listeners: list = []

    def start(self) -> None:
        for name in self.site_names:
            self._schedule_failure(name)

    def on_transition(self, callback) -> None:
        """Register ``callback(time, site_name, kind)`` for every transition.

        ``kind`` is one of ``"fail"``, ``"repair"``, ``"slow"``,
        ``"recover"``.  Listeners run synchronously inside the loop event,
        in registration order, so reactions are deterministic.
        """
        self._listeners.append(callback)

    def _transition(self, name: str, kind: str) -> None:
        now = self.loop.clock.now()
        self.history.append((now, name, kind))
        for callback in self._listeners:
            callback(now, name, kind)

    def _down_count(self) -> int:
        return sum(1 for name in self.site_names if not self.catalog.site(name).up)

    def _schedule_failure(self, name: str) -> None:
        delay = self.rng.expovariate(1.0 / self.mttf)
        self.loop.schedule_after(delay, lambda: self._fail(name), f"fail:{name}")

    def _schedule_repair(self, name: str) -> None:
        delay = self.rng.expovariate(1.0 / self.mttr)
        self.loop.schedule_after(delay, lambda: self._repair(name), f"repair:{name}")

    def _fail(self, name: str) -> None:
        site = self.catalog.site(name)
        if site.up and (
            self.max_concurrent_failures is None
            or self._down_count() < self.max_concurrent_failures
        ):
            site.up = False
            self.failures += 1
            self._transition(name, "fail")
            self._schedule_repair(name)
            return
        # Already down, or the concurrency cap is reached: stay up and draw
        # a fresh time-to-failure so the site's crash process continues.
        if site.up:
            self.skipped_failures += 1
        self._schedule_failure(name)

    def _repair(self, name: str) -> None:
        site = self.catalog.site(name)
        if not site.up:
            site.up = True
            self.repairs += 1
            self._transition(name, "repair")
        self._schedule_failure(name)

    # -- deterministic one-shot disturbances -------------------------------

    def fail_at(self, name: str, at: float) -> None:
        """Kill ``name`` at an exact modeled time (no repair scheduled)."""
        self.loop.schedule_at(at, lambda: self._fail_once(name), f"fail:{name}")

    def repair_at(self, name: str, at: float) -> None:
        """Bring ``name`` back up at an exact modeled time."""
        self.loop.schedule_at(at, lambda: self._repair_once(name), f"repair:{name}")

    def _fail_once(self, name: str) -> None:
        site = self.catalog.site(name)
        if site.up:
            site.up = False
            self.failures += 1
            self._transition(name, "fail")

    def _repair_once(self, name: str) -> None:
        site = self.catalog.site(name)
        if not site.up:
            site.up = True
            self.repairs += 1
            self._transition(name, "repair")

    # -- transient slowdowns -----------------------------------------------

    def slow_at(
        self, name: str, at: float, duration: float, factor: float
    ) -> None:
        """Schedule one slowdown window: ``name`` runs ``factor`` times
        slower from ``at`` until ``at + duration``."""
        if duration <= 0:
            raise QueryError(f"slowdown duration must be positive, got {duration}")
        if factor < 1.0:
            raise QueryError(f"slowdown factor must be >= 1.0, got {factor}")
        self.loop.schedule_at(
            at, lambda: self._slow(name, duration, factor), f"slow:{name}"
        )

    def start_slowdowns(
        self,
        mean_interval: float,
        duration: float,
        factor: float,
        site_names: list[str] | None = None,
    ) -> None:
        """Seeded recurring slowdown process, like :meth:`start` for spikes.

        Each site independently enters a ``duration``-second slowdown of
        ``factor`` after ~Exp(mean_interval), repeatedly, drawn from the
        injector's rng — so a given seed produces the identical spike
        schedule every run.
        """
        if mean_interval <= 0:
            raise QueryError(
                f"mean_interval must be positive, got {mean_interval}"
            )
        if duration <= 0:
            raise QueryError(f"slowdown duration must be positive, got {duration}")
        if factor < 1.0:
            raise QueryError(f"slowdown factor must be >= 1.0, got {factor}")
        for name in site_names or self.site_names:
            self._schedule_slowdown(name, mean_interval, duration, factor)

    def _schedule_slowdown(
        self, name: str, mean_interval: float, duration: float, factor: float
    ) -> None:
        delay = self.rng.expovariate(1.0 / mean_interval)
        self.loop.schedule_after(
            delay,
            lambda: self._slow(
                name, duration, factor,
                reschedule=(mean_interval, duration, factor),
            ),
            f"slow:{name}",
        )

    def _slow(
        self,
        name: str,
        duration: float,
        factor: float,
        reschedule: tuple[float, float, float] | None = None,
    ) -> None:
        site = self.catalog.site(name)
        if site.slowdown_factor == 1.0:
            site.set_slowdown(factor)
            self.slowdowns += 1
            self._transition(name, "slow")
            self.loop.schedule_after(
                duration,
                lambda: self._recover(name, reschedule),
                f"recover:{name}",
            )
            return
        # Already slowed: skip this window, keep the process alive.
        if reschedule is not None:
            self._schedule_slowdown(name, *reschedule)

    def _recover(
        self, name: str, reschedule: tuple[float, float, float] | None
    ) -> None:
        site = self.catalog.site(name)
        if site.slowdown_factor != 1.0:
            site.clear_slowdown()
            self._transition(name, "recover")
        if reschedule is not None:
            self._schedule_slowdown(name, *reschedule)


class AvailabilityProbe:
    """Measures reachable content over time."""

    def __init__(self, catalog: FederationCatalog) -> None:
        self.catalog = catalog
        self.samples: list[tuple[float, float]] = []  # (time, available fraction)

    def available_fraction(self, table_name: str | None = None) -> float:
        """Row-weighted fraction of content with at least one live replica."""
        tables = (
            [self.catalog.entry(table_name)]
            if table_name is not None
            else list(self.catalog.tables.values())
        )
        total = 0
        reachable = 0
        for entry in tables:
            for fragment in entry.fragments:
                total += fragment.estimated_rows
                if any(
                    self.catalog.site(name).up for name in fragment.replica_sites()
                ):
                    reachable += fragment.estimated_rows
        if total == 0:
            return 1.0
        return reachable / total

    def sample(self) -> float:
        fraction = self.available_fraction()
        self.samples.append((self.catalog.clock.now(), fraction))
        return fraction

    def attach_to(self, loop: EventLoop, interval: float) -> None:
        """Sample availability periodically on the event loop."""
        loop.schedule_every(interval, self.sample, name="availability-probe")

    def mean_availability(self) -> float:
        if not self.samples:
            return self.available_fraction()
        return sum(f for _, f in self.samples) / len(self.samples)

    def nines(self) -> float:
        """The "number of nines" of mean availability (§3.2 C8).

        "Five nines" (99.999%) returns 5.0; perfect availability returns
        ``inf``.  The paper's uptime currency, computable for any run.
        """
        mean = self.mean_availability()
        if mean >= 1.0:
            return float("inf")
        if mean <= 0.0:
            return 0.0
        return -math.log10(1.0 - mean)

    def full_availability_fraction(self) -> float:
        """Fraction of samples where *all* content was reachable."""
        if not self.samples:
            return 1.0 if self.available_fraction() == 1.0 else 0.0
        return sum(1 for _, f in self.samples if f >= 1.0) / len(self.samples)
