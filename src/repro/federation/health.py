"""Per-site health tracking: failure memory, circuit breaking, risk pricing.

§3.2 C8 argues the federation must ride through "issues that lie outside
the control of the query system".  Liveness (``Site.up``) is the instant
truth, but a site that *just* repaired -- or keeps flapping -- is a worse
bet than one that has served every request for an hour.  This module keeps
that memory:

* :class:`SiteHealthTracker` records every observed scan outcome per site:
  consecutive failures, totals, and last failure/success times on the
  simulation clock.
* A simple **half-open circuit breaker**: after :data:`FAILURE_THRESHOLD`
  consecutive failures a site's circuit opens; while open, planners avoid
  it when an alternative replica exists.  After :data:`COOLDOWN_SECONDS`
  the circuit goes half-open and probes are allowed through; a streak of
  :data:`HALF_OPEN_SUCCESSES` consecutive probe successes closes it, any
  failure re-opens it (one lucky probe against a still-sick site must
  not fully restore trust).
* **Availability-aware pricing**: :meth:`SiteHealthTracker.price_multiplier`
  inflates a flaky site's bid by up to ``1 + MAX_PRICE_PENALTY``; the
  penalty decays linearly over :data:`RISK_DECAY_SECONDS` since the last
  failure, so a site earns its way back into the market by staying up --
  the adaptive half of the agoric story applied to *availability* instead
  of load.

The executor's failover, which feeds the tracker, is bounded and priced by
the retry budget and backoff constants of :mod:`repro.federation.stage`.

All three optimizers consult the tracker (the engine attaches its tracker
to whatever optimizer it is built with, exactly as it attaches the
semantic cache) and the executor feeds it outcomes, closing the loop.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.sim.clock import SimClock

# Consecutive failures that open a site's circuit.
FAILURE_THRESHOLD = 3
# How long an open circuit stays open before it half-opens for probes.
COOLDOWN_SECONDS = 60.0
# Consecutive half-open probe successes that close the circuit again.
HALF_OPEN_SUCCESSES = 2
# The risk penalty decays linearly to zero over this long after a failure.
RISK_DECAY_SECONDS = 600.0
# A site at full risk asks ``1 + MAX_PRICE_PENALTY`` times its price.
MAX_PRICE_PENALTY = 4.0


class CircuitState(enum.Enum):
    """The classic three breaker states."""

    CLOSED = "closed"  # healthy: requests flow
    OPEN = "open"  # tripped: avoid while alternatives exist
    HALF_OPEN = "half-open"  # cooled down: one probe allowed


@dataclass
class SiteHealth:
    """Observed availability record for one site."""

    consecutive_failures: int = 0
    total_failures: int = 0
    total_successes: int = 0
    last_failure_at: float | None = None
    last_success_at: float | None = None
    opened_at: float | None = None  # when the circuit tripped (None = closed)
    probe_successes: int = 0  # consecutive half-open probe successes


class SiteHealthTracker:
    """Remembers per-site scan outcomes; prices risk; breaks circuits."""

    def __init__(self, clock: SimClock) -> None:
        self.clock = clock
        self.trips = 0  # lifetime circuit-open transitions
        self._sites: dict[str, SiteHealth] = {}
        # Sites with a nonzero failure streak or a circuit not yet closed.
        # Every other site is CLOSED at zero risk, whatever its record says,
        # so a planner asks about one replica with a set lookup.
        self.troubled: set[str] = set()

    def health(self, site_name: str) -> SiteHealth:
        if site_name not in self._sites:
            self._sites[site_name] = SiteHealth()
        return self._sites[site_name]

    # -- outcome recording -------------------------------------------------

    def record_failure(self, site_name: str) -> None:
        record = self.health(site_name)
        self.troubled.add(site_name)
        record.consecutive_failures += 1
        record.total_failures += 1
        record.last_failure_at = self.clock.now()
        record.probe_successes = 0  # any failure breaks the closing streak
        if (
            record.consecutive_failures >= FAILURE_THRESHOLD
            and record.opened_at is None
        ):
            record.opened_at = self.clock.now()
            self.trips += 1
        elif record.opened_at is not None and self.state(site_name) is not (
            CircuitState.OPEN
        ):
            # A failed half-open probe re-opens the circuit from *now*.
            record.opened_at = self.clock.now()

    def record_success(self, site_name: str) -> None:
        record = self.health(site_name)
        record.total_successes += 1
        record.last_success_at = self.clock.now()
        if record.opened_at is None:
            record.consecutive_failures = 0
            self.troubled.discard(site_name)
            return
        if self.state(site_name) is not CircuitState.HALF_OPEN:
            # Forced traffic against a fully open circuit is not a
            # sanctioned probe; it earns nothing toward closing.
            return
        # Half-open probe: one lucky success against a still-sick site
        # must not fully restore trust.  Only a streak closes the circuit.
        record.probe_successes += 1
        if record.probe_successes >= HALF_OPEN_SUCCESSES:
            record.opened_at = None
            record.consecutive_failures = 0
            record.probe_successes = 0
            self.troubled.discard(site_name)

    # -- breaker -----------------------------------------------------------

    def state(self, site_name: str) -> CircuitState:
        record = self._sites.get(site_name)
        if record is None or record.opened_at is None:
            return CircuitState.CLOSED
        if self.clock.now() - record.opened_at >= COOLDOWN_SECONDS:
            return CircuitState.HALF_OPEN
        return CircuitState.OPEN

    def allow(self, site_name: str) -> bool:
        """May work be routed here?  Open circuits say no; half-open lets a
        probe through so the site can prove itself repaired."""
        return self.state(site_name) is not CircuitState.OPEN

    # -- risk pricing ------------------------------------------------------

    def risk_penalty(self, site_name: str) -> float:
        """A [0, 1] risk factor: 0 = no recent failures, 1 = tripped now.

        Scales with how close the site is to (or past) the trip threshold
        and decays linearly over :data:`RISK_DECAY_SECONDS` since the last
        failure, so stale incidents stop distorting prices.
        """
        record = self._sites.get(site_name)
        if (
            record is None
            or record.consecutive_failures == 0
            or record.last_failure_at is None
        ):
            return 0.0
        severity = min(1.0, record.consecutive_failures / FAILURE_THRESHOLD)
        age = self.clock.now() - record.last_failure_at
        freshness = max(0.0, 1.0 - age / RISK_DECAY_SECONDS)
        return severity * freshness

    def price_multiplier(self, site_name: str) -> float:
        """Inflate a flaky site's ask: ``1 + MAX_PRICE_PENALTY * risk``."""
        return 1.0 + MAX_PRICE_PENALTY * self.risk_penalty(site_name)

    def prefer(self, site_names: list[str]) -> list[str]:
        """Order candidate sites best-bet first (risk, then name).

        Sites with open circuits sort last but are never dropped: when
        every replica looks bad, the least-bad one still gets the probe.
        """
        return sorted(
            site_names,
            key=lambda name: (
                0 if self.allow(name) else 1,
                self.risk_penalty(name),
                name,
            ),
        )

    def snapshot(self) -> dict[str, SiteHealth]:
        """A copy of the per-site records (for reports and tests)."""
        return dict(self._sites)
