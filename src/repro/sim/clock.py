"""A logical simulation clock.

All latency, staleness and uptime measurements in the reproduction are taken
against a :class:`SimClock` rather than the wall clock.  Components that
"spend time" (a wrapper fetching a page, a site executing an operator) call
:meth:`SimClock.advance` with the simulated cost; observers read
:meth:`SimClock.now`.
"""

from __future__ import annotations


class ClockError(Exception):
    """Raised on invalid clock manipulation (e.g. moving time backwards)."""


class SimClock:
    """A monotonically non-decreasing logical clock, measured in seconds.

    The clock starts at ``start`` (default ``0.0``).  Time only moves when a
    component explicitly advances it, which keeps simulations deterministic.

    >>> clock = SimClock()
    >>> clock.advance(2.5)
    2.5
    >>> clock.now()
    2.5
    """

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ClockError(f"clock cannot start at negative time {start!r}")
        self._now = float(start)

    def now(self) -> float:
        """Return the current simulated time in seconds."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Move time forward by ``seconds`` and return the new time.

        ``seconds`` must be non-negative; a zero advance is allowed (it is
        how zero-cost bookkeeping operations express "no time passed").
        """
        if seconds < 0:
            raise ClockError(f"cannot advance clock by negative {seconds!r}s")
        self._now += seconds
        return self._now

    def advance_to(self, timestamp: float) -> float:
        """Move time forward to an absolute ``timestamp``.

        Raises :class:`ClockError` if ``timestamp`` is in the past; advancing
        to the current time is a no-op.
        """
        if timestamp < self._now:
            raise ClockError(
                f"cannot move clock backwards from {self._now!r} to {timestamp!r}"
            )
        self._now = float(timestamp)
        return self._now

    def __repr__(self) -> str:
        return f"SimClock(now={self._now!r})"
