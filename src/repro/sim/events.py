"""A discrete-event scheduler over :class:`~repro.sim.clock.SimClock`.

Recurring background activities -- warehouse refreshes, site failures and
repairs, supplier price updates -- are modeled as events on this loop.  The
loop pops events in timestamp order, advances the shared clock to each
event's time, and invokes its callback.  Callbacks may schedule further
events (that is how periodic activities recur).

Ties on timestamp are broken by insertion order: every event carries a
monotonically increasing sequence number and the heap orders on
``(time, sequence)``, so equal-timestamp events fire strictly FIFO -- even
events scheduled *during* a callback at the same instant run after everything
already queued for that instant.  The workload manager's schedulers depend on
this (a completion that frees a slot and the dispatch it triggers must
interleave identically under identical seeds); the guarantee is pinned by
regression tests in ``tests/test_sim_clock_events.py``.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable

from repro.sim.clock import SimClock


@dataclass(order=True)
class ScheduledEvent:
    """An event queued on the loop; ordered by ``(time, sequence)``."""

    time: float
    sequence: int
    name: str = field(compare=False)
    # Dropped once the event can never fire again (fired or cancelled), so
    # whoever keeps the event does not keep what the callback closes over.
    callback: Callable[[], None] | None = field(compare=False)
    # The loop whose live count still includes this event; dropped with
    # the callback, so cancelling twice or after firing counts nothing.
    loop: "EventLoop | None" = field(default=None, compare=False, repr=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        """Mark the event so it is skipped when popped."""
        self._retire()
        self.cancelled = True

    def _retire(self) -> Callable[[], None] | None:
        """Stop counting as live and hand back the callback, once."""
        callback, self.callback = self.callback, None
        loop, self.loop = self.loop, None
        if loop is not None:
            loop._live -= 1
        return callback


class EventLoop:
    """A deterministic discrete-event loop bound to a :class:`SimClock`."""

    def __init__(self, clock: SimClock) -> None:
        self.clock = clock
        self._queue: list[ScheduledEvent] = []
        self._sequence = itertools.count()
        self._live = 0  # queued events neither fired nor cancelled
        self.fired = 0

    def schedule_at(
        self, time: float, callback: Callable[[], None], name: str = ""
    ) -> ScheduledEvent:
        """Schedule ``callback`` at absolute simulated ``time``."""
        if time < self.clock.now():
            raise ValueError(
                f"cannot schedule event {name!r} at {time!r}, "
                f"clock is already at {self.clock.now()!r}"
            )
        event = ScheduledEvent(time, next(self._sequence), name, callback, self)
        heapq.heappush(self._queue, event)
        self._live += 1
        return event

    def schedule_after(
        self, delay: float, callback: Callable[[], None], name: str = ""
    ) -> ScheduledEvent:
        """Schedule ``callback`` after a relative ``delay`` seconds."""
        if delay < 0:
            raise ValueError(f"negative delay {delay!r} for event {name!r}")
        return self.schedule_at(self.clock.now() + delay, callback, name)

    def schedule_every(
        self, interval: float, callback: Callable[[], None], name: str = ""
    ) -> ScheduledEvent:
        """Schedule ``callback`` to recur every ``interval`` seconds.

        The first firing is one interval from now.  Cancelling the returned
        event stops the *next* firing only; use the wrapper returned by each
        subsequent firing via ``callback`` semantics if finer control is
        needed (the common idiom is to cancel and reschedule).
        """
        if interval <= 0:
            raise ValueError(f"non-positive interval {interval!r} for {name!r}")

        def fire_and_reschedule() -> None:
            callback()
            self.schedule_after(interval, fire_and_reschedule, name)

        return self.schedule_after(interval, fire_and_reschedule, name)

    def pending(self) -> int:
        """Return the number of live (non-cancelled) events queued.

        A running count kept by ``schedule_at``, ``cancel`` and firing:
        drivers poll this once per event with every arrival pre-scheduled.
        """
        return self._live

    def run_until(self, end_time: float) -> int:
        """Fire all events with ``time <= end_time``; return the count fired.

        The clock finishes exactly at ``end_time`` even if the last event is
        earlier, so callers can measure rates over a fixed window.
        """
        fired = 0
        while self._queue and self._queue[0].time <= end_time:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            # Other actors (e.g. queries) may have advanced the shared clock
            # past this event's time; a late event fires immediately.
            if event.time > self.clock.now():
                self.clock.advance_to(event.time)
            callback = event._retire()
            callback()
            fired += 1
        if end_time > self.clock.now():
            self.clock.advance_to(end_time)
        self.fired += fired
        return fired

    def run_next(self) -> ScheduledEvent | None:
        """Fire the single next live event, or return None if queue is empty."""
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            if event.time > self.clock.now():
                self.clock.advance_to(event.time)
            callback = event._retire()
            callback()
            self.fired += 1
            return event
        return None
