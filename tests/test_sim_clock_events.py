"""Unit tests for the simulation clock, RNG registry and event loop."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim import EventLoop, RngRegistry, SimClock, derive_seed
from repro.sim.clock import ClockError


class TestSimClock:
    def test_starts_at_zero_by_default(self):
        assert SimClock().now() == 0.0

    def test_starts_at_given_time(self):
        assert SimClock(start=10.0).now() == 10.0

    def test_negative_start_rejected(self):
        with pytest.raises(ClockError):
            SimClock(start=-1.0)

    def test_advance_moves_time_forward(self):
        clock = SimClock()
        assert clock.advance(2.5) == 2.5
        assert clock.advance(0.5) == 3.0

    def test_zero_advance_is_noop(self):
        clock = SimClock(start=5.0)
        clock.advance(0.0)
        assert clock.now() == 5.0

    def test_negative_advance_rejected(self):
        with pytest.raises(ClockError):
            SimClock().advance(-0.1)

    def test_advance_to_absolute_time(self):
        clock = SimClock()
        clock.advance_to(7.0)
        assert clock.now() == 7.0

    def test_advance_to_past_rejected(self):
        clock = SimClock(start=10.0)
        with pytest.raises(ClockError):
            clock.advance_to(9.0)

    def test_advance_to_now_is_noop(self):
        clock = SimClock(start=4.0)
        clock.advance_to(4.0)
        assert clock.now() == 4.0

    @given(st.lists(st.floats(min_value=0, max_value=1e6), max_size=50))
    def test_clock_is_monotone_under_any_advances(self, steps):
        clock = SimClock()
        previous = clock.now()
        for step in steps:
            clock.advance(step)
            assert clock.now() >= previous
            previous = clock.now()


class TestRngRegistry:
    def test_same_name_returns_same_stream(self):
        rng = RngRegistry(seed=1)
        assert rng.stream("a") is rng.stream("a")

    def test_streams_are_independent_of_creation_order(self):
        first = RngRegistry(seed=7)
        draws_a_then_b = (first.stream("a").random(), first.stream("b").random())
        second = RngRegistry(seed=7)
        draws_b_then_a = (second.stream("b").random(), second.stream("a").random())
        assert draws_a_then_b[0] == draws_b_then_a[1]
        assert draws_a_then_b[1] == draws_b_then_a[0]

    def test_different_seeds_differ(self):
        assert RngRegistry(seed=1).stream("x").random() != RngRegistry(
            seed=2
        ).stream("x").random()

    def test_derive_seed_is_stable(self):
        assert derive_seed(42, "hotels") == derive_seed(42, "hotels")
        assert derive_seed(42, "hotels") != derive_seed(42, "suppliers")

    def test_fork_gives_namespaced_registry(self):
        root = RngRegistry(seed=3)
        child = root.fork("federation")
        assert child.seed == derive_seed(3, "federation")
        assert isinstance(child.stream("sites"), random.Random)

    @given(st.integers(), st.text(min_size=1, max_size=30))
    def test_derive_seed_fits_64_bits(self, seed, name):
        value = derive_seed(seed, name)
        assert 0 <= value < 2**64


class TestEventLoop:
    def test_events_fire_in_time_order(self):
        clock = SimClock()
        loop = EventLoop(clock)
        fired = []
        loop.schedule_at(5.0, lambda: fired.append("late"))
        loop.schedule_at(1.0, lambda: fired.append("early"))
        loop.run_until(10.0)
        assert fired == ["early", "late"]

    def test_clock_advances_to_event_times(self):
        clock = SimClock()
        loop = EventLoop(clock)
        seen = []
        loop.schedule_at(3.0, lambda: seen.append(clock.now()))
        loop.run_until(4.0)
        assert seen == [3.0]
        assert clock.now() == 4.0

    def test_ties_break_by_insertion_order(self):
        loop = EventLoop(SimClock())
        fired = []
        loop.schedule_at(2.0, lambda: fired.append("first"))
        loop.schedule_at(2.0, lambda: fired.append("second"))
        loop.run_until(2.0)
        assert fired == ["first", "second"]

    def test_many_way_ties_preserve_full_fifo_order(self):
        # The workload scheduler depends on this: equal-timestamp events
        # must fire in exact schedule order, not heap-internal order.
        loop = EventLoop(SimClock())
        fired = []
        for index in range(50):
            loop.schedule_at(3.0, lambda i=index: fired.append(i))
        loop.run_until(3.0)
        assert fired == list(range(50))

    def test_interleaved_times_keep_fifo_within_each_instant(self):
        loop = EventLoop(SimClock())
        fired = []
        for label, time in [("a", 2.0), ("b", 1.0), ("c", 2.0), ("d", 1.0)]:
            loop.schedule_at(time, lambda tag=label: fired.append(tag))
        loop.run_until(2.0)
        assert fired == ["b", "d", "a", "c"]

    def test_same_instant_event_from_callback_fires_after_queued_ones(self):
        # An event scheduled *during* a callback for the current instant
        # still runs after everything already queued at that instant.
        clock = SimClock()
        loop = EventLoop(clock)
        fired = []

        def spawn_sibling():
            fired.append("spawner")
            loop.schedule_at(clock.now(), lambda: fired.append("spawned"))

        loop.schedule_at(1.0, spawn_sibling)
        loop.schedule_at(1.0, lambda: fired.append("queued"))
        loop.run_until(1.0)
        assert fired == ["spawner", "queued", "spawned"]

    @given(st.lists(st.floats(min_value=0.0, max_value=5.0), max_size=40))
    def test_fifo_tie_break_holds_under_any_schedule(self, times):
        loop = EventLoop(SimClock())
        fired = []
        for index, time in enumerate(times):
            loop.schedule_at(time, lambda i=index: fired.append(i))
        loop.run_until(6.0)
        expected = [i for _, i in sorted(zip(times, range(len(times))))]
        assert fired == expected

    def test_schedule_after_is_relative(self):
        clock = SimClock(start=10.0)
        loop = EventLoop(clock)
        seen = []
        loop.schedule_after(5.0, lambda: seen.append(clock.now()))
        loop.run_until(20.0)
        assert seen == [15.0]

    def test_schedule_in_past_rejected(self):
        clock = SimClock(start=10.0)
        loop = EventLoop(clock)
        with pytest.raises(ValueError):
            loop.schedule_at(5.0, lambda: None)

    def test_negative_delay_rejected(self):
        loop = EventLoop(SimClock())
        with pytest.raises(ValueError):
            loop.schedule_after(-1.0, lambda: None)

    def test_cancelled_events_do_not_fire(self):
        loop = EventLoop(SimClock())
        fired = []
        event = loop.schedule_at(1.0, lambda: fired.append("x"))
        event.cancel()
        loop.run_until(2.0)
        assert fired == []

    def test_recurring_event_fires_each_interval(self):
        clock = SimClock()
        loop = EventLoop(clock)
        times = []
        loop.schedule_every(10.0, lambda: times.append(clock.now()))
        loop.run_until(35.0)
        assert times == [10.0, 20.0, 30.0]

    def test_recurring_event_zero_interval_rejected(self):
        loop = EventLoop(SimClock())
        with pytest.raises(ValueError):
            loop.schedule_every(0.0, lambda: None)

    def test_callbacks_may_schedule_more_events(self):
        clock = SimClock()
        loop = EventLoop(clock)
        fired = []

        def chain():
            fired.append(clock.now())
            if len(fired) < 3:
                loop.schedule_after(1.0, chain)

        loop.schedule_at(1.0, chain)
        loop.run_until(10.0)
        assert fired == [1.0, 2.0, 3.0]

    def test_run_next_fires_exactly_one(self):
        loop = EventLoop(SimClock())
        fired = []
        loop.schedule_at(1.0, lambda: fired.append(1))
        loop.schedule_at(2.0, lambda: fired.append(2))
        loop.run_next()
        assert fired == [1]

    def test_run_next_on_empty_returns_none(self):
        assert EventLoop(SimClock()).run_next() is None

    def test_pending_counts_live_events(self):
        loop = EventLoop(SimClock())
        keep = loop.schedule_at(1.0, lambda: None)
        dropped = loop.schedule_at(2.0, lambda: None)
        dropped.cancel()
        assert loop.pending() == 1
        assert keep.time == 1.0

    def test_pending_survives_repeated_and_late_cancels(self):
        loop = EventLoop(SimClock())
        fired = []
        first = loop.schedule_at(1.0, lambda: fired.append("first"))
        second = loop.schedule_at(2.0, lambda: fired.append("second"))
        third = loop.schedule_at(3.0, lambda: fired.append("third"))
        assert loop.pending() == 3
        # Cancel while queued, twice: counted once.
        second.cancel()
        second.cancel()
        assert loop.pending() == 2
        # Cancel after firing: the firing already took it off the count.
        assert loop.run_next() is first
        assert loop.pending() == 1
        first.cancel()
        first.cancel()
        assert loop.pending() == 1
        # The cancelled event is still in the heap and is skipped over.
        assert loop.run_next() is third
        assert loop.pending() == 0
        assert loop.run_next() is None
        assert loop.pending() == 0
        assert fired == ["first", "third"]

    def test_pending_counts_events_scheduled_and_cancelled_in_callbacks(self):
        clock = SimClock()
        loop = EventLoop(clock)
        seen = []
        victim = loop.schedule_at(5.0, lambda: seen.append("victim"))

        def spawn():
            # The firing event is no longer pending inside its own callback,
            # even if the callback cancels it.
            spawner.cancel()
            seen.append(("in spawn", loop.pending()))
            loop.schedule_at(clock.now(), lambda: seen.append("same instant"))
            loop.schedule_after(1.0, lambda: seen.append("later"))
            victim.cancel()
            seen.append(("after spawn", loop.pending()))

        spawner = loop.schedule_at(1.0, spawn)
        assert loop.pending() == 2
        assert loop.run_until(1.0) == 2
        assert seen == [("in spawn", 1), ("after spawn", 2), "same instant"]
        assert loop.pending() == 1
        loop.run_until(10.0)
        assert seen[-1] == "later"
        assert loop.pending() == 0

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=5.0),
                st.sampled_from(["keep", "cancel", "cancel twice"]),
            ),
            max_size=40,
        ),
        st.floats(min_value=0.0, max_value=6.0),
    )
    def test_pending_equals_a_scan_of_the_heap(self, plan, horizon):
        loop = EventLoop(SimClock())
        events = []
        for time, fate in plan:
            events.append(loop.schedule_at(time, lambda: None))
            if fate != "keep":
                events[-1].cancel()
            if fate == "cancel twice":
                events[-1].cancel()
        loop.run_until(horizon)
        for event in events[::3]:
            event.cancel()  # some fired, some queued, some already cancelled
        live = sum(1 for event in loop._queue if not event.cancelled)
        assert loop.pending() == live

    def test_run_until_advances_clock_even_without_events(self):
        clock = SimClock()
        loop = EventLoop(clock)
        loop.run_until(50.0)
        assert clock.now() == 50.0
