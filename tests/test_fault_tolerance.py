"""Mid-query fault tolerance: failover, retry budgets, degraded answers,
circuit breaking, and the failure machinery they all ride on."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DataType, Field, Schema, Table
from repro.core.errors import (
    PartialFailureError,
    QueryError,
    SourceUnavailableError,
)
from repro.federation import (
    CircuitState,
    FailureInjector,
    FederatedEngine,
    FederationCatalog,
    PlacementStrategy,
    RetryPolicy,
    SiteHealthTracker,
    place_fragments,
)
from repro.sim import EventLoop, SimClock
from repro.sql import build_plan, parse_sql, resolve


def parts_schema():
    return Schema(
        "parts",
        (
            Field("sku", DataType.STRING),
            Field("price", DataType.FLOAT),
        ),
    )


PARTS_ROWS = [(f"A-{i}", float(i)) for i in range(12)]


def make_engine(retry=None, site_count=4, replicas=None):
    """Four sites, 'parts' in two fragments, RF=2 each by default."""
    clock = SimClock()
    catalog = FederationCatalog(clock)
    for i in range(site_count):
        catalog.make_site(f"s{i}")
    table = Table(parts_schema(), PARTS_ROWS)
    catalog.load_fragmented(
        table, 2, replicas or [["s0", "s1"], ["s2", "s3"]]
    )
    return FederatedEngine(catalog, retry=retry)


def plan_for(engine, sql="select sku from parts"):
    return engine.optimizer.optimize(
        build_plan(resolve(parse_sql(sql), engine.catalog.binding_fields))
    )


class TestScanFailover:
    def test_failover_charges_backoff_latency(self):
        engine = make_engine()
        plan = plan_for(engine)
        for assignment in plan.assignments.values():
            for choice in assignment.choices:
                engine.catalog.site(choice.site_name).up = False
        table, report = engine.executor.execute(plan)
        assert len(table) == 12
        assert report.failovers >= 1
        assert report.failover_attempts >= report.failovers
        assert report.retry_seconds > 0.0
        # Every failover's backoff pause flows into the scan pipeline, so
        # the response is at least as long as the modeled retries.
        assert report.response_seconds >= engine.retry.backoff_seconds(0)

    def test_failover_event_in_operator_stats(self):
        engine = make_engine()
        plan = plan_for(engine)
        dead = plan.assignments["parts"].choices[0].site_name
        engine.catalog.site(dead).up = False
        _, report = engine.executor.execute(plan)
        details = [s.detail for s in report.operators.walk() if s.detail]
        assert any(f"failover {dead}→" in d for d in details)
        assert any("retry" in d for d in details)

    def test_retry_budget_zero_forbids_failover(self):
        engine = make_engine(retry=RetryPolicy(budget=0))
        plan = plan_for(engine)
        for choice in plan.assignments["parts"].choices:
            engine.catalog.site(choice.site_name).up = False
        with pytest.raises(PartialFailureError):
            engine.executor.execute(plan)

    def test_failover_disabled_reproduces_raw_failure(self):
        engine = make_engine(retry=RetryPolicy(enabled=False))
        plan = plan_for(engine)
        dead = plan.assignments["parts"].choices[0].site_name
        engine.catalog.site(dead).up = False
        with pytest.raises(SourceUnavailableError) as excinfo:
            engine.executor.execute(plan)
        assert excinfo.value.site == dead
        assert excinfo.value.fragment is not None
        assert "parts/" in excinfo.value.fragment

    def test_failover_feeds_health_tracker(self):
        engine = make_engine()
        plan = plan_for(engine)
        dead = plan.assignments["parts"].choices[0].site_name
        engine.catalog.site(dead).up = False
        engine.executor.execute(plan)
        assert engine.health.health(dead).total_failures >= 1
        assert engine.health.health(dead).consecutive_failures >= 1


class TestDegradedAnswers:
    def kill_fragment_replicas(self, engine, fragment_index=0):
        fragment = engine.catalog.entry("parts").fragments[fragment_index]
        for name in fragment.replica_sites():
            engine.catalog.site(name).up = False
        return fragment

    def test_partial_failure_error_is_structured(self):
        engine = make_engine()
        fragment = self.kill_fragment_replicas(engine)
        with pytest.raises(PartialFailureError) as excinfo:
            engine.query("select sku from parts")
        error = excinfo.value
        assert f"parts/{fragment.fragment_id}" in error.unreachable_fragments
        assert set(error.dead_sites) == set(fragment.replica_sites())
        assert isinstance(error, QueryError)  # old handlers keep working
        assert engine.metrics.counter("queries.partial_failures").value == 1

    def test_degraded_ok_returns_partial_answer(self):
        engine = make_engine()
        fragment = self.kill_fragment_replicas(engine)
        result = engine.query("select sku from parts", degraded_ok=True)
        report = result.report
        assert report.degraded
        assert 0.0 < report.completeness < 1.0
        assert report.completeness == pytest.approx(
            1.0 - fragment.estimated_rows / len(PARTS_ROWS)
        )
        assert f"parts/{fragment.fragment_id}" in report.unreachable_fragments
        assert set(report.dead_sites) == set(fragment.replica_sites())
        # The reachable fragment's rows still come back.
        assert 0 < len(result.table) < len(PARTS_ROWS)
        assert engine.metrics.counter("queries.degraded").value == 1

    def test_degraded_scan_not_captured_in_cache(self):
        from repro.federation import SemanticCache

        clock = SimClock()
        catalog = FederationCatalog(clock)
        for i in range(4):
            catalog.make_site(f"s{i}")
        catalog.load_fragmented(
            Table(parts_schema(), PARTS_ROWS), 2, [["s0", "s1"], ["s2", "s3"]]
        )
        cache = SemanticCache(clock, max_rows=100_000)
        engine = FederatedEngine(catalog, cache=cache)
        for name in ("s0", "s1"):
            catalog.site(name).up = False
        engine.query("select sku from parts", degraded_ok=True)
        # A partial scan must not become a cached "answer" for the region.
        assert cache.lookup("parts", []) is None

    def test_complete_answer_reports_full_completeness(self):
        engine = make_engine()
        result = engine.query("select sku from parts")
        assert result.report.completeness == 1.0
        assert not result.report.degraded
        assert result.report.unreachable_fragments == []


class TestSiteHealthTracker:
    def make(self, **kwargs):
        clock = SimClock()
        defaults = dict(failure_threshold=3, cooldown_seconds=60.0)
        defaults.update(kwargs)
        return clock, SiteHealthTracker(clock, **defaults)

    def test_circuit_trips_at_threshold(self):
        _, tracker = self.make()
        for _ in range(2):
            tracker.record_failure("s0")
        assert tracker.state("s0") is CircuitState.CLOSED
        tracker.record_failure("s0")
        assert tracker.state("s0") is CircuitState.OPEN
        assert not tracker.allow("s0")
        assert tracker.trips == 1

    def test_half_open_after_cooldown_and_close_on_success_streak(self):
        clock, tracker = self.make()  # default half_open_successes=2
        for _ in range(3):
            tracker.record_failure("s0")
        clock.advance(60.0)
        assert tracker.state("s0") is CircuitState.HALF_OPEN
        assert tracker.allow("s0")  # probes allowed through
        tracker.record_success("s0")
        # One lucky probe must not fully restore trust.
        assert tracker.state("s0") is CircuitState.HALF_OPEN
        tracker.record_success("s0")
        assert tracker.state("s0") is CircuitState.CLOSED
        assert tracker.health("s0").consecutive_failures == 0

    def test_single_probe_streak_closes_immediately(self):
        clock, tracker = self.make(half_open_successes=1)
        for _ in range(3):
            tracker.record_failure("s0")
        clock.advance(60.0)
        tracker.record_success("s0")
        assert tracker.state("s0") is CircuitState.CLOSED

    def test_flapping_site_never_closes_on_alternating_probes(self):
        # Regression for the flap that motivated the streak: a site that
        # alternates probe success / probe failure must stay broken.
        clock, tracker = self.make(half_open_successes=2)
        for _ in range(3):
            tracker.record_failure("s0")
        for _ in range(5):
            clock.advance(60.0)
            assert tracker.state("s0") is CircuitState.HALF_OPEN
            tracker.record_success("s0")  # one good probe...
            assert tracker.state("s0") is CircuitState.HALF_OPEN
            tracker.record_failure("s0")  # ...then the flap
            assert tracker.state("s0") is CircuitState.OPEN
        # A clean streak finally closes it.
        clock.advance(60.0)
        tracker.record_success("s0")
        tracker.record_success("s0")
        assert tracker.state("s0") is CircuitState.CLOSED

    def test_success_while_fully_open_earns_nothing(self):
        clock, tracker = self.make(half_open_successes=1)
        for _ in range(3):
            tracker.record_failure("s0")
        assert tracker.state("s0") is CircuitState.OPEN
        tracker.record_success("s0")  # forced traffic, not a probe
        assert tracker.state("s0") is CircuitState.OPEN
        assert tracker.health("s0").probe_successes == 0

    def test_tracker_rejects_degenerate_parameters(self):
        clock = SimClock()
        with pytest.raises(ValueError, match="cooldown_seconds"):
            SiteHealthTracker(clock, cooldown_seconds=0.0)
        with pytest.raises(ValueError, match="cooldown_seconds"):
            SiteHealthTracker(clock, cooldown_seconds=-5.0)
        with pytest.raises(ValueError, match="risk_decay_seconds"):
            SiteHealthTracker(clock, risk_decay_seconds=0.0)
        with pytest.raises(ValueError, match="half_open_successes"):
            SiteHealthTracker(clock, half_open_successes=0)
        with pytest.raises(ValueError, match="failure_threshold"):
            SiteHealthTracker(clock, failure_threshold=0)

    def test_failed_half_open_probe_reopens(self):
        clock, tracker = self.make()
        for _ in range(3):
            tracker.record_failure("s0")
        clock.advance(60.0)
        assert tracker.state("s0") is CircuitState.HALF_OPEN
        tracker.record_failure("s0")
        assert tracker.state("s0") is CircuitState.OPEN

    def test_risk_penalty_decays(self):
        clock, tracker = self.make(risk_decay_seconds=100.0)
        tracker.record_failure("s0")
        fresh = tracker.risk_penalty("s0")
        assert fresh > 0.0
        clock.advance(50.0)
        assert 0.0 < tracker.risk_penalty("s0") < fresh
        clock.advance(60.0)
        assert tracker.risk_penalty("s0") == 0.0
        assert tracker.price_multiplier("s0") == 1.0

    def test_prefer_orders_by_risk_never_drops(self):
        _, tracker = self.make()
        for _ in range(3):
            tracker.record_failure("s2")
        tracker.record_failure("s1")
        ordered = tracker.prefer(["s2", "s1", "s0"])
        assert ordered == ["s0", "s1", "s2"]  # healthy, risky, tripped

    def test_flaky_site_priced_out_of_the_market(self):
        engine = make_engine()
        # Make s0 look flaky (but keep it up so it still bids).
        engine.health.record_failure("s0")
        engine.health.record_failure("s0")
        plan = plan_for(engine)
        chosen = {c.site_name for c in plan.assignments["parts"].choices}
        assert "s0" not in chosen  # its risk-inflated ask lost the auction


class TestSatelliteFixes:
    def test_quote_scan_on_down_site_raises(self):
        engine = make_engine()
        site = engine.catalog.site("s0")
        source_name = next(iter(site._sources))
        site.up = False
        with pytest.raises(SourceUnavailableError) as excinfo:
            site.quote_scan(source_name)
        assert excinfo.value.site == "s0"

    def test_source_unavailable_carries_context(self):
        error = SourceUnavailableError("s3", fragment="parts/f1")
        assert error.site == "s3"
        assert error.fragment == "parts/f1"

    def test_scheduled_refresh_survives_dead_base_site(self):
        engine = make_engine(replicas=[["s0"], ["s0"]])  # single-host base
        loop = EventLoop(engine.catalog.clock)
        view = engine.create_materialized_view(
            "parts_mv", "parts", "s1", refresh_interval=100.0
        )
        engine.schedule_view_refresh(view, loop)
        engine.catalog.site("s0").up = False
        loop.run_until(250.0)  # two refresh ticks fire against a dead base
        assert view.refresh_failures == 2
        assert engine.metrics.counter("view.refresh_failures").value == 2
        # The base repairs; the next tick refreshes normally again.
        engine.catalog.site("s0").up = True
        refreshes_before = view.refresh_count
        loop.run_until(350.0)
        assert view.refresh_count == refreshes_before + 1
        assert view.refresh_failures == 2


class TestFailureInjector:
    def run_injector(self, seed=7, horizon=5000.0, **kwargs):
        clock = SimClock()
        catalog = FederationCatalog(clock)
        for i in range(4):
            catalog.make_site(f"s{i}")
        loop = EventLoop(clock)
        injector = FailureInjector(
            loop, catalog, mttf=100.0, mttr=20.0,
            rng=random.Random(seed), **kwargs
        )
        injector.start()
        loop.run_until(horizon)
        return injector

    def test_same_seed_identical_schedule(self):
        first = self.run_injector(seed=7)
        second = self.run_injector(seed=7)
        assert first.history == second.history
        assert len(first.history) > 0

    def test_different_seed_different_schedule(self):
        assert self.run_injector(seed=7).history != self.run_injector(seed=8).history

    def test_concurrency_cap_respected(self):
        injector = self.run_injector(max_concurrent_failures=1)
        down = set()
        for _, name, kind in injector.history:
            if kind == "fail":
                down.add(name)
            else:
                down.discard(name)
            assert len(down) <= 1
        assert injector.skipped_failures > 0

    def test_cap_must_be_positive(self):
        with pytest.raises(QueryError):
            self.run_injector(max_concurrent_failures=0)


class TestPlaceFragmentsEdgeCases:
    def test_no_sites_raises(self):
        with pytest.raises(QueryError):
            place_fragments(PlacementStrategy.CENTRAL, 4, [])

    def test_hot_standby_needs_two_sites(self):
        with pytest.raises(QueryError):
            place_fragments(PlacementStrategy.HOT_STANDBY, 4, ["only"])

    def test_bad_replication_factor_raises(self):
        with pytest.raises(QueryError):
            place_fragments(
                PlacementStrategy.FRAGMENT_REPLICATE, 4, ["a", "b"], 0
            )

    def test_replication_factor_clamped_to_site_count(self):
        placement = place_fragments(
            PlacementStrategy.FRAGMENT_REPLICATE, 3, ["a", "b"], 5
        )
        assert all(sorted(replicas) == ["a", "b"] for replicas in placement)

    def test_zero_fragments_gives_empty_placement(self):
        assert place_fragments(PlacementStrategy.CENTRAL, 0, ["a"]) == []

    def test_replicas_are_distinct_sites(self):
        placement = place_fragments(
            PlacementStrategy.FRAGMENT_REPLICATE, 8, [f"s{i}" for i in range(5)], 3
        )
        for replicas in placement:
            assert len(replicas) == len(set(replicas)) == 3


class TestFailoverEquivalence:
    """Failover answers equal no-failure answers whenever every fragment
    keeps at least one live replica (the §3.2 C8 "most of the content all
    of the time" guarantee, at query level)."""

    @settings(max_examples=25, deadline=None)
    @given(dead=st.sets(st.integers(min_value=0, max_value=3), max_size=3))
    def test_failover_preserves_answers(self, dead):
        engine = make_engine()
        baseline = sorted(
            engine.query("select sku from parts where price >= 2").table.column(
                "sku"
            )
        )

        engine = make_engine()
        plan = plan_for(engine, "select sku from parts where price >= 2")
        dead_names = {f"s{i}" for i in dead}
        # Only kill subsets that keep >=1 live replica per fragment.
        for fragment in engine.catalog.entry("parts").fragments:
            live = set(fragment.replica_sites()) - dead_names
            if not live:
                return
        for name in dead_names:
            engine.catalog.site(name).up = False
        table, report = engine.executor.execute(plan)
        assert sorted(table.column("sku")) == baseline
        assert report.completeness == 1.0
