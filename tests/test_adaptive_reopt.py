"""Adaptive mid-query re-optimization (DESIGN §5i): triggers, migration,
budget/hysteresis, workload-manager mid-flight replanning, and the
bit-identity property that makes adaptivity safe."""

import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DataType, Field, Schema, Table
from repro.federation import (
    FailureInjector,
    FederatedEngine,
    FederationCatalog,
    QueryOptions,
    WorkloadManager,
)
from repro.federation.reopt import (
    CONGESTION_HIGH,
    CONGESTION_LOW,
    MAX_ATTEMPTS,
    MAX_REPLANS,
    MIN_IMPROVEMENT,
)
from repro.federation.governance import GovernanceRegistry
from repro.federation.health import FAILURE_THRESHOLD
from repro.sim import EventLoop, SimClock
from tests.test_governance import MANIFEST, build_federation


def parts_schema():
    return Schema(
        "parts",
        (
            Field("sku", DataType.STRING),
            Field("price", DataType.FLOAT),
        ),
    )


def suppliers_schema():
    return Schema(
        "suppliers",
        (
            Field("sku", DataType.STRING),
            Field("qty", DataType.FLOAT),
        ),
    )


PARTS_ROWS = [(f"A-{i}", float(i)) for i in range(12)]
SUPPLIER_ROWS = [(f"A-{i}", float(100 + i)) for i in range(12)]


def build_engine(reopt=False, with_suppliers=False, parts_replicas=None):
    """Four sites, 'parts' in two fragments with RF=2 each by default."""
    clock = SimClock()
    catalog = FederationCatalog(clock)
    for i in range(4):
        catalog.make_site(f"s{i}")
    catalog.load_fragmented(
        Table(parts_schema(), PARTS_ROWS),
        2,
        parts_replicas or [["s0", "s1"], ["s2", "s3"]],
    )
    if with_suppliers:
        catalog.load_fragmented(
            Table(suppliers_schema(), SUPPLIER_ROWS),
            2,
            [["s1", "s2"], ["s3", "s0"]],
        )
    return FederatedEngine(catalog, reopt=reopt)


def rows_of(result):
    return sorted(map(tuple, result.table.rows))


def fragment_sites(physical):
    return {
        binding: [(c.fragment.fragment_id, c.site_name) for c in a.choices]
        for binding, a in physical.assignments.items()
        if a.kind == "fragments"
    }


class TestReoptPolicyValidation:
    """The re-optimization tuning is fixed (repro.federation.reopt)."""

    def test_defaults_are_valid(self):
        assert MAX_ATTEMPTS >= 1 and MAX_REPLANS >= 0
        # Hysteresis above an idle site's factor of 1.0.
        assert CONGESTION_HIGH > CONGESTION_LOW >= 1.0
        assert 0.0 <= MIN_IMPROVEMENT < 1.0


class TestEngineReopt:
    """Triggers fire as a stage starts; migration swaps only the live copy."""

    def prepared_victim(self, engine, sql="select sku from parts"):
        """Prepare while healthy; return (prepared, first assigned site)."""
        prepared = engine.prepare(sql)
        victim = next(
            choice.site_name
            for assignment in prepared.physical.assignments.values()
            if assignment.kind == "fragments"
            for choice in assignment.choices
        )
        return prepared, victim

    def test_site_down_triggers_migration(self):
        engine = build_engine(reopt=True)
        prepared, victim = self.prepared_victim(engine)
        engine.catalog.site(victim).up = False
        result = engine.execute(prepared)
        report = result.report
        assert report.reoptimizations == 1
        assert report.migrated_stages == 1
        assert report.reopt_wasted_seconds == 0.0
        (event,) = report.reopt_events
        assert event.reason == f"site-down:{victim}"
        assert event.migrated
        assert victim in event.from_sites
        assert victim not in event.to_sites
        # The answer matches a healthy static run bit for bit.
        healthy = build_engine().query("select sku from parts")
        assert rows_of(result) == rows_of(healthy)

    def test_migration_never_pollutes_the_prepared_template(self):
        engine = build_engine(reopt=True)
        prepared, victim = self.prepared_victim(engine)
        before = fragment_sites(prepared.physical)
        engine.catalog.site(victim).up = False
        engine.execute(prepared)
        assert fragment_sites(prepared.physical) == before

    def test_congestion_spike_triggers_migration(self):
        engine = build_engine(reopt=True)
        prepared, victim = self.prepared_victim(engine)
        engine.catalog.site(victim).set_slowdown(5.0)
        result = engine.execute(prepared)
        report = result.report
        assert report.migrated_stages == 1
        (event,) = report.reopt_events
        assert event.reason == f"congestion:{victim}"
        assert event.new_price < event.old_price

    def test_circuit_open_triggers_migration(self):
        engine = build_engine(reopt=True)
        prepared, victim = self.prepared_victim(engine)
        for _ in range(FAILURE_THRESHOLD):
            engine.health.record_failure(victim)
        result = engine.execute(prepared)
        (event,) = result.report.reopt_events
        assert event.reason == f"circuit-open:{victim}"

    def test_deadline_overrun_triggers_resolicitation(self):
        engine = build_engine(reopt=True)
        prepared, _ = self.prepared_victim(engine)
        # An absolute deadline already in the past projects an overrun for
        # any remaining stage.
        result = engine.execute(prepared, options=QueryOptions(deadline_at=0.0))
        report = result.report
        assert report.reoptimizations == 1
        assert report.reopt_events[0].reason == "deadline"
        healthy = build_engine().query("select sku from parts")
        assert rows_of(result) == rows_of(healthy)

    def test_undisturbed_execution_reopts_nothing(self):
        engine = build_engine(reopt=True)
        result = engine.query("select sku from parts")
        report = result.report
        assert report.reoptimizations == 0
        assert report.migrated_stages == 0
        assert report.reopt_events == []
        assert report.reopt_wasted_seconds == 0.0

    def test_worse_alternative_keeps_original_and_books_waste(self):
        # The only other replica of the victim's fragment is slowed even
        # harder: the trigger fires and the re-quote runs, but the fresh
        # placement cannot beat the incumbent, so the migration is refused
        # and the re-solicitation cost lands in the waste ledger.
        engine = build_engine(reopt=True)
        prepared, victim = self.prepared_victim(engine)
        victim_choice = next(
            choice
            for assignment in prepared.physical.assignments.values()
            if assignment.kind == "fragments"
            for choice in assignment.choices
            if choice.site_name == victim
        )
        (alternative,) = [
            name
            for name in victim_choice.fragment.replica_sites()
            if name != victim
        ]
        engine.catalog.site(victim).set_slowdown(5.0)
        engine.catalog.site(alternative).set_slowdown(6.0)
        result = engine.execute(prepared)
        report = result.report
        assert report.reoptimizations == 1
        assert report.migrated_stages == 0
        assert report.reopt_wasted_seconds > 0.0
        (event,) = report.reopt_events
        assert not event.migrated
        healthy = build_engine().query("select sku from parts")
        assert rows_of(result) == rows_of(healthy)

    def test_pinned_fragment_skips_the_futile_resolicitation(self):
        # Fragment replicas pinned to single sites: nothing *can* migrate,
        # so the controller refuses to pay the market round trip at all.
        engine = build_engine(
            reopt=True, parts_replicas=[["s0"], ["s2"]]
        )
        prepared, victim = self.prepared_victim(engine)
        engine.catalog.site(victim).set_slowdown(5.0)
        result = engine.execute(prepared)
        report = result.report
        assert report.reoptimizations == 0
        assert report.reopt_events == []
        assert report.reopt_wasted_seconds == 0.0
        healthy = build_engine(
            parts_replicas=[["s0"], ["s2"]]
        ).query("select sku from parts")
        assert rows_of(result) == rows_of(healthy)

    def test_attempt_budget_bounds_resolicitations(self):
        # One more stage than the budget: parts and suppliers, each read
        # under enough aliases to give MAX_ATTEMPTS + 1 scans.
        aliases = [f"{'ps'[i % 2]}{i}" for i in range(MAX_ATTEMPTS + 1)]
        tables = [("parts", "suppliers")[i % 2] for i in range(len(aliases))]
        sql = f"select {aliases[0]}.sku from {tables[0]} {aliases[0]}" + "".join(
            f" join {table} {alias} on {alias}.sku = {aliases[0]}.sku"
            for table, alias in zip(tables[1:], aliases[1:])
        )
        engine = build_engine(reopt=True, with_suppliers=True)
        prepared = engine.prepare(sql)
        # A past deadline triggers on every stage, but the budget admits
        # MAX_ATTEMPTS re-solicitations.
        result = engine.execute(prepared, options=QueryOptions(deadline_at=0.0))
        report = result.report
        assert report.reoptimizations == MAX_ATTEMPTS
        assert len(report.reopt_events) == MAX_ATTEMPTS
        static = build_engine(with_suppliers=True)
        assert rows_of(result) == rows_of(static.query(sql))

    def test_reopt_cost_charged_into_response_time(self):
        engine = build_engine(reopt=True)
        prepared, victim = self.prepared_victim(engine)
        baseline = engine.execute(prepared).report.response_seconds
        engine.catalog.site(victim).set_slowdown(5.0)
        migrated = engine.execute(prepared)
        assert migrated.report.reopt_events[0].modeled_seconds > 0.0
        # Re-quote seconds are folded into the modeled response.
        assert migrated.report.response_seconds > 0.0
        assert baseline > 0.0

    def test_explain_analyze_renders_reopt_line(self):
        engine = build_engine(reopt=True)
        prepared, victim = self.prepared_victim(engine)
        engine.catalog.site(victim).up = False
        result = engine.execute(prepared)
        rendered = engine.render_analyze(result)
        assert "re-optimizations: 1" in rendered
        assert "migrated stages: 1" in rendered
        assert "reopt site-down" in rendered

    def test_reopt_metrics_recorded(self):
        engine = build_engine(reopt=True)
        prepared, victim = self.prepared_victim(engine)
        engine.catalog.site(victim).up = False
        engine.execute(prepared)
        assert engine.metrics.counter("reopt.attempts").value == 1
        assert engine.metrics.counter("reopt.migrations").value == 1


class TestWorkloadMidFlightReplan:
    """Cluster disturbances tear up and re-execute running queries."""

    SQL = "select sku from parts where price > 1"

    def build(self, reopt=False):
        clock = SimClock()
        catalog = FederationCatalog(clock)
        for i in range(4):
            catalog.make_site(f"s{i}")
        catalog.load_fragmented(
            Table(parts_schema(), PARTS_ROWS), 2, [["s0", "s1"], ["s2", "s3"]]
        )
        engine = FederatedEngine(catalog, reopt=reopt)
        loop = EventLoop(clock)
        manager = WorkloadManager(engine, loop, max_in_flight=2)
        injector = FailureInjector(
            loop, catalog, mttf=1e9, mttr=1e9, rng=random.Random(7)
        )
        manager.watch(injector)
        return engine, loop, manager, injector

    def run_disturbed(self, reopt, disturb=True, queries=4):
        engine, loop, manager, injector = self.build(reopt)
        if disturb:
            injector.slow_at("s0", at=0.001, duration=5.0, factor=6.0)
            injector.fail_at("s2", at=0.002)
        handles = [manager.submit(self.SQL) for _ in range(queries)]
        manager.drain(*handles)
        return manager, handles

    def test_slowdown_and_kill_trigger_replans(self):
        manager, handles = self.run_disturbed(True)
        assert manager.replans > 0
        assert manager.metrics.counter("workload.replans").value == (
            manager.replans
        )
        assert sum(h.result().report.migrated_stages for h in handles) >= 1

    def test_disturbed_answers_bit_identical_to_fault_free(self):
        _, adaptive = self.run_disturbed(True)
        _, static = self.run_disturbed(False)
        _, fault_free = self.run_disturbed(False, disturb=False)
        reference = [rows_of(h.result()) for h in fault_free]
        assert [rows_of(h.result()) for h in adaptive] == reference
        assert [rows_of(h.result()) for h in static] == reference

    def test_adaptive_beats_static_under_disturbance(self):
        _, adaptive = self.run_disturbed(True)
        _, static = self.run_disturbed(False)

        def mean_latency(handles):
            return sum(
                h.result().report.response_seconds for h in handles
            ) / len(handles)

        assert mean_latency(adaptive) < mean_latency(static)

    def test_repair_and_recovery_events_are_ignored(self):
        engine, loop, manager, injector = self.build(True)
        handles = [manager.submit(self.SQL) for _ in range(2)]
        manager.site_event("s0", "repair")
        manager.site_event("s0", "recover")
        manager.drain(*handles)
        assert manager.replans == 0

    def test_replan_cap_zero_freezes_in_flight_queries(self):
        engine, loop, manager, injector = self.build()
        handles = [manager.submit(self.SQL) for _ in range(2)]
        # More disturbances than the cap: each re-plans every running
        # query until it has been re-planned MAX_REPLANS times, then none.
        for _ in range(MAX_REPLANS + 2):
            for site in ("s0", "s1", "s2", "s3"):
                manager.site_event(site, "slow")
        assert [h._replans for h in handles] == [MAX_REPLANS] * len(handles)
        assert manager.replans == MAX_REPLANS * len(handles)
        manager.drain(*handles)
        assert manager.replans == MAX_REPLANS * len(handles)

    def test_wasted_seconds_ledger_charges_torn_up_work(self):
        manager, handles = self.run_disturbed(True)
        wasted = sum(
            h.result().report.reopt_wasted_seconds for h in handles
        )
        assert wasted > 0.0  # the discarded in-flight work is not hidden

    def test_same_seed_same_schedule_is_deterministic(self):
        first_manager, first = self.run_disturbed(True)
        second_manager, second = self.run_disturbed(True)
        assert first_manager.replans == second_manager.replans
        assert [
            h.result().report.response_seconds for h in first
        ] == [h.result().report.response_seconds for h in second]
        assert [rows_of(h.result()) for h in first] == [
            rows_of(h.result()) for h in second
        ]


class TestReplanKeepsItsTenant:
    """A governed query replanned mid-flight is still its tenant's query."""

    def test_rerun_is_governed_again_and_debits_nothing_more(self):
        manifest = copy.deepcopy(MANIFEST)
        manifest["tenants"]["acme"]["budget"] = {"credits": 100.0}
        catalog = build_federation()
        governance = GovernanceRegistry(manifest)
        engine = FederatedEngine(catalog, governance=governance)
        manager = WorkloadManager(engine, EventLoop(catalog.clock))
        handle = manager.submit("select order_id from orders", tenant="acme")
        remaining = governance.remaining_budget("acme")
        assert remaining < 100.0  # the first execution paid for its plan
        for site_name in ("s0", "s1", "s2", "s3"):
            manager.site_event(site_name, "slow")
        assert manager.replans >= 1
        assert governance.remaining_budget("acme") == remaining
        manager.drain(handle)
        assert handle.result().report.governed_tenant == "acme"
        # Like ``queries``, the policed count is per execution.
        policed = engine.metrics.counter("governance.queries_policed").value
        assert policed == 1 + manager.replans


class TestSlowdownInjection:
    """Satellite: seeded transient slowdowns recorded in injector history."""

    def build(self, seed=11):
        clock = SimClock()
        catalog = FederationCatalog(clock)
        for i in range(4):
            catalog.make_site(f"s{i}")
        catalog.load_fragmented(
            Table(parts_schema(), PARTS_ROWS), 2, [["s0", "s1"], ["s2", "s3"]]
        )
        loop = EventLoop(clock)
        injector = FailureInjector(
            loop, catalog, mttf=1e9, mttr=1e9, rng=random.Random(seed)
        )
        return catalog, loop, injector

    def test_slow_window_sets_and_clears_the_factor(self):
        catalog, loop, injector = self.build()
        injector.slow_at("s1", at=1.0, duration=2.0, factor=4.0)
        loop.run_until(1.5)
        assert catalog.site("s1").slowdown_factor == 4.0
        assert injector.slowdowns == 1
        loop.run_until(3.5)
        assert catalog.site("s1").slowdown_factor == 1.0
        kinds = [(name, kind) for _, name, kind in injector.history]
        assert kinds == [("s1", "slow"), ("s1", "recover")]

    def test_recurring_slowdowns_reproduce_under_a_seed(self):
        def history(seed):
            catalog, loop, injector = self.build(seed)
            injector.start_slowdowns(
                mean_interval=5.0, duration=1.0, factor=3.0
            )
            loop.run_until(40.0)
            return injector.history

        assert history(3) == history(3)
        assert history(3) != history(4)

    def test_one_shot_fail_and_repair(self):
        catalog, loop, injector = self.build()
        injector.fail_at("s0", at=1.0)
        injector.repair_at("s0", at=2.0)
        loop.run_until(1.5)
        assert not catalog.site("s0").up
        loop.run_until(2.5)
        assert catalog.site("s0").up
        kinds = [(name, kind) for _, name, kind in injector.history]
        assert kinds == [("s0", "fail"), ("s0", "repair")]

    def test_transition_listeners_observe_every_kind(self):
        catalog, loop, injector = self.build()
        seen = []
        injector.on_transition(
            lambda time, name, kind: seen.append((name, kind))
        )
        injector.slow_at("s2", at=0.5, duration=1.0, factor=2.0)
        injector.fail_at("s3", at=0.7)
        loop.run_until(2.0)
        assert ("s2", "slow") in seen
        assert ("s2", "recover") in seen
        assert ("s3", "fail") in seen

    def test_slow_at_validates_arguments(self):
        from repro.core.errors import QueryError

        _, _, injector = self.build()
        with pytest.raises(QueryError, match="duration"):
            injector.slow_at("s0", at=1.0, duration=0.0, factor=2.0)
        with pytest.raises(QueryError, match="factor"):
            injector.slow_at("s0", at=1.0, duration=1.0, factor=0.5)


# -- the safety property ----------------------------------------------------

disturbance = st.tuples(
    st.sampled_from(
        [("slow", "s0"), ("slow", "s1"), ("slow", "s2"), ("slow", "s3"),
         ("fail", "s0"), ("fail", "s2")]
    ),
    st.floats(min_value=0.0005, max_value=0.05),
    st.floats(min_value=2.0, max_value=8.0),
)


class TestAdaptiveEquivalenceProperty:
    SQL = "select sku, price from parts where price > 0"

    def run_schedule(self, schedule, reopt):
        clock = SimClock()
        catalog = FederationCatalog(clock)
        for i in range(4):
            catalog.make_site(f"s{i}")
        catalog.load_fragmented(
            Table(parts_schema(), PARTS_ROWS), 2, [["s0", "s1"], ["s2", "s3"]]
        )
        engine = FederatedEngine(catalog, reopt=reopt)
        loop = EventLoop(clock)
        manager = WorkloadManager(engine, loop, max_in_flight=2)
        injector = FailureInjector(
            loop, catalog, mttf=1e9, mttr=1e9, rng=random.Random(1)
        )
        manager.watch(injector)
        for (kind, site), at, factor in schedule:
            if kind == "slow":
                injector.slow_at(site, at=at, duration=1.0, factor=factor)
            else:
                injector.fail_at(site, at=at)
        handles = [manager.submit(self.SQL) for _ in range(3)]
        manager.drain(*handles)
        return handles

    @settings(max_examples=25, deadline=None)
    @given(st.lists(disturbance, max_size=4))
    def test_adaptive_answers_match_fault_free_static(self, schedule):
        adaptive = self.run_schedule(schedule, True)
        fault_free = self.run_schedule([], False)
        assert [rows_of(h.result()) for h in adaptive] == [
            rows_of(h.result()) for h in fault_free
        ]
        for handle in adaptive:
            report = handle.result().report
            # The per-execution re-solicitation budget is never exceeded.
            assert report.reoptimizations <= MAX_ATTEMPTS
            assert handle._replans <= MAX_REPLANS
