"""Tests for the agoric and centralized optimizers and load-balance policies."""

import random

import pytest

from repro.core import DataType, Field, Schema, Table
from repro.core.errors import QueryError
from repro.federation import (
    AgoricOptimizer,
    CentralizedOptimizer,
    FederationCatalog,
    LeastLoadedPolicy,
    RandomPolicy,
    RoundRobinPolicy,
    SnapshotLoadPolicy,
)
from repro.sim import SimClock
from repro.sql import build_plan, parse_sql, resolve


def make_catalog(site_count=4, fragment_count=2, replication=2):
    catalog = FederationCatalog(SimClock())
    names = [f"s{i}" for i in range(site_count)]
    for name in names:
        catalog.make_site(name)
    schema = Schema(
        "parts",
        (Field("sku", DataType.STRING), Field("qty", DataType.INTEGER)),
    )
    table = Table(schema, [(f"A-{i}", i) for i in range(40)])
    placement = [
        [names[(i + r) % site_count] for r in range(replication)]
        for i in range(fragment_count)
    ]
    catalog.load_fragmented(table, fragment_count, placement)
    return catalog


def plan_for(catalog, sql="select sku from parts"):
    return build_plan(resolve(parse_sql(sql), catalog.binding_fields))


class TestAgoricOptimizer:
    def test_assigns_every_fragment(self):
        catalog = make_catalog()
        physical = AgoricOptimizer(catalog).optimize(plan_for(catalog))
        assignment = physical.assignments["parts"]
        assert assignment.kind == "fragments"
        assert len(assignment.choices) == 2
        assert physical.optimizer == "agoric"

    def test_bids_prefer_idle_sites(self):
        catalog = make_catalog(site_count=2, fragment_count=1, replication=2)
        catalog.site("s0").enqueue(100.0)  # s0 is swamped
        physical = AgoricOptimizer(catalog).optimize(plan_for(catalog))
        assert physical.assignments["parts"].choices[0].site_name == "s1"

    def test_bids_skip_down_sites(self):
        catalog = make_catalog(site_count=2, fragment_count=1, replication=2)
        catalog.site("s0").up = False
        physical = AgoricOptimizer(catalog).optimize(plan_for(catalog))
        assert physical.assignments["parts"].choices[0].site_name == "s1"

    def test_all_replicas_down_raises(self):
        catalog = make_catalog(site_count=2, fragment_count=1, replication=2)
        catalog.site("s0").up = False
        catalog.site("s1").up = False
        with pytest.raises(QueryError):
            AgoricOptimizer(catalog).optimize(plan_for(catalog))

    def test_sites_contacted_bounded_by_replicas_not_federation(self):
        small = make_catalog(site_count=4, fragment_count=2, replication=2)
        large = make_catalog(site_count=64, fragment_count=2, replication=2)
        contacted_small = AgoricOptimizer(small).optimize(plan_for(small)).sites_contacted
        contacted_large = AgoricOptimizer(large).optimize(plan_for(large)).sites_contacted
        assert contacted_small == contacted_large == 4  # 2 fragments x 2 replicas

    def test_sample_size_caps_bidding(self):
        catalog = make_catalog(site_count=8, fragment_count=1, replication=8)
        optimizer = AgoricOptimizer(catalog, sample_size=3, rng=random.Random(7))
        physical = optimizer.optimize(plan_for(catalog))
        assert physical.sites_contacted == 3

    def test_optimization_seconds_includes_bid_round(self):
        catalog = make_catalog()
        physical = AgoricOptimizer(catalog, bid_round_trip_seconds=0.5).optimize(
            plan_for(catalog)
        )
        assert physical.optimization_seconds >= 0.5

    def test_coordinator_is_a_chosen_site(self):
        catalog = make_catalog()
        physical = AgoricOptimizer(catalog).optimize(plan_for(catalog))
        chosen = {c.site_name for c in physical.assignments["parts"].choices}
        assert physical.coordinator in chosen

    def test_explicit_coordinator_honoured(self):
        catalog = make_catalog()
        physical = AgoricOptimizer(catalog).optimize(plan_for(catalog), coordinator="s3")
        assert physical.coordinator == "s3"

    def test_price_total_positive(self):
        catalog = make_catalog()
        assert AgoricOptimizer(catalog).optimize(plan_for(catalog)).total_price > 0


class TestCentralizedOptimizer:
    def test_assigns_every_fragment(self):
        catalog = make_catalog()
        physical = CentralizedOptimizer(catalog).optimize(plan_for(catalog))
        assert len(physical.assignments["parts"].choices) == 2
        assert physical.optimizer == "centralized"

    def test_stats_cost_grows_with_federation_size(self):
        small = make_catalog(site_count=4)
        large = make_catalog(site_count=256)
        cost_small = CentralizedOptimizer(small).optimize(plan_for(small)).optimization_seconds
        cost_large = CentralizedOptimizer(large).optimize(plan_for(large)).optimization_seconds
        assert cost_large > cost_small

    def test_snapshot_goes_stale_between_refreshes(self):
        catalog = make_catalog(site_count=2, fragment_count=1, replication=2)
        optimizer = CentralizedOptimizer(catalog, stats_refresh_interval=300.0)
        optimizer.optimize(plan_for(catalog))  # snapshot at t=0: both idle
        catalog.site("s0").enqueue(100.0)  # s0 becomes swamped *after* snapshot
        physical = optimizer.optimize(plan_for(catalog))
        # Stale stats still say s0 is idle; the centralized pick ignores the load.
        assert physical.assignments["parts"].choices[0].site_name == "s0"

    def test_fresh_snapshot_sees_load(self):
        catalog = make_catalog(site_count=2, fragment_count=1, replication=2)
        optimizer = CentralizedOptimizer(catalog, stats_refresh_interval=0.0)
        catalog.site("s0").enqueue(100.0)
        physical = optimizer.optimize(plan_for(catalog))
        assert physical.assignments["parts"].choices[0].site_name == "s1"

    def test_exhaustive_spreads_fragments_across_sites(self):
        catalog = make_catalog(site_count=2, fragment_count=2, replication=2)
        physical = CentralizedOptimizer(catalog).optimize(plan_for(catalog))
        chosen = [c.site_name for c in physical.assignments["parts"].choices]
        # Makespan minimization puts the two fragments on different sites.
        assert len(set(chosen)) == 2

    def test_greedy_fallback_above_combination_cap(self):
        catalog = make_catalog(site_count=8, fragment_count=8, replication=4)
        optimizer = CentralizedOptimizer(catalog, max_combinations=10)
        physical = optimizer.optimize(plan_for(catalog))
        assert len(physical.assignments["parts"].choices) == 8

    def test_down_replica_not_chosen(self):
        catalog = make_catalog(site_count=2, fragment_count=1, replication=2)
        catalog.site("s0").up = False
        physical = CentralizedOptimizer(catalog).optimize(plan_for(catalog))
        assert physical.assignments["parts"].choices[0].site_name == "s1"


class TestReplicaPolicies:
    def fragment(self, catalog):
        return catalog.entry("parts").fragments[0]

    def test_random_policy_deterministic_with_seed(self):
        catalog = make_catalog()
        policy_a = RandomPolicy(random.Random(3))
        policy_b = RandomPolicy(random.Random(3))
        fragment = self.fragment(catalog)
        picks_a = [policy_a.choose(fragment, catalog) for _ in range(5)]
        picks_b = [policy_b.choose(fragment, catalog) for _ in range(5)]
        assert picks_a == picks_b

    def test_round_robin_cycles(self):
        catalog = make_catalog(site_count=2, fragment_count=1, replication=2)
        policy = RoundRobinPolicy()
        fragment = self.fragment(catalog)
        picks = [policy.choose(fragment, catalog) for _ in range(4)]
        assert picks == ["s0", "s1", "s0", "s1"]

    def test_least_loaded_live(self):
        catalog = make_catalog(site_count=2, fragment_count=1, replication=2)
        catalog.site("s0").enqueue(10.0)
        assert LeastLoadedPolicy().choose(self.fragment(catalog), catalog) == "s1"

    def test_snapshot_policy_uses_stale_stats(self):
        catalog = make_catalog(site_count=2, fragment_count=1, replication=2)
        policy = SnapshotLoadPolicy(refresh_interval=1000.0)
        fragment = self.fragment(catalog)
        assert policy.choose(fragment, catalog) == "s0"  # snapshot: both idle
        catalog.site("s0").enqueue(50.0)
        assert policy.choose(fragment, catalog) == "s0"  # still thinks s0 idle
        catalog.clock.advance(2000.0)
        assert policy.choose(fragment, catalog) == "s0"  # backlog drained anyway

    def test_policy_skips_down_sites(self):
        catalog = make_catalog(site_count=2, fragment_count=1, replication=2)
        catalog.site("s0").up = False
        assert RoundRobinPolicy().choose(self.fragment(catalog), catalog) == "s1"

    def test_no_live_replica_raises(self):
        catalog = make_catalog(site_count=2, fragment_count=1, replication=2)
        catalog.site("s0").up = False
        catalog.site("s1").up = False
        with pytest.raises(QueryError):
            LeastLoadedPolicy().choose(self.fragment(catalog), catalog)


class TestPolicyOptimizer:
    def test_round_robin_policy_drives_plans(self):
        from repro.federation import FederatedEngine, PolicyOptimizer, RoundRobinPolicy

        catalog = make_catalog(site_count=2, fragment_count=1, replication=2)
        engine = FederatedEngine(
            catalog, optimizer=PolicyOptimizer(catalog, RoundRobinPolicy())
        )
        first = engine.query("select sku from parts", advance_clock=False)
        second = engine.query("select sku from parts", advance_clock=False)
        assert first.plan.assignments["parts"].choices[0].site_name == "s0"
        assert second.plan.assignments["parts"].choices[0].site_name == "s1"
        assert first.plan.optimizer.startswith("policy:")

    def test_policy_optimizer_answers_match_agoric(self):
        from repro.federation import FederatedEngine, LeastLoadedPolicy, PolicyOptimizer

        catalog_a = make_catalog()
        catalog_b = make_catalog()
        agoric_rows = FederatedEngine(catalog_a).query(
            "select sku from parts where qty > 10", advance_clock=False
        ).table.rows
        policy_rows = FederatedEngine(
            catalog_b, optimizer=PolicyOptimizer(catalog_b, LeastLoadedPolicy())
        ).query("select sku from parts where qty > 10", advance_clock=False).table.rows
        assert sorted(agoric_rows) == sorted(policy_rows)

    def test_policy_optimizer_serves_views(self):
        from repro.federation import FederatedEngine, PolicyOptimizer, RoundRobinPolicy

        catalog = make_catalog()
        engine = FederatedEngine(
            catalog, optimizer=PolicyOptimizer(catalog, RoundRobinPolicy())
        )
        engine.create_materialized_view("parts_mv", "parts", "s0")
        result = engine.query("select count(*) as n from parts", max_staleness=60.0)
        assert result.plan.assignments["parts"].kind == "view"


class TestSelectivityAwareBidding:
    def test_filtered_scan_prices_below_full_scan(self):
        catalog = make_catalog()
        optimizer = AgoricOptimizer(catalog)
        full = optimizer.optimize(plan_for(catalog, "select sku from parts"))
        filtered = optimizer.optimize(
            plan_for(catalog, "select sku from parts where qty = 7")
        )
        assert filtered.total_price < full.total_price

    def test_selectivity_heuristics(self):
        from repro.connect.source import Predicate
        from repro.federation.stats import fallback_selectivity as estimate

        assert estimate([]) == 1.0
        assert estimate([Predicate("a", "=", 1)]) == pytest.approx(0.1)
        assert estimate([Predicate("a", ">", 1)]) == pytest.approx(0.3)
        many = [Predicate("a", "=", i) for i in range(9)]
        assert estimate(many) == pytest.approx(0.01)  # floored


class TestHeterogeneousMachineEconomics:
    def test_bids_favor_faster_cheaper_machines(self):
        from repro.federation import Site

        """A fast, cheap machine should win the market when idle."""
        catalog = FederationCatalog(SimClock())
        catalog.add_site(Site("slow-pricey", catalog.clock,
                              cpu_seconds_per_row=0.001, price_per_second=2.0))
        catalog.add_site(Site("fast-cheap", catalog.clock,
                              cpu_seconds_per_row=0.0001, price_per_second=0.5))
        schema = Schema("t", (Field("a", DataType.INTEGER),))
        table = Table(schema, [(i,) for i in range(1000)])
        catalog.load_fragmented(table, 1, [["slow-pricey", "fast-cheap"]])
        physical = AgoricOptimizer(catalog).optimize(plan_for(catalog, "select a from t"))
        assert physical.assignments["t"].choices[0].site_name == "fast-cheap"

    def test_swamped_fast_machine_loses_to_idle_slow_one(self):
        from repro.federation import Site

        catalog = FederationCatalog(SimClock())
        catalog.add_site(Site("slow", catalog.clock, cpu_seconds_per_row=0.001))
        catalog.add_site(Site("fast", catalog.clock, cpu_seconds_per_row=0.0001))
        schema = Schema("t", (Field("a", DataType.INTEGER),))
        catalog.load_fragmented(Table(schema, [(i,) for i in range(1000)]),
                                1, [["slow", "fast"]])
        catalog.site("fast").enqueue(60.0)  # a big batch job lands on it
        physical = AgoricOptimizer(catalog).optimize(plan_for(catalog, "select a from t"))
        assert physical.assignments["t"].choices[0].site_name == "slow"
