"""One bid per replica, nothing more (DESIGN §5d, §5k).

The auction keeps one running minimum per fragment instead of building and
sorting a bid object per replica; a scan builds its failover list only
once the chosen site has failed; and the health tracker's troubled set
answers the planners' per-replica breaker and risk checks.  Each test here
pins one of those to what the per-replica code answered.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DataType, Field, Schema, Table
from repro.federation import (
    AccessPaths,
    AgoricOptimizer,
    CircuitState,
    FederatedEngine,
    FederationCatalog,
    Site,
    SiteHealthTracker,
)
from repro.sim import SimClock
from repro.sql import build_plan, parse_sql, resolve
from repro.sql.planner import scans_in

PARTS = Schema(
    "parts",
    (
        Field("sku", DataType.STRING),
        Field("supplier", DataType.STRING),
        Field("price", DataType.FLOAT),
    ),
)
SUPPLIERS = Schema(
    "suppliers",
    (
        Field("supplier", DataType.STRING),
        Field("region", DataType.STRING),
        Field("rating", DataType.INTEGER),
    ),
)
REGIONS = Schema(
    "regions", (Field("region", DataType.STRING), Field("country", DataType.STRING))
)
PARTS_ROWS = [(f"part-{i:02d}", f"sup-{i % 8}", float((i * 37) % 100)) for i in range(40)]


def federation(site_count):
    catalog = FederationCatalog(SimClock())
    names = [catalog.make_site(f"s{i:02d}").name for i in range(site_count)]
    return catalog, names


def plan_for(catalog, sql):
    return build_plan(resolve(parse_sql(sql), catalog.binding_fields))


# -- the auction ---------------------------------------------------------------


@st.composite
def markets(draw):
    """A replicated table, some load, some failure history and a bid cap."""
    site_count = draw(st.integers(2, 9))
    catalog, names = federation(site_count)
    fragments = draw(st.integers(1, 3))
    replication = draw(st.integers(1, site_count))
    placement = [
        [names[(i + r) % site_count] for r in range(replication)]
        for i in range(fragments)
    ]
    catalog.load_fragmented(Table(PARTS, PARTS_ROWS), fragments, placement)
    tracker = SiteHealthTracker(catalog.clock, failure_threshold=2)
    for name in names:
        for _ in range(draw(st.integers(0, 3))):
            tracker.record_failure(name)
    # 60 s half-opens every tripped circuit; 700 s has decayed every risk.
    catalog.clock.advance(draw(st.sampled_from([0.0, 30.0, 60.0, 700.0])))
    for name in names:
        # Few distinct backlogs, so equal asks -- ties -- are common.
        catalog.site(name).enqueue(draw(st.sampled_from([0.0, 0.0, 0.5, 2.0])))
        catalog.site(name).up = draw(st.booleans()) or draw(st.booleans())
    sample = draw(st.none() | st.integers(1, site_count))
    seed = draw(st.integers(0, 2**16))
    return catalog, tracker, sample, seed


def per_replica_auction(catalog, tracker, scan, sample, rng):
    """The auction as a bid per solicited replica, sorted by (price, site):
    ``[(winning price, winning site, bids solicited)]`` per fragment slot."""
    per_byte = catalog.network.seconds_per_byte
    _, slots = AccessPaths(catalog, health=tracker).fragment_candidates(scan)
    winners = []
    for slot in slots:
        live = [n for n in slot.fragment.replica_sites() if catalog.site(n).up]
        assert slot.replicas == ([n for n in live if tracker.allow(n)] or live)
        solicited = slot.replicas
        if sample is not None and len(solicited) > sample:
            solicited = sorted(rng.sample(solicited, sample))
        bids = []
        for name in solicited:
            site = catalog.site(name)
            quote = site.quote_scan(
                slot.fragment.replicas[name], row_fraction=slot.selectivity
            )
            price = site.price_quote(quote) * tracker.price_multiplier(name)
            bids.append((price + slot.est_bytes * per_byte, name))
        bids.sort(key=lambda bid: (bid[0], bid[1]))
        winners.append((*bids[0], len(bids)))
    return winners


@settings(max_examples=150, deadline=None)
@given(market=markets())
def test_running_minimum_is_the_sorted_auction_winner(market):
    catalog, tracker, sample, seed = market
    scan = next(iter(scans_in(plan_for(catalog, "select sku from parts where price >= 20"))))
    optimizer = AgoricOptimizer(catalog, sample_size=sample, rng=random.Random(seed))
    optimizer.paths = AccessPaths(catalog, health=tracker)
    _, solicited = optimizer.collect_bids(scan)
    got = [(price, site, bids) for _, price, site, bids in solicited]
    assert got == per_replica_auction(
        catalog, tracker, scan, sample, random.Random(seed)
    )


JOIN_SQL = (
    "select p.sku, s.rating, g.country from parts p "
    "join suppliers s on p.supplier = s.supplier "
    "join regions g on s.region = g.region where p.price >= 20"
)


def join_rounds():
    """Four successive plans of a three-table join over 32 full replicas:
    each execution loads the sites it ran on, so every round re-prices."""
    catalog, names = federation(32)
    suppliers = [(f"sup-{i}", f"r{i % 4}", i % 7) for i in range(8)]
    regions = [(f"r{i}", f"c{i % 2}") for i in range(4)]
    for schema, rows in ((PARTS, PARTS_ROWS), (SUPPLIERS, suppliers), (REGIONS, regions)):
        catalog.load_fragmented(Table(schema, rows), 1, [names])
    for i, name in enumerate(names):  # every backlog held by two sites: ties
        catalog.site(name).enqueue(0.0001 * ((i * 7) % 16))
    engine = FederatedEngine(catalog)
    for name, failures in (("s00", 3), ("s01", 1), ("s02", 2)):  # tripped, risky x2
        for _ in range(failures):
            engine.health.record_failure(name)
    rounds = []
    for _ in range(4):
        plan = engine.query(JOIN_SQL, advance_clock=False).plan
        choices = {
            binding: [(c.fragment.fragment_id, c.site_name) for c in a.choices]
            for binding, a in sorted(plan.assignments.items())
        }
        rounds.append(
            (choices, plan.sites_contacted, plan.optimization_seconds, plan.total_price)
        )
    return rounds


# What the auction with a sorted Bid object per replica planned: the cheapest
# idle site each round (s07 beats s23 on name), 3 x 31 bids, s00 tripped.
JOIN_GOLDEN = [
    ({"g": [("f0", "s16")], "p": [("f0", "s16")], "s": [("f0", "s16")]}, 93, 0.0386, 0.03243175),
    ({"g": [("f0", "s07")], "p": [("f0", "s07")], "s": [("f0", "s07")]}, 93, 0.0386, 0.03273175),
    ({"g": [("f0", "s23")], "p": [("f0", "s23")], "s": [("f0", "s23")]}, 93, 0.0386, 0.03273175),
    ({"g": [("f0", "s14")], "p": [("f0", "s14")], "s": [("f0", "s14")]}, 93, 0.0386, 0.03303175),
]


def test_join_plans_equal_the_per_replica_auction():
    assert join_rounds() == JOIN_GOLDEN


# -- the failover list ------------------------------------------------------------


def replicated_engine(site_count=32):
    catalog, names = federation(site_count)
    catalog.load_fragmented(Table(PARTS, PARTS_ROWS), 1, [names])
    return FederatedEngine(catalog), names


def test_successful_scans_order_no_siblings(monkeypatch):
    ordered = []
    prefer = SiteHealthTracker.prefer
    monkeypatch.setattr(
        SiteHealthTracker,
        "prefer",
        lambda self, names: ordered.append(names) or prefer(self, names),
    )
    engine, _ = replicated_engine()
    engine.health.record_failure("s03")  # a record, so the tracker is not empty
    for _ in range(3):
        assert len(engine.query("select sku from parts").table) == len(PARTS_ROWS)
    assert ordered == []


def test_failover_tries_siblings_allowed_then_risk_then_name(monkeypatch):
    engine, names = replicated_engine()
    health, clock = engine.health, engine.catalog.clock
    clean = {"s00", "s10", "s20"}
    troubled = [name for name in names if name not in clean]
    for name in troubled[::2]:
        for _ in range(1 + int(name[1:]) % 3):  # 3 failures trip the circuit
            health.record_failure(name)
    clock.advance(61.0)  # those circuits are half-open: allowed, still risky
    for name in troubled[1::2]:
        for _ in range(1 + int(name[1:]) % 3):
            health.record_failure(name)
    plan = engine.optimizer.optimize(plan_for(engine.catalog, "select sku from parts"))
    chosen = plan.assignments["parts"].choices[0].site_name
    siblings = [name for name in names if name != chosen]
    expected = sorted(
        siblings, key=lambda n: (not health.allow(n), health.risk_penalty(n), n)
    )
    assert {CircuitState.OPEN, CircuitState.HALF_OPEN} <= {
        health.state(name) for name in troubled
    }
    for name in [chosen, *expected[:4]]:
        engine.catalog.site(name).up = False

    tried = []
    execute_scan = Site.execute_scan
    monkeypatch.setattr(
        Site,
        "execute_scan",
        lambda self, *args: tried.append(self.name) or execute_scan(self, *args),
    )
    table, report = engine.executor.execute(plan)
    assert tried == [chosen, *expected[:5]]
    assert len(table) == len(PARTS_ROWS)
    assert report.failover_attempts == 5


# -- the troubled set -----------------------------------------------------------

SITES = ["s0", "s1", "s2", "s3"]


@settings(max_examples=150, deadline=None)
@given(
    steps=st.lists(
        st.tuples(
            st.sampled_from(["fail", "succeed", "wait"]),
            st.sampled_from(SITES),
            st.sampled_from([1.0, 30.0, 60.0, 400.0]),
        ),
        max_size=40,
    )
)
def test_troubled_set_answers_as_the_tracker_does(steps):
    clock = SimClock()
    tracker = SiteHealthTracker(clock, failure_threshold=2, cooldown_seconds=60.0)
    paths = AccessPaths(FederationCatalog(clock), health=tracker)
    for action, site, seconds in steps:
        if action == "fail":
            tracker.record_failure(site)
        elif action == "succeed":
            tracker.record_success(site)
        else:
            clock.advance(seconds)
        records = tracker.snapshot()
        for name in SITES:
            record = records.get(name)
            assert (name in tracker.troubled) == (
                record is not None
                and (record.consecutive_failures > 0 or record.opened_at is not None)
            )
            if name not in tracker.troubled:
                assert tracker.state(name) is CircuitState.CLOSED
                assert tracker.price_multiplier(name) == 1.0
            assert paths.risk_multiplier(name) == tracker.price_multiplier(name)
        assert paths.without_open_breakers(SITES) == [
            name for name in SITES if tracker.allow(name)
        ]
