"""E3 -- Agoric vs centralized optimizer scalability (§3.2 C8).

Claim: "a federator must scale to hundreds, if not thousands, of sites ...
we see no way for compile-time, centralized cost-based optimizers to provide
required scalability or adaptivity."

Setup: an MRO catalog in 4 fragments with 3 replicas each, inside
federations of 4 to 512 sites.  Per query we measure the optimization
latency charged (bid round / statistics collection + enumeration) and how
many sites each optimizer had to talk to.

Expected shape: the agoric broker's work is O(replicas of the queried
fragments) -- flat in federation size -- while the centralized optimizer's
statistics collection grows linearly with the number of sites.

An ablation compares agoric greedy all-replica bidding against sampled
bidding (contact at most k replicas), the knob Mariposa brokers use.

The same claim on the clock: wall microseconds per ``optimize`` at 4, 64
and 512 sites go into ``BENCH_E3.json`` (machine-dependent, so never into
the ``results/`` tables, which must stay byte-identical), and the bench
fails when the agoric median at 512 sites exceeds ``MAX_WALL_RATIO`` times
the one at 4 sites.
"""

import random
import statistics
import time

from _bench_util import merge_json, report
from repro.core import DataType, Field, Schema, Table
from repro.federation import (
    AgoricOptimizer,
    CentralizedOptimizer,
    FederatedEngine,
    FederationCatalog,
)
from repro.sim import SimClock
from repro.sql import build_plan, parse_sql, resolve

SITE_COUNTS = [4, 16, 64, 256, 512]
FRAGMENTS = 4
REPLICATION = 3


def build_catalog(site_count: int) -> FederationCatalog:
    catalog = FederationCatalog(SimClock())
    names = [f"s{i:03d}" for i in range(site_count)]
    for name in names:
        catalog.make_site(name)
    schema = Schema(
        "catalog",
        (Field("sku", DataType.STRING), Field("price", DataType.FLOAT)),
    )
    table = Table(schema, [(f"A-{i}", float(i)) for i in range(400)])
    placement = [
        [names[(i * 7 + r) % site_count] for r in range(REPLICATION)]
        for i in range(FRAGMENTS)
    ]
    catalog.load_fragmented(table, FRAGMENTS, placement)
    return catalog


def plan_for(catalog):
    statement = parse_sql("select sku from catalog where price > 100")
    return build_plan(resolve(statement, catalog.binding_fields))


def test_e3_agoric_flat_centralized_linear(benchmark):
    rows = []
    agoric_costs = {}
    central_costs = {}
    for site_count in SITE_COUNTS:
        catalog = build_catalog(site_count)
        plan = plan_for(catalog)

        agoric = AgoricOptimizer(catalog)
        # stats_refresh_interval=0: every query pays for fresh statistics,
        # the centralized optimizer's honest per-query cost under volatility.
        central = CentralizedOptimizer(catalog, stats_refresh_interval=0.0)

        agoric_plan = agoric.optimize(plan_for(catalog))
        central_plan = central.optimize(plan)

        agoric_costs[site_count] = agoric_plan.optimization_seconds
        central_costs[site_count] = central_plan.optimization_seconds

        # Execute the same query once through the physical operator layer:
        # shipped rows stay flat in federation size (only the queried
        # replicas move data), another face of the O(replicas) claim.
        engine = FederatedEngine(catalog, optimizer=agoric)
        executed = engine.query(
            "select sku from catalog where price > 100", advance_clock=False
        )
        rows.append(
            [
                site_count,
                agoric_plan.optimization_seconds,
                agoric_plan.sites_contacted,
                central_plan.optimization_seconds,
                central_plan.sites_contacted,
                executed.report.rows_fetched,
                executed.report.rows_shipped,
            ]
        )

    report(
        "e3_optimizer_scaling",
        "E3: optimization cost vs federation size (4 fragments x 3 replicas)",
        ["sites", "agoric opt s", "agoric contacted", "central opt s",
         "central contacted", "rows fetched", "rows shipped"],
        rows,
    )

    # Paper shape: agoric contacts only the replicas (constant); centralized
    # must consult the whole federation (linear) and its per-query
    # optimization latency grows with it.
    first, last = SITE_COUNTS[0], SITE_COUNTS[-1]
    assert all(r[2] == FRAGMENTS * REPLICATION for r in rows)
    assert rows[-1][4] == last
    growth_central = central_costs[last] / central_costs[first]
    growth_agoric = agoric_costs[last] / agoric_costs[first]
    assert growth_central > 5.0
    assert growth_agoric < 3.0

    catalog = build_catalog(256)
    agoric = AgoricOptimizer(catalog)
    benchmark(lambda: agoric.optimize(plan_for(catalog)))


WALL_SITE_COUNTS = [4, 64, 512]
WALL_REPEATS = 300  # optimizations timed per optimizer and federation size
MAX_WALL_RATIO = 2.0  # agoric wall us at 512 sites over 4 sites


def median_wall_us(runs) -> list[float]:
    """Median wall microseconds of each ``(optimizer, plan)`` in ``runs``.

    The runs take turns, one optimization each per round, so a slow spell
    on a shared box lands on every federation size alike and the ratio
    between sizes stays put.
    """
    samples = [[] for _ in runs]
    for round_index in range(20 + WALL_REPEATS):  # the first 20 warm up
        for (optimizer, plan), timings in zip(runs, samples):
            started = time.perf_counter()
            optimizer.optimize(plan)
            if round_index >= 20:
                timings.append(time.perf_counter() - started)
    return [round(statistics.median(timings) * 1e6, 1) for timings in samples]


def test_e3_planning_wall_clock():
    """The scaling claim on the host's clock, beside the modeled table."""
    catalogs = [build_catalog(site_count) for site_count in WALL_SITE_COUNTS]
    plans = [plan_for(catalog) for catalog in catalogs]
    agoric = [AgoricOptimizer(catalog) for catalog in catalogs]
    central = [
        # A fresh statistics round per query, as in the modeled table.
        CentralizedOptimizer(catalog, stats_refresh_interval=0.0)
        for catalog in catalogs
    ]
    agoric_us = median_wall_us(list(zip(agoric, plans)))
    central_us = median_wall_us(list(zip(central, plans)))
    sweep = {
        str(site_count): {
            "agoric_us": agoric_us[i],
            "agoric_bids": agoric[i].optimize(plans[i]).sites_contacted,
            "central_us": central_us[i],
        }
        for i, site_count in enumerate(WALL_SITE_COUNTS)
    }
    first, last = WALL_SITE_COUNTS[0], WALL_SITE_COUNTS[-1]
    ratio = sweep[str(last)]["agoric_us"] / sweep[str(first)]["agoric_us"]
    merge_json(
        "BENCH_E3",
        {
            "optimizer_wall": {
                "repeats": WALL_REPEATS,
                "sites": sweep,
                "agoric_ratio": round(ratio, 2),
            }
        },
    )
    assert all(row["agoric_bids"] == FRAGMENTS * REPLICATION for row in sweep.values())
    assert ratio <= MAX_WALL_RATIO, (
        f"agoric planning costs {ratio:.2f}x more at {last} sites than at "
        f"{first}: an O(sites) term is back on the bid path"
    )


def test_e3_ablation_bid_sampling(benchmark):
    """Ablation: all-replica bidding vs contacting at most k replicas."""
    catalog = FederationCatalog(SimClock())
    names = [f"s{i:02d}" for i in range(32)]
    for name in names:
        catalog.make_site(name)
    schema = Schema("wide", (Field("sku", DataType.STRING),))
    table = Table(schema, [(f"A-{i}",) for i in range(320)])
    # One fragment replicated on every site: a worst case for full bidding.
    catalog.load_fragmented(table, 1, [names])

    def plan():
        statement = parse_sql("select sku from wide")
        return build_plan(resolve(statement, catalog.binding_fields))

    rows = []
    for sample in [None, 8, 3]:
        optimizer = AgoricOptimizer(catalog, sample_size=sample,
                                    rng=random.Random(5))
        physical = optimizer.optimize(plan())
        rows.append(
            [
                "all replicas" if sample is None else f"sample {sample}",
                physical.sites_contacted,
                physical.optimization_seconds,
                physical.total_price,
            ]
        )

    report(
        "e3_bid_sampling",
        "E3 ablation: bid sampling on a fully replicated fragment (32 sites)",
        ["bidding", "contacted", "opt seconds", "plan price"],
        rows,
    )
    assert rows[0][1] == 32
    assert rows[2][1] == 3
    # Sampling trades a little price optimality for contact cost.
    assert rows[2][3] >= rows[0][3]

    optimizer = AgoricOptimizer(catalog, sample_size=3, rng=random.Random(5))
    benchmark(lambda: optimizer.optimize(plan()))


def test_e3_ablation_zone_map_pruning(benchmark):
    """Ablation: partition elimination on a range-partitioned table.

    The same selective range query is run with zone maps on (pruning) and
    stripped (the pre-statistics behavior).  As the fragment count grows
    the pruned planner contacts a constant couple of sites and ships a
    constant trickle of rows, while the unpruned one pays per fragment.
    """
    fragment_counts = [2, 4, 8, 16]
    site_count = 8
    sql = "select sku from catalog where price >= 80 and price < 100"

    def build(fragments):
        catalog = FederationCatalog(SimClock())
        names = [f"s{i}" for i in range(site_count)]
        for name in names:
            catalog.make_site(name)
        schema = Schema(
            "catalog",
            (Field("sku", DataType.STRING), Field("price", DataType.FLOAT)),
        )
        table = Table(schema, [(f"A-{i}", float(i)) for i in range(400)])
        placement = [
            [names[i % site_count], names[(i + 1) % site_count]]
            for i in range(fragments)
        ]
        catalog.load_range_partitioned(table, "price", fragments, placement)
        return FederatedEngine(catalog, optimizer=AgoricOptimizer(catalog))

    rows = []
    for fragments in fragment_counts:
        pruned_engine = build(fragments)
        unpruned_engine = build(fragments)
        for fragment in unpruned_engine.catalog.entry("catalog").fragments:
            fragment.zone_map = None

        pruned = pruned_engine.query(sql, advance_clock=False)
        unpruned = unpruned_engine.query(sql, advance_clock=False)
        assert sorted(map(tuple, pruned.table.rows)) == sorted(
            map(tuple, unpruned.table.rows)
        )
        rows.append(
            [
                fragments,
                pruned.report.fragments_pruned,
                pruned.plan.sites_contacted,
                unpruned.plan.sites_contacted,
                pruned.report.rows_shipped,
                unpruned.report.rows_shipped,
                pruned.report.response_seconds,
                unpruned.report.response_seconds,
            ]
        )

    report(
        "e3_zone_map_pruning",
        "E3 ablation: partition elimination, selective range query "
        f"(20 of 400 rows, {site_count} sites)",
        ["fragments", "pruned", "contacted", "contacted (no zm)",
         "shipped", "shipped (no zm)", "latency s", "latency s (no zm)"],
        rows,
    )

    # Pruning keeps contact and shipping flat while the unpruned planner
    # pays per fragment; at 16 fragments both drop strictly.
    last = rows[-1]
    assert last[1] == 15  # 15 of 16 fragments eliminated
    assert last[2] < last[3]
    assert last[4] < last[5]
    assert last[6] < last[7]
    for prev, cur in zip(rows, rows[1:]):
        assert cur[3] >= prev[3]  # unpruned contact grows with fragments
    assert rows[-1][2] <= rows[0][2] + 2  # pruned contact stays ~flat

    engine = build(16)
    benchmark(lambda: engine.query(sql, advance_clock=False))
