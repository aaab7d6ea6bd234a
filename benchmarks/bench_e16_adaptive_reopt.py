"""E16 -- Adaptive mid-query re-optimization under cluster degradation.

A plan frozen at dispatch is a bet that the cluster stays the way the
optimizer saw it.  This experiment breaks that bet mid-run -- an 8x load
spike on one replica site, then a hard kill of another -- under an
open-loop query stream near saturation, and compares three configurations facing the
*identical* disturbance schedule:

* **adaptive (agoric + re-opt)** -- the engine is built with
  ``reopt=True``; the workload manager's
  disturbance wakeups re-execute affected in-flight queries and the
  re-optimization controller migrates their unstarted stages to healthy
  replicas at live prices.
* **static agoric** -- same wakeups, but the re-execution re-prices the
  *original* assignments: work pinned to the slowed site pays the spike,
  work pinned to the dead site pays failover retries and backoff.
* **static centralized** -- the compile-time baseline with a periodically
  refreshed statistics snapshot; its dispatches between refreshes also
  keep landing work on the degraded sites.

The acceptance bars: every configuration returns bit-identical answers
(replicas hold the same fragment rows, so *where* a stage runs never
changes *what* it returns), the adaptive run completes the stream with
lower modeled mean and p95 latency than both static baselines, and an
undisturbed adaptive run records zero re-optimization events (the
machinery is inert when nothing degrades).

Everything runs on the simulation clock with seeded arrivals, so two runs
produce byte-identical tables (the determinism CI job relies on this).
"""

import math
import os
import random

from _bench_util import report, write_json
from repro.core import DataType, Field, Schema, Table
from repro.federation import (
    CentralizedOptimizer,
    FailureInjector,
    FederatedEngine,
    FederationCatalog,
    WorkloadManager,
    reopt,
)
from repro.sim import EventLoop, SimClock

SEED = 20016
SITES = [f"s{i}" for i in range(3)]
FRAGMENTS = 6
ROWS_PER_FRAGMENT = 20
SLOTS = 3
QUERIES = int(os.environ.get("E16_QUERIES", "80"))
QUERY_MIX = [
    "select count(*) from items",
    "select k, v from items where v < 40",
]
# The disturbance schedule, placed as fractions of the arrival horizon:
# a sustained 8x load spike on s0, then a hard kill of s1.  The RF=2 ring
# placement leaves every fragment at least one live replica.
SPIKE_SITE, SPIKE_FRACTION, SPIKE_FACTOR = "s0", 0.25, 8.0
KILL_SITE, KILL_FRACTION = "s1", 0.55


def build(optimizer_factory=None, adaptive=False):
    """items(k, v) hash-fragmented with RF=2 ring placement over 3 sites."""
    catalog = FederationCatalog(SimClock())
    for name in SITES:
        catalog.make_site(name, congestion_alpha=0.5)
    schema = Schema(
        "items", (Field("k", DataType.STRING), Field("v", DataType.INTEGER))
    )
    total = FRAGMENTS * ROWS_PER_FRAGMENT
    table = Table(schema, [(f"k{i:04d}", i) for i in range(total)])
    placement = [
        [SITES[i % len(SITES)], SITES[(i + 1) % len(SITES)]]
        for i in range(FRAGMENTS)
    ]
    catalog.load_fragmented(table, FRAGMENTS, placement)
    optimizer = optimizer_factory(catalog) if optimizer_factory else None
    engine = FederatedEngine(catalog, optimizer=optimizer, reopt=adaptive)
    loop = EventLoop(catalog.clock)
    return catalog, engine, loop


def poisson_arrivals(rng, rate, count):
    times, now = [], 0.0
    for _ in range(count):
        now += rng.expovariate(rate)
        times.append(now)
    return times


def percentile(values, q):
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def arrival_schedule():
    """One seeded arrival schedule shared by every configuration."""
    _, engine, _ = build()
    service = engine.query(QUERY_MIX[0]).report.response_seconds
    capacity = SLOTS / service
    times = poisson_arrivals(random.Random(SEED), 0.9 * capacity, QUERIES)
    return [
        (when, QUERY_MIX[i % len(QUERY_MIX)]) for i, when in enumerate(times)
    ]


def run_config(arrivals, optimizer_factory=None, adaptive=False, disturb=True):
    """Drive one configuration through the shared stream + disturbances."""
    _, engine, loop = build(optimizer_factory, adaptive=adaptive)
    manager = WorkloadManager(engine, loop, max_in_flight=SLOTS)
    injector = FailureInjector(
        loop, engine.catalog, mttf=1e9, mttr=1e9, rng=random.Random(SEED + 1)
    )
    manager.watch(injector)
    horizon = arrivals[-1][0]
    if disturb:
        injector.slow_at(
            SPIKE_SITE,
            at=SPIKE_FRACTION * horizon,
            duration=horizon,  # the spike outlasts the stream
            factor=SPIKE_FACTOR,
        )
        injector.fail_at(KILL_SITE, at=KILL_FRACTION * horizon)
    handles = []
    for when, sql in arrivals:
        loop.schedule_at(
            when, lambda sql=sql: handles.append(manager.submit(sql))
        )
    while loop.pending():
        loop.run_next()

    errors = sum(1 for h in handles if h.error is not None)
    results = [h.result() for h in handles if h.error is None]
    reports = [r.report for r in results]
    latency = [h.finished_at - h.submitted_at for h in handles]
    return {
        "answers": [sorted(map(tuple, r.table.rows)) for r in results],
        "mean_s": sum(latency) / len(latency),
        "p95_s": percentile(latency, 95),
        "errors": errors,
        "replans": manager.replans,
        "reoptimizations": sum(r.reoptimizations for r in reports),
        "migrated_stages": sum(r.migrated_stages for r in reports),
        "wasted_seconds": sum(r.reopt_wasted_seconds for r in reports),
        "max_reopts_per_query": max(
            (r.reoptimizations for r in reports), default=0
        ),
    }


def test_e16_adaptive_beats_static_under_degradation(benchmark):
    """The tentpole claim: under a mid-stream load spike and a site kill,
    migrating unstarted stages beats riding out the original plan -- for
    both the agoric and the centralized static baselines -- at identical
    answers; and the machinery is inert on an undisturbed cluster."""
    arrivals = arrival_schedule()
    central = lambda catalog: CentralizedOptimizer(  # noqa: E731
        catalog, stats_refresh_interval=300.0
    )

    adaptive = run_config(arrivals, adaptive=True)
    static_agoric = run_config(arrivals)
    static_central = run_config(arrivals, optimizer_factory=central)
    undisturbed = run_config(arrivals, adaptive=True, disturb=False)

    identical = (
        adaptive["answers"] == static_agoric["answers"]
        == static_central["answers"] == undisturbed["answers"]
    )
    speedup_agoric = static_agoric["mean_s"] / adaptive["mean_s"]
    speedup_central = static_central["mean_s"] / adaptive["mean_s"]

    rows = [
        [name, stats["mean_s"], stats["p95_s"], stats["replans"],
         stats["reoptimizations"], stats["migrated_stages"], stats["errors"]]
        for name, stats in [
            ("adaptive (agoric+reopt)", adaptive),
            ("static agoric", static_agoric),
            ("static centralized", static_central),
            ("adaptive, undisturbed", undisturbed),
        ]
    ]
    report(
        "e16_adaptive_reopt",
        f"E16: {QUERIES} queries, {SPIKE_FACTOR:.0f}x spike on {SPIKE_SITE} "
        f"at {SPIKE_FRACTION:.0%}, {KILL_SITE} killed at {KILL_FRACTION:.0%} "
        f"of the stream ({SLOTS} slots)",
        ["configuration", "mean s", "p95 s", "replans", "re-opts",
         "migrated", "errors"],
        rows,
    )

    def summarize(stats):
        return {
            "mean_s": round(stats["mean_s"], 6),
            "p95_s": round(stats["p95_s"], 6),
            "errors": stats["errors"],
            "replans": stats["replans"],
            "reoptimizations": stats["reoptimizations"],
            "migrated_stages": stats["migrated_stages"],
            "wasted_seconds": round(stats["wasted_seconds"], 6),
        }

    write_json(
        "BENCH_E16",
        {
            "queries": QUERIES,
            "slots": SLOTS,
            "spike": {
                "site": SPIKE_SITE,
                "fraction": SPIKE_FRACTION,
                "factor": SPIKE_FACTOR,
            },
            "kill": {"site": KILL_SITE, "fraction": KILL_FRACTION},
            "policy": {
                "max_attempts": reopt.MAX_ATTEMPTS,
                "congestion_high": reopt.CONGESTION_HIGH,
                "congestion_low": reopt.CONGESTION_LOW,
                "min_improvement": reopt.MIN_IMPROVEMENT,
                "max_replans": reopt.MAX_REPLANS,
            },
            "identical_results": identical,
            "speedup_vs_static_agoric": round(speedup_agoric, 4),
            "speedup_vs_static_centralized": round(speedup_central, 4),
            "adaptive": summarize(adaptive),
            "static_agoric": summarize(static_agoric),
            "static_centralized": summarize(static_central),
            "undisturbed": summarize(undisturbed),
        },
    )

    # Correctness first: nobody errors, everybody agrees bit for bit.
    assert identical
    for stats in (adaptive, static_agoric, static_central, undisturbed):
        assert stats["errors"] == 0
    # The adaptive run actually adapted -- and within its budget.
    assert adaptive["replans"] > 0
    assert adaptive["reoptimizations"] > 0
    assert adaptive["migrated_stages"] >= 1
    assert adaptive["max_reopts_per_query"] <= reopt.MAX_ATTEMPTS
    # ... and it paid off against both static baselines.
    assert adaptive["mean_s"] < static_agoric["mean_s"]
    assert adaptive["mean_s"] < static_central["mean_s"]
    assert adaptive["p95_s"] < static_agoric["p95_s"]
    # An undisturbed cluster never wakes the machinery.
    assert undisturbed["replans"] == 0
    assert undisturbed["reoptimizations"] == 0

    smoke = arrivals[: max(4, QUERIES // 10)]
    benchmark(lambda: run_config(smoke, adaptive=True))
