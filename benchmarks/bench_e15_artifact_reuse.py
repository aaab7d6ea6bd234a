"""E15 -- Content-hashed stage artifacts under a zipfian query mix.

§3.2 C5 argues for "fetch-in-advance over federated technology": answers
already computed for one consumer should serve the next.  The artifact
store generalizes that from whole views to *stage outputs*: every Ship
publishes the column batch it delivered under a content hash of the
pushed-down sub-plan, so equivalent sub-plans -- across tenants, alias
spellings and prepared bindings -- collide on the same key.

This experiment drives the workload manager with the traffic where that
pays: a Zipf-skewed pool of repeating statements (a few hot reports
dominate, a long tail trickles) from Zipf-skewed tenants, with periodic
base-table writes invalidating everything derived.  The same seeded
arrival schedule runs twice:

* **Control** -- no artifact store; every query fetches site rows.
* **Reuse** -- an :class:`ArtifactStore`; repeats hit committed stage
  artifacts, concurrent identical stages join the in-flight producer
  instead of recomputing, and each write (a whole-table notify) leaves
  no part of a prior artifact current, so the listener drops them all.

The gate: the reuse run executes strictly fewer site rows and ships
strictly fewer bytes, returns bit-identical rows for every arrival, and
records at least one in-flight join.  A separate fault-injection scenario
cancels a producer mid-flight and asserts its subscriber falls back to an
independent execution with correct results.

Neither run has a semantic cache: E15 isolates the artifact path.
Modeled counters go to the deterministic report table; BENCH_E15.json
carries the regression-gate summary.
"""

import os
import random

from _bench_util import report, write_json
from loadgen import poisson_times, weighted_choice, zipf_weights
from repro.core import DataType, Field, Schema, Table
from repro.federation import (
    ArtifactStore,
    FederatedEngine,
    FederationCatalog,
    WorkloadManager,
)
from repro.federation.workload import QueryState
from repro.sim import EventLoop, SimClock

SEED = 20015
SITES = [f"s{i}" for i in range(3)]
FRAGMENTS = 6
ROWS_PER_FRAGMENT = 20
TOTAL_ROWS = FRAGMENTS * ROWS_PER_FRAGMENT
SLOTS = 3
TENANTS = [f"t{i}" for i in range(6)]

# Env-overridable so CI can run a smaller smoke configuration.
QUERIES = int(os.environ.get("E15_QUERIES", "20000"))
WRITES = int(os.environ.get("E15_WRITES", "6"))
LOAD = float(os.environ.get("E15_LOAD", "0.8"))

# The statement pool: fixed-literal shapes a reporting portal replays
# verbatim.  Zipf popularity makes the head statements hot enough to be
# in flight concurrently (the sharing scenario) while the tail keeps the
# store's admission/eviction honest.  One alias spelling repeats the hot
# aggregate -- it must land on the same content hash.
POOL = [
    "select count(*), sum(v) from items where v < 96",
    "select k, v from items where v < 24",
    "select count(*), sum(v) from items i where i.v < 96",
    "select count(*) from items where v < 60",
    "select v from items where v >= 100",
    "select sum(v) from items where v < 88",
    "select k from items where v < 12",
    "select min(v), max(v) from items",
    "select count(*) from items",
    "select k, v from items where v between 40 and 55",
]
POOL_WEIGHTS = zipf_weights(len(POOL))

_SUMMARY: dict = {}


def build(with_artifacts):
    """items(k, v) over three sites with RF=2, workload-managed."""
    catalog = FederationCatalog(SimClock())
    for name in SITES:
        catalog.make_site(name)
    schema = Schema(
        "items", (Field("k", DataType.STRING), Field("v", DataType.INTEGER))
    )
    table = Table(schema, [(f"k{i:04d}", i) for i in range(TOTAL_ROWS)])
    placement = [
        [SITES[i % len(SITES)], SITES[(i + 1) % len(SITES)]]
        for i in range(FRAGMENTS)
    ]
    catalog.load_fragmented(table, FRAGMENTS, placement)
    store = ArtifactStore(catalog.clock) if with_artifacts else None
    engine = FederatedEngine(catalog, artifacts=store)
    loop = EventLoop(catalog.clock)
    manager = WorkloadManager(engine, loop, max_in_flight=SLOTS)
    return catalog, engine, loop, manager, store


def mix_service_seconds():
    """Mean uncontended response time of the statement pool."""
    _, engine, _, _, _ = build(with_artifacts=False)
    total = 0.0
    for sql in POOL:
        total += engine.query(sql, advance_clock=False).report.response_seconds
    return total / len(POOL)


def make_schedule():
    """The seeded arrival schedule both runs replay identically."""
    rng = random.Random(SEED)
    rate = LOAD * SLOTS / mix_service_seconds()
    times = poisson_times(rng, rate, QUERIES)
    tenant_weights = zipf_weights(len(TENANTS))
    arrivals = [
        (
            when,
            weighted_choice(rng, TENANTS, tenant_weights),
            weighted_choice(rng, POOL, POOL_WEIGHTS),
        )
        for when in times
    ]
    horizon = times[-1]
    write_times = [horizon * (i + 1) / (WRITES + 1) for i in range(WRITES)]
    return arrivals, write_times


def run_schedule(arrivals, write_times, with_artifacts):
    """Replay one schedule; returns (handles in arrival order, store)."""
    catalog, _, loop, manager, store = build(with_artifacts)
    handles = []

    for when, tenant, sql in arrivals:
        def arrive(tenant=tenant, sql=sql):
            handles.append(manager.submit(sql, tenant=tenant))

        loop.schedule_at(when, arrive)
    for when in write_times:
        loop.schedule_at(
            when, lambda: catalog.notify_table_updated("items")
        )

    while loop.pending():
        loop.run_next()
    return handles, store


def totals(handles):
    rows = bytes_ = hits = joins = failed = 0
    for handle in handles:
        if handle.state is not QueryState.COMPLETED:
            failed += 1
            continue
        rep = handle.result().report
        rows += rep.rows_fetched
        bytes_ += rep.bytes_shipped
        hits += rep.artifact_hits
        joins += rep.artifact_joins
    return {
        "rows_fetched": rows,
        "bytes_shipped": bytes_,
        "artifact_hits": hits,
        "inflight_joins": joins,
        "failed": failed,
    }


def test_e15_zipfian_reuse(benchmark):
    """Same arrivals, two physical economies: reuse fetches strictly fewer
    site rows, ships strictly fewer bytes, answers bit-identically."""
    arrivals, write_times = make_schedule()
    control_handles, _ = run_schedule(arrivals, write_times, False)
    reuse_handles, store = run_schedule(arrivals, write_times, True)

    control = totals(control_handles)
    reuse = totals(reuse_handles)
    identical = all(
        c.result().table.rows == r.result().table.rows
        for c, r in zip(control_handles, reuse_handles)
    )
    row_reduction = 1 - reuse["rows_fetched"] / control["rows_fetched"]
    byte_reduction = 1 - reuse["bytes_shipped"] / control["bytes_shipped"]

    report(
        "e15_artifact_reuse",
        f"E15: stage-artifact reuse ({QUERIES} queries, {len(POOL)} "
        f"statements Zipf-skewed, {WRITES} invalidating writes, "
        f"load {LOAD:.2f})",
        ["run", "site rows", "bytes shipped", "hits", "joins", "failed"],
        [
            ["control (no artifacts)", control["rows_fetched"],
             control["bytes_shipped"], 0, 0, control["failed"]],
            ["artifact reuse", reuse["rows_fetched"],
             reuse["bytes_shipped"], reuse["artifact_hits"],
             reuse["inflight_joins"], reuse["failed"]],
        ],
    )

    _SUMMARY.update({
        "config": {
            "queries": QUERIES,
            "statements": len(POOL),
            "writes": WRITES,
            "load": LOAD,
            "slots": SLOTS,
        },
        "totals": {
            "control_rows": control["rows_fetched"],
            "reuse_rows": reuse["rows_fetched"],
            "control_bytes": control["bytes_shipped"],
            "reuse_bytes": reuse["bytes_shipped"],
            "row_reduction": round(row_reduction, 6),
            "byte_reduction": round(byte_reduction, 6),
        },
        "sharing": {
            "hits": store.hits,
            "misses": store.misses,
            "inflight_joins": reuse["inflight_joins"],
            "hit_rate": round(store.hit_rate, 6),
        },
        "invalidation": {
            "writes": WRITES,
            "invalidations": store.invalidations,
        },
        "identical_results": identical,
        "errors": control["failed"] + reuse["failed"],
    })
    write_json("BENCH_E15", _SUMMARY)

    # The headline gate: strictly cheaper, bit-identical, actually shared.
    assert reuse["rows_fetched"] < control["rows_fetched"]
    assert reuse["bytes_shipped"] < control["bytes_shipped"]
    assert identical
    assert reuse["inflight_joins"] >= 1
    assert reuse["artifact_hits"] > 0
    assert control["failed"] == reuse["failed"] == 0
    # Every write found something to invalidate: a whole-table write
    # stales every part, and the listener drops what has none left.
    assert store.invalidations > 0
    # The alias spelling of the hot aggregate shares its hash: the two hot
    # statements together cannot have missed more often than the write
    # epochs let them (one cold fetch per epoch, not one per spelling).
    assert store.hits > store.misses

    benchmark(lambda: run_schedule(arrivals[:20], [], True))


def test_e15_fault_injection(benchmark):
    """Cancelling a producer mid-flight falls its subscriber back to an
    independent execution with the right answer."""
    sql = POOL[0]
    _, engine, _, manager, store = build(with_artifacts=True)
    _, control_engine, _, _, _ = build(with_artifacts=False)
    expected = control_engine.query(sql).table.rows

    producer = manager.submit(sql, tenant="t0")
    subscriber = manager.submit(sql, tenant="t1")
    assert store.joins == 1
    assert manager.cancel(producer)
    manager.drain()

    report(
        "e15_fault_injection",
        "E15: in-flight producer cancelled, subscriber falls back",
        ["event", "count"],
        [
            ["in-flight joins", store.joins],
            ["producer aborts", store.aborts],
            ["subscriber fallbacks", store.fallbacks],
            ["subscriber completed", int(subscriber.state is QueryState.COMPLETED)],
        ],
    )

    _SUMMARY["fault"] = {
        "aborts": store.aborts,
        "fallbacks": store.fallbacks,
        "subscriber_completed": subscriber.state is QueryState.COMPLETED,
        "subscriber_correct": subscriber.result().table.rows == expected,
    }
    write_json("BENCH_E15", _SUMMARY)

    assert producer.state is QueryState.FAILED
    assert subscriber.state is QueryState.COMPLETED
    assert subscriber.result().table.rows == expected
    assert store.fallbacks == 1
    # The fallback recomputed from the sites -- no artifact shortcut.
    assert subscriber.result().report.rows_fetched > 0

    benchmark(lambda: build(with_artifacts=True))
