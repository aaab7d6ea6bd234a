"""E14 -- The query gateway under production-shaped load.

§4 puts a portal in front of the integrator ("Cohera Connect can present
a traditional ODBC or JDBC interface to query applications") serving many
trading partners.  This experiment drives the gateway -- pooled sessions,
prepared-statement plan cache, workload-manager admission -- with the
traffic shapes such a front door actually sees:

* **Steady state.**  Open-loop Poisson arrivals at 85% of federation
  capacity, Zipf-skewed across six tenants, with a per-statement
  deadline.  The SLO report is per-tenant: QPS, P50/P95/P99 latency,
  shed / timeout / error rates, plus the plan-cache hit rate (four SQL
  shapes repeat with fresh bindings, so the cache should absorb nearly
  all planning).
* **Diurnal curve and flash crowd.**  A sinusoidal day/night rate and a
  6x spike window, both by thinning.  Peak-window queueing must exceed
  trough queueing; the spike must shed (bounded queues convert the crowd
  into rejections) while the same base rate without a spike sheds
  nothing.
* **Prepared-vs-ad-hoc planning.**  The same statement mix run through
  ``engine.query`` (parse + rewrite + optimize per statement) and through
  prepare-once / execute-many.  Modeled planning seconds collapse to ~one
  optimization per SQL shape; wall-clock speedup is reported to
  ``BENCH_E14.json`` (machine-varying, so it stays out of the
  deterministic tables).
* **Closed loop.**  A fixed client population with exponential think
  times: throughput self-limits below capacity and nothing sheds -- the
  interactive-portal regime.

Everything runs on the simulation clock with seeded arrivals; the report
tables are byte-identical across runs (determinism CI relies on this).
"""

import math
import os
import random
import time

from _bench_util import report, write_json
from loadgen import (
    diurnal_times,
    flash_crowd_times,
    make_arrivals,
    poisson_times,
    run_closed_loop,
    run_open_loop,
    zipf_weights,
)
from repro.core import DataType, Field, Schema, Table
from repro.federation import (
    FederatedEngine,
    FederationCatalog,
    Gateway,
    WorkloadManager,
)
from repro.federation.gateway import bind_sql_text
from repro.sim import EventLoop, SimClock

SEED = 20014
SITES = [f"s{i}" for i in range(3)]
FRAGMENTS = 6
ROWS_PER_FRAGMENT = 20
TOTAL_ROWS = FRAGMENTS * ROWS_PER_FRAGMENT
SLOTS = 3
QUEUE_LIMIT = 50
TENANTS = [f"t{i}" for i in range(6)]

# Env-overridable so CI can run a smaller smoke configuration.
QUERIES = int(os.environ.get("E14_QUERIES", "100000"))
CURVE_QUERIES = int(os.environ.get("E14_CURVE_QUERIES", "8000"))
SPEEDUP_QUERIES = int(os.environ.get("E14_SPEEDUP_QUERIES", "2000"))
CLOSED_QUERIES = int(os.environ.get("E14_CLOSED_QUERIES", "40"))
CLOSED_CLIENTS = 6

PROBE_QUERY = "select count(*) from items"

# Shared across report tables and BENCH_E14.json; pytest runs the tests in
# file order, so the JSON written by a later test includes earlier keys.
_SUMMARY: dict = {}


# -- statement mix -------------------------------------------------------------
#
# Four parameterizable shapes (the plan-cache scenario: one template each,
# fresh bindings per execution); the LIKE shape's placeholder is its
# pattern.  The BETWEEN shape is deliberately spelled in upper case: the
# normalized cache key must fold it together with any other spelling.


def _threshold_params(rng):
    return (rng.randrange(TOTAL_ROWS),)


def _range_params(rng):
    low = rng.randrange(TOTAL_ROWS - 20)
    return (low, low + 20)


def _point_params(rng):
    return (f"k{rng.randrange(TOTAL_ROWS):04d}",)


def _like_params(rng):
    return (f"k00{rng.randrange(10)}%",)


STATEMENTS = [
    ("select count(*) from items where v < ?", _threshold_params),
    ("SELECT k, v FROM items WHERE v BETWEEN ? AND ?", _range_params),
    ("select v from items where k = ?", _point_params),
    ("select k from items where k like ?", _like_params),
]


def build():
    """items(k, v) hash-fragmented over three sites with RF=2."""
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
    engine = FederatedEngine(catalog)
    loop = EventLoop(catalog.clock)
    return catalog, engine, loop


def build_gateway(queue_limit=QUEUE_LIMIT):
    _, engine, loop = build()
    manager = WorkloadManager(
        engine, loop, scheduler="weighted-fair", max_in_flight=SLOTS
    )
    for name in TENANTS:
        manager.register_tenant(name, queue_limit=queue_limit)
    return Gateway(manager, max_sessions=32, plan_cache_size=64)


def solo_response_seconds():
    """Modeled response time of one probe query on an idle federation."""
    _, engine, _ = build()
    return engine.query(PROBE_QUERY).report.response_seconds


def mix_service_seconds():
    """Mean uncontended response time of the benchmark statement mix.

    Capacity planning must use the mix the load actually sends -- the
    shipped-row shapes cost more than the count(*) probe.
    """
    rng = random.Random(SEED)
    _, engine, _ = build()
    samples = 24
    total = 0.0
    for i in range(samples):
        sql, params_fn = STATEMENTS[i % len(STATEMENTS)]
        bound = bind_sql_text(sql, params_fn(rng))
        total += engine.query(bound, advance_clock=False).report.response_seconds
    return total / samples


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def _emit_summary():
    write_json("BENCH_E14", _SUMMARY)


# -- steady state: the SLO report ----------------------------------------------


def test_e14_steady_state_slo(benchmark):
    """85%-of-capacity Poisson load, Zipf tenant skew: per-tenant SLOs and
    a plan-cache hit rate that absorbs nearly all planning."""
    service = mix_service_seconds()
    capacity = SLOTS / service
    deadline = 12 * service
    rng = random.Random(SEED)
    times = poisson_times(rng, 0.85 * capacity, QUERIES)
    arrivals = make_arrivals(
        rng, times, TENANTS, STATEMENTS,
        tenant_weights=zipf_weights(len(TENANTS)),
    )

    gateway = build_gateway()
    outcomes, _ = run_open_loop(gateway, arrivals, deadline=deadline)

    rows = []
    tenant_stats = {}
    for rank, tenant in enumerate(TENANTS):
        outcome = outcomes[tenant]
        lat = outcome.latencies or [0.0]
        stats = {
            "offered": outcome.offered,
            "completed": outcome.completed,
            "qps": round(outcome.qps, 4),
            "p50_s": round(percentile(lat, 50), 6),
            "p95_s": round(percentile(lat, 95), 6),
            "p99_s": round(percentile(lat, 99), 6),
            "shed_rate": round(outcome.rate(outcome.shed), 4),
            "timeout_rate": round(outcome.rate(outcome.timed_out), 4),
            "error_rate": round(outcome.rate(outcome.failed), 4),
        }
        # The share refused either way, as one figure for the SLO gate.
        stats["shed_timeout_rate"] = stats["shed_rate"] + stats["timeout_rate"]
        tenant_stats[tenant] = stats
        rows.append([
            tenant, outcome.offered, outcome.completed,
            stats["qps"], stats["p50_s"], stats["p95_s"], stats["p99_s"],
            stats["shed_rate"], stats["timeout_rate"],
        ])

    cache = gateway.plan_cache
    report(
        "e14_steady_state_slo",
        f"E14: steady-state SLOs ({QUERIES} queries at 85% capacity, "
        f"{len(TENANTS)} tenants Zipf-skewed, deadline {deadline:.3f}s, "
        f"plan-cache hit rate {cache.hit_rate:.4f})",
        ["tenant", "offered", "done", "qps", "p50 s", "p95 s", "p99 s",
         "shed", "timeout"],
        rows,
    )

    _SUMMARY.update({
        "config": {
            "queries": QUERIES,
            "tenants": len(TENANTS),
            "slots": SLOTS,
            "queue_limit": QUEUE_LIMIT,
            "offered_load": 0.85,
            "service_seconds": round(service, 6),
            "capacity_qps": round(capacity, 4),
            "deadline_seconds": round(deadline, 6),
        },
        "tenants": tenant_stats,
        "plan_cache": {
            "hits": cache.hits,
            "misses": cache.misses,
            "hit_rate": round(cache.hit_rate, 6),
        },
    })
    _emit_summary()

    # Every arrival was offered; Zipf skew puts t0 well above t5.
    assert sum(o.offered for o in outcomes.values()) == QUERIES
    assert outcomes["t0"].offered > 2 * outcomes["t5"].offered
    # One template per SQL shape: misses stay at the shape count
    # no matter how many executions, so the hit rate approaches 1.
    assert cache.misses == len(STATEMENTS)
    assert cache.hit_rate > 0.99
    # Under 85% load with a bounded queue and deadline the federation keeps
    # its promises: everything completes or is visibly shed/timed out, and
    # nothing errors.
    for outcome in outcomes.values():
        assert outcome.failed == 0
        assert (
            outcome.completed + outcome.shed + outcome.timed_out
            == outcome.offered
        )
    # Queueing shows up in the tail: per tenant the percentiles are
    # ordered, and nothing completes in zero modeled time.
    fastest = min(min(o.latencies) for o in outcomes.values() if o.latencies)
    assert fastest > 0
    for stats in tenant_stats.values():
        assert stats["p50_s"] <= stats["p95_s"] <= stats["p99_s"]

    benchmark(lambda: run_open_loop(
        build_gateway(),
        make_arrivals(
            random.Random(SEED), poisson_times(random.Random(SEED), 0.5 * capacity, 12),
            TENANTS, STATEMENTS,
        ),
    ))


# -- diurnal curve and flash crowd ---------------------------------------------


def test_e14_diurnal_and_flash_crowd(benchmark):
    """Peak-hour queueing beats the trough; a 6x flash crowd sheds where
    the same base rate alone does not."""
    service = mix_service_seconds()
    capacity = SLOTS / service

    # Diurnal: mean 60% of capacity with a 0.9 swing, so the peak hour
    # (~114% of capacity) queues while the trough (~6%) idles -- and the
    # mild overshoot keeps the peak backlog small enough to drain before
    # the trough window opens.
    base = 0.6 * capacity
    horizon = CURVE_QUERIES / base
    period = horizon  # one full day over the run
    rng = random.Random(SEED + 1)
    d_times = diurnal_times(rng, base, horizon, period, depth=0.9)
    d_arrivals = make_arrivals(rng, d_times, TENANTS, STATEMENTS)
    gateway = build_gateway()
    d_outcomes, d_handles = run_open_loop(gateway, d_arrivals)

    # The sine peaks at period/4 and troughs at 3*period/4; compare queue
    # waits in windows around each (the gap after the peak lets its
    # residual backlog drain before the trough window is scored).
    peak_waits = [
        h.queue_wait_seconds for h in d_handles
        if 0.10 * period <= h.submitted_at <= 0.45 * period
    ]
    trough_waits = [
        h.queue_wait_seconds for h in d_handles
        if 0.55 * period <= h.submitted_at <= 0.95 * period
    ]

    # Flash crowd: a comfortable 50% base rate with a 6x spike over 10% of
    # the horizon -- offered load hits 3x capacity inside the window.
    f_rng = random.Random(SEED + 2)
    f_horizon = CURVE_QUERIES / (0.5 * capacity)
    f_times = flash_crowd_times(
        f_rng, 0.5 * capacity, f_horizon,
        spike_start=0.4 * f_horizon,
        spike_duration=0.1 * f_horizon,
        spike_factor=6.0,
    )
    f_arrivals = make_arrivals(f_rng, f_times, TENANTS, STATEMENTS)
    f_outcomes, _ = run_open_loop(build_gateway(), f_arrivals)
    f_shed = sum(o.shed for o in f_outcomes.values())
    f_offered = sum(o.offered for o in f_outcomes.values())

    # Control: the identical base rate with no spike sheds nothing.
    c_rng = random.Random(SEED + 2)
    c_times = flash_crowd_times(
        c_rng, 0.5 * capacity, f_horizon,
        spike_start=0.4 * f_horizon,
        spike_duration=0.1 * f_horizon,
        spike_factor=1.0,
    )
    c_arrivals = make_arrivals(c_rng, c_times, TENANTS, STATEMENTS)
    c_outcomes, _ = run_open_loop(build_gateway(), c_arrivals)
    c_shed = sum(o.shed for o in c_outcomes.values())

    report(
        "e14_curves",
        f"E14: diurnal + flash crowd (diurnal {len(d_times)} arrivals at "
        f"60% mean, flash {len(f_times)} arrivals, 6x spike over 10% of "
        "horizon)",
        ["shape", "arrivals", "shed", "p95 queue wait s", "p99 latency s"],
        [
            ["diurnal peak window", len(peak_waits), "-",
             percentile(peak_waits, 95), "-"],
            ["diurnal trough window", len(trough_waits), "-",
             percentile(trough_waits, 95), "-"],
            ["flash crowd", f_offered, f_shed, "-",
             percentile([x for o in f_outcomes.values() for x in o.latencies], 99)],
            ["flash control (no spike)", sum(o.offered for o in c_outcomes.values()),
             c_shed, "-",
             percentile([x for o in c_outcomes.values() for x in o.latencies], 99)],
        ],
    )

    _SUMMARY["curves"] = {
        "diurnal_peak_p95_wait_s": round(percentile(peak_waits, 95), 6),
        "diurnal_trough_p95_wait_s": round(percentile(trough_waits, 95), 6),
        "flash_offered": f_offered,
        "flash_shed": f_shed,
        "flash_shed_rate": round(f_shed / f_offered, 4),
        "control_shed": c_shed,
    }
    _emit_summary()

    # Day/night asymmetry: the peak window queues, the trough coasts.
    assert len(peak_waits) > 1.5 * len(trough_waits)
    assert percentile(peak_waits, 95) > 0
    assert percentile(peak_waits, 95) > 2 * percentile(trough_waits, 95)
    # The spike overloads (bounded queues shed); the same base rate alone
    # does not shed at all.
    assert f_shed > 0
    assert c_shed == 0
    # Nothing fails in either run.
    assert all(o.failed == 0 for o in f_outcomes.values())
    assert all(o.failed == 0 for o in d_outcomes.values())

    benchmark(lambda: diurnal_times(random.Random(SEED), base, horizon / 50, period))


# -- prepared-vs-ad-hoc planning cost ------------------------------------------


def test_e14_prepared_speedup(benchmark):
    """Prepare-once/execute-many collapses planning to one optimization
    per SQL shape, and beats parse-per-statement wall clock."""
    rng = random.Random(SEED + 3)
    shapes = STATEMENTS
    workload = [
        (sql, params_fn(rng))
        for sql, params_fn in (
            shapes[i % len(shapes)] for i in range(SPEEDUP_QUERIES)
        )
    ]

    # Ad-hoc: every statement is parsed, rewritten and optimized.  Bind
    # the parameters textually (the pre-gateway client's only option).
    _, adhoc_engine, _ = build()
    t0 = time.perf_counter()
    adhoc_opt = 0.0
    for sql, params in workload:
        result = adhoc_engine.query(
            bind_sql_text(sql, params), advance_clock=False
        )
        adhoc_opt += result.plan.optimization_seconds
    adhoc_wall = time.perf_counter() - t0

    # Prepared: one template per shape, bindings per execution.
    _, prep_engine, _ = build()
    templates = {}
    t0 = time.perf_counter()
    prep_opt = 0.0
    for sql, params in workload:
        prepared = templates.get(sql)
        if prepared is None:
            prepared = prep_engine.prepare(sql)
            templates[sql] = prepared
            prep_opt += prepared.optimization_seconds
        result = prep_engine.execute(prepared, params, advance_clock=False)
        prep_opt += result.plan.optimization_seconds  # 0 on the fast path
    prep_wall = time.perf_counter() - t0

    wall_speedup = adhoc_wall / prep_wall
    report(
        "e14_prepared_planning",
        f"E14: modeled planning cost over {SPEEDUP_QUERIES} statements, "
        f"{len(shapes)} SQL shapes (wall-clock numbers go to BENCH_E14.json)",
        ["path", "optimizations", "modeled planning s"],
        [
            ["ad-hoc (parse per statement)", SPEEDUP_QUERIES, adhoc_opt],
            ["prepared (plan per shape)", len(shapes), prep_opt],
        ],
    )

    _SUMMARY["planning"] = {
        "statements": SPEEDUP_QUERIES,
        "shapes": len(shapes),
        "modeled_adhoc_seconds": round(adhoc_opt, 6),
        "modeled_prepared_seconds": round(prep_opt, 6),
        "adhoc_wall_ms_per_stmt": round(1000 * adhoc_wall / SPEEDUP_QUERIES, 4),
        "prepared_wall_ms_per_stmt": round(1000 * prep_wall / SPEEDUP_QUERIES, 4),
        "wall_speedup": round(wall_speedup, 3),
    }
    _emit_summary()

    # Modeled planning shrinks by the execution-to-shape ratio (one
    # optimization per shape instead of one per statement); the fast path
    # charges zero optimization seconds per execution.
    assert prep_opt <= adhoc_opt * len(shapes) / SPEEDUP_QUERIES * 1.5
    assert prep_opt == sum(t.optimization_seconds for t in templates.values())
    # Wall clock: skipping parse + rewrite + optimize is a real speedup,
    # asserted conservatively (measured ~2x) to stay robust on slow CI.
    assert wall_speedup > 1.2

    benchmark(lambda: prep_engine.execute(
        templates[shapes[0][0]], (50,), advance_clock=False
    ))


# -- closed loop ----------------------------------------------------------------


def test_e14_closed_loop(benchmark):
    """A fixed interactive population self-limits below capacity: every
    statement completes, nothing sheds."""
    service = mix_service_seconds()
    capacity = SLOTS / service
    rng = random.Random(SEED + 4)
    clients = [TENANTS[i % 3] for i in range(CLOSED_CLIENTS)]
    gateway = build_gateway()
    outcomes, handles = run_closed_loop(
        gateway, rng, clients, STATEMENTS,
        queries_per_client=CLOSED_QUERIES,
        think_rate=1.0 / (2 * service),  # mean think = 2 service times
    )

    total = CLOSED_CLIENTS * CLOSED_QUERIES
    span = max(h.finished_at for h in handles) - min(
        h.submitted_at for h in handles
    )
    throughput = len(handles) / span
    lat = [h.finished_at - h.submitted_at for h in handles]
    report(
        "e14_closed_loop",
        f"E14: closed loop ({CLOSED_CLIENTS} clients x {CLOSED_QUERIES} "
        f"statements, mean think {2 * service:.3f}s)",
        ["tenant", "offered", "completed", "p50 s", "p95 s"],
        [
            [tenant, outcomes[tenant].offered, outcomes[tenant].completed,
             percentile(outcomes[tenant].latencies, 50),
             percentile(outcomes[tenant].latencies, 95)]
            for tenant in sorted(outcomes)
        ],
    )

    _SUMMARY["closed_loop"] = {
        "clients": CLOSED_CLIENTS,
        "statements": total,
        "throughput_qps": round(throughput, 4),
        "p50_s": round(percentile(lat, 50), 6),
        "p95_s": round(percentile(lat, 95), 6),
    }
    _emit_summary()

    # Closed-loop conservation: every statement issued, none shed or lost.
    assert sum(o.offered for o in outcomes.values()) == total
    assert sum(o.completed for o in outcomes.values()) == total
    assert all(o.shed == 0 and o.failed == 0 for o in outcomes.values())
    # Self-limiting: think time keeps offered load under capacity.
    assert throughput < capacity

    benchmark(lambda: run_closed_loop(
        build_gateway(), random.Random(SEED), clients[:2], STATEMENTS,
        queries_per_client=2, think_rate=1.0 / (2 * service),
    ))
