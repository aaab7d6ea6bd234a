"""E17 -- Compiled governance under the gateway's production mix.

A content-integration deployment serves *competing* trading partners off
one federation, so policy enforcement cannot live in the application: the
gateway must prove that per-tenant RLS, column masks, rate limits and cost
budgets hold under load, and that the enforcement is *compiled* -- priced
by the optimizers, not bolted on as a post-filter.  Three scenarios:

* **Enforcement overhead.**  The E14 steady-state mix (Poisson arrivals
  at 85% of capacity, Zipf tenant skew) run twice over identical
  federations: once ungoverned, once with four of six tenants under RLS
  filters and a mask.  Modeled mean/P95 latency are compared; the
  ``governance.*`` counters show the subsystem actually policed the run.
  Because RLS compiles into scan pushdown, the governed run ships *fewer*
  rows -- overhead is bounded and pushdown-credited.
* **Optimizer-priced policies.**  The same governed statement is planned
  by all three optimizer families (agoric, centralized, policy-driven);
  each plan's modeled price is compared against the ungoverned price.  A
  sargable RLS predicate makes every optimizer's plan *cheaper* -- the
  definitive evidence that policies enter the plan, not the cursor.
* **Budget-capped markets.**  Three budgeted tenants contend for the same
  federation: a well-funded tenant, a shoestring ``reject`` tenant and a
  shoestring ``degrade`` tenant.  The shoestring tenants exhaust their
  credits mid-run; rejections and degradations are tallied and the rich
  tenant is unaffected.  A rate-limited tenant's burst is clipped by the
  token bucket on the same run.

Everything runs on the simulation clock with seeded arrivals; the report
tables are byte-identical across runs (determinism CI relies on this).
"""

import os
import random

from _bench_util import report, write_json
from loadgen import make_arrivals, poisson_times, zipf_weights
from repro.core import DataType, Field, Schema, Table
from repro.federation import (
    AgoricOptimizer,
    CentralizedOptimizer,
    FederatedEngine,
    FederationCatalog,
    Gateway,
    PolicyOptimizer,
    RoundRobinPolicy,
    WorkloadManager,
)
from repro.federation.governance import GovernanceRegistry
from repro.sim import EventLoop, SimClock

SEED = 20017
SITES = [f"s{i}" for i in range(3)]
FRAGMENTS = 6
ROWS_PER_FRAGMENT = 20
TOTAL_ROWS = FRAGMENTS * ROWS_PER_FRAGMENT
SLOTS = 3
QUEUE_LIMIT = 50
TENANTS = [f"t{i}" for i in range(6)]

# Env-overridable so CI can run a smaller smoke configuration.
QUERIES = int(os.environ.get("E17_QUERIES", "40000"))
BUDGET_QUERIES = int(os.environ.get("E17_BUDGET_QUERIES", "300"))

_SUMMARY: dict = {}


# Three of E14's four shapes (its LIKE shape adds nothing to governance,
# so it stays out of the comparison mix).


def _threshold_params(rng):
    return (rng.randrange(TOTAL_ROWS),)


def _range_params(rng):
    low = rng.randrange(TOTAL_ROWS - 20)
    return (low, low + 20)


def _point_params(rng):
    return (f"k{rng.randrange(TOTAL_ROWS):04d}",)


STATEMENTS = [
    ("select count(*) from items where v < ?", _threshold_params),
    ("SELECT k, v FROM items WHERE v BETWEEN ? AND ?", _range_params),
    ("select v from items where k = ?", _point_params),
]

# Four of six tenants governed: two share one declared policy (their plans
# and artifacts must too), one sees the other half of the key space, one is
# mask-only.  t4/t5 stay ungoverned and share the unpoliced plan-cache rows.
GOVERNED_MANIFEST = {
    "version": 1,
    "tenants": {
        "t0": {
            "tables": {
                "items": {"row_filter": "v < 60", "masks": {"k": "hash"}}
            }
        },
        "t1": {
            "tables": {
                "items": {"row_filter": "v < 60", "masks": {"k": "hash"}}
            }
        },
        "t2": {"tables": {"items": {"row_filter": "v >= 60"}}},
        "t3": {"tables": {"items": {"masks": {"k": "last4"}}}},
    },
}
DISTINCT_SIGNATURES = 3  # t0==t1, t2, t3 (t4/t5 share the ungoverned key)

BUDGET_MANIFEST = {
    "version": 1,
    "tenants": {
        "rich": {
            "tables": {"items": {"row_filter": "v >= 0"}},
            "budget": {"credits": 1000.0},
        },
        "poor-reject": {
            "tables": {"items": {"row_filter": "v >= 0"}},
            "budget": {"credits": 0.02, "on_exhausted": "reject"},
        },
        "poor-degrade": {
            "tables": {"items": {"row_filter": "v >= 0"}},
            "budget": {"credits": 0.02, "on_exhausted": "degrade"},
        },
        "chatty": {
            "tables": {"items": {"row_filter": "v >= 0"}},
            "rate_limit": {"per_second": 2.0, "burst": 4},
        },
    },
}


def build(manifest=None):
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
    governance = GovernanceRegistry(manifest) if manifest else None
    engine = FederatedEngine(catalog, governance=governance)
    loop = EventLoop(catalog.clock)
    return catalog, engine, loop


def build_gateway(manifest=None, queue_limit=QUEUE_LIMIT, tenants=TENANTS):
    _, engine, loop = build(manifest)
    manager = WorkloadManager(
        engine, loop, scheduler="weighted-fair", max_in_flight=SLOTS
    )
    for name in tenants:
        manager.register_tenant(name, queue_limit=queue_limit)
    return Gateway(manager, max_sessions=32, plan_cache_size=64)


def mix_service_seconds():
    """Mean uncontended modeled response time of the statement mix."""
    rng = random.Random(SEED)
    _, engine, _ = build()
    from repro.federation.gateway import bind_sql_text

    samples = 24
    total = 0.0
    for i in range(samples):
        sql, params_fn = STATEMENTS[i % len(STATEMENTS)]
        bound = bind_sql_text(sql, params_fn(rng))
        total += engine.query(
            bound, advance_clock=False
        ).report.response_seconds
    return total / samples


def run_mix(gateway, arrivals):
    """Open-loop offer; returns (outcomes, handles) after the loop drains."""
    from loadgen import run_open_loop

    return run_open_loop(gateway, arrivals)


def _emit_summary():
    write_json("BENCH_E17", _SUMMARY)


def _latency_stats(outcomes):
    latencies = sorted(
        x for o in outcomes.values() for x in o.latencies
    )
    mean = sum(latencies) / len(latencies)
    p95 = latencies[int(0.95 * (len(latencies) - 1))]
    return mean, p95


# -- enforcement overhead -------------------------------------------------------


def test_e17_enforcement_overhead(benchmark):
    """The governed gateway run polices every statement of four tenants at
    a bounded modeled-latency premium over the identical ungoverned run."""
    service = mix_service_seconds()
    capacity = SLOTS / service
    rng = random.Random(SEED)
    times = poisson_times(rng, 0.85 * capacity, QUERIES)
    arrivals = make_arrivals(
        rng, times, TENANTS, STATEMENTS,
        tenant_weights=zipf_weights(len(TENANTS)),
    )

    plain_gateway = build_gateway()
    plain_outcomes, _ = run_mix(plain_gateway, arrivals)
    governed_gateway = build_gateway(GOVERNED_MANIFEST)
    governed_outcomes, _ = run_mix(governed_gateway, arrivals)

    plain_mean, plain_p95 = _latency_stats(plain_outcomes)
    governed_mean, governed_p95 = _latency_stats(governed_outcomes)
    overhead = governed_mean / plain_mean

    metrics = governed_gateway.engine.metrics
    policed = metrics.counter("governance.queries_policed").value
    rls_rows = metrics.counter("governance.rows_filtered_by_rls").value
    cache = governed_gateway.plan_cache

    governed_completed = sum(
        governed_outcomes[t].completed for t in ("t0", "t1", "t2", "t3")
    )
    report(
        "e17_enforcement_overhead",
        f"E17: enforcement overhead ({QUERIES} queries at 85% capacity, "
        f"4/6 tenants governed, {policed:.0f} statements policed)",
        ["run", "completed", "mean s", "p95 s", "shed", "failed"],
        [
            ["ungoverned",
             sum(o.completed for o in plain_outcomes.values()),
             round(plain_mean, 6), round(plain_p95, 6),
             sum(o.shed for o in plain_outcomes.values()),
             sum(o.failed for o in plain_outcomes.values())],
            ["governed",
             sum(o.completed for o in governed_outcomes.values()),
             round(governed_mean, 6), round(governed_p95, 6),
             sum(o.shed for o in governed_outcomes.values()),
             sum(o.failed for o in governed_outcomes.values())],
        ],
    )

    _SUMMARY.update({
        "config": {
            "queries": QUERIES,
            "tenants": len(TENANTS),
            "governed_tenants": 4,
            "slots": SLOTS,
            "offered_load": 0.85,
            "service_seconds": round(service, 6),
        },
        "enforcement": {
            "plain_mean_s": round(plain_mean, 6),
            "plain_p95_s": round(plain_p95, 6),
            "governed_mean_s": round(governed_mean, 6),
            "governed_p95_s": round(governed_p95, 6),
            "overhead_ratio": round(overhead, 4),
            "queries_policed": int(policed),
            "rows_filtered_by_rls": int(rls_rows),
            "plan_cache_hit_rate": round(cache.hit_rate, 6),
            "plan_cache_misses": cache.misses,
            "error_rate": round(
                sum(o.failed for o in governed_outcomes.values())
                / max(1, sum(o.offered for o in governed_outcomes.values())),
                6,
            ),
        },
    })
    _emit_summary()

    # Every completed governed-tenant statement was policed, none errored.
    assert policed == governed_completed
    assert all(o.failed == 0 for o in governed_outcomes.values())
    # The plan cache still collapses planning: one entry per SQL shape per
    # distinct policy signature (t0/t1 share; t4/t5 share the unpoliced key).
    assert cache.misses == len(STATEMENTS) * (DISTINCT_SIGNATURES + 1)
    assert cache.hit_rate > 0.95
    # Compiled enforcement is cheap: RLS rides the pushdown the sites
    # evaluate anyway, so the modeled premium stays well under 2x -- a
    # post-filtering implementation would ship every row and blow this.
    assert overhead < 2.0

    benchmark(lambda: run_mix(
        build_gateway(GOVERNED_MANIFEST),
        make_arrivals(
            random.Random(SEED),
            poisson_times(random.Random(SEED), 0.5 * capacity, 12),
            TENANTS, STATEMENTS,
        ),
    ))


# -- optimizer-priced policies --------------------------------------------------


def test_e17_policies_are_priced_by_every_optimizer(benchmark):
    """All three optimizer families see the injected RLS predicate and
    price the governed plan cheaper than the ungoverned one."""
    probe = "select k, v from items"
    rows = []
    pricing = {}
    for name, make_optimizer in [
        ("agoric", lambda catalog: AgoricOptimizer(catalog)),
        ("centralized", lambda catalog: CentralizedOptimizer(catalog)),
        ("policy:round-robin",
         lambda catalog: PolicyOptimizer(catalog, RoundRobinPolicy())),
    ]:
        catalog, _, _ = build()
        engine = FederatedEngine(
            catalog,
            optimizer=make_optimizer(catalog),
            governance=GovernanceRegistry(GOVERNED_MANIFEST),
        )
        plain = engine.query(probe)
        governed = engine.query(probe, tenant="t0")
        explain = engine.explain(probe, tenant="t0")
        assert "rls(tenant=t0: v < 60)" in explain
        assert "mask(k)" in explain
        pricing[name] = {
            # Modeled response seconds are the cost currency every
            # optimizer family shares; the agoric market also reports the
            # sum of its winning bids.
            "plain_seconds": round(plain.report.response_seconds, 8),
            "governed_seconds": round(governed.report.response_seconds, 8),
            "plain_price": round(plain.plan.total_price, 8),
            "governed_price": round(governed.plan.total_price, 8),
            "plain_rows": len(plain.table),
            "governed_rows": len(governed.table),
        }
        rows.append([
            name, pricing[name]["plain_seconds"],
            pricing[name]["governed_seconds"],
            pricing[name]["plain_rows"], pricing[name]["governed_rows"],
        ])

    report(
        "e17_optimizer_pricing",
        "E17: the RLS predicate is optimizer-visible -- every family "
        "prices the governed scan below the unrestricted one",
        ["optimizer", "plain s", "governed s",
         "plain rows", "governed rows"],
        rows,
    )
    _SUMMARY["pricing"] = pricing
    _emit_summary()

    for name, stats in pricing.items():
        # The governed plan ships half the table (v < 60 of 120 rows), so
        # its modeled cost must drop -- proof the policy entered the plan
        # before costing, not the cursor after it.
        assert stats["governed_seconds"] < stats["plain_seconds"], name
        assert stats["governed_rows"] == 60
        assert stats["plain_rows"] == TOTAL_ROWS
    # The agoric market's winning-bid total drops with the shipped rows.
    assert pricing["agoric"]["governed_price"] < pricing["agoric"]["plain_price"]

    catalog, _, _ = build()
    engine = FederatedEngine(
        catalog, governance=GovernanceRegistry(GOVERNED_MANIFEST)
    )
    benchmark(lambda: engine.query(probe, tenant="t0", advance_clock=False))


# -- budget-capped markets ------------------------------------------------------


def test_e17_budget_contention(benchmark):
    """Shoestring budgets exhaust mid-run: the reject tenant is turned
    away, the degrade tenant limps on degraded, the funded tenant and the
    federation's other work are untouched; a chatty tenant's burst is
    clipped by the token bucket."""
    from repro.core.errors import QueryRejectedError

    tenants = ["rich", "poor-reject", "poor-degrade"]
    gateway = build_gateway(BUDGET_MANIFEST, tenants=tenants + ["chatty"])
    governance = gateway.engine.governance
    loop = gateway.workload.loop
    sessions = {name: gateway.connect(tenant=name) for name in tenants}
    sql = "select count(*) from items where v < ?"

    completed = {name: 0 for name in tenants}
    rejected = {name: 0 for name in tenants}
    rng = random.Random(SEED + 1)
    # Paced arrivals: round-robin across the budgeted tenants, spaced out
    # so admission decisions happen one at a time on the modeled clock.
    for i in range(BUDGET_QUERIES):
        tenant = tenants[i % len(tenants)]

        def arrive(tenant=tenant, params=(rng.randrange(TOTAL_ROWS),)):
            try:
                sessions[tenant].submit(sql, params)
            except QueryRejectedError:
                rejected[tenant] += 1

        loop.schedule_at(i * 0.05, arrive)
    while loop.pending():
        loop.run_next()
    for name in tenants:
        completed[name] = gateway.workload.tenant(name).completed

    # The chatty tenant fires a 12-query burst into a 4-token bucket.
    chatty = gateway.connect(tenant="chatty")
    chatty_rejected = 0
    for _ in range(12):
        try:
            handle = chatty.submit("select count(*) from items", ())
            gateway.workload.drain(handle)
        except QueryRejectedError:
            chatty_rejected += 1

    metrics = gateway.engine.metrics
    budget_rejections = metrics.counter("governance.budget_rejections").value
    budget_degraded = metrics.counter("governance.budget_degraded").value
    rate_limited = metrics.counter("governance.rate_limited").value

    rows = [
        [name, completed[name], rejected[name],
         round(governance.remaining_budget(name) or 0.0, 6)]
        for name in tenants
    ]
    report(
        "e17_budget_contention",
        f"E17: budget-capped contention ({BUDGET_QUERIES} offered over 3 "
        f"budgeted tenants; {budget_rejections:.0f} budget rejections, "
        f"{budget_degraded:.0f} degraded, {rate_limited:.0f} rate-limited)",
        ["tenant", "completed", "rejected", "remaining credits"],
        rows,
    )

    _SUMMARY["budgets"] = {
        "offered": BUDGET_QUERIES,
        "completed": completed,
        "rejected": rejected,
        "budget_rejections": int(budget_rejections),
        "budget_degraded": int(budget_degraded),
        "rate_limited": int(rate_limited),
        "remaining": {
            name: round(governance.remaining_budget(name) or 0.0, 6)
            for name in tenants
        },
    }
    _emit_summary()

    offered_each = BUDGET_QUERIES // len(tenants)
    # The funded tenant completes its whole share; the reject tenant is
    # turned away once its credits run out -- and the ledger never goes
    # meaningfully negative (the last admitted query may overshoot).
    assert completed["rich"] == offered_each
    assert rejected["rich"] == 0
    assert rejected["poor-reject"] > 0
    assert completed["poor-reject"] < offered_each
    assert budget_rejections == rejected["poor-reject"]
    # The degrade tenant is never turned away: exhaustion flips it to
    # degraded answers instead.
    assert rejected["poor-degrade"] == 0
    assert completed["poor-degrade"] == offered_each
    assert budget_degraded > 0
    # The token bucket clips the burst past its 4-token capacity (tokens
    # trickle back while drained queries advance the clock).
    assert chatty_rejected > 0
    assert rate_limited == chatty_rejected

    benchmark(lambda: governance.effective_budget("rich", None))
