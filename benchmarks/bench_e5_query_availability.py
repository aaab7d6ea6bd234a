"""E5b -- Query-level availability: failover keeps queries alive (§3.2 C8).

The original E5 sweep measures *content reachability* under failures; this
one measures what users actually see: **query success rate** and **answer
completeness** when sites crash between planning and execution.

Setup: 16 content fragments on 8 sites, exponential crash/repair processes
(MTTF 500s, MTTR 100s), identical failure seeds across configurations.
Each query is planned first, then the simulation advances a scheduling
window (sites may die in between), then the plan executes -- exactly the
mid-query failure regime scan-level failover exists for.

Three measurements:

* RF=2 + single-site failures, **failover on**: every fragment always has a
  live replica, so the success rate must be 1.0 and failovers must fire.
* The identical workload and failure schedule with **failover off**
  (``RetryPolicy(enabled=False)``): queries die with
  ``SourceUnavailableError`` -- the ablation that shows the failover layer
  is doing the work.
* Unconstrained failures with ``degraded_ok=True``, swept over the §3.2 C8
  placement strategies: no query raises, and mean completeness reproduces
  the paper's availability ordering at the *answer* level.
"""

import os
import random

from _bench_util import report
from repro.core import DataType, Field, Schema, Table
from repro.core.errors import SourceUnavailableError
from repro.federation import (
    FailureInjector,
    FederatedEngine,
    FederationCatalog,
    PlacementStrategy,
    QueryOptions,
    RetryPolicy,
    place_fragments,
)
from repro.federation.engine import LIVE_ONLY
from repro.sim import EventLoop, SimClock
from repro.sql.parser import parse_sql
from repro.sql.planner import build_plan, resolve

SITES = [f"s{i}" for i in range(8)]
FRAGMENTS = 16
ROWS_PER_FRAGMENT = 10
MTTF, MTTR = 500.0, 100.0
FAILURE_SEED = 99
# The gap between planning and execution: long enough that sites die
# mid-query, short enough that most queries see a healthy federation.
WINDOW = 20.0
QUERY = "select count(*) from content"
TOTAL_ROWS = FRAGMENTS * ROWS_PER_FRAGMENT
# Env-overridable so CI can run a smaller smoke configuration.
QUERIES = int(os.environ.get("E5Q_QUERIES", "200"))


def build(strategy, replication, retry=None, max_concurrent_failures=None):
    placement = place_fragments(strategy, FRAGMENTS, SITES, replication)
    catalog = FederationCatalog(SimClock())
    for name in SITES:
        catalog.make_site(name)
    schema = Schema("content", (Field("k", DataType.STRING),))
    table = Table(schema, [(f"k{i}",) for i in range(TOTAL_ROWS)])
    catalog.load_fragmented(table, FRAGMENTS, placement)

    loop = EventLoop(catalog.clock)
    FailureInjector(
        loop,
        catalog,
        mttf=MTTF,
        mttr=MTTR,
        rng=random.Random(FAILURE_SEED),
        max_concurrent_failures=max_concurrent_failures,
    ).start()
    engine = FederatedEngine(catalog, retry=retry)
    return catalog, loop, engine


def plan_query(engine):
    """Plan QUERY through the engine's own rewrite + optimizer machinery."""
    statement = resolve(parse_sql(QUERY), engine.catalog.binding_fields)
    plan = engine._apply_rewrites(build_plan(statement), statement, QueryOptions())
    return engine.optimizer.optimize(plan, None, LIVE_ONLY)


def run_workload(strategy, replication, retry=None, max_concurrent_failures=None,
                 degraded_ok=False):
    """Plan, advance the window (failures land here), then execute.

    The clock only moves via ``loop.run_until`` in fixed steps, so the
    failure schedule is byte-identical across configurations -- the failover
    on/off comparison really is the same history twice.
    """
    catalog, loop, engine = build(
        strategy, replication, retry, max_concurrent_failures
    )
    succeeded = 0
    failed = 0
    completeness: list[float] = []
    for _ in range(QUERIES):
        try:
            physical = plan_query(engine)
        except Exception:
            failed += 1
            completeness.append(0.0)
            loop.run_until(catalog.clock.now() + 2 * WINDOW)
            continue
        loop.run_until(catalog.clock.now() + WINDOW)
        try:
            result_table, query_report = engine.executor.execute(
                physical, QueryOptions(degraded_ok=degraded_ok)
            )
        except SourceUnavailableError:
            failed += 1
            completeness.append(0.0)
        except Exception:
            failed += 1
            completeness.append(0.0)
        else:
            succeeded += 1
            completeness.append(query_report.completeness)
            engine.record_report_metrics(query_report)
        loop.run_until(catalog.clock.now() + WINDOW)
    return {
        "success_rate": succeeded / QUERIES,
        "failed": failed,
        "mean_completeness": sum(completeness) / len(completeness),
        "failovers": engine.metrics.counter("failover.successes").value,
        "attempts": engine.metrics.counter("failover.attempts").value,
        "degraded": engine.metrics.counter("queries.degraded").value,
    }


def test_e5_failover_keeps_queries_alive(benchmark):
    """RF=2 + single-site failures: failover on never loses a query; the
    identical failure schedule with failover off does."""
    with_failover = run_workload(
        PlacementStrategy.FRAGMENT_REPLICATE, 2, max_concurrent_failures=1
    )
    without_failover = run_workload(
        PlacementStrategy.FRAGMENT_REPLICATE,
        2,
        retry=RetryPolicy(enabled=False),
        max_concurrent_failures=1,
    )

    report(
        "e5_query_availability",
        f"E5b: query success under failures ({QUERIES} queries, RF=2, "
        f"MTTF {MTTF:.0f}s / MTTR {MTTR:.0f}s, single-site failures)",
        ["configuration", "success rate", "mean completeness",
         "failovers", "failed queries"],
        [
            ["failover on", with_failover["success_rate"],
             with_failover["mean_completeness"],
             with_failover["failovers"], with_failover["failed"]],
            ["failover off", without_failover["success_rate"],
             without_failover["mean_completeness"],
             without_failover["failovers"], without_failover["failed"]],
        ],
    )

    # With RF=2 and at most one site down, every fragment always has a live
    # replica: failover must save every query.
    assert with_failover["success_rate"] == 1.0
    assert with_failover["mean_completeness"] == 1.0
    assert with_failover["failovers"] > 0
    # The same failure schedule without failover loses queries.
    assert without_failover["success_rate"] < 1.0
    assert without_failover["failed"] > 0

    benchmark(lambda: run_workload(
        PlacementStrategy.FRAGMENT_REPLICATE, 2, max_concurrent_failures=1
    ))


def test_e5_degraded_answers_by_placement(benchmark):
    """Unconstrained failures + degraded_ok: nothing raises, and answer
    completeness reproduces the §3.2 C8 availability ordering."""
    rows = []
    results = {}
    for label, strategy, rf in [
        ("central site", PlacementStrategy.CENTRAL, 1),
        ("fragmented (RF=1)", PlacementStrategy.FRAGMENTED, 1),
        ("hot standby (full copy x2)", PlacementStrategy.HOT_STANDBY, 2),
        ("fragment+replicate (RF=2)", PlacementStrategy.FRAGMENT_REPLICATE, 2),
    ]:
        outcome = run_workload(strategy, rf, degraded_ok=True)
        results[label] = outcome
        rows.append([
            label,
            outcome["success_rate"],
            outcome["mean_completeness"],
            outcome["degraded"],
        ])

    report(
        "e5_degraded_answers",
        f"E5b: degraded-answer completeness by placement ({QUERIES} queries, "
        f"unconstrained failures)",
        ["placement", "success rate", "mean completeness", "degraded queries"],
        rows,
    )

    central = results["central site"]
    fragmented = results["fragmented (RF=1)"]
    combo = results["fragment+replicate (RF=2)"]
    # degraded_ok turns partial failures into partial answers: no query dies.
    for outcome in results.values():
        assert outcome["success_rate"] == 1.0
    # "most of the content all of the time": replication+fragmentation gives
    # the most complete answers; a central site loses whole queries' worth.
    assert combo["mean_completeness"] > central["mean_completeness"]
    assert combo["mean_completeness"] >= fragmented["mean_completeness"]
    assert central["degraded"] > 0

    benchmark(lambda: run_workload(
        PlacementStrategy.FRAGMENT_REPLICATE, 2, degraded_ok=True
    ))
