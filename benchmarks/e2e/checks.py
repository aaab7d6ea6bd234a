"""Layer-separation self-checks on a traced run.

Each workload exists to make one group of layers dominate; if it does not,
the workload is mis-sized and its end-to-end numbers would be credited to
the wrong layer.  A share is the group's self time over the traced wall
time per statement.
"""

from __future__ import annotations

PLANNING = (
    "parser.parse_us", "planner.build_us", "rewrite.apply_us",
    "agoric.optimize_us", "site.quote_us",
)
SITE_PLANE = (
    "physical.site_us", "columnar.table_chunks_us",
    "columnar.kernel_compile_us", "site.scan_us",
)
SHIP_AND_COORDINATOR = (
    "physical.ship_us", "columnar.encode_us", "columnar.decode_us",
    "columnar.to_envs_us", "physical.coordinator_us", "physical.result_build_us",
)
CONCURRENCY = (
    "workload.submit_us", "workload.drain_us", "workload.callback_us",
    "scheduler.push_pop_us", "events.run_next_us", "events.schedule_us",
)

# workload -> (label, metric name or group of *_us names, ">=" or "<=", bound)
CHECKS = {
    "hot_mix": (
        ("planning share", PLANNING, "<=", 0.25),
        ("plan-cache hit rate", "gateway.plan_cache_hit_rate", ">=", 0.99),
    ),
    "cold_plan": (
        ("planning share", PLANNING, ">=", 0.40),
        ("plan-cache hit rate", "gateway.plan_cache_hit_rate", "<=", 0.05),
    ),
    "scan_agg": (("site-plane share", SITE_PLANE, ">=", 0.60),),
    "join_ship": (("ship+coordinator share", SHIP_AND_COORDINATOR, ">=", 0.50),),
    "read_write": (
        ("semantic-cache hit rate", "cache.hit_rate", ">=", 0.50),
        ("replans per statement", "engine.replans_per_stmt", ">=", 0.05),
    ),
    "burst_queue": (
        ("admission queue depth", "workload.queue_depth_max", ">=", 4),
        ("event heap length", "events.heap_len_max", ">=", 16),
    ),
}
EVERYWHERE = (("trace coverage", "trace.coverage", ">=", 0.90),)


def share(metrics: dict, group: tuple, traced_us: float) -> float:
    return sum(metrics[name] for name in group) / traced_us


def run_checks(workload: str, metrics: dict, traced_us: float) -> list[dict]:
    """Evaluate one workload's checks; each result carries ``ok``."""
    results = []
    for label, target, op, bound in CHECKS[workload] + EVERYWHERE:
        value = (
            metrics[target]
            if isinstance(target, str)
            else share(metrics, target, traced_us)
        )
        ok = value >= bound if op == ">=" else value <= bound
        results.append(
            {"check": label, "value": value, "op": op, "bound": bound, "ok": ok}
        )
    return results


def concurrency_share(metrics: dict, traced_us: float) -> float:
    """Share of the admission/scheduling/event machinery in a statement.

    Reported for ``burst_queue`` beside ``hot_mix``: both run the same
    statements, so what differs between them is this layer.  (The issue
    expected the share to double under queueing; measured, it does not --
    the machinery's cost per statement does not depend on queue depth --
    so depth itself is what ``burst_queue`` is checked for.)
    """
    return share(metrics, CONCURRENCY, traced_us)
