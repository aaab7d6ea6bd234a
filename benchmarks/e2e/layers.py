"""The traced run: per-layer metrics of one workload.

A traced run has two phases over the *same* fixed number of ops on two
fresh, identically built federations: phase A untraced (the base of
``trace.overhead_ratio``), phase B with the span table installed.  Their
answers must digest identically and their modeled response seconds must
be equal -- tracing observes the program, it may not change it.

``*_us`` metrics are mean **self** time per statement in microseconds;
the rest are counts and ratios read from public attributes at the same
boundaries.
"""

from __future__ import annotations

import gc
import hashlib
import sys

from repro.federation import CentralizedOptimizer, LeastLoadedPolicy, PolicyOptimizer

from benchmarks.e2e.checks import run_checks
from benchmarks.e2e.harness import (
    SMOKE_DIVISOR,
    SMOKE_WARMUP_DIVISOR,
    Window,
    quiesce,
    set_up,
    timed_loop,
)
from benchmarks.e2e.trace import (
    CALLBACK_SPANS,
    SCHEDULE_SPAN,
    SPAN_TABLE,
    Recorder,
    Tracer,
    self_times,
)
from benchmarks.e2e.workloads import Workload, World, stream_digest

SPAN_NAMES = [*SPAN_TABLE, SCHEDULE_SPAN, *(span for _, span in CALLBACK_SPANS)]

# Everything a traced run reports besides the ``*_us`` self times:
# name -> (unit, better).
COUNT_METRICS = {
    "gateway.plan_cache_hit_rate": ("ratio", "higher"),
    "gateway.plan_cache_evictions": ("1/stmt", "lower"),
    "gateway.text_bind_rate": ("ratio", "lower"),
    "agoric.bids_per_stmt": ("1/stmt", "lower"),
    "engine.replans_per_stmt": ("1/stmt", "lower"),
    "engine.sim_response_s": ("s", "lower"),
    "workload.queue_depth_max": ("count", "lower"),
    "workload.sim_queue_wait_s": ("s", "lower"),
    "workload.shed_rate": ("ratio", "lower"),
    "events.fired_per_stmt": ("1/stmt", "lower"),
    "events.heap_len_max": ("count", "lower"),
    "physical.rows_fetched_per_row_returned": ("ratio", "lower"),
    "physical.rows_shipped_per_stmt": ("1/stmt", "lower"),
    "physical.fragments_pruned_ratio": ("ratio", "higher"),
    "columnar.wire_bytes_per_row": ("B/row", "lower"),
    "columnar.encode_ratio": ("ratio", "higher"),
    "site.rows_scanned_per_s": ("1/s", "higher"),
    "cache.hit_rate": ("ratio", "higher"),
    "cache.evictions": ("1/stmt", "lower"),
    "artifacts.hit_rate": ("ratio", "higher"),
    "metrics.calls_per_stmt": ("1/stmt", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.unresolved_targets": ("count", "lower"),
    "trace.checks_failed": ("count", "lower"),
}

PER_LAYER = {
    **{f"{name}_us": ("us", "lower") for name in SPAN_NAMES},
    **COUNT_METRICS,
}

# How many logical plans the traced run re-optimizes with the two other
# optimizer families (layer-only numbers, no end-to-end counterpart).
OPTIMIZER_SAMPLE = 200


class Observer:
    """Folds every statement's answer and ``ExecutionReport`` into sums."""

    def __init__(self, workload: Workload, keep_plans: int = 0) -> None:
        self.workload = workload
        self.digest = hashlib.sha256()
        self.statements = 0
        self.sim_response = 0.0
        self.sim_queue_wait = 0.0
        self.rows_fetched = 0
        self.rows_returned = 0
        self.rows_shipped = 0
        self.bytes_shipped = 0
        self.fragments_pruned = 0
        self.fragments_total = 0
        self.raw_bytes = 0
        self.encoded_bytes = 0
        self.keep_plans = keep_plans
        self.plans: list = []

    def __call__(self, op, result) -> None:
        for outcome in self.workload.results(result):
            report = outcome.report
            self.digest.update(repr(outcome.table.rows).encode("utf-8"))
            self.statements += 1
            self.sim_response += report.response_seconds
            self.sim_queue_wait += report.queue_wait_seconds
            self.rows_fetched += report.rows_fetched
            self.rows_returned += report.rows_returned
            self.rows_shipped += report.rows_shipped
            self.bytes_shipped += report.bytes_shipped
            self.fragments_pruned += report.fragments_pruned
            self.fragments_total += report.fragments_total
            if report.operators is not None:
                for stats in report.operators.walk():
                    self.raw_bytes += stats.raw_bytes
                    self.encoded_bytes += stats.encoded_bytes
            if len(self.plans) < self.keep_plans:
                self.plans.append(outcome.plan.logical)


class Counters:
    """Public program counters, read before and after the traced phase."""

    def __init__(self, world: World) -> None:
        cache = world.gateway.plan_cache
        self.plan_hits = cache.hits
        self.plan_misses = cache.misses
        self.plan_evictions = cache.evictions
        self.replans = world.engine.metrics.counter("prepared.replans").value
        self.fired = world.manager.loop.fired
        self.rejected = sum(t.rejected for t in world.manager.tenants.values())
        semantic = world.engine.cache
        self.cache_hits = semantic.hits if semantic else 0
        self.cache_misses = semantic.misses if semantic else 0
        self.cache_evictions = semantic.evictions if semantic else 0
        store = world.engine.artifacts
        self.artifact_hits = (store.hits + store.joins) if store else 0
        self.artifact_misses = store.misses if store else 0

    def since(self, before: "Counters") -> "Counters":
        for key, value in vars(before).items():
            setattr(self, key, getattr(self, key) - value)
        return self


def busy_seconds(window: Window) -> float:
    """All timed segments of a window, at reference speed."""
    return sum(seconds for seconds, _ in window.calibrated())


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def reoptimize(world: World, plans: list) -> None:
    """Price each kept logical plan with the two other optimizer families."""
    catalog = world.engine.catalog
    for optimizer in (
        CentralizedOptimizer(catalog),
        PolicyOptimizer(catalog, LeastLoadedPolicy()),
    ):
        for plan in plans:
            optimizer.optimize(plan)


def measure_traced(
    workload: Workload, seed: int, smoke: bool = False, spans_out: str | None = None
) -> dict:
    """Every per-layer metric of one workload, over ``trace_ops`` ops per
    phase (1/50 of that in a smoke run), plus what the self-checks need."""
    warmup, ops = workload.generate(seed)
    digest = stream_digest(warmup, ops)
    count = workload.trace_ops
    if smoke:
        warmup = warmup[: len(warmup) // SMOKE_WARMUP_DIVISOR]
        count = max(2, count // SMOKE_DIVISOR)

    # Phase A: untraced, the base of the overhead ratio.
    world, _ = set_up(workload, seed, warmup)
    base_observer = Observer(workload)
    quiesce()
    base = timed_loop(
        workload, world, ops, None, max_ops=count, observer=base_observer
    )
    gc.unfreeze()

    # Phase B: the same ops on a fresh federation, spans on.
    world = None
    gc.collect()
    world, _ = set_up(workload, seed, warmup)
    recorder = Recorder()
    tracer = Tracer(recorder)
    observer = Observer(
        workload, OPTIMIZER_SAMPLE if workload.compare_optimizers else 0
    )

    def mark(index: int) -> None:
        recorder.op = index

    before = Counters(world)
    quiesce()
    with tracer:
        traced = timed_loop(
            workload, world, ops, None, max_ops=count, observer=observer,
            before_op=mark,
        )
        recorder.op = -1
        optimizer_spans = len(recorder.spans)
        delta = Counters(world).since(before)
        reoptimize(world, observer.plans)
    gc.unfreeze()
    if spans_out:
        recorder.write_jsonl(spans_out)

    same_answers = base_observer.digest.digest() == observer.digest.digest()
    same_sim = base_observer.sim_response == observer.sim_response
    if not (same_answers and same_sim):
        print(
            f"traced run diverged from untraced: answers equal={same_answers}, "
            f"sim seconds equal={same_sim}",
            file=sys.stderr,
        )

    traced_busy = busy_seconds(traced)
    metrics = layer_metrics(
        recorder, optimizer_spans, traced, traced_busy, observer, delta, world
    )
    metrics["trace.overhead_ratio"] = ratio(
        traced_busy / traced.statements, busy_seconds(base) / base.statements
    )
    metrics["trace.unresolved_targets"] = float(len(tracer.unresolved))
    traced_us = 1e6 * traced_busy / traced.statements
    checks = run_checks(workload.name, metrics, traced_us)
    metrics["trace.checks_failed"] = float(sum(not c["ok"] for c in checks))
    wrong = 0 if same_answers and same_sim else traced.statements
    return {
        "attempted": base.statements + traced.statements,
        "failed": base.failed + traced.failed + wrong,
        "metrics": metrics,
        "info": {
            "input_sha256": digest,
            "answers_sha256": observer.digest.hexdigest(),
            "timed_ops": traced.ops,
            "statements": traced.statements,
            "spans": len(recorder.spans),
            "unresolved": tracer.unresolved,
            "traced_us": traced_us,
            "checks": checks,
            "sim_response_total_s": observer.sim_response,
        },
    }


def layer_metrics(
    recorder: Recorder,
    optimizer_spans: int,
    traced: Window,
    traced_busy: float,
    observer: Observer,
    delta: Counters,
    world: World,
) -> dict:
    # Spans up to ``optimizer_spans`` belong to the timed ops; the rest to
    # the comparison optimizers, which ran afterwards once per kept plan:
    # their mean is per call and they are no part of the coverage.
    self_seconds, span_counts = self_times(
        recorder.spans[:optimizer_spans], recorder.names
    )
    tail_seconds, tail_counts = self_times(
        recorder.spans[optimizer_spans:], recorder.names
    )
    statements = traced.statements
    # Spans carry raw wall time; one scalar brings the whole traced window
    # to reference speed (see calibrate.py).
    raw_busy = sum(seconds for seconds, _, _ in traced.segments)
    to_reference = traced_busy / raw_busy
    metrics = {
        f"{name}_us": 1e6 * to_reference * self_seconds.get(name, 0.0) / statements
        for name in SPAN_NAMES
    }
    for name in ("central.optimize", "loadbalance.optimize"):
        metrics[f"{name}_us"] = 1e6 * to_reference * ratio(
            tail_seconds.get(name, 0.0), tail_counts.get(name, 0)
        )
    covered = sum(self_seconds.values())

    lookups = delta.plan_hits + delta.plan_misses
    metrics.update(
        {
            "gateway.plan_cache_hit_rate": ratio(delta.plan_hits, lookups),
            "gateway.plan_cache_evictions": delta.plan_evictions / statements,
            "gateway.text_bind_rate": span_counts.get("gateway.text_bind", 0)
            / statements,
            "agoric.bids_per_stmt": span_counts.get("site.quote", 0) / statements,
            "engine.replans_per_stmt": delta.replans / statements,
            "engine.sim_response_s": observer.sim_response / statements,
            "workload.queue_depth_max": float(world.queue_depth_max),
            "workload.sim_queue_wait_s": observer.sim_queue_wait / statements,
            "workload.shed_rate": ratio(delta.rejected, statements + delta.rejected),
            "events.fired_per_stmt": delta.fired / statements,
            "events.heap_len_max": float(world.heap_len_max),
            "physical.rows_fetched_per_row_returned": ratio(
                observer.rows_fetched, observer.rows_returned
            ),
            "physical.rows_shipped_per_stmt": observer.rows_shipped / statements,
            "physical.fragments_pruned_ratio": ratio(
                observer.fragments_pruned, observer.fragments_total
            ),
            "columnar.wire_bytes_per_row": ratio(
                observer.bytes_shipped, observer.rows_shipped
            ),
            "columnar.encode_ratio": ratio(observer.raw_bytes, observer.encoded_bytes),
            "site.rows_scanned_per_s": ratio(
                observer.rows_fetched,
                to_reference * self_seconds.get("site.scan", 0.0),
            ),
            "cache.hit_rate": ratio(
                delta.cache_hits, delta.cache_hits + delta.cache_misses
            ),
            "cache.evictions": delta.cache_evictions / statements,
            "artifacts.hit_rate": ratio(
                delta.artifact_hits, delta.artifact_hits + delta.artifact_misses
            ),
            "metrics.calls_per_stmt": span_counts.get("metrics.record", 0)
            / statements,
            "trace.coverage": covered / raw_busy,
        }
    )
    return metrics
