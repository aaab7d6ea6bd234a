"""Outside-in tracing: spans around the program's *public* callables.

Nothing under ``src/`` knows about this.  For the duration of a traced
run every target in :data:`SPAN_TABLE` is wrapped -- class methods on the
class, module functions on every already-imported ``repro.*`` module that
holds a reference to the original -- and restored afterwards.  Each span
records its name, start, end, parent span and the id of the op that caused
it; spans stay in memory and are only turned into numbers (or JSON lines)
when the run has ended.

A layer's **self time** is its span's duration minus the part of that
interval its child spans cover, so self times of all spans partition the
traced wall time and ``trace.coverage`` says how much of it they explain.

Per-row methods (``PhysicalOperator.next``) are deliberately not wrapped:
the row-at-a-time coordinator work shows up as the self time of
``Executor.execute`` (executor time under no other span).
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import sys
import time
from collections import defaultdict

# span name -> dotted public callables.  The span name is the stem of the
# ``*_us`` layer metric it feeds (layer = module name).  A class target
# times construction (its ``__init__``).  No private name may appear here.
SPAN_TABLE: dict[str, tuple[str, ...]] = {
    "gateway.self": (
        "repro.federation.gateway.GatewaySession.execute",
        "repro.federation.gateway.GatewaySession.submit",
    ),
    "gateway.text_bind": ("repro.federation.gateway.bind_sql_text",),
    "gateway.plan_cache": ("repro.federation.gateway.PlanCache.get_or_prepare",),
    "sqltext.normalize": ("repro.sql.sqltext.normalize_sql",),
    "parser.parse": ("repro.sql.parser.parse_sql",),
    "planner.build": ("repro.sql.planner.build_plan",),
    "rewrite.apply": ("repro.sql.rewrite.RewritePipeline.run",),
    "agoric.optimize": (
        "repro.federation.agoric.AgoricOptimizer.optimize",
        "repro.federation.agoric.AgoricOptimizer.collect_bids",
    ),
    "central.optimize": ("repro.federation.central.CentralizedOptimizer.optimize",),
    "loadbalance.optimize": ("repro.federation.loadbalance.PolicyOptimizer.optimize",),
    "governance.signature": (
        "repro.federation.governance.GovernanceRegistry.signature_for",
    ),
    "governance.admit": (
        "repro.federation.governance.GovernanceRegistry.admit",
        "repro.federation.governance.GovernanceRegistry.charge",
        "repro.federation.governance.GovernanceRegistry.effective_budget",
        "repro.federation.governance.GovernanceRegistry.injection_pass",
    ),
    "params.bind": (
        "repro.sql.params.bind_plan",
        "repro.sql.params.bind_statement",
        "repro.sql.params.check_parameters",
    ),
    "engine.self": (
        "repro.federation.engine.FederatedEngine.query",
        "repro.federation.engine.FederatedEngine.prepare",
        "repro.federation.engine.FederatedEngine.execute",
    ),
    "engine.report_metrics": (
        "repro.federation.engine.FederatedEngine.record_report_metrics",
    ),
    "workload.submit": ("repro.federation.workload.WorkloadManager.submit",),
    "workload.drain": ("repro.federation.workload.WorkloadManager.drain",),
    "scheduler.push_pop": (
        "repro.federation.scheduler.WeightedFairScheduler.push",
        "repro.federation.scheduler.WeightedFairScheduler.pop",
        "repro.federation.scheduler.WeightedFairScheduler.queued_for",
    ),
    "events.run_next": ("repro.sim.events.EventLoop.run_next",),
    "executor.self": (
        "repro.federation.physical.ExecContext",
        "repro.federation.physical.PhysicalOperator.stats_tree",
    ),
    "physical.coordinator": (
        "repro.federation.executor.Executor.execute",
        "repro.federation.physical.PhysicalOperator.open",
        "repro.federation.physical.PhysicalOperator.close",
        "repro.federation.physical.Filter.open",
        "repro.federation.physical.HashJoin.open",
        "repro.federation.physical.NestedLoopJoin.open",
        "repro.federation.physical.Project.open",
        "repro.federation.physical.Aggregate.open",
        "repro.federation.physical.FinalAggregate.open",
        "repro.federation.physical.Sort.open",
        "repro.federation.physical.Limit.open",
    ),
    "physical.compile": ("repro.federation.physical.PhysicalPlanner.compile",),
    "physical.site": (
        "repro.federation.physical.SiteOperator.open",
        "repro.federation.physical.SiteOperator.close",
    ),
    "physical.ship": ("repro.federation.physical.Ship.open",),
    "physical.result_build": ("repro.federation.physical.envs_to_table",),
    "columnar.table_chunks": ("repro.federation.columnar.table_chunks",),
    "columnar.kernel_compile": ("repro.federation.columnar.compile_predicate",),
    "columnar.encode": ("repro.federation.columnar.encode_batch",),
    "columnar.decode": ("repro.federation.columnar.decode_batch",),
    "columnar.to_envs": ("repro.federation.columnar.ColumnBatch.to_envs",),
    "site.scan": ("repro.federation.site.Site.execute_scan",),
    "site.quote": ("repro.federation.site.Site.quote_scan",),
    "cache.lookup": (
        "repro.federation.cache.SemanticCache.lookup_entry",
        "repro.federation.cache.SemanticCache.bid",
    ),
    "cache.store": ("repro.federation.cache.SemanticCache.store",),
    "cache.invalidate": ("repro.federation.cache.SemanticCache.invalidate_table",),
    "artifacts.acquire": (
        "repro.federation.artifacts.ArtifactStore.acquire",
        "repro.federation.artifacts.ArtifactStore.bid",
        "repro.federation.artifacts.ArtifactStore.stage_key",
        "repro.federation.artifacts.ArtifactStore.has_twin",
    ),
    "artifacts.publish": (
        "repro.federation.artifacts.ArtifactStore.begin_stage",
        "repro.federation.artifacts.ArtifactStore.set_producer",
        "repro.federation.artifacts.ArtifactStore.subscribe",
    ),
    "artifacts.invalidate": (
        "repro.federation.artifacts.ArtifactStore.invalidate_table",
    ),
    "catalog.notify": (
        "repro.federation.catalog.FederationCatalog.notify_table_updated",
    ),
    "catalog.binding_fields": (
        "repro.federation.catalog.FederationCatalog.binding_fields",
    ),
    "metrics.lookup": (
        "repro.sim.metrics.MetricsRegistry.counter",
        "repro.sim.metrics.MetricsRegistry.gauge",
        "repro.sim.metrics.MetricsRegistry.histogram",
    ),
    "metrics.record": (
        "repro.sim.metrics.Counter.inc",
        "repro.sim.metrics.Gauge.set",
        "repro.sim.metrics.Histogram.observe",
    ),
    "hotels.update": ("repro.workloads.hotels.HotelMarket.apply_random_update",),
}

# ``EventLoop.schedule_at`` is wrapped specially: besides its own span, the
# callback it is handed is wrapped in a span too, so event callbacks (the
# workload manager's completions, the harness's arrivals) are charged to
# their owner and not to ``events.run_next``.
SCHEDULE_TARGET = "repro.sim.events.EventLoop.schedule_at"
SCHEDULE_SPAN = "events.schedule"
CALLBACK_SPANS = (("wlm-", "workload.callback"),)  # event-name prefix -> span
HARNESS_CALLBACK_SPAN = "harness.callback"


class Recorder:
    """In-memory span log of one traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        # (span id, parent span id, name index, start, end, op id)
        self.spans: list[tuple] = []
        self.stack = [-1]
        self.ids = itertools.count()
        self.op = -1

    def name_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def wrap(self, fn, name: str):
        """``fn`` with a span recorded around every call."""
        index = self.name_index(name)
        ids, stack, spans = self.ids, self.stack, self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = next(ids)
            parent = stack[-1]
            stack.append(span)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span, parent, index, start, end, self.op))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def wrap_schedule(self, fn):
        """``EventLoop.schedule_at`` with its callback argument traced."""
        inner = self.wrap(fn, SCHEDULE_SPAN)

        def schedule_at(loop, when, callback, name=""):
            span_name = HARNESS_CALLBACK_SPAN
            for prefix, owner in CALLBACK_SPANS:
                if name.startswith(prefix):
                    span_name = owner
            return inner(loop, when, self.wrap(callback, span_name), name)

        schedule_at.__wrapped__ = fn
        return schedule_at

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span, parent, index, start, end, op in self.spans:
                out.write(
                    json.dumps(
                        {
                            "span": span,
                            "parent": parent,
                            "name": self.names[index],
                            "start": start,
                            "end": end,
                            "op": op,
                        }
                    )
                )
                out.write("\n")


def self_times(spans: list, names: list) -> tuple[dict[str, float], dict[str, int]]:
    """Per span name: total self seconds and number of spans."""
    covered = defaultdict(float)
    for _, parent, _, start, end, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals = [0.0] * len(names)
    counts = [0] * len(names)
    for span, _, index, start, end, _ in spans:
        totals[index] += (end - start) - covered.get(span, 0.0)
        counts[index] += 1
    return dict(zip(names, totals)), dict(zip(names, counts))


def resolve(dotted: str):
    """``(owner, attribute, original)`` for a dotted target, or ``None``.

    ``owner`` is the class (for ``module.Class.method``) or the module
    (for ``module.function`` and ``module.Class``).
    """
    parts = dotted.split(".")
    for split in range(len(parts) - 1, 0, -1):
        module_name = ".".join(parts[:split])
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            continue
        try:
            for attribute in parts[split:-1]:
                owner = getattr(owner, attribute)
            original = inspect.getattr_static(owner, parts[-1])
        except AttributeError:
            return None
        return owner, parts[-1], original
    return None


class Tracer:
    """Applies the span table to the live program; ``restore`` undoes it."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self.unresolved: list[str] = []
        self._undo: list = []  # (owner, attribute, had_own, original)

    def install(self) -> None:
        for name, targets in SPAN_TABLE.items():
            for dotted in targets:
                self._install_one(dotted, name, self.recorder.wrap)
        self._install_one(
            SCHEDULE_TARGET, SCHEDULE_SPAN,
            lambda fn, _name: self.recorder.wrap_schedule(fn),
        )

    def _install_one(self, dotted: str, name: str, wrap) -> None:
        found = resolve(dotted)
        if found is None:
            self.unresolved.append(dotted)
            print(f"warning: span target {dotted} does not resolve", file=sys.stderr)
            return
        owner, attribute, original = found
        if inspect.isclass(original):
            # Time construction: wrap the class's __init__ in place.
            self._patch(original, "__init__", wrap(original.__init__, name))
        elif inspect.isclass(owner):
            if not inspect.isfunction(original):
                raise TypeError(f"{dotted}: only plain methods can be traced")
            self._patch(owner, attribute, wrap(original, name))
        else:
            traced = wrap(original, name)
            for module_name, module in list(sys.modules.items()):
                if module is None or not module_name.startswith("repro"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, traced)

    def _patch(self, owner, attribute: str, replacement) -> None:
        had_own = attribute in vars(owner)
        self._undo.append((owner, attribute, had_own, vars(owner).get(attribute)))
        setattr(owner, attribute, replacement)

    def restore(self) -> None:
        for owner, attribute, had_own, original in reversed(self._undo):
            if had_own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
        self._undo.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()


def all_targets() -> list[str]:
    return [t for targets in SPAN_TABLE.values() for t in targets] + [SCHEDULE_TARGET]
