"""Multi-tenant workload management for concurrent federated queries.

The paper's §4 e-marketplace is explicitly multi-user -- many trading
partners issue catalog queries against the same federation at once -- and
§3.2 C8's scalability claim only means something under concurrent load.
:class:`~repro.federation.engine.FederatedEngine` answers one query at a
time; this module adds the runtime layer that admits, queues, schedules and
overlaps many in-flight queries on the shared simulation clock:

* **Tenancy.**  A :class:`Tenant` names one query population (a trading
  partner, a portal user class) with a fair-share ``weight``, an in-flight
  ``max_concurrency`` quota and a bounded ``queue_limit``.
* **Admission control.**  :meth:`WorkloadManager.submit` enforces a global
  in-flight slot limit plus the per-tenant quotas.  A full tenant queue
  sheds load with :class:`~repro.core.errors.QueryRejectedError`; a queued
  query whose ``deadline`` passes before dispatch times out with
  :class:`~repro.core.errors.QueryTimeoutError` -- overload degrades
  crisply instead of growing queues without bound.
* **Scheduling.**  When a slot frees, a pluggable discipline
  (:mod:`repro.federation.scheduler`: FIFO, strict priority, weighted fair)
  picks the next queued query.  Dispatch, execution and completion are all
  events on the :class:`~repro.sim.events.EventLoop`, so runs are
  deterministic under identical seeds.
* **Congestion feedback.**  While a query is in flight, every site it
  touched holds an elevated ``active_scans`` gauge; sites inflate both
  executed and *quoted* service times by their congestion curve, so the
  agoric market prices contention and later queries route around busy
  replicas -- adaptive load balancing emerges from the economics, exactly
  the C8 story, now under real concurrency.
* **Mid-flight re-planning.**  :meth:`WorkloadManager.watch` subscribes to
  a :class:`~repro.federation.availability.FailureInjector`; when a site
  fails or slows under a running query that still has *unstarted* stage
  work there, the manager tears up the remaining work and re-executes the
  plan at today's prices (``FederatedEngine.rerun_physical``), at most
  :data:`~repro.federation.reopt.MAX_REPLANS` times per query.  On an
  engine built with ``reopt=True`` the re-execution migrates pending stages
  to healthier replicas; without it it re-prices the original assignments
  under the degraded cluster -- the adaptive-vs-static contrast experiment
  E16 measures.

Execution model: the simulator executes a query's operator tree at dispatch
time (clock frozen) to learn its modeled duration and site footprint, then
holds the slot, the tenant quota and the site gauges until a completion
event fires ``duration`` seconds later.  Queries dispatched in that window
see the earlier query's congestion -- in their operator timings and in the
bids their optimizer collects -- which is what makes concurrency more than
bookkeeping.

Every outcome lands on the engine's :class:`~repro.sim.metrics.MetricsRegistry`
(per-tenant queue depth gauges, wait/service/total latency histograms,
admission/rejection/timeout counters) and the completed query's
:class:`~repro.federation.report.ExecutionReport` carries
``queue_wait_seconds`` / ``tenant`` / ``scheduler``.
"""

from __future__ import annotations

import enum
import itertools
import traceback
from dataclasses import dataclass, field, replace

from repro.core.errors import (
    ContentIntegrationError,
    QueryError,
    QueryRejectedError,
    QueryTimeoutError,
)
from repro.federation.engine import FederatedEngine, PreparedStatement, QueryResult
from repro.federation.physical import QueryOptions
from repro.federation.reopt import MAX_REPLANS
from repro.federation.scheduler import Scheduler, make_scheduler
from repro.sim.events import EventLoop, ScheduledEvent
from repro.sim.metrics import Held


@dataclass
class Tenant:
    """One query population sharing the federation.

    ``weight`` is the fair-share entitlement under the weighted-fair
    scheduler; ``max_concurrency`` caps this tenant's simultaneously running
    queries (None = bounded only by the global slot limit); ``queue_limit``
    bounds its waiting queries -- submissions beyond it are shed.
    """

    name: str
    weight: float = 1.0
    max_concurrency: int | None = None
    queue_limit: int | None = None
    # Lifetime accounting, mirrored into the metrics registry.
    submitted: int = field(default=0, compare=False)
    completed: int = field(default=0, compare=False)
    failed: int = field(default=0, compare=False)
    rejected: int = field(default=0, compare=False)
    timed_out: int = field(default=0, compare=False)
    running: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise QueryError(f"tenant {self.name!r} needs a positive weight")
        if self.max_concurrency is not None and self.max_concurrency < 1:
            raise QueryError(f"tenant {self.name!r}: max_concurrency must be >= 1")
        if self.queue_limit is not None and self.queue_limit < 0:
            raise QueryError(f"tenant {self.name!r}: queue_limit must be >= 0")


class QueryState(enum.Enum):
    """Lifecycle of one submission."""

    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"
    TIMED_OUT = "timed-out"


class QueryHandle:
    """One submitted query: resolves when its completion event fires.

    Returned by :meth:`WorkloadManager.submit`.  Not a future in the
    threading sense -- resolution happens as the event loop runs (drive it
    with ``loop.run_until`` or :meth:`WorkloadManager.drain`).
    """

    def __init__(
        self,
        seq: int,
        sql: str,
        tenant: Tenant,
        priority: float,
        submitted_at: float,
        deadline: float | None,
        options: QueryOptions,
        prepared: PreparedStatement | None = None,
        params: tuple = (),
    ) -> None:
        self.seq = seq
        self.sql = sql
        self.tenant = tenant
        self.priority = priority
        self.submitted_at = submitted_at
        self.deadline = deadline
        # What dispatch runs under: frozen clock, the absolute deadline, the
        # submitting tenant (a prepared template's staleness bound and
        # coordinator win).  A re-execution runs under the options of the
        # in-flight result it replaces.
        self.options = options
        # When set, dispatch runs the prepared template with ``params``
        # bound instead of re-parsing ``sql`` (the gateway's path).
        self.prepared = prepared
        self.params = params
        self.state = QueryState.QUEUED
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.error: Exception | None = None
        self._result: QueryResult | None = None
        self._deadline_event: ScheduledEvent | None = None
        self._completion_event: ScheduledEvent | None = None
        self._busy_sites: tuple[str, ...] = ()
        # Stage keys this query registered in flight with the artifact
        # store (it is their *producer*); cancelling the query aborts them
        # and falls back any subscribers.
        self._stage_keys: tuple = ()
        # Mid-flight re-planning state: the in-flight execution whose
        # completion event is pending, when it was (re)executed on the sim
        # clock, and how many times a cluster disturbance has already torn
        # it up (bounded by the replan cap -- thrash damping).
        self._inflight_result: QueryResult | None = None
        self._executed_at: float | None = None
        self._replans = 0

    # The scheduler-facing surface (see repro.federation.scheduler).

    @property
    def tenant_name(self) -> str:
        return self.tenant.name

    @property
    def weight(self) -> float:
        return self.tenant.weight

    # -- resolution --------------------------------------------------------

    @property
    def done(self) -> bool:
        return self.state in (
            QueryState.COMPLETED,
            QueryState.FAILED,
            QueryState.TIMED_OUT,
        )

    def result(self) -> QueryResult:
        """The finished query's result; raises its error if it failed."""
        if not self.done:
            raise QueryError(
                f"query #{self.seq} is {self.state.value}; run the event loop "
                "(WorkloadManager.drain) before reading its result"
            )
        if self.error is not None:
            raise self.error
        assert self._result is not None
        return self._result

    @property
    def queue_wait_seconds(self) -> float:
        """Seconds spent queued before dispatch (or before timing out)."""
        end = self.started_at if self.started_at is not None else self.finished_at
        if end is None:
            return 0.0
        return end - self.submitted_at

    def __repr__(self) -> str:
        return (
            f"QueryHandle(#{self.seq}, tenant={self.tenant.name!r}, "
            f"{self.state.value})"
        )


class WorkloadManager:
    """Admits, queues, schedules and overlaps queries on one engine.

    ``max_in_flight`` is the global execution slot count (the federation's
    multiprogramming level); ``scheduler`` is a name (``"fifo"``,
    ``"priority"``, ``"weighted-fair"``/``"fair"``) or a
    :class:`~repro.federation.scheduler.Scheduler` instance.  Unknown
    tenants are auto-registered with defaults on first use; configure real
    ones up front with :meth:`register_tenant`.
    """

    def __init__(
        self,
        engine: FederatedEngine,
        loop: EventLoop,
        scheduler: "str | Scheduler" = "weighted-fair",
        max_in_flight: int = 4,
    ) -> None:
        if max_in_flight < 1:
            raise QueryError(f"max_in_flight must be >= 1, got {max_in_flight}")
        if loop.clock is not engine.catalog.clock:
            raise QueryError(
                "workload manager's event loop must share the engine's clock"
            )
        self.engine = engine
        self.loop = loop
        self.scheduler = make_scheduler(scheduler)
        self.max_in_flight = max_in_flight
        self.metrics = engine.metrics
        # Per-tenant and per-site instruments, held once resolved.
        self._counters = Held(self.metrics.counter)
        self._gauges = Held(self.metrics.gauge)
        self._histograms = Held(self.metrics.histogram)
        self.tenants: dict[str, Tenant] = {}
        self.in_flight = 0
        self.dispatched = 0  # lifetime dispatches
        self.replans = 0  # lifetime mid-flight re-executions
        self._seq = itertools.count()
        self._unfinished = 0  # queued + running
        self._running: dict[int, QueryHandle] = {}  # seq -> RUNNING handle

    # -- tenancy -----------------------------------------------------------

    def register_tenant(
        self,
        tenant: "Tenant | str",
        weight: float = 1.0,
        max_concurrency: int | None = None,
        queue_limit: int | None = None,
    ) -> Tenant:
        """Register a tenant (pass a :class:`Tenant` or a name + limits)."""
        if isinstance(tenant, str):
            tenant = Tenant(tenant, weight, max_concurrency, queue_limit)
        if tenant.name in self.tenants:
            raise QueryError(f"tenant {tenant.name!r} already registered")
        self.tenants[tenant.name] = tenant
        self._gauges["workload", tenant.name, "queue_depth"].set(0)
        return tenant

    def tenant(self, name: str) -> Tenant:
        """Look up (auto-registering with defaults) a tenant by name."""
        if name not in self.tenants:
            return self.register_tenant(Tenant(name))
        return self.tenants[name]

    # -- submission --------------------------------------------------------

    @property
    def queued(self) -> int:
        return len(self.scheduler)

    def submit(
        self,
        sql: str | None = None,
        tenant: str = "default",
        priority: float = 0.0,
        deadline: float | None = None,
        max_staleness: float | None = None,
        degraded_ok: bool = False,
        prepared: PreparedStatement | None = None,
        params: "tuple | list" = (),
        coordinator: str | None = None,
    ) -> QueryHandle:
        """Admit one query; returns a handle resolved via the event loop.

        ``priority`` matters to the strict-priority scheduler (higher value
        first); ``deadline`` (seconds from now) bounds how long the query
        may *queue* -- once dispatched it runs to completion.  Raises
        :class:`QueryRejectedError` immediately when the tenant's queue is
        full.

        Pass ``prepared`` (with ``params``) instead of ``sql`` to dispatch
        a prepared template through the same admission/scheduling path;
        the statement's ``max_staleness`` and pinned ``coordinator`` were
        fixed at prepare time, so the per-submission arguments are not
        accepted alongside it.  Either way the statement runs under, and is
        billed to, ``tenant``; a template compiled for another policy
        signature is refused by the engine (the handle fails).
        """
        if (sql is None) == (prepared is None):
            raise QueryError("submit() takes exactly one of sql or prepared")
        if prepared is not None and (
            max_staleness is not None or coordinator is not None
        ):
            raise QueryError(
                "max_staleness and coordinator are fixed at prepare time for "
                "prepared statements; do not pass them to submit()"
            )
        owner = self.tenant(tenant)
        if deadline is not None and deadline <= 0:
            raise QueryError(f"deadline must be positive, got {deadline!r}")
        if (
            owner.queue_limit is not None
            and self.scheduler.queued_for(owner.name) >= owner.queue_limit
        ):
            owner.rejected += 1
            self._counters["workload", owner.name, "rejected"].inc()
            raise QueryRejectedError(owner.name, owner.queue_limit)

        # Governance admission rides the same shedding path as the bounded
        # queue: rate limits (a deterministic token bucket on the sim clock)
        # and exhausted cost budgets reject here, before a handle exists; a
        # budget declared ``on_exhausted: degrade`` admits the query with
        # degraded answers forced instead.
        force_degraded = False
        governance = getattr(self.engine, "governance", None)
        if governance is not None:
            try:
                admission = governance.admit(owner.name, self.loop.clock.now())
            except QueryRejectedError:
                owner.rejected += 1
                self._counters["workload", owner.name, "rejected"].inc()
                raise
            force_degraded = admission == "degrade"

        now = self.loop.clock.now()
        # Dispatch executes against a frozen clock (occupancy is the
        # completion event's job); the absolute deadline rides along so the
        # engine's re-optimization controller (when configured) can migrate
        # stages that project an overrun.
        options = replace(
            prepared.options
            if prepared is not None
            else QueryOptions(max_staleness=max_staleness, coordinator=coordinator),
            tenant=owner.name,
            degraded_ok=degraded_ok or force_degraded,
            deadline_at=None if deadline is None else now + deadline,
            advance_clock=False,
        )
        handle = QueryHandle(
            seq=next(self._seq),
            sql=sql if sql is not None else prepared.sql,
            tenant=owner,
            priority=priority,
            submitted_at=now,
            deadline=deadline,
            options=options,
            prepared=prepared,
            params=tuple(params),
        )
        owner.submitted += 1
        self._counters["workload", owner.name, "admitted"].inc()
        self.scheduler.push(handle)
        self._unfinished += 1
        if deadline is not None:
            handle._deadline_event = self.loop.schedule_after(
                deadline,
                lambda: self._timeout(handle),
                name=f"wlm-deadline:{handle.seq}",
            )
        self._dispatch()
        self._gauges["workload", owner.name, "queue_depth"].set(
            self.scheduler.queued_for(owner.name)
        )
        return handle

    # -- scheduling machinery ----------------------------------------------

    def _eligible(self, handle: QueryHandle) -> bool:
        quota = handle.tenant.max_concurrency
        return quota is None or handle.tenant.running < quota

    def _dispatch(self) -> None:
        """Fill free slots with whatever the scheduler picks next."""
        while self.in_flight < self.max_in_flight:
            handle = self.scheduler.pop(self._eligible)
            if handle is None:
                break
            self._start(handle)

    def _start(self, handle: QueryHandle) -> None:
        now = self.loop.clock.now()
        handle.state = QueryState.RUNNING
        handle.started_at = now
        if handle._deadline_event is not None:
            handle._deadline_event.cancel()  # dispatched: deadline satisfied
        owner = handle.tenant
        owner.running += 1
        self.in_flight += 1
        self.dispatched += 1
        self._gauges["workload.in_flight"].set(self.in_flight)
        self._counters["workload.dispatches"].inc()
        self._gauges["workload", owner.name, "queue_depth"].set(
            self.scheduler.queued_for(owner.name)
        )
        wait = now - handle.submitted_at
        self._histograms["workload", owner.name, "queue_wait_seconds"].observe(wait)

        # Execute now (clock frozen) to learn the modeled duration and the
        # site footprint; occupancy is modeled by holding the slot and the
        # site congestion gauges until the completion event.
        self._execute(handle)

    def _execute(
        self,
        handle: QueryHandle,
        rerun: QueryResult | None = None,
        fresh: bool = False,
    ) -> QueryResult | None:
        """Run ``handle`` on the engine and occupy the result's footprint:
        the one engine-calling body of dispatch (under the handle's
        options), mid-flight re-planning (``rerun`` is the in-flight result
        whose plan re-executes) and the producer-death fallback (``rerun``
        re-enters the lifecycle ``fresh``, artifact reuse off).
        Returns None, with the handle settled as failed, when the engine
        raised a typed error; anything else it raised settles the handle
        the same way -- slot, tenant quota and drain accounting released --
        and propagates, so a bug in one statement cannot wedge the rest."""
        try:
            if rerun is not None:
                result = self.engine.rerun_physical(rerun, fresh)
            elif handle.prepared is not None:
                result = self.engine.execute(
                    handle.prepared, handle.params, options=handle.options
                )
            else:
                result = self.engine.query(handle.sql, options=handle.options)
        except ContentIntegrationError as error:
            self._finish(handle, error=error)
            return None
        except Exception as error:
            self._finish(handle, error=error)
            raise
        report = result.report
        report.queue_wait_seconds = handle.started_at - handle.submitted_at
        report.tenant = handle.tenant.name
        report.scheduler = self.scheduler.name
        self._occupy(handle, result)
        return result

    def _occupy(self, handle: QueryHandle, result: QueryResult) -> None:
        """Hold the query's modeled footprint until its completion event:
        site congestion gauges, plus its artifact-store roles (producer of
        the stages it registered, subscriber of the stages it joined)."""
        report = result.report
        handle._inflight_result = result
        handle._executed_at = self.loop.clock.now()
        self._running[handle.seq] = handle
        handle._busy_sites = tuple(sorted(report.site_work))
        catalog = self.engine.catalog
        for site_name in handle._busy_sites:
            site = catalog.site(site_name)
            site.scan_started()
            self._gauges["site", site_name, "active_scans"].set(site.active_scans)
        store = getattr(self.engine, "artifacts", None)
        if store is not None:
            if report.artifact_published_keys:
                handle._stage_keys = tuple(report.artifact_published_keys)
                for key in handle._stage_keys:
                    store.set_producer(key, handle)
            for key in report.artifact_join_keys:
                store.subscribe(key, handle)
        handle._completion_event = self.loop.schedule_after(
            report.response_seconds,
            lambda: self._complete(handle, result),
            name=f"wlm-complete:{handle.seq}",
        )

    def _release_sites(self, handle: QueryHandle) -> None:
        catalog = self.engine.catalog
        for site_name in handle._busy_sites:
            site = catalog.site(site_name)
            site.scan_finished()
            self._gauges["site", site_name, "active_scans"].set(site.active_scans)
        handle._busy_sites = ()

    def _complete(self, handle: QueryHandle, result: QueryResult) -> None:
        self._release_sites(handle)
        self._finish(handle, result=result)

    def _finish(
        self,
        handle: QueryHandle,
        result: QueryResult | None = None,
        error: Exception | None = None,
    ) -> None:
        now = self.loop.clock.now()
        owner = handle.tenant
        self._running.pop(handle.seq, None)
        handle._inflight_result = None
        handle.finished_at = now
        owner.running -= 1
        self.in_flight -= 1
        self._unfinished -= 1
        self._gauges["workload.in_flight"].set(self.in_flight)
        if error is not None:
            # Keep the traceback's line info but free its frames' locals:
            # they are the failed execution's operators, context and tables.
            traceback.clear_frames(error.__traceback__)
            handle.state = QueryState.FAILED
            handle.error = error
            owner.failed += 1
            self._counters["workload", owner.name, "failed"].inc()
        else:
            assert result is not None
            handle.state = QueryState.COMPLETED
            handle._result = result
            owner.completed += 1
            self._counters["workload", owner.name, "completed"].inc()
            self._histograms["workload", owner.name, "service_seconds"].observe(
                result.report.response_seconds
            )
            self._histograms["workload", owner.name, "total_seconds"].observe(
                now - handle.submitted_at
            )
        self._dispatch()

    def _timeout(self, handle: QueryHandle) -> None:
        if handle.state is not QueryState.QUEUED:
            return  # dispatched (or resolved) before the deadline fired
        self.scheduler.remove(handle)
        now = self.loop.clock.now()
        owner = handle.tenant
        handle.state = QueryState.TIMED_OUT
        handle.finished_at = now
        waited = now - handle.submitted_at
        handle.error = QueryTimeoutError(owner.name, handle.deadline or 0.0, waited)
        owner.timed_out += 1
        self._unfinished -= 1
        self._counters["workload", owner.name, "timed_out"].inc()
        self._histograms["workload", owner.name, "queue_wait_seconds"].observe(waited)
        self._gauges["workload", owner.name, "queue_depth"].set(
            self.scheduler.queued_for(owner.name)
        )

    # -- cancellation and stage fallback -----------------------------------

    def cancel(self, handle: QueryHandle) -> bool:
        """Cancel a queued or running query; returns False if already done.

        Cancelling a *running* producer aborts any stages it had registered
        in flight with the artifact store: every query that joined one of
        those stages is transparently re-executed without artifact reuse
        (the first-failure fallback), so a dying producer never strands its
        subscribers with unresolved results.
        """
        if handle.done:
            return False
        if handle.state is QueryState.QUEUED:
            self.scheduler.remove(handle)
            if handle._deadline_event is not None:
                handle._deadline_event.cancel()
            owner = handle.tenant
            handle.state = QueryState.FAILED
            handle.finished_at = self.loop.clock.now()
            handle.error = QueryError(f"query #{handle.seq} cancelled")
            owner.failed += 1
            self._unfinished -= 1
            self._counters["workload", owner.name, "failed"].inc()
            self._gauges["workload", owner.name, "queue_depth"].set(
                self.scheduler.queued_for(owner.name)
            )
            return True
        # RUNNING: drop the pending completion, release the site footprint,
        # abort produced stages (falling back their subscribers), then
        # settle the handle as failed.
        if handle._completion_event is not None:
            handle._completion_event.cancel()
        self._release_sites(handle)
        self._abort_stages(handle)
        self._finish(
            handle, error=QueryError(f"query #{handle.seq} cancelled")
        )
        return True

    def _abort_stages(self, handle: QueryHandle) -> None:
        store = getattr(self.engine, "artifacts", None)
        if store is None or not handle._stage_keys:
            return
        subscribers = store.abort_stages(handle._stage_keys)
        handle._stage_keys = ()
        for subscriber in subscribers:
            self._fallback(subscriber)

    def _fallback(self, subscriber: QueryHandle) -> None:
        """Re-execute a subscriber whose in-flight producer died.

        The re-execution disables artifact reuse entirely -- the fallback
        must not join another doomed stage, and it publishes nothing -- and
        replaces the subscriber's pending completion with one scheduled off
        the fresh, independent execution (paid for at dispatch, not again).
        """
        if subscriber.state is not QueryState.RUNNING:
            return
        store = getattr(self.engine, "artifacts", None)
        if store is not None:
            store.note_fallback()
        if subscriber._completion_event is not None:
            subscriber._completion_event.cancel()
        self._release_sites(subscriber)
        self._execute(subscriber, rerun=subscriber._inflight_result, fresh=True)

    # -- mid-flight re-planning (DESIGN §5i) --------------------------------

    def watch(self, injector) -> None:
        """Wire a :class:`~repro.federation.availability.FailureInjector`'s
        site transitions into mid-flight re-planning: every failure or
        slowdown it injects wakes :meth:`site_event`."""
        injector.on_transition(
            lambda time, site_name, kind: self.site_event(site_name, kind)
        )

    def site_event(self, site_name: str, kind: str = "fail") -> None:
        """A site just degraded (``"fail"`` or ``"slow"``): tear up and
        re-execute every running query with *unstarted* stage work there.

        Repairs and recoveries are ignored -- a query modeled against a
        degraded cluster already paid for it, and chasing every recovery
        is exactly the thrash the replan cap and the re-optimizer's
        hysteresis exist to prevent.  Handles are visited in submission
        order so seeded runs stay deterministic.
        """
        if kind in ("repair", "recover"):
            return
        now = self.loop.clock.now()
        affected = [
            self._running[seq]
            for seq in sorted(self._running)
            if self._pending_on_site(self._running[seq], site_name, now)
        ]
        for handle in affected:
            self._reexecute(handle)

    def _pending_on_site(
        self, handle: QueryHandle, site_name: str, now: float
    ) -> bool:
        """Does ``handle`` still have an unstarted stage touching the site?

        A stage whose modeled arrival offset exceeds the time the query has
        already been in flight has not started yet; only those are worth
        (and safe to model as) re-planning -- completed stage work stands.
        """
        if handle.state is not QueryState.RUNNING:
            return False
        if handle._replans >= MAX_REPLANS:
            return False
        result = handle._inflight_result
        if result is None or handle._executed_at is None:
            return False
        elapsed = now - handle._executed_at
        return any(
            arrival > elapsed and site_name in sites
            for arrival, sites in result.report.stage_runtimes.values()
        )

    def _reexecute(self, handle: QueryHandle) -> None:
        """Re-run a disturbed query's plan at today's prices (clock frozen),
        replacing its pending completion with one off the fresh execution.

        The original plan template is preserved: with a re-optimization
        policy on the engine, its controller migrates unstarted stages to
        healthier replicas; without one the same assignments are simply
        re-priced under the degraded cluster (failover backoff, congestion
        inflation) -- so static and adaptive configurations face identical
        disturbances and differ only in how they respond.
        """
        if handle.state is not QueryState.RUNNING:
            return
        result = handle._inflight_result
        if result is None:
            return
        now = self.loop.clock.now()
        elapsed = max(0.0, now - (handle._executed_at or now))
        if handle._completion_event is not None:
            handle._completion_event.cancel()
        self._release_sites(handle)
        # The rerun must not join its own about-to-die in-flight stages.
        self._abort_stages(handle)
        fresh = self._execute(handle, rerun=result)
        if fresh is None:
            return
        if self.engine.reopt:
            # In-flight work the disturbance threw away is charged against
            # adaptivity, not hidden: it lands in the wasted-seconds ledger.
            fresh.report.reopt_wasted_seconds += elapsed
        handle._replans += 1
        self.replans += 1
        self._counters["workload.replans"].inc()
        self._counters["workload", handle.tenant.name, "replans"].inc()

    # -- driving -----------------------------------------------------------

    def drain(self, *handles: QueryHandle) -> None:
        """Run the event loop until ``handles`` (or all work) resolve."""

        def settled() -> bool:
            if handles:
                return all(handle.done for handle in handles)
            return self._unfinished == 0

        while not settled():
            if self.loop.run_next() is None:
                raise QueryError(
                    "workload manager stalled: submissions pending but the "
                    "event loop is empty"
                )

    def explain_analyze(
        self,
        sql: str,
        tenant: str = "default",
        priority: float = 0.0,
        max_staleness: float | None = None,
    ) -> str:
        """EXPLAIN ANALYZE through the queue: the rendered plan includes the
        tenant, the scheduler and the time the query spent queued."""
        handle = self.submit(
            sql, tenant=tenant, priority=priority, max_staleness=max_staleness
        )
        self.drain(handle)
        return self.engine.render_analyze(handle.result())

    def __repr__(self) -> str:
        return (
            f"WorkloadManager({self.scheduler.name}, "
            f"in_flight={self.in_flight}/{self.max_in_flight}, "
            f"queued={self.queued}, tenants={sorted(self.tenants)})"
        )
