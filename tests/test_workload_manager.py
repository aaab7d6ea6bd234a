"""Tests for the multi-tenant workload manager and its schedulers.

Covers admission control (slots, per-tenant quotas, bounded queues with
shedding, queued-work deadlines), the three scheduling disciplines
(weighted-fair share convergence, strict priority, FIFO), the site
congestion gauges and their effect on agoric placement, the tenancy surface
of the DB-API driver, and the load-bearing property: a concurrent run of N
queries returns row-for-row the same answers as a serial run.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DataType, Field, Schema, Table
from repro.core.errors import (
    QueryError,
    QueryRejectedError,
    QueryTimeoutError,
)
from repro.federation import (
    FederatedEngine,
    FederationCatalog,
    Gateway,
    Tenant,
    WorkloadManager,
    make_scheduler,
)
from repro.federation import dbapi
from repro.federation.workload import QueryState
from repro.sim import EventLoop, SimClock


def build_federation(sites=3, fragments=6, rows_per_fragment=20, **site_kwargs):
    """A small replicated federation: `items(k, v)` with RF=2 placement."""
    catalog = FederationCatalog(SimClock())
    site_names = [f"s{i}" for i in range(sites)]
    for name in site_names:
        catalog.make_site(name, **site_kwargs)
    schema = Schema(
        "items", (Field("k", DataType.STRING), Field("v", DataType.INTEGER))
    )
    total = fragments * rows_per_fragment
    table = Table(schema, [(f"k{i:04d}", i) for i in range(total)])
    placement = [
        [site_names[i % sites], site_names[(i + 1) % sites]]
        for i in range(fragments)
    ]
    catalog.load_fragmented(table, fragments, placement)
    engine = FederatedEngine(catalog)
    loop = EventLoop(catalog.clock)
    return catalog, engine, loop


def make_manager(scheduler="weighted-fair", max_in_flight=2, **federation_kwargs):
    catalog, engine, loop = build_federation(**federation_kwargs)
    manager = WorkloadManager(
        engine, loop, scheduler=scheduler, max_in_flight=max_in_flight
    )
    return catalog, engine, loop, manager


QUERY = "select count(*) from items"


class TestAdmissionControl:
    def test_submit_runs_and_resolves_via_loop(self):
        _, _, _, manager = make_manager()
        handle = manager.submit(QUERY, tenant="acme")
        assert handle.state is QueryState.RUNNING  # free slot: dispatched now
        manager.drain(handle)
        assert handle.done
        assert handle.result().table.rows == [(120,)]
        assert handle.result().report.tenant == "acme"

    def test_global_slot_limit_queues_excess(self):
        _, _, _, manager = make_manager(max_in_flight=2)
        handles = [manager.submit(QUERY) for _ in range(5)]
        running = [h for h in handles if h.state is QueryState.RUNNING]
        queued = [h for h in handles if h.state is QueryState.QUEUED]
        assert len(running) == 2
        assert len(queued) == 3
        assert manager.in_flight == 2
        assert manager.queued == 3
        manager.drain()
        assert all(h.state is QueryState.COMPLETED for h in handles)
        assert manager.in_flight == 0

    def test_per_tenant_quota_serializes_one_tenant(self):
        _, _, _, manager = make_manager(max_in_flight=4)
        manager.register_tenant("capped", max_concurrency=1)
        handles = [manager.submit(QUERY, tenant="capped") for _ in range(3)]
        assert sum(1 for h in handles if h.state is QueryState.RUNNING) == 1
        manager.drain()
        # Serialized: each next query started no earlier than the previous
        # finished.
        ordered = sorted(handles, key=lambda h: h.started_at)
        for earlier, later in zip(ordered, ordered[1:]):
            assert later.started_at >= earlier.finished_at

    def test_full_queue_sheds_load(self):
        _, _, _, manager = make_manager(max_in_flight=1)
        manager.register_tenant("bounded", queue_limit=2)
        manager.submit(QUERY, tenant="bounded")  # running
        manager.submit(QUERY, tenant="bounded")  # queued 1
        manager.submit(QUERY, tenant="bounded")  # queued 2
        with pytest.raises(QueryRejectedError) as excinfo:
            manager.submit(QUERY, tenant="bounded")
        assert excinfo.value.tenant == "bounded"
        assert excinfo.value.queue_limit == 2
        assert manager.tenants["bounded"].rejected == 1
        assert (
            manager.metrics.counter("workload.bounded.rejected").value == 1
        )
        manager.drain()  # the admitted three still complete

    def test_queued_deadline_times_out(self):
        _, _, _, manager = make_manager(max_in_flight=1)
        first = manager.submit(QUERY)
        # The first query's modeled response is well over this deadline, so
        # the queued one expires before a slot frees.
        second = manager.submit(QUERY, deadline=1e-6)
        manager.drain()
        assert first.state is QueryState.COMPLETED
        assert second.state is QueryState.TIMED_OUT
        with pytest.raises(QueryTimeoutError) as excinfo:
            second.result()
        assert excinfo.value.tenant == "default"
        assert manager.tenants["default"].timed_out == 1
        assert (
            manager.metrics.counter("workload.default.timed_out").value == 1
        )

    def test_deadline_is_queue_time_only(self):
        # A dispatched query runs to completion even if its modeled response
        # exceeds the deadline: deadlines bound *queueing*, not service.
        _, _, _, manager = make_manager(max_in_flight=1)
        handle = manager.submit(QUERY, deadline=1e-9)
        assert handle.state is QueryState.RUNNING
        manager.drain(handle)
        assert handle.state is QueryState.COMPLETED

    def test_result_before_resolution_raises(self):
        _, _, _, manager = make_manager(max_in_flight=1)
        manager.submit(QUERY)
        queued = manager.submit(QUERY)
        with pytest.raises(QueryError):
            queued.result()

    def test_engine_error_fails_the_handle_and_frees_the_slot(self):
        _, _, _, manager = make_manager(max_in_flight=1)
        bad = manager.submit("select count(*) from no_such_table")
        good = manager.submit(QUERY)
        manager.drain()
        assert bad.state is QueryState.FAILED
        with pytest.raises(QueryError):
            bad.result()
        assert good.state is QueryState.COMPLETED
        assert manager.tenants["default"].failed == 1

    def test_bad_parameters_rejected(self):
        catalog, engine, loop = build_federation()
        with pytest.raises(QueryError):
            WorkloadManager(engine, loop, max_in_flight=0)
        with pytest.raises(QueryError):
            WorkloadManager(engine, EventLoop(SimClock()))  # foreign clock
        manager = WorkloadManager(engine, loop)
        with pytest.raises(QueryError):
            manager.submit(QUERY, deadline=0.0)
        with pytest.raises(QueryError):
            manager.register_tenant("t", weight=0.0)
        with pytest.raises(ValueError):
            WorkloadManager(engine, loop, scheduler="lifo")


class TestSchedulers:
    def test_weighted_fair_share_converges_to_weights(self):
        _, _, _, manager = make_manager(max_in_flight=1)
        manager.register_tenant("gold", weight=3.0)
        manager.register_tenant("bronze", weight=1.0)
        handles = []
        for _ in range(40):
            handles.append(manager.submit(QUERY, tenant="gold"))
            handles.append(manager.submit(QUERY, tenant="bronze"))
        manager.drain()
        order = sorted(handles, key=lambda h: (h.started_at, h.seq))
        first_half = order[: len(order) // 2]
        gold_share = sum(
            1 for h in first_half if h.tenant.name == "gold"
        ) / len(first_half)
        # Throughput share converges to the 3:1 weight ratio (0.75).
        assert abs(gold_share - 0.75) < 0.1

    def test_idle_tenant_reenters_at_current_virtual_time(self):
        # A light tenant arriving into a flood is served next, not after the
        # aggressor's whole backlog.
        _, _, _, manager = make_manager(max_in_flight=1)
        flood = [manager.submit(QUERY, tenant="heavy") for _ in range(10)]
        light = manager.submit(QUERY, tenant="light")
        manager.drain()
        started_before_light = [
            h for h in flood if h.started_at < light.started_at
        ]
        assert len(started_before_light) <= 2

    def test_strict_priority_jumps_the_queue(self):
        _, _, _, manager = make_manager(scheduler="priority", max_in_flight=1)
        manager.submit(QUERY, priority=0)  # running
        low = manager.submit(QUERY, priority=0)
        high = manager.submit(QUERY, priority=5)
        manager.drain()
        assert high.started_at < low.started_at

    def test_fifo_is_arrival_order(self):
        _, _, _, manager = make_manager(scheduler="fifo", max_in_flight=1)
        handles = [manager.submit(QUERY) for _ in range(4)]
        manager.drain()
        starts = [h.started_at for h in handles]
        assert starts == sorted(starts)

    def test_fifo_and_fair_return_identical_result_contents(self):
        results = {}
        for scheduler in ("fifo", "weighted-fair"):
            _, _, _, manager = make_manager(
                scheduler=scheduler, max_in_flight=2
            )
            handles = [
                manager.submit("select k, v from items where v < 37"),
                manager.submit(QUERY, tenant="other"),
                manager.submit("select max(v) from items"),
            ]
            manager.drain()
            results[scheduler] = [h.result().table.rows for h in handles]
        assert results["fifo"] == results["weighted-fair"]

    def test_scheduler_alias_and_unknown(self):
        assert make_scheduler("fair").name == "weighted-fair"
        with pytest.raises(ValueError):
            make_scheduler("nope")


class TestCongestionModel:
    def test_gauges_rise_and_fall_with_in_flight_queries(self):
        catalog, _, _, manager = make_manager(max_in_flight=3)
        for _ in range(3):
            manager.submit(QUERY)
        assert any(s.active_scans > 0 for s in catalog.sites.values())
        manager.drain()
        assert all(s.active_scans == 0 for s in catalog.sites.values())
        assert max(s.peak_active_scans for s in catalog.sites.values()) >= 2

    def test_concurrent_service_times_inflate(self):
        # The same query costs more (modeled seconds) when dispatched beside
        # in-flight queries than alone on an idle federation.
        _, _, _, alone = make_manager(max_in_flight=4)
        solo = alone.submit(QUERY)
        alone.drain()
        _, _, _, busy = make_manager(max_in_flight=4)
        handles = [busy.submit(QUERY) for _ in range(4)]
        busy.drain()
        solo_seconds = solo.result().report.response_seconds
        # The first concurrent query saw an idle federation; the last saw
        # three in-flight queries' congestion.
        last = max(handles, key=lambda h: h.started_at is not None and h.seq)
        assert last.result().report.response_seconds > solo_seconds

    def test_congestion_pricing_steers_scans_to_idle_replica(self):
        # Two replicas of every fragment: one on site "a_hot" (which also
        # exclusively hosts a pinned table being hammered), one on "b_cold".
        # With congestion pricing the probe's scans land on the idle
        # replica; with the congestion curve flattened (alpha=0) the price
        # tie breaks alphabetically onto the loaded site.
        def run(alpha):
            catalog = FederationCatalog(SimClock())
            for name in ("a_hot", "b_cold"):
                catalog.make_site(
                    name, load_price_factor=0.0, congestion_alpha=alpha
                )
            schema = Schema("shared", (Field("k", DataType.STRING),))
            shared = Table(schema, [(f"k{i}",) for i in range(40)])
            catalog.load_fragmented(
                shared, 2, [["a_hot", "b_cold"], ["a_hot", "b_cold"]]
            )
            pinned_schema = Schema("pinned", (Field("p", DataType.STRING),))
            pinned = Table(pinned_schema, [(f"p{i}",) for i in range(400)])
            catalog.load_fragmented(pinned, 1, [["a_hot"]])
            engine = FederatedEngine(catalog)
            loop = EventLoop(catalog.clock)
            manager = WorkloadManager(engine, loop, max_in_flight=4)
            manager.submit("select count(*) from pinned", tenant="bg")
            probe = manager.submit("select count(*) from shared", tenant="probe")
            manager.drain()
            plan = probe.result().plan
            choices = plan.assignments["shared"].choices
            return sum(1 for c in choices if c.site_name == "a_hot")

        assert run(alpha=0.0) == 2  # ties: everything lands on the hot site
        assert run(alpha=0.5) == 0  # priced congestion: scans flee to idle


class TestReportingSurface:
    def test_report_carries_workload_fields(self):
        _, _, _, manager = make_manager(max_in_flight=1)
        first = manager.submit(QUERY, tenant="acme")
        second = manager.submit(QUERY, tenant="acme")
        manager.drain()
        report = second.result().report
        assert report.tenant == "acme"
        assert report.scheduler == "weighted-fair"
        assert report.queue_wait_seconds > 0
        assert report.queue_wait_seconds == pytest.approx(
            second.queue_wait_seconds
        )
        assert first.result().report.queue_wait_seconds == 0.0

    def test_explain_analyze_shows_tenant_and_queue_wait(self):
        _, _, _, manager = make_manager()
        rendered = manager.explain_analyze(QUERY, tenant="acme")
        assert "tenant: acme" in rendered
        assert "scheduler: weighted-fair" in rendered
        assert "queue wait:" in rendered
        assert "SiteScan" in rendered

    def test_plain_explain_analyze_has_no_tenant_line(self):
        _, engine, _, _ = make_manager()
        rendered = engine.explain(QUERY, analyze=True)
        assert "tenant:" not in rendered

    def test_per_tenant_metrics_recorded(self):
        _, _, _, manager = make_manager(max_in_flight=1)
        for _ in range(3):
            manager.submit(QUERY, tenant="acme")
        manager.drain()
        metrics = manager.metrics
        assert metrics.counter("workload.acme.admitted").value == 3
        assert metrics.counter("workload.acme.completed").value == 3
        assert metrics.histogram("workload.acme.queue_wait_seconds").count == 3
        assert metrics.histogram("workload.acme.service_seconds").count == 3
        assert metrics.histogram("workload.acme.total_seconds").count == 3
        assert metrics.gauge("workload.acme.queue_depth").value == 0
        assert metrics.gauge("workload.in_flight").value == 0
        assert manager.dispatched == 3

    def test_tenant_auto_registration(self):
        _, _, _, manager = make_manager()
        handle = manager.submit(QUERY, tenant="walk-in")
        assert "walk-in" in manager.tenants
        manager.drain(handle)
        assert manager.tenants["walk-in"].completed == 1
        with pytest.raises(QueryError):
            manager.register_tenant(Tenant("walk-in"))


class TestDbapiTenancy:
    def test_connection_routes_through_workload_manager(self):
        _, _, _, manager = make_manager(max_in_flight=1)
        connection = dbapi.connect(Gateway(manager), tenant="partner-a")
        cursor = connection.cursor()
        cursor.execute("select count(*) from items where v < ?", (50,))
        assert cursor.fetchone() == (50,)
        assert cursor.last_report.tenant == "partner-a"
        assert cursor.last_report.queue_wait_seconds >= 0.0
        assert manager.tenants["partner-a"].completed == 1

    def test_plain_connection_still_works(self):
        _, _, _, manager = make_manager()
        cursor = dbapi.connect(Gateway(manager)).cursor()
        cursor.execute(QUERY)
        assert cursor.fetchone() == (120,)
        assert cursor.last_report.tenant == "default"
        assert manager.tenants["default"].completed == 1


POOL = [
    "select count(*) from items",
    "select k from items where v < 17",
    "select max(v) from items where v >= 40",
    "select k, v from items where v >= 100 and v < 111",
    "select count(*) from items where k < 'k0020'",
    "select min(v), max(v), count(*) from items",
]


class TestSerialEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(
        queries=st.lists(st.sampled_from(POOL), min_size=1, max_size=6),
        scheduler=st.sampled_from(["fifo", "weighted-fair", "priority"]),
        slots=st.integers(min_value=1, max_value=4),
    )
    def test_concurrent_matches_serial_row_for_row(
        self, queries, scheduler, slots
    ):
        # Serial: one fresh federation, queries run to completion in order.
        _, serial_engine, _ = build_federation()
        serial_rows = [
            serial_engine.query(sql).table.rows for sql in queries
        ]
        # Concurrent: an identical federation, everything submitted at once
        # under interleaved tenants, resolved through the event loop.
        _, _, _, manager = make_manager(
            scheduler=scheduler, max_in_flight=slots
        )
        handles = [
            manager.submit(sql, tenant=f"t{i % 2}")
            for i, sql in enumerate(queries)
        ]
        manager.drain()
        concurrent_rows = [h.result().table.rows for h in handles]
        assert concurrent_rows == serial_rows


class TestDeadlineDispatchRace:
    """The deadline event and the slot-freeing completion event can land on
    the same clock tick; the resolution must be deterministic."""

    def _solo_response(self):
        _, engine, _ = build_federation()
        return engine.query(QUERY, advance_clock=False).report.response_seconds

    def test_slot_free_at_exact_deadline_dispatches_not_times_out(self):
        # The first query's completion event was scheduled (at dispatch)
        # before the second's deadline event (at submit), so at the shared
        # tick the slot frees first and _start cancels the deadline.
        solo = self._solo_response()
        _, _, _, manager = make_manager(max_in_flight=1)
        first = manager.submit(QUERY)
        second = manager.submit(QUERY, deadline=solo)
        manager.drain()
        assert first.state is QueryState.COMPLETED
        assert second.state is QueryState.COMPLETED
        assert second.started_at == first.finished_at
        assert second.queue_wait_seconds == pytest.approx(solo)
        assert manager.tenants["default"].timed_out == 0

    def test_deadline_just_before_slot_free_times_out(self):
        solo = self._solo_response()
        _, _, _, manager = make_manager(max_in_flight=1)
        first = manager.submit(QUERY)
        second = manager.submit(QUERY, deadline=solo * 0.999)
        manager.drain()
        assert first.state is QueryState.COMPLETED
        assert second.state is QueryState.TIMED_OUT
        # The freed slot did not resurrect the expired submission, and the
        # manager is idle and reusable afterwards.
        assert manager.in_flight == 0
        replacement = manager.submit(QUERY)
        manager.drain(replacement)
        assert replacement.state is QueryState.COMPLETED

    def test_timeout_after_dispatch_same_tick_is_noop(self):
        # Losing side of the race: _timeout fires for a handle that was
        # dispatched at the same tick.  It must leave the running query
        # (and the tenant's accounting) untouched.
        _, _, _, manager = make_manager(max_in_flight=1)
        handle = manager.submit(QUERY, deadline=5.0)
        assert handle.state is QueryState.RUNNING
        manager._timeout(handle)
        assert handle.state is QueryState.RUNNING
        assert handle.error is None
        manager.drain(handle)
        assert handle.state is QueryState.COMPLETED
        assert manager.tenants["default"].timed_out == 0


class _Item:
    """Minimal scheduler item: seq, tenant_name, priority, weight."""

    def __init__(self, seq, tenant_name, weight=1.0, priority=0.0):
        self.seq = seq
        self.tenant_name = tenant_name
        self.weight = weight
        self.priority = priority


class TestWeightedFairPassAccounting:
    """Quota-ineligible tenants are *skipped* in pop, not charged."""

    def test_skipped_tenant_pass_is_not_advanced(self):
        scheduler = make_scheduler("weighted-fair")
        a_items = [_Item(1, "a"), _Item(3, "a")]
        b_items = [_Item(2, "b"), _Item(4, "b"), _Item(5, "b")]
        for item in a_items + b_items:
            scheduler.push(item)

        # While tenant a is over quota, b dispatches twice -- a's pass must
        # not move, so a is not punished for being skipped.
        not_a = lambda item: item.tenant_name != "a"  # noqa: E731
        assert scheduler.pop(not_a) is b_items[0]
        assert scheduler.pop(not_a) is b_items[1]
        # The moment a is eligible again it goes first: its pass (0.0) is
        # behind b's (2.0), exactly as if the skips never happened.
        everyone = lambda item: True  # noqa: E731
        assert scheduler.pop(everyone) is a_items[0]
        assert scheduler.pop(everyone) is a_items[1]
        assert scheduler.pop(everyone) is b_items[2]

    def test_all_ineligible_pops_nothing_and_charges_nothing(self):
        scheduler = make_scheduler("weighted-fair")
        scheduler.push(_Item(1, "a"))
        scheduler.push(_Item(2, "b"))
        nobody = lambda item: False  # noqa: E731
        assert scheduler.pop(nobody) is None
        assert len(scheduler) == 2
        # No pass was advanced by the failed pop: the next dispatch order
        # is untouched (a first by name on equal pass, then b).
        everyone = lambda item: True  # noqa: E731
        assert scheduler.pop(everyone).tenant_name == "a"
        assert scheduler.pop(everyone).tenant_name == "b"

    def test_quota_capped_tenant_keeps_fair_share_after_skips(self):
        # Integration: a quota-1 tenant is repeatedly skipped while its
        # query runs, yet still interleaves 1:1 with the other tenant once
        # slots free (no pass debt accumulated from the skips).
        _, _, _, manager = make_manager(max_in_flight=2)
        manager.register_tenant("capped", max_concurrency=1)
        capped = [manager.submit(QUERY, tenant="capped") for _ in range(3)]
        other = [manager.submit(QUERY, tenant="other") for _ in range(3)]
        manager.drain()
        assert all(h.state is QueryState.COMPLETED for h in capped + other)
        # Quota respected: capped never overlapped itself.
        ordered = sorted(capped, key=lambda h: h.started_at)
        for earlier, later in zip(ordered, ordered[1:]):
            assert later.started_at >= earlier.finished_at


class TestPreparedSubmission:
    """WorkloadManager.submit routes prepared templates with bindings."""

    def test_prepared_submission_matches_sql_submission(self):
        _, engine, _, manager = make_manager()
        prepared = engine.prepare("select count(*) from items where v < ?")
        via_prepared = manager.submit(prepared=prepared, params=(37,))
        via_sql = manager.submit("select count(*) from items where v < 37")
        manager.drain()
        assert via_prepared.result().table.rows == via_sql.result().table.rows
        assert via_prepared.result().report.tenant == "default"

    def test_exactly_one_of_sql_or_prepared(self):
        _, engine, _, manager = make_manager()
        prepared = engine.prepare(QUERY)
        with pytest.raises(QueryError):
            manager.submit(QUERY, prepared=prepared)
        with pytest.raises(QueryError):
            manager.submit()

    def test_prepared_rejects_max_staleness_override(self):
        # Staleness is fixed at prepare time (it shapes access-path
        # choice); overriding it per submission would silently serve the
        # wrong plan.
        _, engine, _, manager = make_manager()
        prepared = engine.prepare(QUERY)
        with pytest.raises(QueryError):
            manager.submit(prepared=prepared, max_staleness=10.0)
