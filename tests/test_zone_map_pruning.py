"""Zone-map statistics, partition elimination, and the planner bugfixes.

The soundness contract under test: pruning a fragment must never change an
answer -- `fragment_can_match` may return False only when *no* row of the
fragment can satisfy the pushed-down predicates.  The end-to-end sections
check the paying consequences: fewer sites contacted, fewer rows shipped,
identical results, and `pruned k/n` surfaced in EXPLAIN and the metrics.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.connect.source import Predicate
from repro.core import DataType, Field, Schema, Table
from repro.core.errors import QueryError
from repro.federation import (
    AgoricOptimizer,
    CentralizedOptimizer,
    ColumnStats,
    FederatedEngine,
    FederationCatalog,
    FragmentSlot,
    Gateway,
    PolicyOptimizer,
    RoundRobinPolicy,
    WorkloadManager,
    ZoneMap,
    fallback_selectivity,
    fragment_can_match,
    fragment_selectivity,
    zone_selectivity,
)
from repro.federation.agoric import BID_ROUND_TRIP_SECONDS, PER_BID_SECONDS
from repro.sim import EventLoop, SimClock
from tests.test_gateway import write_row


ORDERS_SCHEMA = Schema(
    "orders",
    (
        Field("id", DataType.INTEGER),
        Field("qty", DataType.INTEGER),
        Field("tag", DataType.STRING),
    ),
)


def orders_rows(n=160):
    return [(i, i, f"t{i % 3}") for i in range(n)]


def build_engine(
    rows=None,
    fragment_count=16,
    site_count=8,
    optimizer=None,
    range_column="qty",
):
    """A range-partitioned orders table across ``site_count`` sites."""
    clock = SimClock()
    catalog = FederationCatalog(clock)
    names = [catalog.make_site(f"s{i}").name for i in range(site_count)]
    table = Table(ORDERS_SCHEMA, rows if rows is not None else orders_rows())
    placement = [
        [names[i % site_count], names[(i + 1) % site_count]]
        for i in range(fragment_count)
    ]
    if range_column is None:
        catalog.load_fragmented(table, fragment_count, placement)
    else:
        catalog.load_range_partitioned(
            table, range_column, fragment_count, placement
        )
    opt = optimizer(catalog) if optimizer else None
    return FederatedEngine(catalog, optimizer=opt)


def strip_zone_maps(engine):
    """Disable pruning: the seed behavior (no statistics anywhere)."""
    for entry in engine.catalog.tables.values():
        for fragment in entry.fragments:
            fragment.zone_map = None
    return engine


def answers(result):
    return sorted(map(repr, result.table.rows))


class TestZoneMapCollection:
    def test_from_table_records_min_max_nulls_distinct(self):
        schema = Schema(
            "x", (Field("a", DataType.INTEGER), Field("b", DataType.STRING))
        )
        table = Table(schema, [(3, "p"), (None, "p"), (7, None), (5, "q")])
        zone = ZoneMap.from_table(table)
        assert zone.row_count == 4
        assert zone.columns["a"] == ColumnStats(
            minimum=3, maximum=7, null_count=1, distinct=3
        )
        assert zone.columns["b"] == ColumnStats(
            minimum="p", maximum="q", null_count=1, distinct=2
        )

    def test_load_range_partitioned_stamps_disjoint_intervals(self):
        engine = build_engine(fragment_count=4)
        fragments = engine.catalog.entry("orders").fragments
        intervals = [
            (f.zone_map.columns["qty"].minimum, f.zone_map.columns["qty"].maximum)
            for f in fragments
        ]
        assert intervals == [(0, 39), (40, 79), (80, 119), (120, 159)]

    def test_update_notification_drops_zone_maps(self):
        engine = build_engine(fragment_count=4)
        engine.catalog.notify_table_updated("orders")
        assert all(
            f.zone_map is None for f in engine.catalog.entry("orders").fragments
        )

    def test_repartition_restamps_fresh_zone_maps(self):
        engine = build_engine(fragment_count=4, site_count=4)
        names = [f"s{i}" for i in range(4)]
        engine.catalog.repartition(
            "orders",
            8,
            [[names[i % 4]] for i in range(8)],
            partition_column="qty",
        )
        fragments = engine.catalog.entry("orders").fragments
        assert len(fragments) == 8
        assert all(f.zone_map is not None for f in fragments)
        assert fragments[0].zone_map.columns["qty"].maximum == 19


class TestFragmentCanMatch:
    """Unit soundness: False only on provable emptiness."""

    zone = ZoneMap(
        row_count=10,
        columns={"qty": ColumnStats(minimum=10, maximum=19, null_count=0, distinct=10)},
    )

    def test_missing_zone_map_never_prunes(self):
        assert fragment_can_match(None, [Predicate("qty", ">", 10**6)])

    def test_empty_fragment_always_prunes(self):
        assert not fragment_can_match(ZoneMap(row_count=0), [])

    def test_range_outside_interval_prunes(self):
        assert not fragment_can_match(self.zone, [Predicate("qty", ">", 19)])
        assert not fragment_can_match(self.zone, [Predicate("qty", "<", 10)])
        assert not fragment_can_match(self.zone, [Predicate("qty", ">=", 20)])

    def test_range_touching_interval_keeps(self):
        assert fragment_can_match(self.zone, [Predicate("qty", ">=", 19)])
        assert fragment_can_match(self.zone, [Predicate("qty", "<=", 10)])

    def test_equality_outside_interval_prunes(self):
        assert not fragment_can_match(self.zone, [Predicate("qty", "=", 42)])
        assert fragment_can_match(self.zone, [Predicate("qty", "=", 15)])

    def test_equality_with_null_prunes(self):
        # ``= NULL`` is unknown on every row, NULL cells included.
        assert not fragment_can_match(self.zone, [Predicate("qty", "=", None)])
        with_nulls = ZoneMap(
            row_count=3,
            columns={"qty": ColumnStats(minimum=1, maximum=2, null_count=1, distinct=2)},
        )
        assert not fragment_can_match(with_nulls, [Predicate("qty", "=", None)])
        assert zone_selectivity(with_nulls, [Predicate("qty", "=", None)]) == 0.0

    def test_range_on_all_null_column_prunes(self):
        all_null = ZoneMap(
            row_count=4, columns={"qty": ColumnStats(null_count=4, distinct=0)}
        )
        # A NULL cell passes no comparison, ``!=`` included.
        for op in ("=", "!=", "<", ">", "contains"):
            assert not fragment_can_match(all_null, [Predicate("qty", op, 0)])

    def test_not_equal_ignores_null_cells(self):
        # The non-null cells are all 7, so ``!= 7`` keeps no row.
        constant_with_nulls = ZoneMap(
            row_count=5,
            columns={"qty": ColumnStats(minimum=7, maximum=7, null_count=2, distinct=1)},
        )
        assert not fragment_can_match(constant_with_nulls, [Predicate("qty", "!=", 7)])
        # ... and the estimate counts non-null cells only: 6 of 10, 2/3 of them.
        three_values = ZoneMap(
            row_count=10,
            columns={"qty": ColumnStats(minimum=1, maximum=3, null_count=4, distinct=3)},
        )
        estimate = zone_selectivity(three_values, [Predicate("qty", "!=", 2)])
        assert estimate == pytest.approx(0.6 * 2 / 3)

    def test_not_equal_single_valued_fragment_prunes(self):
        constant = ZoneMap(
            row_count=5,
            columns={"qty": ColumnStats(minimum=7, maximum=7, null_count=0, distinct=1)},
        )
        assert not fragment_can_match(constant, [Predicate("qty", "!=", 7)])
        assert fragment_can_match(constant, [Predicate("qty", "!=", 8)])

    def test_unanalyzed_column_keeps(self):
        assert fragment_can_match(self.zone, [Predicate("other", ">", 10**6)])

    def test_incomparable_value_keeps(self):
        assert fragment_can_match(self.zone, [Predicate("qty", ">", "high")])

    def test_null_valued_range_prunes(self):
        # ``qty < NULL`` is unknown on every row, so it selects nothing.
        for op in ("<", "<=", ">", ">=", "!=", "contains"):
            unknown = [Predicate("qty", op, None)]
            assert not fragment_can_match(self.zone, unknown)
            assert zone_selectivity(self.zone, unknown) == 0.0


class TestSelectivity:
    def test_fallback_matches_seed_constants(self):
        assert fallback_selectivity([Predicate("a", "=", 1)]) == pytest.approx(0.1)
        assert fallback_selectivity([Predicate("a", ">", 1)]) == pytest.approx(0.3)
        assert fallback_selectivity(
            [Predicate("a", "=", 1)] * 5
        ) == pytest.approx(0.01)

    def test_zone_equality_uses_distinct(self):
        zone = ZoneMap(
            row_count=100,
            columns={"a": ColumnStats(minimum=0, maximum=99, null_count=0, distinct=50)},
        )
        assert zone_selectivity(zone, [Predicate("a", "=", 10)]) == pytest.approx(
            1 / 50
        )

    def test_zone_range_interpolates(self):
        zone = ZoneMap(
            row_count=100,
            columns={"a": ColumnStats(minimum=0, maximum=100, null_count=0, distinct=100)},
        )
        assert zone_selectivity(zone, [Predicate("a", "<", 25)]) == pytest.approx(
            0.25
        )
        assert zone_selectivity(zone, [Predicate("a", ">", 25)]) == pytest.approx(
            0.75
        )

    def test_unsatisfiable_is_zero(self):
        zone = ZoneMap(
            row_count=100,
            columns={"a": ColumnStats(minimum=0, maximum=10, null_count=0, distinct=10)},
        )
        assert zone_selectivity(zone, [Predicate("a", ">", 10)]) == 0.0

    def test_fragment_selectivity_falls_back_without_stats(self):
        class Bare:
            zone_map = None

        assert fragment_selectivity(Bare(), [Predicate("a", "=", 1)]) == (
            pytest.approx(0.1)
        )


@pytest.mark.parametrize(
    "optimizer",
    [
        AgoricOptimizer,
        CentralizedOptimizer,
        lambda catalog: PolicyOptimizer(catalog, RoundRobinPolicy()),
    ],
    ids=["agoric", "centralized", "policy"],
)
class TestPruningEndToEnd:
    SQL = "select id, qty from orders where qty >= 140 and qty < 150"

    def test_prunes_strictly_fewer_sites_and_rows_same_answer(self, optimizer):
        pruned = build_engine(optimizer=optimizer)
        seed = strip_zone_maps(build_engine(optimizer=optimizer))
        a = pruned.query(self.SQL, advance_clock=False)
        b = seed.query(self.SQL, advance_clock=False)
        assert answers(a) == answers(b) and len(a.table) == 10
        # Strictly fewer rows cross the network (sites still filter locally,
        # so rows_fetched -- the post-pushdown match count -- stays equal).
        assert a.report.rows_shipped < b.report.rows_shipped
        assert a.report.rows_fetched == b.report.rows_fetched == 10
        assert len(a.report.site_work) < len(b.report.site_work)
        assert a.report.fragments_pruned == 15
        assert a.report.fragments_total == 16
        assert b.report.fragments_pruned == 0

    def test_fully_pruned_scan_returns_empty(self, optimizer):
        engine = build_engine(optimizer=optimizer)
        result = engine.query(
            "select id from orders where qty > 100000", advance_clock=False
        )
        assert len(result.table) == 0
        assert result.report.fragments_pruned == 16
        # No site did any scan work (the coordinator still shows up with a
        # zero-seconds entry for the plumbing operators).
        assert not any(result.report.site_work.values())

    def test_stale_stats_disable_pruning_soundly(self, optimizer):
        engine = build_engine(optimizer=optimizer)
        engine.catalog.notify_table_updated("orders")
        result = engine.query(self.SQL, advance_clock=False)
        # No statistics -> no pruning, but the answer is intact.
        assert result.report.fragments_pruned == 0
        assert len(result.table) == 10

    def test_pruning_counters_in_metrics(self, optimizer):
        engine = build_engine(optimizer=optimizer)
        engine.query(self.SQL, advance_clock=False)
        assert engine.metrics.counter("pruning.fragments_pruned").value == 15
        assert engine.metrics.counter("pruning.fragments_total").value == 16


class TestAgoricPruningEconomics:
    def test_pruned_fragments_solicit_no_bids(self):
        pruned = build_engine(optimizer=AgoricOptimizer)
        seed = strip_zone_maps(build_engine(optimizer=AgoricOptimizer))
        sql = "select id from orders where qty < 10"
        a = pruned.query(sql, advance_clock=False)
        b = seed.query(sql, advance_clock=False)
        assert a.plan.sites_contacted < b.plan.sites_contacted
        assert a.plan.optimization_seconds < b.plan.optimization_seconds

    def test_zone_selectivity_lowers_quotes(self):
        engine = build_engine(optimizer=AgoricOptimizer)
        narrow = engine.query(
            "select id from orders where qty >= 140 and qty < 145",
            advance_clock=False,
        )
        full = engine.query("select id from orders", advance_clock=False)
        assert narrow.plan.total_price < full.plan.total_price


class TestExplainSurfacesPruning:
    def test_explain_shows_pruned_counts(self):
        engine = build_engine()
        text = engine.explain("select id from orders where qty < 10")
        assert "pruned 15/16" in text

    def test_explain_analyze_shows_pruned_fragments(self):
        engine = build_engine()
        text = engine.explain(
            "select id from orders where qty < 10", analyze=True
        )
        assert "pruned fragments 15/16" in text

    def test_explain_without_predicates_shows_no_pruning(self):
        engine = build_engine()
        text = engine.explain("select id from orders")
        assert "pruned" not in text


class TestCentralizedSharedEstimator:
    def test_makespan_uses_selectivity_not_full_table(self):
        engine = build_engine(fragment_count=4, optimizer=CentralizedOptimizer)
        optimizer = engine.optimizer
        catalog = engine.catalog
        entry = catalog.entry("orders")
        fragment = entry.fragments[0]
        live = [s for s in fragment.replica_sites() if catalog.site(s).up]
        full = optimizer._estimate_makespan(
            [FragmentSlot(fragment, live, 1.0, 0, 0)], (live[0],)
        )
        selective = optimizer._estimate_makespan(
            [FragmentSlot(fragment, live, 0.05, 0, 0)], (live[0],)
        )
        assert selective < full


class TestViewLivenessGuards:
    def _engine_with_view(self, optimizer=None):
        engine = build_engine(
            fragment_count=4, site_count=4, optimizer=optimizer
        )
        engine.create_materialized_view("orders_v", "orders", "s2")
        return engine

    @pytest.mark.parametrize(
        "optimizer",
        [
            None,
            CentralizedOptimizer,
            lambda catalog: PolicyOptimizer(catalog, RoundRobinPolicy()),
        ],
        ids=["agoric", "centralized", "policy"],
    )
    def test_view_by_name_with_down_host_raises_cleanly(self, optimizer):
        engine = self._engine_with_view(optimizer)
        engine.catalog.site("s2").up = False
        with pytest.raises(QueryError, match="down"):
            engine.query("select id from orders_v", advance_clock=False)

    @pytest.mark.parametrize(
        "optimizer",
        [
            None,
            CentralizedOptimizer,
            lambda catalog: PolicyOptimizer(catalog, RoundRobinPolicy()),
        ],
        ids=["agoric", "centralized", "policy"],
    )
    def test_coordinator_prefers_view_host(self, optimizer):
        engine = self._engine_with_view(optimizer)
        result = engine.query("select id from orders_v", advance_clock=False)
        assert result.plan.assignments["orders_v"].kind == "view"
        # The rows already live on s2; the coordinator must not fall back
        # to the alphabetically-first up site (s0).
        assert result.plan.coordinator == "s2"

    def test_base_table_fails_over_when_view_host_down(self):
        engine = self._engine_with_view()
        engine.catalog.site("s2").up = False
        # Querying the *base table* is still served (from fragments).
        result = engine.query("select id from orders", advance_clock=False)
        assert len(result.table) == 160


class TestDeterminism:
    def test_modeled_seconds_exclude_wall_clock(self):
        engine = build_engine(optimizer=AgoricOptimizer)
        result = engine.query(
            "select id from orders where qty < 10", advance_clock=False
        )
        plan = result.plan
        expected = BID_ROUND_TRIP_SECONDS + plan.sites_contacted * PER_BID_SECONDS
        assert plan.optimization_seconds == pytest.approx(expected)
        assert plan.planner_wall_seconds > 0.0  # reported on the plan only

    @pytest.mark.parametrize(
        "optimizer",
        [AgoricOptimizer, CentralizedOptimizer],
        ids=["agoric", "centralized"],
    )
    def test_two_identical_runs_report_identical_seconds(self, optimizer):
        sql = "select id, qty from orders where qty >= 40 and qty < 60"

        def run():
            engine = build_engine(optimizer=optimizer)
            result = engine.query(sql)
            return (
                result.report.response_seconds,
                engine.catalog.clock.now(),
                answers(result),
            )

        assert run() == run()


class TestPrunedUnprunedEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10**6),
                st.one_of(
                    st.none(), st.integers(min_value=-100, max_value=100)
                ),
                st.sampled_from(["a", "b", "c"]),
            ),
            min_size=0,
            max_size=60,
        ),
        st.sampled_from(["<", "<=", ">", ">=", "=", "!="]),
        st.integers(min_value=-120, max_value=120),
    )
    def test_random_range_predicates_match_seed(self, rows, op, value):
        sql = f"select id, qty, tag from orders where qty {op} {value}"
        pruned = build_engine(rows=rows, fragment_count=8, site_count=4)
        seed = strip_zone_maps(
            build_engine(rows=rows, fragment_count=8, site_count=4)
        )
        assert answers(pruned.query(sql, advance_clock=False)) == answers(
            seed.query(sql, advance_clock=False)
        )


def template_runs(engine, entry):
    """``run(sql, params)``: a template executed through ``entry`` -- engine
    prepare/execute, or one gateway session's plan cache -- as ``(result,
    its template)``, the template kept across runs."""
    if entry == "prepared":
        templates = {}

        def run(sql, params):
            prepared = templates.setdefault(sql, engine.prepare(sql))
            return engine.execute(prepared, params), prepared

        return run
    loop = EventLoop(engine.catalog.clock)
    session = Gateway(WorkloadManager(engine, loop)).connect()

    def run(sql, params):
        result = session.execute(sql, params).result
        return result, result.prepared

    return run


class TestPruneStamp:
    """A zone-map prune reads content -- an empty fragment is pruned even
    under ``?`` parameters -- so a template that pruned a fragment re-plans
    when that fragment is written; one that pruned none plans nothing."""

    SQL = "select id from orders where qty >= ?"

    @pytest.mark.parametrize("entry", ["prepared", "gateway"])
    def test_a_write_to_a_pruned_empty_fragment_is_answered(self, entry):
        # Three rows dealt over four fragments: f3 is empty.
        engine = build_engine(
            rows=orders_rows(3), fragment_count=4, site_count=4, range_column=None
        )
        run = template_runs(engine, entry)
        before, template = run(self.SQL, (0,))
        assert answers(before) == ["(0,)", "(1,)", "(2,)"]
        assert template.physical.assignments["orders"].pruned_fragments == 1
        write_row(engine.catalog, "orders", "f3", (3, 3, "t0"))
        after, again = run(self.SQL, (0,))
        assert answers(after) == ["(0,)", "(1,)", "(2,)", "(3,)"]
        assert again is template
        assert template.replans == 1

    @pytest.mark.parametrize("entry", ["prepared", "gateway"])
    def test_a_template_that_pruned_nothing_replans_nothing(self, entry):
        engine = build_engine(fragment_count=4, site_count=4, range_column=None)
        run = template_runs(engine, entry)
        before, template = run(self.SQL, (150,))
        assert template.physical.assignments["orders"].pruned_fragments == 0
        assert len(before.table) == 10
        version = engine.catalog.version
        write_row(engine.catalog, "orders", "f1", (999, 155, "t0"))
        assert engine.catalog.version == version
        after, again = run(self.SQL, (150,))
        assert again is template
        assert template.replans == 0
        assert len(after.table) == 11
        assert "(999,)" in answers(after)
