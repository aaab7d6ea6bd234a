"""Tests for LEFT OUTER JOIN and the Mariposa budget protocol."""

import pytest

from repro.core import DataType, Field, Schema, Table
from repro.core.errors import PartialFailureError
from repro.federation import (
    ArtifactStore,
    BudgetExceededError,
    FederatedEngine,
    FederationCatalog,
    QueryOptions,
)
from repro.sim import SimClock
from repro.sql import parse_sql


def make_engine(with_artifacts=False):
    clock = SimClock()
    catalog = FederationCatalog(clock)
    names = [catalog.make_site(f"s{i}").name for i in range(2)]
    suppliers = Table(
        Schema("suppliers", (Field("sid", DataType.STRING),
                             Field("country", DataType.STRING))),
        [("sup0", "US"), ("sup1", "FR"), ("sup2", "DE")],
    )
    orders = Table(
        Schema("orders", (Field("order_id", DataType.STRING),
                          Field("sid", DataType.STRING),
                          Field("total", DataType.FLOAT))),
        [("o1", "sup0", 10.0), ("o2", "sup0", 5.0), ("o3", "sup1", 7.0)],
    )
    catalog.load_fragmented(suppliers, 1, [[names[0]]])
    catalog.load_fragmented(orders, 1, [[names[1]]])
    return FederatedEngine(
        catalog, artifacts=ArtifactStore(clock) if with_artifacts else None
    )


class TestLeftJoinParsing:
    def test_left_join_parsed(self):
        statement = parse_sql("select * from a left join b on a.x = b.x")
        assert statement.joins[0].join_type == "left"

    def test_left_outer_join_parsed(self):
        statement = parse_sql("select * from a left outer join b on a.x = b.x")
        assert statement.joins[0].join_type == "left"

    def test_plain_join_is_inner(self):
        statement = parse_sql("select * from a join b on a.x = b.x")
        assert statement.joins[0].join_type == "inner"


class TestLeftJoinExecution:
    def test_unmatched_left_rows_preserved_with_nulls(self):
        engine = make_engine()
        result = engine.query(
            "select s.sid, o.order_id from suppliers s "
            "left join orders o on s.sid = o.sid order by s.sid"
        )
        rows = result.table.to_dicts()
        assert {"sid": "sup2", "order_id": None} in rows
        assert len(rows) == 4  # sup0 twice, sup1 once, sup2 null-extended

    def test_inner_join_drops_unmatched(self):
        engine = make_engine()
        result = engine.query(
            "select s.sid from suppliers s join orders o on s.sid = o.sid"
        )
        assert "sup2" not in result.table.column("sid")

    def test_find_suppliers_without_orders(self):
        engine = make_engine()
        result = engine.query(
            "select s.sid from suppliers s "
            "left join orders o on s.sid = o.sid "
            "where o.order_id is null"
        )
        assert result.table.column("sid") == ["sup2"]

    def test_aggregate_over_left_join(self):
        engine = make_engine()
        result = engine.query(
            "select s.sid, count(o.order_id) as n from suppliers s "
            "left join orders o on s.sid = o.sid group by s.sid order by s.sid"
        )
        assert result.table.to_dicts() == [
            {"sid": "sup0", "n": 2},
            {"sid": "sup1", "n": 1},
            {"sid": "sup2", "n": 0},  # COUNT skips the null extension
        ]

    def test_where_on_right_side_not_pushed_into_scan(self):
        engine = make_engine()
        result = engine.query(
            "select s.sid, o.total from suppliers s "
            "left join orders o on s.sid = o.sid "
            "where o.total > 6 or o.total is null order by s.sid"
        )
        rows = result.table.to_dicts()
        assert {"sid": "sup2", "total": None} in rows  # survived the filter
        assert {"sid": "sup0", "total": 10.0} in rows
        assert {"sid": "sup0", "total": 5.0} not in rows

    def test_left_join_with_nonequality_condition(self):
        engine = make_engine()
        result = engine.query(
            "select s.sid, o.order_id from suppliers s "
            "left join orders o on s.sid = o.sid and o.total > 6 "
            "order by s.sid"
        )
        rows = result.table.to_dicts()
        # sup0 keeps only o1 (10.0); sup2 AND sup0's small order null-extend.
        assert {"sid": "sup0", "order_id": "o1"} in rows
        assert {"sid": "sup2", "order_id": None} in rows


class TestBudgetProtocol:
    def test_query_within_budget_succeeds(self):
        engine = make_engine()
        result = engine.query("select sid from suppliers", budget=100.0)
        assert len(result.table) == 3
        assert result.plan.total_price <= 100.0

    def test_unaffordable_query_refused(self):
        engine = make_engine()
        with pytest.raises(BudgetExceededError) as excinfo:
            engine.query("select sid from suppliers", budget=1e-9)
        assert excinfo.value.required > excinfo.value.budget

    def test_loaded_market_prices_higher(self):
        engine = make_engine()
        baseline = engine.query("select sid from suppliers").plan.total_price
        engine.catalog.site("s0").enqueue(100.0)  # only replica is swamped
        with pytest.raises(BudgetExceededError):
            engine.query("select sid from suppliers", budget=baseline * 2)

    def test_error_reports_required_price(self):
        engine = make_engine()
        try:
            engine.query("select sid from suppliers", budget=1e-9)
        except BudgetExceededError as error:
            retry = engine.query("select sid from suppliers", budget=error.required)
            assert len(retry.table) == 3


class TestInSubquery:
    def test_parse(self):
        from repro.sql.ast import InSubquery

        statement = parse_sql(
            "select sid from suppliers where sid in (select sid from orders)"
        )
        assert isinstance(statement.where, InSubquery)
        assert statement.where.subquery.table.name == "orders"

    def test_semijoin_by_materialization(self):
        engine = make_engine()
        result = engine.query(
            "select sid, country from suppliers "
            "where sid in (select sid from orders) order by sid"
        )
        assert result.table.column("sid") == ["sup0", "sup1"]

    def test_not_in_subquery(self):
        engine = make_engine()
        result = engine.query(
            "select sid from suppliers "
            "where sid not in (select sid from orders)"
        )
        assert result.table.column("sid") == ["sup2"]

    def test_subquery_with_its_own_filter(self):
        engine = make_engine()
        result = engine.query(
            "select sid from suppliers "
            "where sid in (select sid from orders where total > 6) order by sid"
        )
        assert result.table.column("sid") == ["sup0", "sup1"]

    def test_subquery_combined_with_other_predicates(self):
        engine = make_engine()
        result = engine.query(
            "select sid from suppliers "
            "where sid in (select sid from orders) and country = 'FR'"
        )
        assert result.table.column("sid") == ["sup1"]

    @pytest.mark.parametrize(
        "condition",
        [
            "coalesce(sid in (select sid from orders), false)",
            "(sid in (select sid from orders)) between true and true",
            "true in (false, sid in (select sid from orders))",
        ],
    )
    def test_subquery_is_rewritten_wherever_it_stands(self, condition):
        """The rewrite used to look under AND/OR/NOT only, while the test
        for "has a subquery" looked everywhere: a subquery in a function
        argument, a BETWEEN or an IN list reached ``evaluate`` raw."""
        engine = make_engine()
        sql = f"select sid from suppliers where {condition} order by sid"
        assert engine.prepare(sql).has_subqueries
        assert engine.query(sql).table.column("sid") == ["sup0", "sup1"]
        # The inner select's parameters count, and bind, with the outer's.
        inner = condition.replace("from orders", "from orders where total > ?")
        sql = f"select sid from suppliers where {inner} and country != ?"
        prepared = engine.prepare(sql)
        assert prepared.param_count == 2
        bound = engine.execute(prepared, (6, "FR"))
        assert bound.table.column("sid") == ["sup0"]

    def test_multi_column_subquery_rejected(self):
        from repro.core.errors import QueryError

        engine = make_engine()
        with pytest.raises(QueryError):
            engine.query(
                "select sid from suppliers "
                "where sid in (select sid, total from orders)"
            )

    # An inner select runs under the outer statement's options.
    IN_ORDERS = (
        "select sid from suppliers where sid in (select sid from orders) "
        "order by sid"
    )

    def test_inner_select_inherits_degraded_ok(self):
        engine = make_engine()
        engine.catalog.site("s1").up = False  # the only replica of orders
        result = engine.query(self.IN_ORDERS, degraded_ok=True)
        assert result.table.rows == []  # nothing is known to have ordered
        # ...and the outer answer says so instead of reading as complete.
        report = result.report
        assert report.degraded
        assert report.completeness < 1.0
        assert report.unreachable_fragments == ["orders/f0"]
        assert report.dead_sites == ["s1"]

    def test_dead_inner_fragment_still_raises_without_the_flag(self):
        engine = make_engine()
        engine.catalog.site("s1").up = False
        with pytest.raises(PartialFailureError):
            engine.query(self.IN_ORDERS)

    def test_inner_select_inherits_reuse_artifacts(self):
        engine = make_engine(with_artifacts=True)
        result = engine.query(self.IN_ORDERS, options=QueryOptions(reuse_artifacts=False))
        assert result.table.column("sid") == ["sup0", "sup1"]
        store = engine.artifacts
        assert (store.misses, len(store), list(store._inflight)) == (0, 0, [])

    def test_evaluate_refuses_raw_subquery(self):
        from repro.core.errors import QueryError
        from repro.sql import evaluate

        statement = parse_sql(
            "select sid from t where sid in (select x from u)"
        )
        with pytest.raises(QueryError):
            evaluate(statement.where, {"sid": "a"})
