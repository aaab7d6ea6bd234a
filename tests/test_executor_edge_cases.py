"""Edge-case tests for the distributed executor and SQL semantics."""

import pytest

from repro.connect.source import Predicate
from repro.core import DataType, Field, Money, Schema, Table
from repro.core.errors import QueryError
from repro.federation import FederatedEngine, FederationCatalog
from repro.sim import SimClock

from benchmarks.e2e.oracle import rows_match
from tests.sqlite_oracle import federation, sqlite_answer


def engine_for(schema, rows, fragments=2):
    clock = SimClock()
    catalog = FederationCatalog(clock)
    names = [catalog.make_site(f"s{i}").name for i in range(2)]
    placement = [[names[i % 2]] for i in range(fragments)]
    catalog.load_fragmented(Table(schema, rows, validate=False), fragments, placement)
    return FederatedEngine(catalog)


def parts_engine(rows):
    schema = Schema(
        "parts",
        (
            Field("sku", DataType.STRING),
            Field("price", DataType.FLOAT),
            Field("tag", DataType.STRING),
        ),
    )
    return engine_for(schema, rows)


class TestEmptyAndNullHandling:
    def test_empty_table_queries(self):
        engine = parts_engine([])
        assert len(engine.query("select * from parts").table) == 0
        assert engine.query("select count(*) as n from parts").table.to_dicts() == [
            {"n": 0}
        ]

    def test_aggregates_over_empty_groups(self):
        engine = parts_engine([])
        result = engine.query("select tag, count(*) as n from parts group by tag")
        assert len(result.table) == 0

    def test_sum_avg_of_all_nulls_is_null(self):
        engine = parts_engine([("a", None, "t"), ("b", None, "t")])
        result = engine.query(
            "select sum(price) as s, avg(price) as a, count(price) as c from parts"
        )
        assert result.table.to_dicts() == [{"s": None, "a": None, "c": 0}]

    def test_group_by_null_key(self):
        engine = parts_engine([("a", 1.0, None), ("b", 2.0, None), ("c", 3.0, "x")])
        result = engine.query(
            "select tag, count(*) as n from parts group by tag order by n desc"
        )
        assert result.table.to_dicts()[0] == {"tag": None, "n": 2}

    def test_order_by_nulls_first(self):
        engine = parts_engine([("a", 2.0, "t"), ("b", None, "t"), ("c", 1.0, "t")])
        result = engine.query("select sku from parts order by price")
        assert result.table.column("sku") == ["b", "c", "a"]

    def test_limit_zero(self):
        engine = parts_engine([("a", 1.0, "t")])
        assert len(engine.query("select * from parts limit 0").table) == 0

    def test_join_on_null_keys_never_matches(self):
        clock = SimClock()
        catalog = FederationCatalog(clock)
        catalog.make_site("s0")
        left = Table(
            Schema("l", (Field("k", DataType.STRING),)), [("x",), (None,)],
            validate=False,
        )
        right = Table(
            Schema("r", (Field("k2", DataType.STRING),)), [("x",), (None,)],
            validate=False,
        )
        catalog.load_fragmented(left, 1, [["s0"]])
        catalog.load_fragmented(right, 1, [["s0"]])
        engine = FederatedEngine(catalog)
        result = engine.query("select l.k from l join r on l.k = r.k2")
        assert result.table.column("k") == ["x"]

    @pytest.mark.parametrize("condition", ["v < {}", "v >= {}", "not (v >= {})"])
    def test_a_null_comparison_means_the_same_wherever_it_is_evaluated(
        self, condition
    ):
        """An inlined literal is pushed into the source and a ``?`` travels
        as a site filter: both run the column form of the comparison
        (``core.records.column_scan``), over the same resident layout.  An
        OR-ed or computed operand is left to ``evaluate``, the scalar form
        (``core.values.COMPARISONS``).  Two homes, one answer.  The inlined
        ``v < null`` used to raise ``cannot apply v < None``."""
        rows = [(i % 7, None if i % 5 == 0 else i) for i in range(40)]
        tables = {"items": (("k", "v"), rows)}
        engine = federation(tables)
        select = "select k, v from items where "
        inlined = select + condition.format("null")
        prepared = engine.prepare(select + condition.format("?"))
        answers = [
            engine.query(inlined).table.rows,
            engine.execute(prepared, (None,)).table.rows,
            engine.query(inlined + " or k > 100").table.rows,
            engine.query(select + condition.replace("v", "v + 0").format("null"))
            .table.rows,
        ]
        for answer in answers[1:]:
            assert rows_match(answer, answers[0], ordered=False)
        assert answers[0] == sqlite_answer(tables, inlined)[1] == []

    def test_a_hand_built_null_predicate_matches_nothing(self):
        # ``contains`` used to search for ``str(None)``.
        for op in ("contains", "<", "<=", ">", ">="):
            predicate = Predicate("k", op, None)
            assert not predicate.matches({"k": "none such"})
            assert not predicate.matches({"k": None})


class TestTypesAndExpressions:
    def test_money_values_flow_through(self):
        schema = Schema(
            "priced", (Field("sku", DataType.STRING), Field("cost", DataType.MONEY))
        )
        engine = engine_for(schema, [("a", Money(5.0, "USD")), ("b", Money(1.0, "USD"))])
        result = engine.query("select sku, cost from priced order by sku")
        assert result.table.column("cost")[0] == Money(5.0, "USD")
        assert result.table.schema.field_named("cost").dtype is DataType.MONEY

    def test_min_max_over_money(self):
        schema = Schema(
            "priced", (Field("sku", DataType.STRING), Field("cost", DataType.MONEY))
        )
        engine = engine_for(schema, [("a", Money(5.0, "USD")), ("b", Money(1.0, "USD"))])
        result = engine.query("select min(cost) as lo, max(cost) as hi from priced")
        assert result.table.to_dicts() == [
            {"lo": Money(1.0, "USD"), "hi": Money(5.0, "USD")}
        ]

    def test_expression_only_select(self):
        engine = parts_engine([("a", 2.0, "t")])
        result = engine.query("select price * 10 + 1 as x from parts")
        assert result.table.column("x") == [21.0]

    def test_duplicate_output_names_uniquified(self):
        engine = parts_engine([("a", 2.0, "t")])
        result = engine.query("select sku, sku from parts")
        assert result.table.schema.field_names == ("sku", "sku_2")

    def test_distinct_multiple_columns(self):
        engine = parts_engine(
            [("a", 1.0, "x"), ("a", 1.0, "x"), ("a", 2.0, "x")]
        )
        result = engine.query("select distinct sku, price from parts")
        assert len(result.table) == 2

    def test_having_with_avg(self):
        engine = parts_engine(
            [("a", 1.0, "x"), ("b", 9.0, "x"), ("c", 2.0, "y"), ("d", 2.0, "y")]
        )
        result = engine.query(
            "select tag, avg(price) as ap from parts group by tag "
            "having avg(price) > 3"
        )
        assert result.table.to_dicts() == [{"tag": "x", "ap": 5.0}]

    def test_order_by_alias(self):
        engine = parts_engine([("a", 3.0, "t"), ("b", 1.0, "t")])
        result = engine.query("select sku, price as p from parts order by p")
        assert result.table.column("sku") == ["b", "a"]

    def test_fuzzy_in_select_list(self):
        engine = parts_engine([("a", 1.0, "black ink")])
        result = engine.query("select fuzzy(tag, 'ink black') as score from parts")
        assert result.table.column("score")[0] == pytest.approx(1.0)


class TestErrorPaths:
    def test_unknown_column_in_where(self):
        engine = parts_engine([("a", 1.0, "t")])
        with pytest.raises(QueryError):
            engine.query("select sku from parts where ghost = 1")

    def test_unknown_column_in_select(self):
        engine = parts_engine([("a", 1.0, "t")])
        with pytest.raises(QueryError):
            engine.query("select ghost from parts")

    def test_type_confused_comparison(self):
        engine = parts_engine([("a", 1.0, "t")])
        with pytest.raises(QueryError):
            engine.query("select sku from parts where price > 'abc'")

    def test_type_confused_between_is_a_query_error(self):
        # BETWEEN is two comparisons, and its error is worded like ``<``'s,
        # not a bare TypeError.
        engine = parts_engine([("a", 1.0, "t")])
        with pytest.raises(QueryError, match="cannot compare"):
            engine.query("select sku from parts where price + 0 between 'a' and 5")

    def test_sum_star_rejected(self):
        engine = parts_engine([("a", 1.0, "t")])
        with pytest.raises(QueryError):
            engine.query("select sum(*) from parts")

    def test_aggregate_of_two_args_rejected(self):
        engine = parts_engine([("a", 1.0, "t")])
        with pytest.raises(QueryError):
            engine.query("select sum(price, price) from parts group by tag")
