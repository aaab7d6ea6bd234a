"""Tests for SQL expression evaluation and logical planning."""

import pytest

from repro.core.errors import QueryError
from repro.sql import (
    AggregateNode,
    FilterNode,
    JoinNode,
    LimitNode,
    ProjectNode,
    ScanNode,
    SortNode,
    build_plan,
    evaluate,
    parse_sql,
)
from repro.sql.expressions import like_to_regex
from repro.sql.planner import scans_in, split_conjuncts


def expr_of(text):
    return parse_sql(f"select * from t where {text}").where


def check(text, env, expected):
    assert evaluate(expr_of(text), env) == expected


class TestEvaluation:
    def test_comparisons(self):
        check("a > 1", {"a": 2}, True)
        check("a <= 1", {"a": 2}, False)
        check("a = 'x'", {"a": "x"}, True)
        check("a != 'x'", {"a": "y"}, True)

    def test_null_comparisons_are_unknown(self):
        for text in ("a > 1", "a = 1", "a != 1", "not a = 1", "1 < a"):
            assert evaluate(expr_of(text), {"a": None}) is None, text

    def test_null_equality_with_null_literal(self):
        # NULL = NULL is unknown, not true; IS NULL is how to ask.
        assert evaluate(expr_of("a = null"), {"a": None}) is None
        assert evaluate(expr_of("a != null"), {"a": 1}) is None

    def test_is_null(self):
        check("a is null", {"a": None}, True)
        check("a is not null", {"a": None}, False)

    def test_boolean_connectives(self):
        env = {"a": 1, "b": 2}
        check("a = 1 and b = 2", env, True)
        check("a = 1 and b = 3", env, False)
        check("a = 9 or b = 2", env, True)
        check("not a = 9", env, True)

    def test_arithmetic(self):
        check("a + b * 2 = 5", {"a": 1, "b": 2}, True)
        check("a / 2 = 3", {"a": 6}, True)

    def test_arithmetic_with_null_is_null(self):
        assert evaluate(expr_of("a + 1 = 2"), {"a": None}) is None

    def test_division_by_zero_rejected(self):
        with pytest.raises(QueryError):
            evaluate(expr_of("1 / a = 1"), {"a": 0})

    def test_like(self):
        check("name like '%ink%'", {"name": "black ink 30ml"}, True)
        check("name like 'black%'", {"name": "black ink"}, True)
        check("name like 'b_ack%'", {"name": "black ink"}, True)
        check("name like 'ink'", {"name": "black ink"}, False)
        check("name not like '%ink%'", {"name": "drill"}, True)

    def test_like_is_case_insensitive(self):
        check("name like '%INK%'", {"name": "Black Ink"}, True)

    def test_like_escapes_regex_chars(self):
        assert like_to_regex("a.b").fullmatch("a.b")
        assert not like_to_regex("a.b").fullmatch("axb")

    def test_in_and_between(self):
        check("sku in ('A', 'B')", {"sku": "B"}, True)
        check("sku not in ('A')", {"sku": "B"}, True)
        check("p between 1 and 10", {"p": 5}, True)
        check("p not between 1 and 10", {"p": 50}, True)

    def test_contains(self):
        check("d contains 'Fine Widget'", {"d": "a fine widget indeed"}, True)
        assert evaluate(expr_of("d contains 'x'"), {"d": None}) is None

    def test_scalar_functions(self):
        check("upper(name) = 'INK'", {"name": "ink"}, True)
        check("length(name) = 3", {"name": "ink"}, True)
        check("coalesce(a, b, 9) = 9", {"a": None, "b": None}, True)
        check("round(p, 1) = 2.5", {"p": 2.45}, True)
        check("abs(x) = 4", {"x": -4}, True)

    def test_fuzzy_function(self):
        check("fuzzy(name, 'black ink') > 0.9", {"name": "ink, black"}, True)
        check("fuzzy(name, 'black ink') > 0.9", {"name": "steel beam"}, False)

    def test_match_function_fallback(self):
        check("match(d, 'fine widget')", {"d": "a fine widget"}, True)
        check("match(d, 'fine widget')", {"d": "a coarse widget"}, False)

    def test_qualified_env_lookup(self):
        check("p.x = 1", {"p.x": 1}, True)

    def test_unqualified_falls_back(self):
        check("x = 1", {"x": 1}, True)

    def test_unknown_column_raises(self):
        with pytest.raises(QueryError):
            evaluate(expr_of("ghost = 1"), {"a": 1})

    def test_unknown_function_raises(self):
        with pytest.raises(QueryError):
            evaluate(expr_of("nope(a) = 1"), {"a": 1})


FIELDS = {
    "p": {"sku", "name", "price", "supplier_id"},
    "s": {"id", "supplier", "country"},
}


class TestPlanner:
    def test_simple_select_plan_shape(self):
        plan = build_plan(parse_sql("select sku from parts p"), FIELDS)
        assert isinstance(plan, ProjectNode)
        assert isinstance(plan.child, ScanNode)

    def test_pushable_predicate_lands_on_scan(self):
        plan = build_plan(
            parse_sql("select sku from parts p where price > 10"), FIELDS
        )
        scan = scans_in(plan)[0]
        assert len(scan.pushdown) == 1
        assert scan.pushdown[0].column == "price"
        assert scan.pushdown[0].op == ">"
        assert not isinstance(plan.child, FilterNode)

    def test_flipped_literal_comparison_pushes(self):
        plan = build_plan(parse_sql("select sku from parts p where 10 < price"), FIELDS)
        assert scans_in(plan)[0].pushdown[0].op == ">"

    def test_unpushable_predicate_stays_residual(self):
        plan = build_plan(
            parse_sql("select sku from parts p where price > 10 or sku = 'A'"),
            FIELDS,
        )
        assert scans_in(plan)[0].pushdown == []
        assert isinstance(plan.child, FilterNode)

    def test_mixed_conjuncts_split(self):
        plan = build_plan(
            parse_sql(
                "select sku from parts p where price > 10 and length(name) > 3"
            ),
            FIELDS,
        )
        assert len(scans_in(plan)[0].pushdown) == 1
        assert isinstance(plan.child, FilterNode)

    def test_join_plan(self):
        plan = build_plan(
            parse_sql(
                "select p.sku, s.supplier from parts p "
                "join suppliers s on p.supplier_id = s.id "
                "where s.country = 'FR' and p.price < 5"
            ),
            FIELDS,
        )
        scans = {s.binding: s for s in scans_in(plan)}
        assert scans["s"].pushdown[0].column == "country"
        assert scans["p"].pushdown[0].column == "price"
        assert isinstance(plan, ProjectNode)
        assert isinstance(plan.child, JoinNode)

    def test_ambiguous_unqualified_column_not_pushed(self):
        fields = {"a": {"x"}, "b": {"x"}}
        plan = build_plan(
            parse_sql("select * from a join b on a.x = b.x where x = 1"), fields
        )
        assert all(not s.pushdown for s in scans_in(plan))

    def test_without_binding_fields_nothing_pushed(self):
        plan = build_plan(parse_sql("select sku from parts p where price > 1"))
        assert scans_in(plan)[0].pushdown == []
        assert isinstance(plan.child, FilterNode)

    def test_aggregate_plan(self):
        plan = build_plan(
            parse_sql(
                "select supplier_id, count(*) as n from parts p "
                "group by supplier_id having count(*) > 2 order by n desc limit 3"
            ),
            FIELDS,
        )
        assert isinstance(plan, LimitNode)
        assert isinstance(plan.child, SortNode)
        assert isinstance(plan.child.child, AggregateNode)

    def test_ungrouped_select_item_rejected(self):
        with pytest.raises(QueryError):
            build_plan(
                parse_sql("select name, count(*) from parts p group by supplier_id"),
                FIELDS,
            )

    def test_star_with_aggregate_rejected(self):
        with pytest.raises(QueryError):
            build_plan(parse_sql("select * from p group by x"), {"p": {"x"}})

    def test_having_without_group_rejected(self):
        statement = parse_sql("select sku from parts p where price > 1")
        statement.having = statement.where
        with pytest.raises(QueryError):
            build_plan(statement, FIELDS)

    def test_duplicate_binding_rejected(self):
        with pytest.raises(QueryError):
            build_plan(parse_sql("select * from a join a on a.x = a.x"), {"a": {"x"}})

    def test_split_conjuncts(self):
        where = parse_sql("select * from t where a = 1 and b = 2 and c = 3").where
        assert len(split_conjuncts(where)) == 3
        assert split_conjuncts(None) == []
