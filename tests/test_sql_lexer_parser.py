"""Tests for the SQL lexer and parser."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sql import (
    Between,
    BinaryOp,
    Column,
    FuncCall,
    InList,
    Like,
    Literal,
    SqlLexError,
    SqlParseError,
    Star,
    UnaryOp,
    parse_sql,
    tokenize_sql,
)
from repro.sql.sqltext import normalize_sql, replace_placeholders


class TestLexer:
    def test_keywords_case_insensitive(self):
        tokens = tokenize_sql("SeLeCt * FrOm t")
        assert tokens[0].value == "select"
        assert tokens[0].kind == "keyword"

    def test_identifiers_keep_case(self):
        tokens = tokenize_sql("select Price from t")
        assert tokens[1].value == "Price"
        assert tokens[1].kind == "ident"

    def test_string_with_escaped_quote(self):
        tokens = tokenize_sql("select 'it''s' from t")
        assert tokens[1].value == "it's"

    def test_numbers(self):
        tokens = tokenize_sql("select 42, 3.14 from t")
        assert tokens[1].value == "42"
        assert tokens[3].value == "3.14"

    def test_two_char_operators(self):
        tokens = tokenize_sql("a <= b <> c >= d != e")
        values = [t.value for t in tokens if t.kind == "punct"]
        assert values == ["<=", "<>", ">=", "!="]

    def test_unterminated_string_rejected(self):
        with pytest.raises(SqlLexError):
            tokenize_sql("select 'oops from t")

    def test_bad_character_rejected(self):
        with pytest.raises(SqlLexError):
            tokenize_sql("select @ from t")

    def test_eof_token_always_present(self):
        assert tokenize_sql("")[-1].kind == "eof"

    def test_line_comment_skipped(self):
        tokens = tokenize_sql("select a -- the ? column\nfrom t")
        values = [t.value for t in tokens if t.kind != "eof"]
        assert values == ["select", "a", "from", "t"]

    def test_comment_at_end_of_text(self):
        tokens = tokenize_sql("select a from t -- trailing")
        assert [t.value for t in tokens if t.kind != "eof"] == [
            "select", "a", "from", "t",
        ]

    def test_minus_operator_not_a_comment(self):
        tokens = tokenize_sql("select a - b from t")
        assert ("punct", "-") in [(t.kind, t.value) for t in tokens]

    def test_double_dash_inside_string_kept(self):
        tokens = tokenize_sql("select '--not a comment' from t")
        assert tokens[1].kind == "string"
        assert tokens[1].value == "--not a comment"

    def test_commented_statement_parses(self):
        plan = parse_sql("select a from t where b = 1 -- why is this slow")
        assert plan is not None


# The E14 statement shapes (plus an aliased one with a string literal), as
# (kind, text) lexemes a client fleet may spell differently.
def _shape(text):
    kinds = {"count": "fn", "(": "p", ")": "p", "*": "p", ",": "p", "<": "p",
             "=": "p", "?": "p", "items": "id", "k": "id", "v": "id", "a": "id"}
    return [
        ("str", word[1:-1]) if word[0] == "'" else (kinds.get(word, "kw"), word)
        for word in text.split(" ")
    ]


SHAPES = [
    _shape("select count ( * ) from items where v < ?"),
    _shape("select k , v from items where v between ? and ?"),
    _shape("select v from items where k = ?"),
    _shape("select k from items where k like ?"),
    _shape("select k as a from items where k = 'it''s?k0001' and v < ?"),
]
SEPARATORS = ["", " ", "  \t", "\n", " -- is ? 'odd\n", "--\n"]


@st.composite
def spellings(draw, shape):
    """One way of writing ``shape``: keyword / function-name / identifier /
    string-literal case varied, lexemes separated by whitespace runs and
    comments holding decoy ``?`` and quotes."""
    text, previous = draw(st.sampled_from(SEPARATORS)), None
    for kind, word in shape:
        separator = draw(st.sampled_from(SEPARATORS))
        if previous in ("kw", "fn", "id") and kind in ("kw", "fn", "id"):
            separator = separator or " "
        cases = [word, word.upper()] + ([word.title()] if kind in ("kw", "fn") else [])
        written = draw(st.sampled_from(cases))
        if kind == "str":
            written = "'" + written.replace("'", "''") + "'"
        text += separator + written
        previous = kind
    return text + draw(st.sampled_from(SEPARATORS))


def parsers_view(text):
    """The token stream up to what the parser folds besides keyword case:
    the case of a function name."""
    tokens = tokenize_sql(text)
    return [
        (
            token.kind,
            token.value.lower()
            if token.kind == "ident" and (following.kind, following.value) == ("punct", "(")
            else token.value,
        )
        for token, following in zip(tokens, tokens[1:])
    ]


class TestPlanCacheKeyReadsTheLexersTokens:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_key_equal_iff_parser_sees_the_same_tokens(self, data):
        shape = data.draw(st.sampled_from(SHAPES))
        first = data.draw(spellings(shape))
        second = data.draw(spellings(shape))
        assert (normalize_sql(first) == normalize_sql(second)) == (
            parsers_view(first) == parsers_view(second)
        )
        for text in (first, second):
            slots = sum(lexeme == ("p", "?") for lexeme in shape)
            replace_placeholders(text, ["0"] * slots)  # raises unless one per slot
        if ("kw", "like") not in shape and normalize_sql(first) == normalize_sql(second):
            # What the key is for: one cached template serves both texts.
            assert parse_sql(first) == parse_sql(second)

    def test_different_shapes_never_share_a_key(self):
        keys = {normalize_sql(" ".join(word for _, word in shape)) for shape in SHAPES}
        assert len(keys) == len(SHAPES)


class TestAnArrivingStatementIsScannedOnce:
    """The plan-cache key and the parse of a miss share one lex."""

    @pytest.fixture
    def scans(self, monkeypatch):
        """Every text the lexer's grammar really scans (memo answers are
        not scans), from a memo that remembers nothing."""
        from repro.sql import lexer

        grammar, texts = lexer._TOKEN_RE, []

        class Counting:
            def finditer(self, text):
                texts.append(text)
                return grammar.finditer(text)

        monkeypatch.setattr(lexer, "_TOKEN_RE", Counting())
        monkeypatch.setattr(lexer, "_last", (None, []), raising=False)
        return texts

    def test_gateway_miss_then_hit_then_ad_hoc_query(self, scans):
        from repro.federation import Gateway, WorkloadManager
        from repro.sim import EventLoop
        from tests.test_federation_engine import make_engine

        engine = make_engine()
        manager = WorkloadManager(engine, EventLoop(engine.catalog.clock))
        session = Gateway(manager).connect()
        sql = "select sku from parts where price > ? order by sku"
        assert session.execute(sql, (50,)).rows == [("A-3",), ("A-4",)]
        assert scans == [sql]  # the miss: key and parse
        scans.clear()
        assert session.execute(sql, (100,)).rows == [("A-4",)]
        assert scans == []  # the hit
        ad_hoc = "select sku from parts where price < 1"
        assert engine.query(ad_hoc).table.rows == [("A-5",)]
        assert scans == [ad_hoc]


class TestParserBasics:
    def test_select_star(self):
        statement = parse_sql("select * from parts")
        assert isinstance(statement.items[0].expr, Star)
        assert statement.table.name == "parts"

    def test_qualified_star(self):
        statement = parse_sql("select p.* from parts p")
        star = statement.items[0].expr
        assert isinstance(star, Star)
        assert star.qualifier == "p"

    def test_column_list_with_aliases(self):
        statement = parse_sql("select sku, name as part_name, price total from parts")
        assert statement.items[0].alias is None
        assert statement.items[1].alias == "part_name"
        assert statement.items[2].alias == "total"

    def test_table_alias(self):
        statement = parse_sql("select * from parts as p")
        assert statement.table.binding == "p"
        statement2 = parse_sql("select * from parts p")
        assert statement2.table.binding == "p"

    def test_distinct(self):
        assert parse_sql("select distinct sku from parts").distinct

    def test_join_on(self):
        statement = parse_sql(
            "select * from parts p join suppliers s on p.supplier_id = s.id"
        )
        assert len(statement.joins) == 1
        join = statement.joins[0]
        assert join.table.binding == "s"
        assert isinstance(join.condition, BinaryOp)

    def test_inner_join_keyword(self):
        statement = parse_sql("select * from a inner join b on a.x = b.x")
        assert len(statement.joins) == 1

    def test_multiple_joins(self):
        statement = parse_sql(
            "select * from a join b on a.x = b.x join c on b.y = c.y"
        )
        assert len(statement.joins) == 2

    def test_group_by_having(self):
        statement = parse_sql(
            "select sku, count(*) as n from parts group by sku having count(*) > 1"
        )
        assert len(statement.group_by) == 1
        assert statement.having is not None

    def test_order_by_and_limit(self):
        statement = parse_sql("select * from parts order by price desc, sku limit 5")
        assert statement.order_by[0].descending
        assert not statement.order_by[1].descending
        assert statement.limit == Literal(5)

    def test_limit_requires_integer(self):
        with pytest.raises(SqlParseError):
            parse_sql("select * from t limit 1.5")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SqlParseError):
            parse_sql("select * from t banana split extra")

    @pytest.mark.parametrize(
        "bad",
        ["", "select", "select from t", "select * from", "select * t",
         "select * from t where", "select * from t join x"],
    )
    def test_malformed_statements_rejected(self, bad):
        with pytest.raises(SqlParseError):
            parse_sql(bad)


class TestParserExpressions:
    def where(self, text):
        return parse_sql(f"select * from t where {text}").where

    def test_comparison(self):
        expr = self.where("price > 10")
        assert isinstance(expr, BinaryOp)
        assert expr.op == ">"
        assert expr.left == Column("price")
        assert expr.right == Literal(10)

    def test_diamond_normalized_to_bang_equals(self):
        assert self.where("a <> 1").op == "!="

    def test_and_or_precedence(self):
        expr = self.where("a = 1 or b = 2 and c = 3")
        assert expr.op == "or"
        assert expr.right.op == "and"

    def test_not(self):
        # NOT is pushed down to the atoms as it is parsed.
        assert self.where("not a = 1") == BinaryOp("!=", Column("a"), Literal(1))
        assert self.where("not (a < 1 or b is null)") == BinaryOp(
            "and",
            BinaryOp(">=", Column("a"), Literal(1)),
            UnaryOp("is-not-null", Column("b")),
        )
        assert self.where("not a in (1)").negated
        expr = self.where("not match(a, 'x')")
        assert isinstance(expr, UnaryOp) and expr.op == "not"

    def test_parentheses_override(self):
        expr = self.where("(a = 1 or b = 2) and c = 3")
        assert expr.op == "and"
        assert expr.left.op == "or"

    def test_arithmetic_precedence(self):
        expr = self.where("a + b * 2 > 10")
        assert expr.left.op == "+"
        assert expr.left.right.op == "*"

    def test_like(self):
        expr = self.where("name like '%ink%'")
        assert isinstance(expr, Like)
        assert expr.pattern == Literal("%ink%")

    def test_not_like(self):
        assert self.where("name not like 'x%'").negated

    def test_like_needs_string(self):
        with pytest.raises(SqlParseError):
            self.where("name like 5")

    def test_in_list(self):
        expr = self.where("sku in ('A-1', 'A-2')")
        assert isinstance(expr, InList)
        assert len(expr.items) == 2

    def test_not_in(self):
        assert self.where("sku not in ('A-1')").negated

    def test_between(self):
        expr = self.where("price between 1 and 10")
        assert isinstance(expr, Between)
        assert expr.low == Literal(1)

    def test_is_null_and_is_not_null(self):
        assert self.where("x is null").op == "is-null"
        assert self.where("x is not null").op == "is-not-null"

    def test_contains(self):
        expr = self.where("description contains 'ink'")
        assert expr.op == "contains"

    def test_function_call(self):
        expr = self.where("fuzzy(name, 'black ink') > 0.8")
        assert isinstance(expr.left, FuncCall)
        assert expr.left.name == "fuzzy"
        assert len(expr.left.args) == 2

    def test_count_star(self):
        statement = parse_sql("select count(*) from t")
        call = statement.items[0].expr
        assert call.star

    def test_qualified_column(self):
        expr = self.where("p.price = 1")
        assert expr.left == Column("price", qualifier="p")

    def test_negative_literal(self):
        expr = self.where("x = -5")
        assert isinstance(expr.right, UnaryOp)

    def test_boolean_and_null_literals(self):
        assert self.where("x = true").right == Literal(True)
        assert self.where("x = null").right == Literal(None)

    def test_string_literal(self):
        assert self.where("x = 'hello'").right == Literal("hello")
