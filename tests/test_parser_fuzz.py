"""Parsers of untrusted text: arbitrary input is parsed or rejected with the
parser's own typed error, never a crash; and what the SQL parser stamps on a
statement matches what a walk of its tree finds."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.htmlkit import parse_html
from repro.sql.ast import InSubquery, Parameter, walk
from repro.sql.lexer import SqlLexError, tokenize_sql


class TestParserRobustness:
    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=200))
    def test_html_parser_never_raises(self, markup):
        document = parse_html(markup)
        assert document.tag == "document"

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=120))
    def test_sql_lexer_raises_only_its_own_error(self, text):
        try:
            tokens = tokenize_sql(text)
            assert tokens[-1].kind == "eof"
        except SqlLexError:
            pass

    @settings(max_examples=150, deadline=None)
    @given(st.text(max_size=120))
    def test_sql_parser_raises_only_its_own_errors(self, text):
        from repro.sql import SqlParseError, parse_sql

        try:
            parse_sql(text)
        except (SqlLexError, SqlParseError):
            pass

    @settings(max_examples=100, deadline=None)
    @given(st.text(max_size=150))
    def test_xml_parser_raises_only_its_own_error(self, markup):
        from repro.xmlkit import XmlParseError, parse_xml

        try:
            parse_xml(markup)
        except XmlParseError:
            pass


# A grammar of statements with ``?`` wherever the parser takes a literal
# token, NOT around BETWEEN / IN / LIKE, and IN (SELECT ...) nested in any
# predicate position.
OPERANDS = st.sampled_from(["?", "a", "b", "7", "'x'", "null", "a + ?", "-?"])
PATTERNS = st.sampled_from(["?", "'x%'"])
COMPARISONS = st.sampled_from(["=", "<>", "<", ">="])


@st.composite
def predicates(draw, depth):
    kinds = ["cmp", "like", "between", "in", "null", "not", "and", "or"]
    kind = draw(st.sampled_from(kinds + ["select"] * (depth > 0)))
    left, right = draw(OPERANDS), draw(OPERANDS)
    negated = draw(st.sampled_from(["", "not "]))
    if kind == "cmp":
        return f"{left} {draw(COMPARISONS)} {right}"
    if kind == "like":
        return f"{left} {negated}like {draw(PATTERNS)}"
    if kind == "between":
        return f"{left} {negated}between {right} and {draw(OPERANDS)}"
    if kind == "in":
        return f"{left} {negated}in ({right}, {draw(OPERANDS)})"
    if kind == "null":
        return f"{left} is {negated}null"
    if kind == "select":
        return f"{left} {negated}in ({draw(statements(depth - 1))})"
    inner = draw(predicates(max(depth - 1, 0)))
    if kind == "not":
        return f"not ({inner})"
    return f"({inner}) {kind} ({draw(predicates(max(depth - 1, 0)))})"


@st.composite
def statements(draw, depth=2):
    sql = f"select {draw(OPERANDS)}, a from t"
    if draw(st.booleans()):
        sql += f" where {draw(predicates(depth))}"
    if draw(st.booleans()):
        sql += f" group by a having {draw(predicates(depth))}"
    if draw(st.booleans()):
        sql += f" order by {draw(OPERANDS)}"
    return sql + draw(st.sampled_from(["", " limit ?", " limit 3"]))


def scope_exprs(statement):
    """Every expression node of ``statement``'s own scope."""
    exprs = [item.expr for item in statement.items]
    exprs += [join.condition for join in statement.joins]
    exprs += [statement.where, *statement.group_by, statement.having]
    exprs += [order.expr for order in statement.order_by] + [statement.limit]
    return [node for expr in exprs if expr is not None for node in walk(expr)]


def walked_parameters(statement):
    """Indices of the ``?`` in ``statement`` and its inner selects."""
    indices = set()
    for node in scope_exprs(statement):
        if isinstance(node, Parameter):
            indices.add(node.index)
        elif isinstance(node, InSubquery):
            indices |= walked_parameters(node.subquery)
    return indices


def all_statements(statement):
    yield statement
    for node in scope_exprs(statement):
        if isinstance(node, InSubquery):
            yield from all_statements(node.subquery)


class TestParserFigures:
    @settings(max_examples=300, deadline=None)
    @given(statements())
    def test_stamps_match_a_tree_walk(self, sql):
        from repro.sql import parse_sql

        outer = parse_sql(sql)
        assert outer.parameter_count == sql.count("?")
        for statement in all_statements(outer):
            assert statement.parameter_count == len(walked_parameters(statement))
            assert statement.has_subqueries == any(
                isinstance(node, InSubquery) for node in scope_exprs(statement)
            )
