"""Parsers of untrusted text: arbitrary input is parsed or rejected with the
parser's own typed error, never a crash."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.htmlkit import parse_html
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
