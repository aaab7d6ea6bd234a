"""The SQL lexer: the only code that reads SQL characters.

One compiled token grammar turns a statement into a flat token stream.  The
recursive-descent parser consumes it, and :mod:`repro.sql.sqltext` derives
the plan-cache key and the ``?`` substitution from the same stream, so what
counts as a comment, a string or a placeholder is decided here once.  The
stream of the last text scanned is remembered, so a plan-cache miss -- key,
then parse, of one ``str`` object -- reads the characters once.
Keywords are case-insensitive; identifiers keep their original case (they
are matched case-sensitively against schema field names, which this
codebase keeps lowercase).  String literals use single quotes with ``''``
escaping; ``--`` starts a comment that runs to (not past) the newline.
"""

from __future__ import annotations

import re
from functools import partial
from typing import NamedTuple

from repro.core.errors import QueryError

KEYWORDS = frozenset(
    {
        "select", "from", "where", "join", "inner", "left", "outer", "on",
        "as", "and", "or",
        "not", "group", "by", "having", "order", "asc", "desc", "limit",
        "like", "in", "between", "contains", "is", "null", "true", "false",
        "distinct",
        # sqlite's reserved words for forms the dialect lacks: reserved, so
        # a statement using one is refused at the word, never read with it
        # as a name.  (``offset``, ``cast`` and ``end`` stay names, as
        # sqlite lets them be aliases.)
        "union", "except", "intersect", "case", "when", "then", "else",
        "exists",
    }
)


class SqlLexError(QueryError):
    """Raised when the query contains characters the lexer cannot consume."""


class Token(NamedTuple):
    kind: str  # "keyword" | "ident" | "number" | "string" | "punct" | "eof"
    value: str  # keywords lowercased, strings unquoted and unescaped
    position: int  # offset of the token's first character
    end: int  # offset one past its last: text[position:end] is the spelling


# Whatever separates tokens is consumed in front of the next one, so every
# match is one token and the matches tile the text: ``eof`` takes trailing
# whitespace and comments, ``bad`` is what no token starts with.  A string
# never ends at a quote that another follows, which leaves it one reading.
_TOKEN_RE = re.compile(
    r"""
    (?:\s+|--[^\n]*)*
    (?: (?P<word>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<punct><=|>=|<>|!=|[=<>(),*+\-/.?])
      | (?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
      | (?P<string>'[^']*(?:''[^']*)*'(?!'))
      | (?P<eof>\Z)
      | (?P<bad>.)
    )
    """,
    re.VERBOSE | re.DOTALL,
)
# The plan-cache key tokenizes every arriving statement, and a NamedTuple's
# generated ``__new__`` is a Python-level call around exactly this one.
_token = partial(tuple.__new__, Token)

# The last text scanned and its tokens.  Keyed by identity: holding the
# ``str`` keeps its id from being reused, and a token stream is a pure
# function of the text.
_last: tuple = (None, [])


def tokenize_sql(text: str) -> list[Token]:
    """Tokenize ``text``; always ends with an ``eof`` token.

    Called again with the same ``str`` object, it returns the same list
    without rescanning, so the list is read-only for every consumer.
    """
    global _last
    last_text, last_tokens = _last  # one read: another thread may replace it
    if text is last_text:
        return last_tokens
    tokens: list[Token] = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        value = match[kind]
        end = match.end()
        start = end - len(value)
        if kind == "word":
            kind = "ident"
            if value.lower() in KEYWORDS:
                kind, value = "keyword", value.lower()
        elif kind == "string":
            value = value[1:-1].replace("''", "'")
        elif kind == "bad":
            if value == "'":
                raise SqlLexError(f"unterminated string literal at offset {start}")
            raise SqlLexError(f"unexpected character {value!r} at offset {start}")
        tokens.append(_token((kind, value, start, end)))
        if kind == "eof":
            break
    _last = (text, tokens)
    return tokens
