"""SQL text operations on the lexer's token stream.

What is done to a statement's text *before* it is parsed: the plan cache
computes its key, and an ad-hoc client (no template) substitutes literals
for its ``?`` placeholders.  Both read
:func:`repro.sql.lexer.tokenize_sql`'s tokens and nothing else, so a ``?``
inside a string literal or a ``--`` comment is not a placeholder because
the lexer never made it a token, and two texts share a key exactly when the
parser would see the same statement.  The key is computed first: a text that
then misses the plan cache is parsed from the tokens the key was built on
(the lexer remembers the last text it scanned), so it is scanned once.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.sql.lexer import Token, tokenize_sql


def _placeholders(sql: str) -> list[Token]:
    return [
        token
        for token in tokenize_sql(sql)
        if token.kind == "punct" and token.value == "?"
    ]


def replace_placeholders(sql: str, literals: Sequence[str]) -> str:
    """Replace the i-th ``?`` token with ``literals[i]``.

    Everything between the placeholders -- comments, spacing, string
    literals -- is copied through as spelled.  Raises :class:`ValueError`
    unless there is exactly one literal per placeholder.
    """
    slots = _placeholders(sql)
    if len(slots) != len(literals):
        raise ValueError(
            f"statement takes {len(slots)} parameter(s), got {len(literals)}"
        )
    pieces: list[str] = []
    copied = 0
    for slot, literal in zip(slots, literals):
        pieces += (sql[copied:slot.position], literal)
        copied = slot.end
    pieces.append(sql[copied:])
    return "".join(pieces)


# What may follow a whole ORDER BY / GROUP BY key: the next key, the
# list's end, a direction or the next clause.
_KEY_ENDS = frozenset({",", ")", "asc", "desc", "having", "order", "limit", "eof"})


def key_placeholders(sql: str) -> list[bool]:
    """Per ``?`` token: whether it stands as a whole ORDER BY or GROUP BY
    key, where an integer literal would read as an output position."""
    # Punctuation and keywords by their value, every other token by its kind.
    marks = [
        token.value if token.kind in ("punct", "keyword") else token.kind
        for token in tokenize_sql(sql)
    ]
    keys: list[bool] = []
    lists = [False]  # per parenthesis depth: inside an ORDER / GROUP BY list
    for before, mark, after in zip(["", *marks], marks, marks[1:]):
        if mark == "(":
            lists.append(False)
        elif mark == ")" and len(lists) > 1:
            lists.pop()
        elif mark in ("by", "having", "limit", "order"):
            lists[-1] = mark == "by"
        elif mark == "?":
            keys.append(lists[-1] and before in ("by", ",") and after in _KEY_ENDS)
    return keys


def render_literal(value) -> str:
    """Render a Python value as a SQL literal token.

    This is the one bindability rule: ``None``, bools, ints, finite floats
    and strings have a spelling in the grammar; anything else (``inf`` /
    ``nan``, bytes -- the dialect has no blob syntax -- or a type the
    engine was never told about) raises :class:`ValueError`, which each
    client facade maps to its own error class.
    """
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, int) or (isinstance(value, float) and math.isfinite(value)):
        return repr(value)
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    raise ValueError(
        f"cannot bind {type(value).__name__} value {value!r}: it has no SQL "
        "literal form"
    )


def normalize_sql(sql: str) -> str:
    """Canonical plan-cache key form of a statement.

    The tokens, single-spaced, folding exactly what the parser folds:
    keyword case, whitespace, comments, and the case of a function name (an
    identifier directly before ``(``).  Identifier and alias case, number
    spellings and string literals are semantic and kept as written.
    """
    tokens = tokenize_sql(sql)
    parts: list[str] = []
    for token, following in zip(tokens, tokens[1:]):
        if token.kind == "string":
            parts.append(sql[token.position:token.end])
        elif (
            token.kind == "ident"
            and following.kind == "punct"
            and following.value == "("
        ):
            parts.append(token.value.lower())
        else:
            parts.append(token.value)
    return " ".join(parts)
