"""Expression evaluation over row environments.

An *environment* maps column keys to values: a resolved column reads
``binding.name`` (``h.price``), an output column its bare name.  NULL
follows SQL's three-valued logic, with ``None`` as unknown: a comparison
with a NULL side is unknown (the one table of comparisons is
:data:`repro.core.values.COMPARISONS`), and so are IN, BETWEEN and LIKE of
a NULL operand; AND, OR and NOT are Kleene's; arithmetic with None yields
None, and ``IS NULL`` works as expected.  A filter keeps a row only where
its condition is true.

Scalar functions include the object-relational extensions of §4:
``fuzzy(a, b)`` returns :func:`repro.ir.fuzzy.combined_similarity` and
``match(column, query)`` is rewritten by the engine before evaluation (it
only appears here as a fallback substring check so local evaluation is still
meaningful).
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Any, Callable, Mapping

from repro.core.errors import QueryError
from repro.core.values import COMPARISONS
from repro.ir.fuzzy import combined_similarity
from repro.sql.ast import (
    Between,
    BinaryOp,
    Column,
    Expr,
    FuncCall,
    InList,
    InSubquery,
    Like,
    Literal,
    Parameter,
    Star,
    UnaryOp,
)

Env = Mapping[str, Any]


@lru_cache(maxsize=256)
def like_to_regex(pattern: str) -> "re.Pattern[str]":
    """Compile a SQL LIKE pattern (``%``/``_`` wildcards) to a regex.

    Memoised: ``evaluate`` asks once per row and a site filter once per
    fragment layout, always for the statement's one short pattern.
    """
    parts = []
    for char in pattern:
        if char == "%":
            parts.append(".*")
        elif char == "_":
            parts.append(".")
        else:
            parts.append(re.escape(char))
    return re.compile("".join(parts), re.IGNORECASE | re.DOTALL)


def _scalar_fuzzy(a: Any, b: Any) -> float:
    return combined_similarity(str(a or ""), str(b or ""))


def _scalar_match(value: Any, query: Any) -> bool:
    # Fallback behaviour when the engine has not rewritten MATCH into an IR
    # access path: case-insensitive all-terms containment.
    haystack = str(value or "").lower()
    return all(term in haystack for term in str(query or "").lower().split())


SCALAR_FUNCTIONS: dict[str, Callable[..., Any]] = {
    "upper": lambda v: None if v is None else str(v).upper(),
    "lower": lambda v: None if v is None else str(v).lower(),
    "length": lambda v: None if v is None else len(str(v)),
    "abs": lambda v: None if v is None else abs(v),
    "round": lambda v, digits=0: None if v is None else round(v, int(digits)),
    "coalesce": lambda *vs: next((v for v in vs if v is not None), None),
    "fuzzy": _scalar_fuzzy,
    "match": _scalar_match,
}


def evaluate(expr: Expr, env: Env) -> Any:
    """Evaluate ``expr`` against one row environment."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, Column):
        key = expr.key
        if key in env:
            return env[key]
        raise QueryError(f"unknown column {key!r}")
    if isinstance(expr, Star):
        raise QueryError("'*' is only valid in a SELECT list")
    if isinstance(expr, BinaryOp):
        return _binary(expr, env)
    if isinstance(expr, UnaryOp):
        return _unary(expr, env)
    if isinstance(expr, FuncCall):
        return _call(expr, env)
    if isinstance(expr, InList):
        # An OR of ``=`` over the items: true on a match, else unknown if
        # any ``=`` was.  No items (an empty subquery) is false.
        value = evaluate(expr.operand, env)
        hit = False
        for item in expr.items:
            equal = _compare("=", value, evaluate(item, env))
            if equal:
                hit = True
                break
            if equal is None:
                hit = None
        return _not(hit) if expr.negated else hit
    if isinstance(expr, Between):
        # ``low <= value AND value <= high``.
        value = evaluate(expr.operand, env)
        low = evaluate(expr.low, env)
        high = evaluate(expr.high, env)
        hit = _truth(_compare("<=", low, value))
        if hit is not False:  # true or unknown: the upper bound decides
            hit = _truth(_compare("<=", value, high)) and hit
        return _not(hit) if expr.negated else hit
    if isinstance(expr, Like):
        value = evaluate(expr.operand, env)
        if value is None:
            return None
        pattern = evaluate(expr.pattern, env)
        hit = like_to_regex(pattern).fullmatch(str(value)) is not None
        return hit != expr.negated
    if isinstance(expr, InSubquery):
        raise QueryError(
            "IN (SELECT ...) must be rewritten by the federated engine "
            "before row evaluation; evaluate() only sees closed expressions"
        )
    if isinstance(expr, Parameter):
        raise QueryError(
            f"unbound parameter ?{expr.index + 1}: a prepared statement was "
            "executed without binding its values"
        )
    raise QueryError(f"cannot evaluate expression {expr!r}")


def _binary(expr: BinaryOp, env: Env) -> Any:
    op = expr.op
    if op == "and" or op == "or":
        # A false side decides AND and a true side decides OR; the right
        # side is evaluated unless the left one decided.
        decisive = op == "or"
        left = _truth(evaluate(expr.left, env))
        if left is decisive:
            return decisive
        right = _truth(evaluate(expr.right, env))
        if right is decisive:
            return decisive
        return None if left is None or right is None else not decisive

    left = evaluate(expr.left, env)
    right = evaluate(expr.right, env)

    if op in COMPARISONS:
        return _compare(op, left, right)
    if op in ("+", "-", "*", "/"):
        if left is None or right is None:
            return None
        try:
            if op == "+":
                return left + right
            if op == "-":
                return left - right
            if op == "*":
                return left * right
            if right == 0:
                raise QueryError("division by zero")
            return left / right
        except TypeError as error:
            raise QueryError(
                f"bad arithmetic {left!r} {op} {right!r}: {error}"
            ) from error
    raise QueryError(f"unknown operator {op!r}")


def _compare(op: str, left: Any, right: Any) -> Any:
    try:
        return COMPARISONS[op](left, right)
    except TypeError as error:
        raise QueryError(f"cannot compare {left!r} {op} {right!r}: {error}") from error


def _truth(value: Any) -> bool | None:
    return None if value is None else bool(value)


def _not(value: Any) -> bool | None:
    return None if value is None else not value


def _unary(expr: UnaryOp, env: Env) -> Any:
    if expr.op == "not":
        return _not(evaluate(expr.operand, env))
    if expr.op == "-":
        value = evaluate(expr.operand, env)
        return None if value is None else -value
    if expr.op == "is-null":
        return evaluate(expr.operand, env) is None
    if expr.op == "is-not-null":
        return evaluate(expr.operand, env) is not None
    raise QueryError(f"unknown unary operator {expr.op!r}")


def _call(expr: FuncCall, env: Env) -> Any:
    if expr.star:
        raise QueryError(f"{expr.name}(*) is only valid as an aggregate")
    fn = SCALAR_FUNCTIONS.get(expr.name)
    if fn is None:
        raise QueryError(f"unknown function {expr.name!r}")
    args = [evaluate(arg, env) for arg in expr.args]
    return fn(*args)
