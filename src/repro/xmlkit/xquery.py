"""An XQuery FLWOR subset.

§3.2 C6: "in short order this will also require support for emerging
XML-based query access like XQuery [2]" -- the paper's "tomorrow".  This
module implements the core FLWOR shape over the xmlkit document model::

    for $h in //row
    where $h/rooms_available > 0 and contains($h/name, 'Hotel')
    order by $h/corporate_rate
    return <offer id="{$h/hotel_id/text()}">{$h/corporate_rate/text()}</offer>

Supported:

* one ``for`` variable bound over an XPath-subset path;
* ``where`` with ``and`` / ``or``, comparisons (``= != < <= > >=``) between
  bound-variable paths and literals (numeric comparison when both sides
  parse as numbers), and ``contains(path, 'text')``;
* ``order by <path> [descending]``;
* a ``return`` element constructor with ``{...}`` holes evaluating paths
  relative to the bound variable (attribute and content positions both
  work).

Deliberately out of scope (tracked in DESIGN.md): multiple ``for``/``let``
clauses, nested FLWOR, and function definitions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.xmlkit.model import XmlElement, xml_escape
from repro.xmlkit.parser import parse_xml
from repro.xmlkit.xpath import XPathError, xpath


class XQueryError(Exception):
    """Raised on queries outside the supported subset."""


_FLWOR_RE = re.compile(
    r"^\s*for\s+\$(?P<var>\w+)\s+in\s+(?P<path>\S+)"
    r"(?:\s+where\s+(?P<where>.*?))?"
    r"(?:\s+order\s+by\s+(?P<order>\$\S+)(?P<desc>\s+descending)?)?"
    r"\s+return\s+(?P<template><.*>)\s*$",
    re.DOTALL,
)


@dataclass
class _Flwor:
    var: str
    path: str
    where: str | None
    order: str | None
    order_descending: bool
    template: str


def _parse(query: str) -> _Flwor:
    match = _FLWOR_RE.match(query)
    if not match:
        raise XQueryError(
            "query must have the shape: for $v in <path> [where ...] "
            "[order by $v/... [descending]] return <element...>"
        )
    return _Flwor(
        var=match.group("var"),
        path=match.group("path"),
        where=match.group("where"),
        order=match.group("order"),
        order_descending=bool(match.group("desc")),
        template=match.group("template"),
    )


def _value_of(item: XmlElement, var: str, expr: str):
    """Evaluate ``$var/relative/path`` (or a literal) against one binding."""
    expr = expr.strip()
    if expr.startswith("'") and expr.endswith("'"):
        return expr[1:-1]
    if expr.startswith('"') and expr.endswith('"'):
        return expr[1:-1]
    if re.fullmatch(r"-?\d+(\.\d+)?", expr):
        return float(expr)
    if not expr.startswith(f"${var}"):
        raise XQueryError(f"unknown expression {expr!r} (expected ${var}/... or a literal)")
    rest = expr[len(var) + 1:]
    if rest.startswith("/"):
        rest = rest[1:]
    if not rest:
        return item.get_text(strip=False)
    try:
        results = xpath(item, rest)
    except XPathError as error:
        raise XQueryError(f"bad path in {expr!r}: {error}") from error
    if not results:
        return None
    first = results[0]
    return first if isinstance(first, str) else first.get_text(strip=False)


def _coerce_pair(a, b):
    """Compare numerically when both sides look numeric."""
    def as_number(value):
        if isinstance(value, (int, float)):
            return float(value)
        if isinstance(value, str):
            try:
                return float(value)
            except ValueError:
                return None
        return None

    na, nb = as_number(a), as_number(b)
    if na is not None and nb is not None:
        return na, nb
    return (None if a is None else str(a)), (None if b is None else str(b))


_COMPARE_RE = re.compile(
    r"^(?P<left>.+?)\s*(?P<op>!=|<=|>=|=|<|>)\s*(?P<right>.+)$"
)
_CONTAINS_RE = re.compile(r"^contains\(\s*(?P<left>[^,]+)\s*,\s*(?P<right>.+)\s*\)$")


def _eval_condition(item: XmlElement, var: str, text: str) -> bool:
    text = text.strip()
    # or has lowest precedence, then and.
    or_parts = _split_logical(text, " or ")
    if len(or_parts) > 1:
        return any(_eval_condition(item, var, part) for part in or_parts)
    and_parts = _split_logical(text, " and ")
    if len(and_parts) > 1:
        return all(_eval_condition(item, var, part) for part in and_parts)
    if text.startswith("(") and text.endswith(")"):
        return _eval_condition(item, var, text[1:-1])

    contains = _CONTAINS_RE.match(text)
    if contains:
        left = _value_of(item, var, contains.group("left"))
        right = _value_of(item, var, contains.group("right"))
        return left is not None and str(right) in str(left)

    comparison = _COMPARE_RE.match(text)
    if not comparison:
        raise XQueryError(f"cannot parse condition {text!r}")
    left = _value_of(item, var, comparison.group("left"))
    right = _value_of(item, var, comparison.group("right"))
    op = comparison.group("op")
    if left is None or right is None:
        return op == "!=" and (left is None) != (right is None)
    left, right = _coerce_pair(left, right)
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    return left >= right


def _split_logical(text: str, separator: str) -> list[str]:
    """Split on a logical keyword, respecting quotes and parentheses."""
    parts = []
    depth = 0
    quote = None
    start = 0
    i = 0
    while i < len(text):
        char = text[i]
        if quote:
            if char == quote:
                quote = None
        elif char in "'\"":
            quote = char
        elif char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
        elif depth == 0 and quote is None and text[i:i + len(separator)] == separator:
            parts.append(text[start:i])
            i += len(separator)
            start = i
            continue
        i += 1
    parts.append(text[start:])
    return parts


_HOLE_RE = re.compile(r"\{([^{}]+)\}")


def _render_template(item: XmlElement, var: str, template: str) -> XmlElement:
    """Fill ``{...}`` holes with escaped values, then parse strictly."""

    def fill(match: re.Match[str]) -> str:
        value = _value_of(item, var, match.group(1))
        return xml_escape("" if value is None else str(value), quote=True)

    markup = _HOLE_RE.sub(fill, template)
    if "{" in markup or "}" in markup:
        raise XQueryError(
            "return template has an unclosed or malformed {...} hole"
        )
    try:
        return parse_xml(markup)
    except Exception as error:
        raise XQueryError(
            f"return template did not produce well-formed XML: {error}"
        ) from error


def xquery(root: XmlElement, query: str) -> list[XmlElement]:
    """Evaluate a FLWOR query against a document; returns constructed elements."""
    flwor = _parse(query)
    try:
        bindings = [e for e in xpath(root, flwor.path) if isinstance(e, XmlElement)]
    except XPathError as error:
        raise XQueryError(f"bad for-path {flwor.path!r}: {error}") from error

    if flwor.where:
        bindings = [
            item for item in bindings
            if _eval_condition(item, flwor.var, flwor.where)
        ]
    if flwor.order:
        def sort_key(item: XmlElement):
            value = _value_of(item, flwor.var, flwor.order)
            try:
                return (0, float(value))
            except (TypeError, ValueError):
                return (1, "" if value is None else str(value))

        bindings.sort(key=sort_key, reverse=flwor.order_descending)

    return [_render_template(item, flwor.var, flwor.template) for item in bindings]
