"""An XPath 1.0 subset evaluator.

This is the query surface Characteristic 6 demands "in the meantime" before
XQuery: the federation engine exposes integrated content as XML views and
answers XPath over them (see
:meth:`repro.federation.engine.FederatedEngine.xpath_query`).

Supported grammar::

    path       := '/'? step ('/' step | '//' step)*  |  '//' step ...
    step       := axis? nodetest predicate*
    nodetest   := NAME | '*' | 'text()' | '@' NAME | '.' | '..'
    predicate  := '[' INTEGER ']'                     (1-based position)
                | '[' '@' NAME ']'                    (attribute exists)
                | '[' '@' NAME '=' literal ']'
                | '[' NAME ']'                        (has child element)
                | '[' NAME '=' literal ']'            (child text equals)
                | '[' 'text()' '=' literal ']'
                | '[' 'contains(' (('@' NAME) | 'text()' | NAME) ',' literal ')' ']'
                | '[' 'last()' ']'

``//`` selects descendants, and the root too when the path starts with it.
A step's predicates, positional ones included, apply to each parent's
matches in turn.  Results are element lists, or string lists when the final
step is ``@attr`` or ``text()``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.xmlkit.model import XmlElement


class XPathError(Exception):
    """Raised on a path this subset cannot parse."""


@dataclass
class _Step:
    descendant: bool  # came after '//'
    test: str  # element name, '*', 'text()', '@name', '.', '..'
    predicates: list["_Predicate"] = field(default_factory=list)


@dataclass
class _Predicate:
    kind: str  # 'position', 'last', 'attr-exists', 'attr-eq', 'child-exists',
    #            'child-eq', 'text-eq', 'contains-attr', 'contains-text',
    #            'contains-child'
    name: str = ""
    value: str = ""
    position: int = 0


_PREDICATE_RES = [
    ("position", re.compile(r"^(\d+)$")),
    ("last", re.compile(r"^last\(\)$")),
    ("attr-eq", re.compile(r"^@([\w:.-]+)\s*=\s*(?:'([^']*)'|\"([^\"]*)\")$")),
    ("attr-exists", re.compile(r"^@([\w:.-]+)$")),
    ("text-eq", re.compile(r"^text\(\)\s*=\s*(?:'([^']*)'|\"([^\"]*)\")$")),
    (
        "contains-attr",
        re.compile(r"^contains\(\s*@([\w:.-]+)\s*,\s*(?:'([^']*)'|\"([^\"]*)\")\s*\)$"),
    ),
    (
        "contains-text",
        re.compile(r"^contains\(\s*text\(\)\s*,\s*(?:'([^']*)'|\"([^\"]*)\")\s*\)$"),
    ),
    (
        "contains-child",
        re.compile(r"^contains\(\s*([\w:.-]+)\s*,\s*(?:'([^']*)'|\"([^\"]*)\")\s*\)$"),
    ),
    ("child-eq", re.compile(r"^([\w:.-]+)\s*=\s*(?:'([^']*)'|\"([^\"]*)\")$")),
    ("child-exists", re.compile(r"^([\w:.-]+)$")),
]


def _parse_predicate(text: str) -> _Predicate:
    text = text.strip()
    for kind, pattern in _PREDICATE_RES:
        match = pattern.match(text)
        if not match:
            continue
        if kind == "position":
            return _Predicate("position", position=int(match.group(1)))
        if kind == "last":
            return _Predicate("last")
        if kind in ("attr-exists", "child-exists"):
            return _Predicate(kind, name=match.group(1))
        groups = match.groups()
        if kind in ("text-eq", "contains-text"):
            # Two capture groups: the single- and double-quoted literal.
            value = groups[0] if groups[0] is not None else groups[1]
            return _Predicate(kind, value=value)
        value = groups[1] if groups[1] is not None else groups[2]
        return _Predicate(kind, name=groups[0], value=value)
    raise XPathError(f"unsupported predicate [{text}]")


def _parse_path(path: str) -> list[_Step]:
    if not path or path in ("/", "//"):
        raise XPathError(f"empty path {path!r}")
    steps: list[_Step] = []
    position = 0
    descendant = False
    if path.startswith("//"):
        descendant = True
        position = 2
    elif path.startswith("/"):
        position = 1

    length = len(path)
    while position < length:
        # Read node test up to '/', '[' boundary.
        test_match = re.match(r"(text\(\)|\.\.|@[\w:.-]+|[\w:-]+|\*|\.)", path[position:])
        if not test_match:
            raise XPathError(f"cannot parse step at {path[position:]!r}")
        test = test_match.group(0)
        position += test_match.end()

        predicates: list[_Predicate] = []
        while position < length and path[position] == "[":
            end = path.find("]", position)
            if end == -1:
                raise XPathError(f"unterminated predicate in {path!r}")
            predicates.append(_parse_predicate(path[position + 1:end]))
            position = end + 1

        steps.append(_Step(descendant, test, predicates))

        if position >= length:
            break
        if path.startswith("//", position):
            descendant = True
            position += 2
        elif path.startswith("/", position):
            descendant = False
            position += 1
        else:
            raise XPathError(f"unexpected character at {path[position:]!r}")
    return steps


def _element_matches(element: XmlElement, predicate: _Predicate) -> bool:
    if predicate.kind == "attr-exists":
        return predicate.name in element.attrs
    if predicate.kind == "attr-eq":
        return element.attrs.get(predicate.name) == predicate.value
    if predicate.kind == "child-exists":
        return element.first(predicate.name) is not None
    if predicate.kind == "child-eq":
        return any(
            child.get_text(strip=False) == predicate.value
            for child in element.child_elements(predicate.name)
        )
    if predicate.kind == "text-eq":
        return element.get_text(strip=False) == predicate.value
    if predicate.kind == "contains-attr":
        value = element.attrs.get(predicate.name)
        return value is not None and predicate.value in value
    if predicate.kind == "contains-text":
        return predicate.value in element.get_text(strip=False)
    if predicate.kind == "contains-child":
        return any(
            predicate.value in child.get_text(strip=False)
            for child in element.child_elements(predicate.name)
        )
    raise AssertionError(f"positional predicate {predicate.kind} handled elsewhere")


def _apply_predicates(candidates: list[XmlElement], predicates: list[_Predicate]) -> list[XmlElement]:
    current = candidates
    for predicate in predicates:
        if predicate.kind == "position":
            index = predicate.position - 1
            current = [current[index]] if 0 <= index < len(current) else []
        elif predicate.kind == "last":
            current = [current[-1]] if current else []
        else:
            current = [e for e in current if _element_matches(e, predicate)]
    return current


def _per_parent(matched: list[XmlElement], predicates: list[_Predicate]) -> list[XmlElement]:
    """Apply a step's predicates to each parent's matches, as XPath does.

    ``matched`` is in document order and so is the result.
    """
    if not predicates:
        return matched
    siblings: dict[int, list[XmlElement]] = {}
    for element in matched:
        siblings.setdefault(id(element.parent), []).append(element)
    kept = {
        id(element)
        for group in siblings.values()
        for element in _apply_predicates(group, predicates)
    }
    return [element for element in matched if id(element) in kept]


def xpath(root: XmlElement, path: str) -> list[XmlElement] | list[str]:
    """Evaluate ``path`` against ``root`` (the document element).

    An absolute path's first step is tested against ``root`` itself (the
    conventional behaviour when the caller holds the document element).
    Returns elements, or strings when the path ends in ``@attr``/``text()``.
    """
    steps = _parse_path(path)
    context: list[XmlElement] = [root]

    for step_index, step in enumerate(steps):
        is_first = step_index == 0
        if step.test.startswith("@"):
            if step_index != len(steps) - 1:
                raise XPathError("attribute step must be final")
            name = step.test[1:]
            scope = context
            if step.descendant:
                scope = [d for e in context for d in (e, *e.iter_descendants())]
            return [e.attrs[name] for e in scope if name in e.attrs]
        if step.test == "text()":
            if step_index != len(steps) - 1:
                raise XPathError("text() step must be final")
            return [e.get_text(strip=False) for e in context]
        if step.test == ".":
            context = _apply_predicates(context, step.predicates)
            continue
        if step.test == "..":
            parents = []
            seen: set[int] = set()
            for element in context:
                if element.parent is not None and id(element.parent) not in seen:
                    seen.add(id(element.parent))
                    parents.append(element.parent)
            context = _apply_predicates(parents, step.predicates)
            continue

        next_context: list[XmlElement] = []
        for element in context:
            if step.descendant:
                # A leading '//' starts above the root, so the root is a
                # candidate; a later '//' looks below its context only.
                candidates = element.iter_descendants()
                if is_first:
                    candidates = [element, *candidates]
            elif is_first and path.startswith("/"):
                # Absolute first step tests the root element itself.
                candidates = [element]
            else:
                candidates = element.child_elements()
            matched = [c for c in candidates if step.test == "*" or c.tag == step.test]
            next_context.extend(_per_parent(matched, step.predicates))
        context = next_context
    return context
