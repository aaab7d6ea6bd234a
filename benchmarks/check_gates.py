#!/usr/bin/env python3
"""CI gate: fresh benchmark summaries must keep the committed baseline's contract.

Usage::

    check_gates.py BASELINE.json FRESH.json [FRESH2.json ...]

Each committed ``BENCH_E*.json`` states its own gates as data, in a
``"gate"`` list; the checker reads that list from BASELINE and applies it
to every FRESH file.  One entry reads::

    {"path": "tenants.*.p99_s", "op": "<=", "ratio": 3.0}

``path`` is dotted; a ``*`` stands for every key either file holds there.
``op`` is one of ``==  <  <=  >  >=``, and the fresh value is compared
with a bar set by at most one of:

* ``value``: that literal (``"op": "==", "value": 0``; ``">=", 1.1``);
* ``ratio``: that multiple of the baseline's value at ``path``;
* ``delta``: the baseline's value at ``path`` plus this (negative for a
  floor below it);
* ``other``: the value at another path of the same fresh file, its ``*``
  taking the same key as ``path``'s;
* none of them: the baseline's value itself (deep equality, with ``==``).

A path missing from a file the gate reads fails the gate.  With several
fresh files (one bench run more than once), an ``==`` gate must hold in
every file and any other gate in the best one, which absorbs warm-up and
scheduling noise in a wall-clock figure.

Exits 0 when every gate holds, 1 when one fails, 2 on bad usage.
"""

import json
import operator
import sys

OPS = {"==": operator.eq, "<": operator.lt, "<=": operator.le, ">": operator.gt,
       ">=": operator.ge}  # fmt: skip
BARS = ("value", "ratio", "delta", "other")


def load(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


def lookup(payload, keys: tuple):
    """The value at ``keys``; :class:`KeyError` naming the path if absent."""
    for key in keys:
        if not isinstance(payload, dict) or key not in payload:
            raise KeyError(".".join(keys))
        payload = payload[key]
    return payload


def expand(pattern: str, payloads: list) -> list:
    """Every concrete key path ``pattern`` names in any of ``payloads``."""
    paths = [()]
    for key in pattern.split("."):
        if key != "*":
            paths = [prefix + (key,) for prefix in paths]
            continue
        grown = []
        for prefix in paths:
            keys = set()
            for payload in payloads:
                try:
                    node = lookup(payload, prefix)
                except KeyError:
                    continue
                if isinstance(node, dict):
                    keys |= set(node)
            grown += [prefix + (k,) for k in sorted(keys)]
        paths = grown
    return paths


def bar(gate: dict, keys: tuple, baseline: dict, fresh: dict):
    """What the fresh value at ``keys`` is compared with."""
    if "value" in gate:
        return gate["value"]
    if "other" in gate:
        wild = (k for k, p in zip(keys, gate["path"].split(".")) if p == "*")
        other = (next(wild) if k == "*" else k for k in gate["other"].split("."))
        return lookup(fresh, tuple(other))
    base = lookup(baseline, keys)
    if "ratio" in gate:
        return gate["ratio"] * base
    if "delta" in gate:
        return base + gate["delta"]
    return base


def verdict(gate: dict, keys: tuple, baseline: dict, fresh: dict):
    """``(holds, what was compared)`` for one fresh file."""
    try:
        got, want = lookup(fresh, keys), bar(gate, keys, baseline, fresh)
    except KeyError as missing:
        return False, f"{missing.args[0]} missing"
    shown = ["{...}" if isinstance(v, (dict, list)) else repr(v) for v in (got, want)]
    try:
        holds = OPS[gate["op"]](got, want)
    except TypeError:
        holds = False
    return holds, f"{shown[0]} {gate['op']} {shown[1]}"


def check(gates: list, baseline: dict, fresh: list) -> list:
    """One ``(holds, line)`` per concrete path every gate names."""
    results = []
    for gate in gates:
        paths = expand(gate["path"], [baseline, *fresh])
        if not paths:
            results.append((False, f"{gate['path']}: names nothing"))
        for keys in paths:
            verdicts = [verdict(gate, keys, baseline, f) for f in fresh]
            holds = (all if gate["op"] == "==" else any)(v[0] for v in verdicts)
            seen = "; ".join(v[1] for v in verdicts)
            results.append((holds, f"{'.'.join(keys)}: {seen}"))
    return results


def main(argv: "list[str]") -> int:
    if len(argv) < 3:
        print(__doc__)
        return 2
    baseline, *fresh = (load(path) for path in argv[1:])
    gates = baseline.get("gate") or []
    malformed = [g for g in gates if "path" not in g or g.get("op") not in OPS
                 or sum(k in g for k in BARS) > 1]  # fmt: skip
    if not gates or malformed:
        print(f"{argv[1]}: no 'gate' list, or malformed entries {malformed}")
        return 2
    results = check(gates, baseline, fresh)
    for holds, line in results:
        print(f"{'OK  ' if holds else 'FAIL'} {line}")
    failed = sum(not holds for holds, _ in results)
    print(f"{len(results) - failed} of {len(results)} gates hold in {argv[2:]}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
