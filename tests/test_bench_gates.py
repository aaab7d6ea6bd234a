"""The benchmark contract: each committed ``BENCH_E*.json`` states its CI
gates as data (its ``"gate"`` list), and ``benchmarks/check_gates.py``
reads them.

A referee for that checker.  Every committed file passes against itself.
For every gate and every key its ``*`` stands for, a fresh copy that sits
exactly on the bound is decided by the strictness (an inclusive bound
holds, a strict one fails) and a copy just past it fails, as the
hand-written gate scripts decided them; a dropped path fails.  And
``OLD_BOUNDS`` pins every bound those scripts held, at its value and
strictness, so a loosened or dropped gate entry is caught here.
"""

import copy
import json
import math
from pathlib import Path

import pytest

from benchmarks import _bench_util as bench_util
from benchmarks import check_gates

ROOT = Path(__file__).resolve().parents[1]

COMMITTED = {
    path.stem: json.loads(path.read_text())
    for path in sorted(ROOT.glob("BENCH_E*.json"))
}

# The bounds of the five deleted scripts, as (path, op, bar): a bar is
# ("value", v), ("ratio", r), ("delta", d), ("other", path) or ("baseline",).
OLD_BOUNDS = {
    # check_columnar_regression.py: FLOOR = 0.7; hotel_wire ==.
    "BENCH_E3": [
        ("hotel_wire", "==", ("baseline",)),
        ("speedup", ">=", ("ratio", 0.7)),
        ("warm.speedup", ">=", ("ratio", 0.7)),
    ],
    # check_gateway_slo.py: RATE_SLACK 0.05, P99_CEILING 3.0,
    # HIT_RATE_SLACK 0.02, MIN_SPEEDUP 1.1.
    "BENCH_E14": [
        ("tenants.*.shed_timeout_rate", "<=", ("delta", 0.05)),
        ("tenants.*.p99_s", "<=", ("ratio", 3.0)),
        ("tenants.*.error_rate", "==", ("value", 0)),
        ("plan_cache.hit_rate", ">=", ("delta", -0.02)),
        ("plan_cache.misses", "==", ("other", "planning.shapes")),
        ("planning.wall_speedup", ">=", ("value", 1.1)),
    ],
    # check_artifact_reuse.py: REDUCTION_SLACK 0.15.
    "BENCH_E15": [
        ("identical_results", "==", ("value", True)),
        ("errors", "==", ("value", 0)),
        ("totals.row_reduction", ">", ("value", 0)),
        ("totals.row_reduction", ">=", ("delta", -0.15)),
        ("totals.byte_reduction", ">", ("value", 0)),
        ("totals.byte_reduction", ">=", ("delta", -0.15)),
        ("sharing.inflight_joins", ">=", ("value", 1)),
        ("invalidation.invalidations", ">=", ("value", 1)),
        ("fault.fallbacks", ">=", ("value", 1)),
        ("fault.subscriber_completed", "==", ("value", True)),
        ("fault.subscriber_correct", "==", ("value", True)),
    ],
    # check_adaptive_reopt.py: SPEEDUP_SLACK 0.15, so a ratio of 0.85.
    "BENCH_E16": [
        ("identical_results", "==", ("value", True)),
        ("adaptive.errors", "==", ("value", 0)),
        ("static_agoric.errors", "==", ("value", 0)),
        ("static_centralized.errors", "==", ("value", 0)),
        ("undisturbed.errors", "==", ("value", 0)),
        ("undisturbed.replans", "==", ("value", 0)),
        ("undisturbed.reoptimizations", "==", ("value", 0)),
        ("adaptive.replans", ">=", ("value", 1)),
        ("adaptive.reoptimizations", ">=", ("value", 1)),
        ("adaptive.migrated_stages", ">=", ("value", 1)),
        ("speedup_vs_static_agoric", ">", ("value", 1.0)),
        ("speedup_vs_static_agoric", ">=", ("ratio", 1.0 - 0.15)),
        ("speedup_vs_static_centralized", ">", ("value", 1.0)),
        ("speedup_vs_static_centralized", ">=", ("ratio", 1.0 - 0.15)),
    ],
    # check_governance.py: OVERHEAD_SLACK 0.25, HIT_RATE_SLACK 0.02.
    "BENCH_E17": [
        ("enforcement.overhead_ratio", "<=", ("delta", 0.25)),
        ("enforcement.error_rate", "==", ("value", 0)),
        ("enforcement.queries_policed", ">", ("value", 0)),
        ("enforcement.plan_cache_hit_rate", ">=", ("delta", -0.02)),
        ("pricing.*.governed_seconds", "<", ("other", "pricing.*.plain_seconds")),
        ("pricing.agoric.governed_price", "<", ("other", "pricing.agoric.plain_price")),
        ("budgets.rejected.rich", "==", ("value", 0)),
        ("budgets.budget_rejections", ">", ("value", 0)),
        ("budgets.rejected.poor-degrade", "==", ("value", 0)),
        ("budgets.budget_degraded", ">", ("value", 0)),
        ("budgets.rate_limited", ">", ("value", 0)),
    ],
}


def _old_form(gate):
    kind = next((k for k in check_gates.BARS if k in gate), "baseline")
    bar = ("baseline",) if kind == "baseline" else (kind, gate[kind])
    return (gate["path"], gate["op"], bar)


def _get(payload, keys):
    for key in keys:
        payload = payload[key]
    return payload


def _concrete(pattern, payload):
    """Each key path ``pattern`` names in ``payload`` (one ``*`` at most)."""
    head, star, tail = pattern.partition("*")
    if not star:
        return [tuple(pattern.split("."))]
    prefix = tuple(head.rstrip(".").split("."))
    rest = tuple(tail.lstrip(".").split(".")) if tail else ()
    return [prefix + (key,) + rest for key in _get(payload, prefix)]


def _other_keys(gate, keys):
    wild = iter(k for k, p in zip(keys, gate["path"].split(".")) if p == "*")
    return tuple(next(wild) if k == "*" else k for k in gate["other"].split("."))


def _bound(gate, keys, baseline):
    """The value a fresh copy of ``baseline`` must hold at ``keys``."""
    if "value" in gate:
        return gate["value"]
    if "other" in gate:
        return _get(baseline, _other_keys(gate, keys))
    base = _get(baseline, keys)
    if "ratio" in gate:
        return gate["ratio"] * base
    if "delta" in gate:
        return base + gate["delta"]
    return base


def _past(op, value):
    """A value just on the failing side of ``value`` under ``op``."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, dict):
        return {**value, "drifted": 1}
    return math.nextafter(value, -math.inf if op in (">", ">=") else math.inf)


def _with(payload, keys, value):
    fresh = copy.deepcopy(payload)
    _get(fresh, keys[:-1])[keys[-1]] = value
    return fresh


def _without(payload, keys):
    fresh = copy.deepcopy(payload)
    del _get(fresh, keys[:-1])[keys[-1]]
    return fresh


CASES = [
    pytest.param(name, gate, keys, id=f"{name}-{'.'.join(keys)}-{gate['op']}")
    for name, payload in COMMITTED.items()
    for gate in payload["gate"]
    for keys in _concrete(gate["path"], payload)
]


def _decide(tmp_path, baseline, *fresh):
    """The checker's exit code for ``fresh`` against ``baseline``."""
    paths = []
    for index, payload in enumerate((baseline, *fresh)):
        path = tmp_path / f"{index}.json"
        path.write_text(json.dumps(payload))
        paths.append(str(path))
    return check_gates.main(["check_gates.py", *paths])


def _holds(gate, baseline, fresh):
    return all(holds for holds, _ in check_gates.check([gate], baseline, [fresh]))


def test_every_bench_gate_file_is_committed():
    assert set(COMMITTED) == {f"BENCH_E{n}" for n in (3, 13, 14, 15, 16, 17)}


@pytest.mark.parametrize("name", sorted(COMMITTED))
def test_a_committed_file_passes_against_itself(tmp_path, name):
    assert COMMITTED[name]["gate"]
    assert _decide(tmp_path, COMMITTED[name], COMMITTED[name]) == 0


@pytest.mark.parametrize("name", sorted(OLD_BOUNDS))
def test_every_old_bound_is_carried_at_its_value(name):
    carried = [_old_form(gate) for gate in COMMITTED[name]["gate"]]
    assert [bound for bound in OLD_BOUNDS[name] if bound not in carried] == []


@pytest.mark.parametrize("name, gate, keys", CASES)
def test_on_the_bound_holds_only_if_inclusive(name, gate, keys):
    baseline = COMMITTED[name]
    fresh = _with(baseline, keys, _bound(gate, keys, baseline))
    assert _holds(gate, baseline, fresh) == (gate["op"] in ("==", "<=", ">="))


@pytest.mark.parametrize("name, gate, keys", CASES)
def test_just_past_the_bound_fails(tmp_path, name, gate, keys):
    baseline = COMMITTED[name]
    fresh = _with(baseline, keys, _past(gate["op"], _bound(gate, keys, baseline)))
    assert not _holds(gate, baseline, fresh)
    assert _decide(tmp_path, baseline, fresh) == 1


@pytest.mark.parametrize("name, gate, keys", CASES)
def test_a_dropped_path_fails(tmp_path, name, gate, keys):
    baseline = COMMITTED[name]
    dropped = [keys] + ([_other_keys(gate, keys)] if "other" in gate else [])
    for path in dropped:
        assert _decide(tmp_path, baseline, _without(baseline, path)) == 1


def test_exact_gates_hold_in_every_run_and_others_in_the_best(tmp_path):
    baseline = COMMITTED["BENCH_E3"]
    slow = _with(baseline, ("speedup",), 0.0)
    drifted = _with(baseline, ("hotel_wire", "bytes_shipped"), 1)
    assert _decide(tmp_path, baseline, slow, baseline) == 0
    assert _decide(tmp_path, baseline, baseline, drifted) == 1


def test_a_baseline_without_gates_or_with_a_malformed_one_is_refused(tmp_path):
    ungated = {k: v for k, v in COMMITTED["BENCH_E3"].items() if k != "gate"}
    assert _decide(tmp_path, ungated, ungated) == 2
    for gate in ({"path": "speedup", "op": "~"},
                 {"path": "speedup", "op": ">=", "ratio": 0.7, "delta": 0.1}):
        malformed = {**ungated, "gate": [gate]}
        assert _decide(tmp_path, malformed, malformed) == 2


def test_a_wildcard_key_missing_from_the_fresh_run_fails(tmp_path):
    baseline = COMMITTED["BENCH_E14"]
    assert _decide(tmp_path, baseline, _without(baseline, ("tenants", "t5"))) == 1


def test_write_json_carries_the_committed_gate_forward(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_util, "REPO_ROOT", str(tmp_path))
    gate = [{"path": "x", "op": "==", "value": 1}]
    (tmp_path / "BENCH_X.json").write_text(json.dumps({"x": 0, "gate": gate}))
    bench_util.write_json("BENCH_X", {"x": 1})
    assert json.loads((tmp_path / "BENCH_X.json").read_text()) == {
        "x": 1,
        "gate": gate,
    }
