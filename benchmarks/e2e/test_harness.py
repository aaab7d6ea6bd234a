"""Tests of the benchmark harness itself (not collected by tier-1).

Run explicitly, from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

import inspect
import json
import os
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from benchmarks.e2e import compare, trace  # noqa: E402
from benchmarks.e2e.harness import measure, sliced_qps  # noqa: E402
from benchmarks.e2e.layers import PER_LAYER, measure_traced  # noqa: E402
from benchmarks.e2e.oracle import rows_match  # noqa: E402
from benchmarks.e2e.workloads import GOVERNED, WORKLOADS  # noqa: E402

SEED = 5


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_contract_lists_what_the_harness_emits(contract):
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    for spec in contract["workloads"]:
        assert spec["why"] == WORKLOADS[spec["name"]].why
    assert {
        m["name"]: (m["unit"], m["better"]) for m in contract["per_layer"]
    } == PER_LAYER
    assert "setup_s" in {m["name"] for m in contract["end_to_end"]}
    assert contract["paths"] == ["benchmarks/e2e"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(contract, name):
    outcome = measure(WORKLOADS[name], SEED, 0.05, smoke=True)
    assert outcome["failed"] == 0
    assert outcome["attempted"] >= 8
    for metric in contract["end_to_end"]:
        value, unit = outcome["metrics"][metric["name"]]
        assert unit == metric["unit"]
        assert value > 0
    assert len(outcome["metrics"]) == len(contract["end_to_end"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_emits_every_layer_metric_and_repeats(name):
    workload = WORKLOADS[name]
    first = measure_traced(workload, SEED, smoke=True)
    second = measure_traced(workload, SEED, smoke=True)
    assert first["failed"] == 0
    assert set(first["metrics"]) == set(PER_LAYER)
    assert first["metrics"]["trace.unresolved_targets"] == 0
    assert first["metrics"]["trace.coverage"] > 0.9
    # Same seed: identical offered work, identical answers, identical
    # modeled seconds.
    for key in ("input_sha256", "answers_sha256"):
        assert first["info"][key] == second["info"][key]
    sim = "engine.sim_response_s"
    assert first["metrics"][sim] == second["metrics"][sim] > 0
    other = measure_traced(workload, SEED + 1, smoke=True)
    assert other["info"]["input_sha256"] != first["info"]["input_sha256"]


def test_span_table_names_public_callables_only():
    for dotted in trace.all_targets():
        assert not any(part.startswith("_") for part in dotted.split(".")), dotted
        found = trace.resolve(dotted)
        assert found is not None, dotted
        _, _, original = found
        assert inspect.isfunction(original) or inspect.isclass(original), dotted


def test_wrappers_are_fully_removed():
    def snapshot():
        state = {}
        for dotted in trace.all_targets():
            owner, attribute, original = trace.resolve(dotted)
            state[dotted] = (original, attribute in vars(owner))
        return state

    before = snapshot()
    tracer = trace.Tracer(trace.Recorder())
    with tracer:
        assert snapshot() != before
    assert snapshot() == before
    assert tracer.unresolved == []


def test_unresolved_target_is_reported_not_raised(monkeypatch, capsys):
    gone = "repro.federation.gone.Gone.go"
    monkeypatch.setitem(trace.SPAN_TABLE, "gone.self", (gone,))
    tracer = trace.Tracer(trace.Recorder())
    with tracer:
        pass
    assert tracer.unresolved == [gone]
    assert "does not resolve" in capsys.readouterr().err


def test_self_time_subtracts_children():
    recorder = trace.Recorder()
    inner = recorder.wrap(lambda: time.sleep(0.02), "inner")

    def parent():
        time.sleep(0.01)
        inner()

    recorder.wrap(parent, "outer")()
    seconds, counts = trace.self_times(recorder.spans, recorder.names)
    assert counts == {"inner": 1, "outer": 1}
    assert seconds["inner"] >= 0.02
    assert 0.01 <= seconds["outer"] < 0.02  # its own sleep, not the child's


def test_verification_sample_covers_governed_tenants_and_all_shapes():
    workload = WORKLOADS["hot_mix"]
    _, ops = workload.generate(SEED)
    sample = {repr(op): op for op in ops}
    first = list(sample.values())[: workload.verify_ops]
    assert {op[1] for op in first} & set(GOVERNED)
    assert len({op[2] for op in first}) == 4


def test_cold_plan_texts_outnumber_the_plan_cache():
    _, ops = WORKLOADS["cold_plan"].generate(SEED)
    assert len({op[2] for op in ops}) >= 10_000


def test_rows_match_is_tolerant_only_where_it_should_be():
    assert rows_match([(1, 2.0)], [(1, 2.0 + 1e-12)], ordered=True)
    assert rows_match([("b", 1), ("a", 2)], [("a", 2), ("b", 1)], ordered=False)
    assert not rows_match([("b", 1), ("a", 2)], [("a", 2), ("b", 1)], ordered=True)
    assert not rows_match([(1,)], [(1,), (1,)], ordered=False)
    assert not rows_match([(1.0,)], [(1.001,)], ordered=False)
    assert rows_match([(None, 1)], [(None, 1)], ordered=False)


def test_sliced_qps_ignores_one_stall():
    steady = [(0.001, 1)] * 400
    stalled = list(steady)
    stalled[7] = (0.5, 1)
    assert sliced_qps(steady) == pytest.approx(1000)
    assert sliced_qps(stalled) == pytest.approx(1000)


def test_compare_verdicts():
    lower = {"name": "p50_ms", "better": "lower", "bound": 0.10}
    higher = {"name": "qps", "better": "higher", "bound": 0.10}
    assert compare.verdict(lower, [1.0], [1.05])[-1] == "ok"
    assert compare.verdict(lower, [1.0], [1.2])[-1] == "regressed"
    assert compare.verdict(higher, [100.0], [80.0])[-1] == "regressed"
    assert compare.verdict(higher, [100.0], [120.0])[-1] == "ok"
    noisy = [1.0, 1.3, 0.8, 1.25, 0.75]
    assert compare.verdict(lower, noisy, noisy)[-1] == "unresolved"
    # ...unless every run of one side beats every run of the other.
    assert compare.verdict(lower, noisy, [v * 3 for v in noisy])[-1] == "regressed"
    assert compare.verdict(lower, noisy, [v / 3 for v in noisy])[-1] == "ok"
    setup = {"name": "setup_s", "better": "lower", "bound": 0.25}
    assert compare.verdict(setup, [0.02], [0.04])[-1] == "ok"  # under the floor
