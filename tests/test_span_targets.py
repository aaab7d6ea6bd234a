"""Every span target of the benchmark's trace resolves against ``src/``.

``benchmarks/e2e/trace.py`` wraps public callables by dotted name
(``repro.federation.physical.Ship.open``, ...).  A target that moved or was
renamed does not resolve, and the layer it feeds silently reads less: the
benchmark's smoke run counts ``trace.unresolved_targets`` only after all six
workloads have run.  This loads the trace module from its file, read-only,
and resolves every target it would install.
"""

import importlib.util
from pathlib import Path

import pytest

TRACE = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "trace.py"


def load_trace():
    spec = importlib.util.spec_from_file_location("e2e_trace", TRACE)
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    return trace


trace = load_trace()


@pytest.mark.parametrize("target", trace.all_targets())
def test_span_target_resolves(target):
    assert trace.resolve(target) is not None, target
