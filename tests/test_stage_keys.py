"""A stage's artifact key is a fact of its plan.

A plan carries each stage's key as it compiled it
(``artifacts.compile_stage_key``): the canonical text rendered once, each
``?`` left a slot.  An execution fills the slots with its bound values, and
the key it gets must be ``stage_hash`` of the bound stage, bit for bit, so a
prepared, an ad hoc and a gateway execution of one bound stage share one
artifact.  Ten executions of one template render no canonical text.  An
aggregation pushed below a join is one more split stage, keyed alike.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from benchmarks.e2e.workloads import JOIN_GROUPED, MAX_MILES, MAX_RATES, TRAVELER
from repro.core import DataType, Field, Schema, Table
from repro.federation import (
    ArtifactStore,
    FederatedEngine,
    FederationCatalog,
    Gateway,
    WorkloadManager,
)
from repro.federation import artifacts
from repro.federation.artifacts import stage_hash
from repro.federation.governance import GovernanceRegistry
from repro.federation.physical import PhysicalPlanner
from repro.sim import EventLoop, SimClock
from repro.sql.params import bind_plan
from repro.workloads import generate_hotels

from tests.test_columnar_execution import golden_engine

SCHEMA = Schema(
    "goods",
    (
        Field("k", DataType.STRING),
        Field("v", DataType.INTEGER),
        Field("x", DataType.FLOAT),
    ),
)
ROWS = [(f"k{i}", i % 7, (i % 5) / 2) for i in range(24)]
# Residual RLS (an expression no source evaluates) and a mask on ``k``.
POLICY = {"row_filter": "v + 0 >= 1", "masks": {"k": "redact"}}
MANIFEST = {"version": 1, "tenants": {"acme": {"tables": {"goods": POLICY}}}}

NUMBERS = [None, -0.0, 0.0, 1, 1.0, 3, 2.5, -2]
STRINGS = [None, "k1", "it's", "a;b", "a|b", "'", ""]
PATTERNS = ["k1%", "it's%", "%;%", "a|b", "_"]
SLOTS = {
    "number": st.sampled_from(NUMBERS),
    "string": st.sampled_from(STRINGS),
    "pattern": st.sampled_from(PATTERNS),
    "limit": st.sampled_from([1, 3, 30]),
}
# (template, the kind of value each ``?`` binds)
SHAPES = [
    ("select k, v from goods where k = ?", ("string",)),
    ("select k, v from goods where v + 0 < ?", ("number",)),
    ("select k, x from goods where x between ? and ?", ("number", "number")),
    ("select k from goods where v in (?, ?)", ("number", "number")),
    ("select k, v from goods where k like ?", ("pattern",)),
    ("select k, v from goods order by v desc limit ?", ("limit",)),
    (
        "select k, count(*), sum(v) from goods where x * 2 >= ? group by k",
        ("number",),
    ),
]


@st.composite
def bound_shapes(draw):
    template, kinds = draw(st.sampled_from(SHAPES))
    values = tuple(draw(SLOTS[kind]) for kind in kinds)
    return template, values


def inlined(template: str, values: tuple) -> str | None:
    """``template`` with its values spelled as literals, or None when a
    value has no literal spelling that parses to itself (a negative number
    parses as a negation)."""
    text = template
    for value in values:
        if value is None:
            spelled = "null"
        elif isinstance(value, str):
            spelled = "'" + value.replace("'", "''") + "'"
        elif value < 0 or str(value).startswith("-"):
            return None
        else:
            spelled = repr(value)
        text = text.replace("?", spelled, 1)
    return text


def build(governed: bool):
    catalog = FederationCatalog(SimClock())
    names = [catalog.make_site(f"s{i}").name for i in range(3)]
    placement = [[names[i % 3]] for i in range(4)]
    catalog.load_fragmented(Table(SCHEMA, ROWS), 4, placement)
    governance = GovernanceRegistry(MANIFEST) if governed else None
    engine = FederatedEngine(
        catalog, artifacts=ArtifactStore(catalog.clock), governance=governance
    )
    return catalog, engine


def replayed(engine, prepared, values):
    """The physical plan one execution of ``prepared`` bound to ``values``
    runs, and its stages."""
    bound = bind_plan(prepared.logical, values)
    plan = prepared.physical.replay(bound, values)
    return plan, PhysicalPlanner(engine.catalog).compile(plan)[1]


ENTRY_SETTINGS = settings(
    max_examples=120,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@ENTRY_SETTINGS
@given(shape=bound_shapes(), governed=st.booleans())
def test_the_filled_key_is_the_bound_stage_hash(shape, governed):
    template, values = shape
    catalog, engine = build(governed)
    prepared = engine.prepare(template, tenant="acme" if governed else None)
    plan, stages = replayed(engine, prepared, values)
    assert stages and plan.params == values
    for stage in stages:
        compiled = plan.stage_keys.get(stage.scan.binding)
        assert compiled is not None
        filled = engine.artifacts.stage_key(compiled, plan.params)
        assert filled == stage_hash(catalog, stage.spec)
        if governed:
            governance = stage.scan.governance
            assert governance.rls_residual and governance.masks


@ENTRY_SETTINGS
@given(shape=bound_shapes(), governed=st.booleans())
def test_every_entry_of_one_bound_stage_hits_one_artifact(shape, governed):
    template, values = shape
    catalog, engine = build(governed)
    store, tenant = engine.artifacts, "acme" if governed else None
    first = engine.execute(engine.prepare(template, tenant=tenant), values)
    keys = sorted(artifact.key for artifact in first.report.stage_outputs)
    assert keys and first.report.artifact_hits == 0

    gateway = Gateway(WorkloadManager(engine, EventLoop(catalog.clock)))
    again = gateway.connect(tenant or "default").execute(template, values).result
    assert again.report.artifact_hits == len(keys)
    assert again.table.rows == first.table.rows
    store._sweep()
    assert sorted(store._artifacts) == keys

    # Ad hoc, the values spelled as literals: where that spelling is the
    # same bound stage (an inlined ``k = 'x'`` is a source predicate, not
    # the site filter a bound ``?`` is), it hits the same artifact.
    text = inlined(template, values)
    if text is None:
        return
    adhoc = engine.query(text, tenant=tenant)
    spelled = replayed(engine, engine.prepare(text, tenant=tenant), ())[1]
    bound = replayed(engine, first.prepared, values)[1]
    if [stage.spec for stage in spelled] == [stage.spec for stage in bound]:
        assert adhoc.report.artifact_hits == len(keys)
        assert adhoc.table.rows == first.table.rows


def test_a_spelled_literal_shares_the_bound_stage():
    """Where an inlined literal stays a site filter, as the bound ``?``
    does, the ad hoc statement hits the prepared one's artifact."""
    catalog, engine = build(False)
    template = "select k, v from goods where k like ? and v + 0 < ?"
    values = ("k1%", 5)
    first = engine.execute(engine.prepare(template), values)
    adhoc = engine.query(inlined(template, values))
    assert first.report.artifact_hits == 0 and adhoc.report.artifact_hits == 1
    assert adhoc.table.rows == first.table.rows


def test_ten_executions_of_one_template_render_no_canonical_text(monkeypatch):
    """The read_write traveler template: its stage keys are rendered when
    it is prepared, and each execution only fills the bound values in."""
    catalog = FederationCatalog(SimClock())
    market = generate_hotels(7, 5, 4)
    chain_sites = {
        chain: catalog.make_site(f"res-{i:02d}").name
        for i, chain in enumerate(market.chains)
    }
    market.register_sources(catalog, chain_sites)
    engine = FederatedEngine(catalog, artifacts=ArtifactStore(catalog.clock))
    prepared = engine.prepare(TRAVELER)
    calls = []
    render = artifacts.canonical_expr

    def counted(*args, **kwargs):
        calls.append(args[0])
        return render(*args, **kwargs)

    monkeypatch.setattr(artifacts, "canonical_expr", counted)
    bindings = [(miles, rate) for miles in MAX_MILES for rate in MAX_RATES]
    engine.execute(prepared, bindings[0])
    one = len(calls)
    del calls[:]
    store = engine.artifacts
    probes = store.hits + store.misses
    for binding in bindings[1:11]:
        engine.execute(prepared, binding)
    assert store.hits + store.misses == probes + 2 * 10  # both stages, each time
    assert len(calls) <= one
    assert prepared.replans == 0


# JOIN_GROUPED's aggregation is pushed below its join: the pushed stage is
# an ordinary split stage, so its filled key is the bound stage's hash, and
# the same as the key of the single-table statement that is its pushed half.
PUSHED_HALF = (
    "select p.supplier, count(*), sum(p.price) from parts p "
    "where p.price >= ? group by p.supplier"
)


@pytest.mark.parametrize("bound", [600.0, 700.0, 1000.0])
def test_the_pushed_stage_key_is_the_bound_stage_hash(bound):
    catalog = golden_engine().catalog
    engine = FederatedEngine(catalog, artifacts=ArtifactStore(catalog.clock))
    plan, stages = replayed(engine, engine.prepare(JOIN_GROUPED), (bound,))
    keys = {}
    for stage in stages:
        compiled = plan.stage_keys[stage.scan.binding]
        keys[stage.scan.binding] = engine.artifacts.stage_key(compiled, plan.params)
        assert keys[stage.scan.binding] == stage_hash(catalog, stage.spec)
    (pushed,) = [stage.spec.agg for stage in stages if stage.spec.agg is not None]
    assert pushed.split.pushed and not pushed.items
    half, (stage,) = replayed(engine, engine.prepare(PUSHED_HALF), (bound,))
    compiled = half.stage_keys[stage.scan.binding]
    assert engine.artifacts.stage_key(compiled, half.params) == keys["p"]
