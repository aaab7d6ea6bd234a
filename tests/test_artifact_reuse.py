"""Tests for content-hashed stage artifacts and in-flight stage sharing.

Covers the canonical stage hash (alias-insensitivity; the digest is the
whole key), the ArtifactStore's economy (admission, benefit eviction, TTL,
staleness bounds), the load-bearing correctness property -- an artifact
hit, an in-flight join, a refresh and a cold recompute all return
bit-identical rows -- write-driven invalidation (a whole-table write or a
repartition drops every part; a one-fragment write or a replica drop stales
that fragment's part alone, and the next probe re-runs it), a refresh under
faults and re-optimization, the workload manager's in-flight subscription
protocol, and the fault-injection path: a producer cancelled mid-flight
falls its subscribers back to independent execution.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.connect.source import StaticSource
from repro.core import DataType, Field, Schema, Table
from repro.core.errors import PartialFailureError
from repro.federation import (
    ArtifactStore,
    FederatedEngine,
    FederationCatalog,
    QueryOptions,
    SemanticCache,
    WorkloadManager,
)
from repro.federation import artifacts
from repro.federation.artifacts import (
    Artifact,
    StagePayload,
    StageSpec,
    compile_stage_key,
    stage_keys,
)
from repro.federation.columnar import ColumnBatch
from repro.federation.engine import LIVE_ONLY
from repro.federation.parts import Part
from repro.federation.stage import Stage
from repro.federation.workload import QueryState
from repro.sim import EventLoop, SimClock
from repro.sql.parser import parse_sql
from repro.sql.planner import build_plan, resolve, scans_in
from repro.sql.rewrite import (
    AggregateSplitting,
    ProjectionPruning,
    RewritePipeline,
    SiteFilterPushdown,
)

from tests.sqlite_oracle import OPTIMIZERS


def build_federation(sites=3, fragments=6, rows_per_fragment=20, **site_kwargs):
    """A small replicated federation: ``items(k, v)`` with RF=2 placement."""
    catalog = FederationCatalog(SimClock())
    site_names = [f"s{i}" for i in range(sites)]
    for name in site_names:
        catalog.make_site(name, **site_kwargs)
    schema = Schema(
        "items", (Field("k", DataType.STRING), Field("v", DataType.INTEGER))
    )
    total = fragments * rows_per_fragment
    table = Table(schema, [(f"k{i:04d}", i) for i in range(total)])
    placement = [
        [site_names[i % sites], site_names[(i + 1) % sites]]
        for i in range(fragments)
    ]
    catalog.load_fragmented(table, fragments, placement)
    return catalog


def make_engine(artifacts=True, reopt=False, cache=False, **store_kwargs):
    catalog = build_federation()
    store = (
        ArtifactStore(catalog.clock, **store_kwargs) if artifacts else None
    )
    engine = FederatedEngine(
        catalog,
        artifacts=store,
        reopt=reopt,
        cache=SemanticCache(catalog.clock) if cache else None,
    )
    return catalog, engine, store


def rewrite_fragment(catalog, fragment_id, rows, notify=True):
    """Give one fragment of ``items`` new rows at every replica, and tell
    the catalog which fragment was written."""
    entry = catalog.entry("items")
    fragment = next(f for f in entry.fragments if f.fragment_id == fragment_id)
    table = Table(entry.schema, rows)
    for site_name, local_name in fragment.replicas.items():
        catalog.site(site_name).host(StaticSource(local_name, table), local_name)
    if notify:
        catalog.notify_table_updated("items", fragment_id)
    return fragment


def fragment_rows(fragment_id, bound):
    """How many of a fragment's original rows have ``v < bound``."""
    index = int(fragment_id[1:])
    return len([v for v in range(index, 120, 6) if v < bound])


def logical_plan(catalog, sql):
    """Parse + rewrite one statement the way the engine does."""
    plan = build_plan(resolve(parse_sql(sql), catalog.binding_fields))
    pipeline = RewritePipeline(
        [
            SiteFilterPushdown(),
            ProjectionPruning(),
            AggregateSplitting(catalog.estimated_rows),
        ]
    )
    return pipeline.run(plan)


def stage_key_of(catalog, store, sql):
    plan = logical_plan(catalog, sql)
    keys = stage_keys(catalog, plan)
    assert len(keys) == 1
    return store.stage_key(next(iter(keys.values())))


class TestStageHash:
    def test_alias_spellings_collide(self):
        catalog = build_federation()
        store = ArtifactStore(catalog.clock)
        bare = stage_key_of(catalog, store, "select v from items where v < 5")
        aliased = stage_key_of(
            catalog, store, "select i.v from items i where i.v < 5"
        )
        assert bare == aliased

    def test_alias_spellings_collide_under_like(self):
        """The canonical rendering used to forget LIKE: it fell through to
        ``repr``, alias included, and the two spellings never shared."""
        catalog = build_federation()
        store = ArtifactStore(catalog.clock)
        bare = stage_key_of(catalog, store, "select v from items where k like 'k00%'")
        aliased = stage_key_of(
            catalog, store, "select i.v from items i where i.k not like 'k00%'"
        )
        assert bare != aliased  # NOT LIKE is another filter
        aliased = stage_key_of(
            catalog, store, "select i.v from items i where i.k like 'k00%'"
        )
        assert bare == aliased

    def test_digests_of_other_stages_did_not_move(self):
        """Stage digests are what EXPLAIN and the E15 tables print: sharing
        the renderer with EXPLAIN (``sql.ast.render``) changed LIKE's text only.  The
        group statement's ``not (v + 0 < 3)`` is parsed as ``v + 0 >= 3``
        since NOT is pushed to the atoms, so it digests as that does."""
        catalog = build_federation()
        store = ArtifactStore(catalog.clock)
        rows = "select i.v from items i where i.v + 0 < 3"
        groups = (
            "select k, count(*), sum(v) from items where {} "
            "and k not in ('a', 'b') and v between 1 and 2 * 50 group by k"
        )
        assert stage_key_of(catalog, store, rows) == "a4e36af717ef633a"
        for spelling in ("not (v + 0 < 3)", "v + 0 >= 3"):
            key = stage_key_of(catalog, store, groups.format(spelling))
            assert key == "44f3d8360c3e4435"

    def test_different_predicates_do_not_collide(self):
        catalog = build_federation()
        store = ArtifactStore(catalog.clock)
        a = stage_key_of(catalog, store, "select v from items where v < 5")
        b = stage_key_of(catalog, store, "select v from items where v < 6")
        assert a != b

    def test_aggregate_spec_is_part_of_the_hash(self):
        catalog = build_federation()
        store = ArtifactStore(catalog.clock)
        rows = stage_key_of(catalog, store, "select v from items where v < 5")
        agg = stage_key_of(
            catalog, store, "select count(*) from items where v < 5"
        )
        assert rows != agg

    def test_a_write_keeps_the_key_and_moves_the_epochs(self):
        """The key is the content digest alone: what a write changes is
        the written fragments' epochs, which the artifact's parts check."""
        catalog = build_federation()
        store = ArtifactStore(catalog.clock)
        sql = "select count(*) from items"
        before = stage_key_of(catalog, store, sql)
        fragments = catalog.entry("items").fragments
        epochs = [f.epoch for f in fragments]
        catalog.notify_table_updated("items")
        assert stage_key_of(catalog, store, sql) == before
        assert [f.epoch - e for f, e in zip(fragments, epochs)] == [1] * 6
        catalog.notify_table_updated("items", "f2")
        assert stage_key_of(catalog, store, sql) == before
        assert [f.epoch - e for f, e in zip(fragments, epochs)] == [1, 1, 2, 1, 1, 1]


class TestOneMarketPass:
    """A plan's stage keys are compiled in one pass before the optimizer
    bids, and every optimizer bids from them: each eligible stage's filter
    is rendered once per plan, and a template, whose key holds a slot no
    artifact can hold, bids on nothing."""

    ONE_STAGE = "select v from items where v + 0 < {0}"
    TWO_STAGES = (
        "select i.v from items i join items j on i.k = j.k "
        "where i.v + 0 < {0} and j.v + 1 < {0}"
    )
    STATEMENTS = [(ONE_STAGE, 1), (TWO_STAGES, 2)]  # statement, eligible stages

    @pytest.fixture(params=sorted(OPTIMIZERS))
    def spied(self, request, monkeypatch):
        """An engine with a store under one optimizer, and the calls made
        to ``canonical_expr`` and ``ArtifactStore.bid`` once it is built."""
        catalog = build_federation()
        factory = OPTIMIZERS[request.param]
        engine = FederatedEngine(
            catalog,
            None if factory is None else factory(catalog),
            artifacts=ArtifactStore(catalog.clock),
        )
        calls = {"canonical_expr": 0, "bid": 0}
        render, bid = artifacts.canonical_expr, ArtifactStore.bid

        def counted_render(*args):
            calls["canonical_expr"] += 1
            return render(*args)

        def counted_bid(*args):
            calls["bid"] += 1
            return bid(*args)

        monkeypatch.setattr(artifacts, "canonical_expr", counted_render)
        monkeypatch.setattr(ArtifactStore, "bid", counted_bid)
        return engine, calls

    @pytest.mark.parametrize("sql, stages", STATEMENTS, ids=["one", "two"])
    def test_an_ad_hoc_plan_renders_each_stage_once(self, spied, sql, stages):
        engine, calls = spied
        engine.query(sql.format(5))
        assert calls == {"canonical_expr": stages, "bid": stages}

    @pytest.mark.parametrize("sql, stages", STATEMENTS, ids=["one", "two"])
    def test_a_prepare_renders_each_stage_once_and_bids_on_nothing(
        self, spied, sql, stages
    ):
        engine, calls = spied
        engine.prepare(sql.format("?"))
        assert calls == {"canonical_expr": stages, "bid": 0}


def make_output(
    key, rows=5, table_name="items", fetch_seconds=1.0, at=0.0, parts=()
):
    payload = StagePayload(kind="rows", batch=ColumnBatch(["v"], [list(range(rows))]))
    return Artifact(
        key=key,
        table_name=table_name,
        payload=payload,
        rows_saved=rows,
        bytes_saved=rows * 8,
        fetch_seconds=fetch_seconds,
        fetched_at=at,
        parts=parts,
    )


class TestStoreLifecycle:
    def test_inflight_commits_after_completion_time(self):
        clock = SimClock()
        store = ArtifactStore(clock)
        key = ("abc", 1)
        assert store.begin_stage(make_output(key), completes_at=10.0)
        # Before the producer completes: a join, not a hit.
        artifact, wait, joined = store.acquire(key)
        assert joined and wait == pytest.approx(10.0)
        assert len(store) == 0
        clock.advance(10.0)
        artifact, wait, joined = store.acquire(key)
        assert not joined and wait == 0.0
        assert len(store) == 1 and store.published == 1

    def test_first_producer_wins(self):
        store = ArtifactStore(SimClock())
        key = ("abc", 1)
        assert store.begin_stage(make_output(key), completes_at=5.0)
        assert not store.begin_stage(make_output(key), completes_at=6.0)

    def test_oversized_stage_rejected(self):
        store = ArtifactStore(SimClock(), max_rows=3)
        assert not store.begin_stage(make_output(("k", 1), rows=5), 0.0)
        assert store.rejected == 1 and not store._inflight

    def test_lowest_benefit_evicted_first(self):
        clock = SimClock()
        store = ArtifactStore(clock, max_rows=8)
        cheap = make_output(("cheap", 1), rows=5, fetch_seconds=0.01)
        dear = make_output(("dear", 1), rows=5, fetch_seconds=5.0)
        store.begin_stage(cheap, completes_at=0.0)
        store.begin_stage(dear, completes_at=0.0)
        clock.advance(1.0)
        store._sweep()
        assert store.evictions == 1
        assert store.acquire(("dear", 1))[2] is False
        assert store.acquire(("cheap", 1)) is None

    def test_per_call_staleness_bound(self):
        clock = SimClock()
        store = ArtifactStore(clock)
        store.begin_stage(make_output(("k", 1), at=0.0), completes_at=0.0)
        clock.advance(10.0)
        assert store.acquire(("k", 1), max_staleness=5.0) is None
        assert store.acquire(("k", 1), max_staleness=50.0) is not None

    def test_live_only_never_served(self):
        store = ArtifactStore(SimClock())
        store.begin_stage(make_output(("k", 1)), completes_at=0.0)
        assert store.acquire(("k", 1), max_staleness=LIVE_ONLY) is None

    def test_invalidate_table_drops_committed_and_inflight(self):
        clock = SimClock()
        store = ArtifactStore(clock)
        store.begin_stage(make_output(("done", 1)), completes_at=0.0)
        clock.advance(1.0)
        store._sweep()
        store.begin_stage(make_output(("flying", 1)), completes_at=99.0)
        dropped = store.invalidate_table("items")
        assert dropped == 2
        assert len(store) == 0 and not store._inflight
        assert store.invalidations == 2

    def test_invalidate_table_keeps_what_has_a_current_part(self):
        """Parted artifacts: a one-fragment write leaves the other parts
        current, so the artifact stays (for a refresh, never whole); a
        whole-table write leaves none, and it goes like the rest."""
        catalog = build_federation(fragments=2)
        f0, f1 = catalog.entry("items").fragments
        clock = catalog.clock
        store = ArtifactStore(clock)
        parts = (Part(f0, f0.epoch, 3, 0.0), Part(f1, f1.epoch, 2, 0.0))
        store.begin_stage(make_output("done", parts=parts), completes_at=0.0)
        clock.advance(1.0)
        store._sweep()
        store.begin_stage(make_output("flying", parts=parts), completes_at=99.0)
        catalog.notify_table_updated("items", "f0")
        assert store.invalidate_table("items") == 0
        assert len(store) == 1 and list(store._inflight) == ["flying"]
        assert store.bid("done") is None  # stale in part: not offered whole
        assert store.acquire("done") is None and store.misses == 1
        assert not store.refreshable("done").current  # handed out to refresh
        assert store.refreshes == 1 and store.hits == 0
        catalog.notify_table_updated("items")
        assert store.invalidate_table("items") == 2
        assert len(store) == 0 and not store._inflight


AGG_SQL = "select count(*), sum(v) from items where v < 77"
ROWS_SQL = "select k, v from items where v < 33"


class TestEngineReuse:
    @pytest.mark.parametrize("sql", [AGG_SQL, ROWS_SQL])
    def test_hit_is_bit_identical_and_cheaper(self, sql):
        _, control_engine, _ = make_engine(artifacts=False)
        cold = control_engine.query(sql)

        _, engine, store = make_engine()
        first = engine.query(sql)
        second = engine.query(sql)
        assert second.table.rows == first.table.rows == cold.table.rows
        assert store.hits == 1
        assert second.report.artifact_hits == 1
        assert second.report.rows_fetched == 0
        assert second.report.bytes_shipped == 0
        assert second.report.artifact_rows_saved == first.report.rows_fetched

    def test_alias_spelling_still_hits(self):
        _, engine, store = make_engine()
        first = engine.query("select count(*) from items where v < 50")
        second = engine.query(
            "select count(*) from items i where i.v < 50"
        )
        assert second.table.rows == first.table.rows
        assert store.hits == 1

    def test_alias_spelling_still_hits_under_like(self):
        _, engine, store = make_engine()
        first = engine.query("select k, v from items i where i.k like 'k00%'")
        second = engine.query("select k, v from items where k like 'k00%'")
        assert second.table.rows == first.table.rows != []
        assert second.report.artifact_hits == 1
        assert store.hits == 1

    def test_live_only_bypasses_artifacts(self):
        _, engine, store = make_engine()
        engine.query(AGG_SQL)
        live = engine.query(AGG_SQL, max_staleness=LIVE_ONLY)
        assert live.report.artifact_hits == 0
        assert live.report.rows_fetched > 0
        assert store.hits == 0

    def test_prepared_statements_reuse_across_executions(self):
        _, engine, store = make_engine()
        prepared = engine.prepare("select count(*) from items where v < ?")
        first = engine.execute(prepared, (40,))
        again = engine.execute(prepared, (40,))
        other = engine.execute(prepared, (90,))
        assert again.table.rows == first.table.rows
        assert again.report.artifact_hits == 1
        # A different binding is a different stage: no false sharing.
        assert other.report.artifact_hits == 0
        assert other.table.rows == [(90,)]

    def test_explain_analyze_shows_artifact_reuse(self):
        _, engine, _ = make_engine()
        engine.query(AGG_SQL)
        rendered = engine.render_analyze(engine.query(AGG_SQL))
        assert "artifact reuse: hits 1" in rendered

    def test_explain_analyze_says_why_a_stage_re_ran(self):
        """A refresh's Ship names the digest, the parts it served and the
        fragments it re-ran; the pipeline below it scanned those alone
        (f2's one new row with v < 33, beside 27 served rows)."""
        catalog, engine, _ = make_engine()
        engine.query(ROWS_SQL)
        rewrite_fragment(catalog, "f2", [("n0", 2), ("n1", 40)])
        assert engine.explain(ROWS_SQL, analyze=True) + "\n" == GOLDEN_REFRESH

    @settings(max_examples=12, deadline=None)
    @given(bound=st.integers(min_value=0, max_value=120))
    def test_property_hit_matches_cold_recompute(self, bound):
        sql = f"select k, v from items where v < {bound}"
        _, control_engine, _ = make_engine(artifacts=False)
        cold = control_engine.query(sql)
        _, engine, store = make_engine()
        warmup = engine.query(sql)
        hit = engine.query(sql)
        assert warmup.table.rows == cold.table.rows
        assert hit.table.rows == cold.table.rows
        assert store.hits == 1


GOLDEN_REFRESH = """\
optimizer: agoric  coordinator: s0  price: 0.0514
response: 0.025250s  rows fetched: 1  shipped: 0  returned: 28  bytes shipped: 0
pruned fragments 0/6
Project  @ s0  rows_in=28 rows_out=28  seconds=0.001400  k, v
  Ship  @ s0  rows_in=28 rows_out=28  seconds=0.001400  batches=1  \
artifact refresh b6e6a9df: 5/6 parts served, re-ran f2; coordinator-local
    SiteScan  @ s0  rows_in=0 rows_out=1  seconds=0.000050  batches=1  \
items as items: fragments [f2@s0] pushdown(v < 33)
"""


class TestInvalidation:
    def test_write_makes_artifacts_unreachable(self):
        catalog, engine, store = make_engine()
        engine.query(AGG_SQL)
        engine.query(AGG_SQL)
        assert store.hits == 1
        catalog.notify_table_updated("items")
        assert len(store) == 0  # dropped by the update listener
        after = engine.query(AGG_SQL)
        assert after.report.artifact_hits == 0
        assert after.report.rows_fetched > 0

    def test_a_fragment_write_refreshes_that_fragment_alone(self):
        catalog, engine, store = make_engine()
        engine.query(AGG_SQL)
        rewrite_fragment(catalog, "f3", [("n0", 3), ("n1", 5), ("n2", 90)])
        store._sweep()
        assert len(store) == 1  # the other five parts survive the write
        refreshed = engine.query(AGG_SQL)
        cold = engine.query(AGG_SQL, options=QueryOptions(reuse_artifacts=False))
        assert refreshed.table.rows == cold.table.rows
        assert refreshed.report.artifact_hits == 0
        assert refreshed.report.rows_fetched == 2  # f3's rows with v < 77
        after = engine.query(AGG_SQL)
        assert after.report.artifact_hits == 1
        assert after.report.rows_fetched == 0
        assert after.table.rows == cold.table.rows

    def test_repartition_makes_artifacts_unreachable(self):
        catalog, engine, store = make_engine()
        engine.query(AGG_SQL)
        # A replica placement change moves the fragment's epoch without
        # firing the update listeners: the stored artifact survives, stale
        # in that part, and is never served whole again.
        fragment = catalog.entry("items").fragments[0]
        victim = sorted(fragment.replicas)[0]
        catalog.drop_replica(fragment, victim)
        store._sweep()
        assert len(store) >= 1
        after = engine.query(AGG_SQL)
        assert after.report.artifact_hits == 0
        assert after.report.rows_fetched > 0

    def test_a_replica_drop_refreshes_that_fragment_alone(self):
        catalog, engine, store = make_engine()
        first = engine.query(AGG_SQL)
        fragment = catalog.entry("items").fragments[0]
        catalog.drop_replica(fragment, sorted(fragment.replicas)[0])
        after = engine.query(AGG_SQL)
        assert after.table.rows == first.table.rows
        assert after.report.rows_fetched == fragment_rows("f0", 77)
        assert store.refreshes == 1


JOIN_SQL = (
    "select a.k, a.v, b.v from items a join items b on a.k = b.k "
    "where a.v < 33 and b.v < 50 order by b.v desc limit 5"
)


class TestARefreshCostsWhatItReRead:
    def test_a_refresh_hands_on_a_batch_per_run(self, monkeypatch):
        """One written fragment of twelve: the refreshed stage hands the
        coordinator the served parts before it, the re-read fragment and
        the served parts after it -- three batches, not thirteen -- and
        both stores still hold a part per fragment, at the epoch read."""
        catalog = build_federation(fragments=12)
        store, cache = ArtifactStore(catalog.clock), SemanticCache(catalog.clock)
        engine = FederatedEngine(catalog, artifacts=store, cache=cache)
        engine.query(ROWS_SQL)
        rewrite_fragment(catalog, "f5", [("n0", 2), ("n1", 40)])
        control = build_federation(fragments=12)
        rewrite_fragment(control, "f5", [("n0", 2), ("n1", 40)])
        want = FederatedEngine(control).query(ROWS_SQL).table.rows
        outputs, capture = [], Stage.capture

        def recording(stage, *args):
            capture(stage, *args)
            outputs.append(stage.output)

        monkeypatch.setattr(Stage, "capture", recording)
        refreshed = engine.query(ROWS_SQL)
        assert refreshed.table.rows == want
        assert store.refreshes == 1
        assert len(outputs) == 1 and len(outputs[0]) <= 3
        store._sweep()
        (artifact,) = store._artifacts.values()
        (region,) = cache._entries.values()
        ids = [f.fragment_id for f in catalog.entry("items").fragments]
        for parts, rows in (
            (artifact.parts, artifact.row_count),
            (region.parts, len(region.table)),
        ):
            assert sorted(p.fragment.fragment_id for p in parts) == sorted(ids)
            assert all(p.epoch == p.fragment.epoch for p in parts)
            assert sum(p.size for p in parts) == rows == len(refreshed.table.rows)

    def test_a_served_rows_artifact_is_never_written(self, monkeypatch):
        """A rows artifact is served as its stored columns, renamed: the
        Project over it, and the HashJoin, Sort and Limit over it twice,
        leave them as they were captured."""
        _, engine, store = make_engine()
        _, control, _ = make_engine(artifacts=False)
        first = engine.query(ROWS_SQL)
        store._sweep()
        (artifact,) = store._artifacts.values()
        stored = artifact.payload.batch.columns
        captured = [list(column) for column in stored]
        served, serve_rows = [], Artifact.serve_rows

        def recording(served_from, binding):
            batch = serve_rows(served_from, binding)
            if served_from is artifact:
                served.append(batch)
            return batch

        monkeypatch.setattr(Artifact, "serve_rows", recording)
        again = engine.query(ROWS_SQL)
        joined = [engine.query(JOIN_SQL) for _ in range(2)]
        want = control.query(ROWS_SQL).table.rows
        assert again.table.rows == first.table.rows == want
        want = control.query(JOIN_SQL).table.rows
        assert [r.table.rows for r in joined] == [want, want]
        names = [batch.names for batch in served]
        assert names == [["items.k", "items.v"], ["a.k", "a.v"], ["a.k", "a.v"]]
        for batch in served:
            assert all(mine is theirs for mine, theirs in zip(batch.columns, stored))
        assert stored == captured


class TestRefreshUnderFaults:
    """f0 loses its s1 replica (its part goes stale) and s0, its one
    remaining site, goes down: the refresh re-runs f0 alone, and must end
    as the same statement with no artifact to refresh would."""

    def stale_f0_on_a_dead_site(self, **engine_kwargs):
        catalog, engine, store = make_engine(**engine_kwargs)
        engine.query(AGG_SQL)
        store._sweep()
        f0 = catalog.entry("items").fragments[0]
        assert sorted(f0.replicas) == ["s0", "s1"]
        catalog.drop_replica(f0, "s1")
        return catalog, engine, store

    @pytest.mark.parametrize("degraded_ok", [True, False])
    def test_a_refresh_whose_fragment_is_down_ends_as_a_cold_run(self, degraded_ok):
        catalog, engine, store = self.stale_f0_on_a_dead_site()
        catalog.site("s0").up = False
        runs = []
        for reuse in (True, False):
            try:
                runs.append(
                    engine.query(AGG_SQL, options=QueryOptions(
                        degraded_ok=degraded_ok, reuse_artifacts=reuse
                    ))
                )
            except PartialFailureError as error:
                runs.append(error.unreachable_fragments)
        refreshed, cold = runs
        assert store.refreshes == 1
        if degraded_ok:
            assert refreshed.table.rows == cold.table.rows
            for report in (refreshed.report, cold.report):
                assert report.degraded and report.unreachable_fragments == ["items/f0"]
            assert refreshed.report.completeness == cold.report.completeness < 1.0
        else:
            assert refreshed == cold == ["items/f0"]

    @pytest.mark.parametrize("degraded_ok", [True, False])
    def test_a_failed_or_degraded_refresh_publishes_nothing(self, degraded_ok):
        """And the old artifact's current parts stay servable: once f0's
        site is back, the next refresh re-runs f0 alone."""
        catalog, engine, store = self.stale_f0_on_a_dead_site()
        catalog.site("s0").up = False
        (old,) = store._artifacts.values()
        try:
            assert engine.query(AGG_SQL, degraded_ok=degraded_ok).report.degraded
        except PartialFailureError:
            assert not degraded_ok
        assert store.refreshes == 1
        assert store.published == 1 and not store._inflight
        assert list(store._artifacts.values()) == [old]
        catalog.site("s0").up = True
        again = engine.query(AGG_SQL)
        assert store.refreshes == 2
        assert again.report.rows_fetched == fragment_rows("f0", 77)
        cold = engine.query(AGG_SQL, options=QueryOptions(reuse_artifacts=False))
        assert again.table.rows == cold.table.rows

    def test_a_refresh_failing_over_to_a_whole_copy_serves_no_part(self):
        """The covering fallback answers the whole scan: served parts
        beside it would count their rows twice."""
        catalog, engine, store = self.stale_f0_on_a_dead_site()
        early = engine.prepare(AGG_SQL).physical  # planned before the view
        engine.create_materialized_view("items_copy", "items", "s2")
        catalog.site("s0").up = False
        served = []
        for reuse in (True, False):
            plan = early.replay(early.logical)
            table, report = engine.executor.execute(
                plan, QueryOptions(reuse_artifacts=reuse)
            )
            assert report.failovers >= 1 and not report.degraded
            served.append(table.rows)
        assert store.refreshes == 1
        assert served[0] == served[1] == [(77, sum(range(77)))]

    def test_a_migration_does_not_widen_a_refresh(self):
        catalog, engine, store = make_engine(reopt=True)
        engine.query(AGG_SQL)
        rewrite_fragment(catalog, "f0", [("n0", 1), ("n1", 2)])
        prepared = engine.prepare(AGG_SQL)
        f0 = prepared.physical.assignments["items"].choices[0]
        assert f0.fragment.fragment_id == "f0"
        catalog.site(f0.site_name).up = False
        result = engine.execute(prepared)
        assert result.report.migrated_stages == 1
        assert result.report.rows_fetched == 2  # f0 alone, on its other site
        (event,) = result.report.reopt_events
        assert event.from_sites == (f0.site_name,)
        assert len(event.to_sites) == 1 and event.to_sites != event.from_sites
        cold = engine.query(AGG_SQL, options=QueryOptions(reuse_artifacts=False))
        assert result.table.rows == cold.table.rows

    def test_a_failed_refresh_leaves_no_narrowing_behind(self):
        """The narrowing to f0 lives on the stage: when its re-run raises,
        the plan still holds the whole placement, nothing went in flight,
        and the cache region f0's move staled is not refilled."""
        catalog, engine, store = self.stale_f0_on_a_dead_site(cache=True)
        (region,) = engine.cache._entries.values()
        template = engine.prepare(AGG_SQL).physical
        plan = template.replay(template.logical)
        planned = plan.assignments["items"]
        catalog.site("s0").up = False
        with pytest.raises(PartialFailureError):
            engine.executor.execute(plan)
        assert plan.assignments["items"] is planned
        with pytest.raises(PartialFailureError):
            engine.query(AGG_SQL)
        assert store.refreshes == 2 and not store._inflight
        (kept,) = engine.cache._entries.values()
        assert kept is region and not region.current

    def test_a_refresh_the_top_k_check_re_runs_publishes_nothing(self):
        """a's top-k stage and b's stage each refresh f2 alone.  f2's new
        rows rank first but have no partner (b keeps v >= 0), so the Sort
        cannot show the answer exact and the plan runs unmarked, starting
        a's stage alone again: b refreshes once, the attempt's refreshed
        top-k stage is not registered in flight (the committed one stays,
        stale in f2), the plan holds whole placements, and every cached
        region is current."""
        catalog, engine, store = make_engine(cache=True)
        first = engine.query(TOP_SQL)
        assert first.report.top_k_restart is None
        (scan,) = [s for s in scans_in(engine.prepare(TOP_SQL).logical) if s.top_k]
        top_key = store.stage_key(compile_stage_key(catalog, StageSpec(scan)))
        store._sweep()
        old = store._artifacts[top_key]
        rewrite_fragment(catalog, "f2", [("n0", -5), ("n1", -4), ("n2", -3)])
        result = engine.query(TOP_SQL)
        assert result.report.top_k_restart == (
            "top-k restart: f2 boundary -4 ranks before row 2"
        )
        assert store.refreshes == 2  # the top-k stage and b's, each once
        assert top_key not in store._inflight
        assert store._artifacts[top_key] is old and not old.current
        assert [len(result.plan.assignments[b].choices) for b in "ab"] == [6, 6]
        assert all(entry.current for entry in engine.cache._entries.values())
        cold = engine.query(TOP_SQL, options=QueryOptions(reuse_artifacts=False))
        assert result.table.rows == cold.table.rows == [("k0000",), ("k0001",)]


class TestNamedArtifact:
    """A template planned after its stage's artifact committed names the
    stage, as a label on the auction's placement; execution probes the
    store.
    A write re-prepares nothing: a gone artifact runs the placement, with
    failover and the degraded-answer policy, and a part-stale one
    refreshes its stale fragments alone."""

    def named(self):
        catalog, engine, store = make_engine()
        engine.query(AGG_SQL)
        store._sweep()
        prepared = engine.prepare(AGG_SQL)
        assignment = prepared.physical.assignments["items"]
        assert assignment.kind == "artifact"
        assert len(assignment.choices) == 6
        assert engine.execute(prepared).report.artifact_hits == 1
        return catalog, engine, store, prepared

    def cold(self, engine, **options):
        return engine.query(AGG_SQL, options=QueryOptions(reuse_artifacts=False, **options))

    def test_a_gone_artifact_runs_the_placement(self):
        catalog, engine, store, prepared = self.named()
        catalog.notify_table_updated("items")
        assert len(store) == 0
        misses = store.misses
        result = engine.execute(prepared)
        assert store.misses == misses + 1
        assert result.report.artifact_hits == 0
        assert result.report.rows_fetched == 77
        assert result.table.rows == self.cold(engine).table.rows
        assert prepared.replans == 0

    def test_a_gone_artifact_fails_over_off_a_dead_planned_site(self):
        catalog, engine, store, prepared = self.named()
        catalog.notify_table_updated("items")
        placement = prepared.physical.assignments["items"]
        catalog.site(placement.choices[0].site_name).up = False
        result = engine.execute(prepared)
        assert result.report.failovers >= 1 and not result.report.degraded
        assert result.table.rows == [(77, sum(range(77)))]
        assert prepared.replans == 0

    @pytest.mark.parametrize("degraded_ok", [True, False])
    def test_a_gone_artifact_degrades_as_a_fragment_plan_does(self, degraded_ok):
        catalog, engine, store, prepared = self.named()
        catalog.notify_table_updated("items")
        for name in ("s0", "s1"):  # both replicas of f0
            catalog.site(name).up = False
        if not degraded_ok:
            with pytest.raises(PartialFailureError) as named:
                engine.execute(prepared)
            with pytest.raises(PartialFailureError) as cold:
                self.cold(engine)
            assert named.value.unreachable_fragments == cold.value.unreachable_fragments
            return
        result = engine.execute(prepared, degraded_ok=True)
        cold = self.cold(engine, degraded_ok=True)
        assert result.report.degraded and "items/f0" in result.report.unreachable_fragments
        assert result.table.rows == cold.table.rows
        assert result.report.completeness == cold.report.completeness < 1.0

    def test_a_part_stale_artifact_narrows_not_raises(self):
        catalog, engine, store, prepared = self.named()
        rewrite_fragment(catalog, "f3", [("n0", 3), ("n1", 5), ("n2", 90)])
        result = engine.execute(prepared)
        assert store.refreshes == 1
        assert result.report.rows_fetched == 2  # f3's rows with v < 77
        assert result.table.rows == self.cold(engine).table.rows
        assert prepared.replans == 0


TOP_SQL = (
    "select a.k as c0 from items a join items b on a.k = b.k "
    "where b.v >= 0 order by a.v limit 2"
)


def make_manager(max_in_flight=4, artifacts=True, **store_kwargs):
    catalog = build_federation()
    store = (
        ArtifactStore(catalog.clock, **store_kwargs) if artifacts else None
    )
    engine = FederatedEngine(catalog, artifacts=store)
    loop = EventLoop(catalog.clock)
    manager = WorkloadManager(engine, loop, max_in_flight=max_in_flight)
    return catalog, engine, loop, manager, store


class TestInFlightSharing:
    def test_concurrent_identical_stage_joins(self):
        _, _, _, manager, store = make_manager()
        producer = manager.submit(AGG_SQL, tenant="a")
        joiner = manager.submit(AGG_SQL, tenant="b")
        assert store.joins == 1
        assert joiner in store._inflight[producer._stage_keys[0]].subscribers
        manager.drain()
        assert producer.result().table.rows == joiner.result().table.rows
        report = joiner.result().report
        assert report.artifact_joins == 1
        assert report.rows_fetched == 0 and report.bytes_shipped == 0
        # The joiner waited for the producer's stage: it cannot finish first.
        assert joiner.finished_at >= producer.finished_at

    def test_join_charges_the_remaining_wait(self):
        _, _, _, manager, _ = make_manager()
        producer = manager.submit(AGG_SQL)
        joiner = manager.submit(AGG_SQL)
        manager.drain()
        assert (
            joiner.result().report.response_seconds
            >= producer.result().report.response_seconds
        )

    def test_cancelled_producer_falls_subscribers_back(self):
        _, _, _, manager, store = make_manager()
        producer = manager.submit(AGG_SQL, tenant="a")
        joiner = manager.submit(AGG_SQL, tenant="b")
        assert store.joins == 1
        assert manager.cancel(producer)
        assert producer.state is QueryState.FAILED
        assert store.aborts == 1 and store.fallbacks == 1
        manager.drain()
        assert joiner.state is QueryState.COMPLETED
        report = joiner.result().report
        # The fallback recomputed independently: real site rows, no reuse.
        assert report.artifact_joins == 0
        assert report.rows_fetched > 0
        _, control_engine, _ = make_engine(artifacts=False)
        assert (
            joiner.result().table.rows
            == control_engine.query(AGG_SQL).table.rows
        )

    def test_fallback_publishes_nothing(self):
        _, _, _, manager, store = make_manager()
        producer = manager.submit(AGG_SQL)
        joiner = manager.submit(AGG_SQL)
        manager.cancel(producer)
        manager.drain(joiner)
        assert not store._inflight
        assert len(store) == 0  # the fallback never re-registers the stage

    def test_cancel_queued_query(self):
        _, _, _, manager, _ = make_manager(max_in_flight=1)
        running = manager.submit(AGG_SQL)
        queued = manager.submit(AGG_SQL)
        assert queued.state is QueryState.QUEUED
        assert manager.cancel(queued)
        assert queued.state is QueryState.FAILED
        manager.drain(running)
        assert running.state is QueryState.COMPLETED

    def test_completed_producer_commits_for_later_queries(self):
        _, engine, loop, manager, store = make_manager()
        first = manager.submit(AGG_SQL)
        manager.drain()
        later = manager.submit(AGG_SQL)
        manager.drain()
        assert later.result().report.artifact_hits == 1
        assert later.result().table.rows == first.result().table.rows
        assert store.published == 1
