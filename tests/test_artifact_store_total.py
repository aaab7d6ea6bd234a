"""The artifact store keeps its stored-rows total as it goes.

``_admit``, eviction and ``invalidate_table`` move a running total (a
refresh that replaces a same-stage artifact takes the old one's rows out),
and the ``artifacts.stored_rows`` gauge is set where it moves.  A probe of an
unchanged store -- ``acquire`` or ``bid`` -- sums no artifact.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.federation import ArtifactStore
from repro.federation.artifacts import Artifact, StagePayload
from repro.federation.columnar import ColumnBatch
from repro.federation.parts import Part
from repro.sim.metrics import MetricsRegistry

from tests.test_artifact_reuse import build_federation

KEYS = ["a", "b", "c", "d"]


def artifact(catalog, key: str, sizes: list) -> Artifact:
    """An artifact of ``items`` with one part per fragment, ``sizes`` rows
    each, read now."""
    now = catalog.clock.now()
    fragments = catalog.entry("items").fragments
    rows = sum(sizes)
    payload = StagePayload("rows", ColumnBatch(["v"], [list(range(rows))], rows))
    parts = tuple(
        Part(fragment, fragment.epoch, size, now)
        for fragment, size in zip(fragments, sizes)
    )
    return Artifact(key, "items", payload, rows, 0, float(rows), now, parts=parts)


def assert_total(store: ArtifactStore) -> None:
    total = sum(a.row_count for a in store._artifacts.values())
    assert store.stored_rows() == total
    assert store.metrics.gauge("artifacts.stored_rows").value == total


SIZES = st.lists(st.integers(0, 9), min_size=6, max_size=6)
STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("begin"), st.sampled_from(KEYS), SIZES),
        st.tuples(st.just("commit"), st.floats(0.0, 2.0)),
        st.tuples(st.just("write"), st.integers(0, 6)),  # 6: every fragment
    ),
    max_size=40,
)


@settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(steps=STEPS, max_rows=st.sampled_from([30, 60, 1_000]))
def test_stored_rows_is_the_sum_after_every_step(steps, max_rows):
    """Begin, commit (a refresh replaces a stale same-key artifact),
    eviction past ``max_rows`` and invalidation by a fragment write."""
    catalog = build_federation()
    store = ArtifactStore(catalog.clock, max_rows=max_rows)
    store.metrics = MetricsRegistry()
    for step in steps:
        if step[0] == "begin":
            _, key, sizes = step
            store.begin_stage(artifact(catalog, key, sizes), catalog.clock.now() + 1.0)
        elif step[0] == "commit":
            catalog.clock.advance(step[1])
            store.acquire("a")
        else:
            fragments = catalog.entry("items").fragments
            written = fragments[step[1]].fragment_id if step[1] < 6 else None
            catalog.notify_table_updated("items", written)
            store.invalidate_table("items")
        assert_total(store)


def test_a_refresh_replaces_the_stale_artifact_rows():
    catalog = build_federation()
    store = ArtifactStore(catalog.clock)
    store.metrics = MetricsRegistry()
    store.begin_stage(artifact(catalog, "a", [5] * 6), 0.0)
    store._sweep()
    assert store.stored_rows() == 30
    catalog.notify_table_updated("items", "f0")
    store.invalidate_table("items")  # f1..f5 still current: it stays
    assert store.stored_rows() == 30
    store.begin_stage(artifact(catalog, "a", [1] * 6), 0.0)
    store._sweep()
    assert store.stored_rows() == 6 and len(store) == 1
    assert_total(store)


def test_a_probe_of_an_unchanged_store_sums_no_artifact(monkeypatch):
    catalog = build_federation()
    store = ArtifactStore(catalog.clock)
    store.metrics = MetricsRegistry()
    for key in KEYS:
        store.begin_stage(artifact(catalog, key, [2] * 6), 0.0)
    store._sweep()
    read = []
    row_count = Artifact.row_count

    def counted(self):
        read.append(self.key)
        return row_count.fget(self)

    monkeypatch.setattr(Artifact, "row_count", property(counted))
    assert store.acquire("a") is not None and store.acquire("zz") is None
    assert read == []
    assert store.bid("b") is not None  # its price reads the one it serves
    assert read == ["b"]
    assert store.stored_rows() == 48 and read == ["b"]
