"""``?`` as a LIKE pattern and as the LIMIT count.

The two grammar positions that took a literal token but no placeholder
used to send every arrival of such a statement down a textual-binding
fallback (re-tokenised, re-parsed, re-planned, re-auctioned).  They are
ordinary placeholders now.  Covered here: prepared == inlined == sqlite3
under every optimizer, for an ungoverned and a governed tenant, over three
executions and across a repartition; the property that made deleting the
fallback sound (a template that does not parse has no binding that does);
digests and EXPLAIN text that did not move; the plan cache's
text -> normalized-key memo; and an int bound to a whole ORDER BY or GROUP
BY key, a constant through the ad hoc binder as through a template.
"""

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core import DataType, Field, Schema, Table
from repro.core.errors import BindError, QueryError
from repro.federation import (
    AgoricOptimizer,
    ArtifactStore,
    CentralizedOptimizer,
    FederatedEngine,
    FederationCatalog,
    Gateway,
    PolicyOptimizer,
    RoundRobinPolicy,
    WorkloadManager,
)
from repro.federation.artifacts import stage_keys
from repro.federation.gateway import PlanCache, bind_sql_text
from repro.federation.governance import GovernanceRegistry
from repro.sim import EventLoop, SimClock
from repro.sql.params import bind_plan
from repro.sql.parser import parse_sql
from repro.sql.sqltext import render_literal, replace_placeholders
from benchmarks.e2e.oracle import rows_match
from tests.sqlite_oracle import sqlite_answer

OPTIMIZERS = {
    "agoric": AgoricOptimizer,
    "centralized": CentralizedOptimizer,
    "policy": lambda catalog: PolicyOptimizer(catalog, RoundRobinPolicy()),
}
ROWS = [(f"k{i:04d}", i) for i in range(60)]
RLS_MIN_V = 10
MANIFEST = {
    "version": 1,
    "tenants": {
        "acme": {
            "tables": {
                "items": {"row_filter": f"v >= {RLS_MIN_V}", "masks": {"k": "last4"}}
            }
        }
    },
}
# What each tenant's ``items`` is, by definition: mask(sigma_RLS(items)).
VISIBLE = {
    None: ROWS,
    "acme": [("*" + k[-4:], v) for k, v in ROWS if v >= RLS_MIN_V],
}


def build(optimizer="agoric"):
    fragments = 4
    catalog = FederationCatalog(SimClock())
    sites = [catalog.make_site(f"s{i}").name for i in range(3)]
    schema = Schema(
        "items", (Field("k", DataType.STRING), Field("v", DataType.INTEGER))
    )
    placement = [[sites[i % 3], sites[(i + 1) % 3]] for i in range(fragments)]
    catalog.load_fragmented(Table(schema, ROWS), fragments, placement)
    engine = FederatedEngine(
        catalog,
        optimizer=OPTIMIZERS[optimizer](catalog),
        governance=GovernanceRegistry(MANIFEST),
    )
    return catalog, engine


# (template, parameters, rows come back in a defined order)
SHAPES = [
    ("select k, v from items where k like ?", ("%001_",), False),
    ("select k from items where k not like ?", ("%5",), False),
    ("select k, v from items order by v desc limit ?", (5,), True),
    ("select k from items where k like ? order by k limit ?", ("%2_", 3), True),
    ("select k, v from items limit ?", (0,), True),
    (
        "select k from items where k like ? or not (v < ? or k like ?)",
        ("%3", 50, "%7"),
        False,
    ),
    (
        "select v from items where v in (select v from items where k like ?)",
        ("%01_",),
        False,
    ),
    (
        "select count(*) from items where v in "
        "(select v from items where k not like ? order by v limit ?)",
        ("%0", 7),
        True,
    ),
    (
        "select k from items where v in (select v from items where v in "
        "(select v from items where k like ?) and v < ?)",
        ("%1_", 40),
        False,
    ),
]


# A ``?`` that is a whole ORDER BY or GROUP BY key binds a constant, however
# the statement is bound: the ad hoc binder must not inline an int there as
# an output position (``order by 2`` sorts by the second column).
BOUND_KEYS = [
    ("select k, v from items order by ? desc, k limit ?", (2, 3)),
    ("select k from items where v < ? order by ?, k desc limit ?", (30, -1, 2)),
    ("select count(*) as n, sum(v) as total from items group by ?", (1,)),
    ("select count(*) as n from items where v >= ? group by ? order by ?", (50, 2, 1)),
]


@pytest.mark.parametrize("template,params", BOUND_KEYS)
def test_a_bound_int_key_is_a_constant_through_every_binder(template, params):
    _, engine = build()
    _, expected = sqlite_answer({"items": (["k", "v"], ROWS)}, template, params=params)
    adhoc = engine.query(bind_sql_text(template, params)).table.rows
    bound = engine.execute(engine.prepare(template), params).table.rows
    assert adhoc == bound
    assert rows_match(adhoc, expected, True)


class TestPreparedEqualsInlinedEqualsSqlite:
    @pytest.mark.parametrize("tenant", [None, "acme"], ids=["ungoverned", "last4"])
    @pytest.mark.parametrize("optimizer", sorted(OPTIMIZERS))
    @pytest.mark.parametrize("template,params,ordered", SHAPES)
    def test_three_executions(self, template, params, ordered, optimizer, tenant):
        _, engine = build(optimizer)
        inlined = bind_sql_text(template, params)
        _, expected = sqlite_answer({"items": (["k", "v"], VISIBLE[tenant])}, inlined)
        prepared = engine.prepare(template, tenant=tenant)
        assert prepared.param_count == len(params)
        # Cold, column slices marked, column orders built: the third
        # execution is the one the kernels' probe path answers.
        for _ in range(3):
            bound = engine.execute(prepared, params).table.rows
            adhoc = engine.query(inlined, tenant=tenant).table.rows
            assert bound == adhoc
            assert rows_match(bound, expected, ordered)
        assert prepared.replans == 0

    @pytest.mark.parametrize("tenant", [None, "acme"], ids=["ungoverned", "last4"])
    def test_unordered_limit_keeps_that_many_visible_rows(self, tenant):
        _, engine = build()
        prepared = engine.prepare("select k, v from items limit ?", tenant=tenant)
        for count in (7, 1, 1000):
            rows = engine.execute(prepared, (count,)).table.rows
            adhoc = engine.query(f"select k, v from items limit {count}", tenant=tenant)
            assert rows == adhoc.table.rows
            assert len(rows) == min(count, len(VISIBLE[tenant]))
            assert set(rows) <= set(VISIBLE[tenant])

    @pytest.mark.parametrize("tenant", ["default", "acme"])
    def test_a_repartition_replans_the_template_once(self, tenant):
        catalog, engine = build()
        gateway = Gateway(WorkloadManager(engine, EventLoop(catalog.clock)))
        sql = "select k from items where k like ? order by k limit ?"
        with gateway.connect(tenant=tenant) as session:
            before = session.execute(sql, ("%1_", 4))
            catalog.repartition("items", 3, [[f"s{i}"] for i in range(3)])
            after = session.execute(sql, ("%1_", 4))
        assert after.prepared is before.prepared
        assert after.prepared.replans == 1
        assert after.rows == before.rows and len(after.rows) == 4
        assert (gateway.plan_cache.misses, gateway.plan_cache.hits) == (1, 1)


class TestValuesAreCheckedWhereTheyBind:
    @pytest.mark.parametrize("bad", [1.5, -1, "x", True, None])
    def test_a_limit_count_is_a_non_negative_int(self, bad):
        _, engine = build()
        for sql in (
            "select v from items limit ?",
            "select v from items where v in (select v from items limit ?)",
        ):
            prepared = engine.prepare(sql)
            with pytest.raises(BindError, match="LIMIT needs a non-negative integer"):
                engine.execute(prepared, (bad,))
            assert engine.execute(prepared, (2,)).table.rows  # template unharmed

    @pytest.mark.parametrize("bad", [None, 5, 2.5, False])
    def test_a_like_pattern_is_a_string(self, bad):
        _, engine = build()
        for sql in (
            "select v from items where k like ?",
            "select v from items where v in (select v from items where k not like ?)",
        ):
            with pytest.raises(BindError, match="LIKE needs a string pattern"):
                engine.execute(engine.prepare(sql), (bad,))

    def test_an_unbound_template_is_refused_not_crashed(self):
        _, engine = build()
        for sql in ("select v from items limit ?", "select v from items where k like ?"):
            prepared = engine.prepare(sql)
            with pytest.raises(QueryError, match=r"unbound parameter \?1"):
                engine._run_physical(
                    prepared.logical, prepared.physical, prepared.options
                )

    def test_placeholders_number_left_to_right_across_scopes(self):
        statement = parse_sql(
            "select v from items where k like ? and v in "
            "(select v from items where v < ? and k like ? limit ?) limit ?"
        )
        assert statement.limit.index == 4
        inner = statement.where.right.subquery
        assert inner.limit.index == 3 and inner.where.right.pattern.index == 2
        assert statement.where.left.pattern.index == 0


# -- why the textual-binding fallback could be deleted --------------------------

SEEDS = [
    "select k , v from items i where k like 'k%' and v < 1 limit 1",
    "select count ( * ) , k from items where v between 1 and 1.5 group by k "
    "having count ( * ) > 1 order by k desc limit 1",
    "select distinct k from items a join items b on a . v = b . v "
    "where a . k not like '' or not ( v in ( 1 , 1.5 ) )",
    "select v from items where v in ( select v from items where k like 'k%' "
    "limit 1 ) and k is not null",
    "select - v + 1 * 1.5 as x from items where k contains 'k%' and v = true "
    "order by v limit 1",
]
LITERAL_TOKENS = {"'k%'", "''", "1", "1.5", "true", "null"}
SOUP = (
    "select k v from items i where like not limit and or ? ? ? , ( ) * in is "
    "null between order by group having join on left as distinct contains "
    "desc 'k%' '' = < <> + - / . 1 1.5 count true"
).split(" ")
BINDABLE = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=5),
)


@st.composite
def token_soup(draw):
    """Space-separated tokens with at least one ``?``: a grammatical
    statement with some literals turned into placeholders, then up to three
    random token edits -- near the grammar, where a parse can flip."""
    tokens = [
        "?" if token in LITERAL_TOKENS and draw(st.booleans()) else token
        for token in draw(st.sampled_from(SEEDS)).split(" ")
    ]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(tokens)))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        if edit == "insert":
            tokens.insert(at, draw(st.sampled_from(SOUP)))
        elif at < len(tokens):
            if edit == "delete":
                del tokens[at]
            else:
                tokens[at] = draw(st.sampled_from(SOUP))
    if "?" not in tokens:
        tokens.insert(draw(st.integers(0, len(tokens))), "?")
    return tokens


def parses(sql):
    try:
        parse_sql(sql)
    except QueryError:
        return False
    return True


class TestNoBindingRescuesATemplateThatDoesNotParse:
    """The deleted fallback bound values into the text of a statement whose
    template did not parse and ran the result.  With ``?`` accepted
    wherever a literal token is, that can only ever have answered by
    letting a *value* change the statement's structure -- the three pastes
    pinned below -- which is no service to keep."""

    @settings(
        max_examples=400, deadline=None, suppress_health_check=list(HealthCheck)
    )
    @given(tokens=token_soup(), data=st.data())
    def test_template_does_not_parse_implies_no_bound_text_does(self, tokens, data):
        template = " ".join(tokens)
        slots = [i for i, token in enumerate(tokens) if token == "?"]
        replace_placeholders(template, ["0"] * len(slots))  # raises unless one per slot
        params = tuple(data.draw(BINDABLE) for _ in slots)
        for slot, value in zip(slots, params):
            # The two pastes that are not a literal for a literal.
            assume(not render_literal(value).startswith("-"))
            if value is None:
                assume(tokens[slot - 1 : slot] != ["is"])
                assume(tokens[max(slot - 2, 0) : slot] != ["is", "not"])
        if not parses(template):
            assert not parses(bind_sql_text(template, params))

    @pytest.mark.parametrize(
        "template,params,pasted",
        [
            # a negative number is two tokens: the sign became an operator
            ("select v ? from items", (-5,), "select v -5 from items"),
            # IS [NOT] NULL is a keyword position, not a literal's
            ("select v from items where k is ?", (None,), None),
            ("select v from items where k is not ?", (None,), None),
            # no space: the literal fused with its neighbour into one token
            ("select v from items limit 1?", (5,), "select v from items limit 15"),
        ],
    )
    def test_the_pastes_that_changed_the_statement_fail_at_the_door(
        self, template, params, pasted
    ):
        assert not parses(template)
        bound = bind_sql_text(template, params)
        assert parses(bound) and (pasted is None or bound == pasted)
        catalog, engine = build()
        gateway = Gateway(WorkloadManager(engine, EventLoop(catalog.clock)))
        with gateway.connect() as session:
            with pytest.raises(QueryError):
                session.execute(template, params)
        assert gateway.workload.in_flight == 0 and gateway.workload.dispatched == 0


# -- what must not have moved ---------------------------------------------------


class TestBoundSpellingEqualsInlinedSpelling:
    def stage_key(self, catalog, store, logical):
        (compiled,) = stage_keys(catalog, logical).values()
        return store.stage_key(compiled)

    def test_stage_digest_of_a_bound_pattern_is_the_inlined_one(self):
        catalog, _ = build()
        engine = FederatedEngine(catalog)
        store = ArtifactStore(catalog.clock)
        for inlined, template, params in [
            ("select v from items where k like 'k00%'", "select v from items where k like ?", ("k00%",)),
            ("select v from items where k not like 'it''s_'", "select v from items where k not like ?", ("it's_",)),
        ]:
            adhoc = engine.prepare(inlined).logical
            bound = bind_plan(engine.prepare(template).logical, params)
            assert self.stage_key(catalog, store, bound) == (
                self.stage_key(catalog, store, adhoc)
            )

    def test_the_digest_is_the_one_the_parent_commit_computed(self):
        # tests/test_artifact_reuse.py's federation: 120 rows, 6 fragments.
        from tests.test_artifact_reuse import build_federation, stage_key_of

        catalog = build_federation()
        store = ArtifactStore(catalog.clock)
        like = stage_key_of(catalog, store, "select v from items where k like 'k00%'")
        limited = stage_key_of(
            catalog, store, "select v from items where k not like 'k00%' limit 3"
        )
        assert (like, limited) == ("0d12457c8f7b1326", "737fcd538c53b5c4")

    def test_explain_analyze_reads_the_same(self):
        from tests.test_artifact_reuse import build_federation

        adhoc_engine = FederatedEngine(build_federation())
        adhoc = adhoc_engine.explain(
            "select v from items where k like 'k00%' limit 3", analyze=True
        )
        # Pinned at the parent commit: operator details spell the literal.
        assert "SiteFilter  @ s0,s1  rows_in=120 rows_out=100" in adhoc
        assert adhoc.count("(k like 'k00%')") == 1 and "seconds=0.000000  3\n" in adhoc
        engine = FederatedEngine(build_federation())
        prepared = engine.prepare("select v from items where k like ? limit ?")
        result = engine.execute(prepared, ("k00%", 3), advance_clock=False)
        assert result.report.operators.tree_lines() == adhoc.splitlines()[3:]


# -- the plan cache's text memo ---------------------------------------------------


class TestTextMemo:
    def cache(self, capacity=4):
        catalog, engine = build()
        return catalog, engine, PlanCache(engine, capacity=capacity)

    def test_two_spellings_share_one_plan_and_tokenize_once_each(self, monkeypatch):
        from repro.federation import gateway as gateway_module

        calls = []
        real = gateway_module.normalize_sql
        monkeypatch.setattr(
            gateway_module, "normalize_sql", lambda sql: calls.append(sql) or real(sql)
        )
        _, _, cache = self.cache()
        spellings = [
            "select k from items where k like ? limit ?",
            "SELECT k  FROM items -- hot\n WHERE k LIKE ? LIMIT ?",
        ]
        templates = {
            id(cache.get_or_prepare(sql)) for _ in range(5) for sql in spellings
        }
        assert len(templates) == 1 and len(cache) == 1
        assert (cache.misses, cache.hits) == (1, 9)
        assert calls == spellings  # one normalisation per distinct text
        assert len(cache._normalized) == 2

    def test_the_memo_never_outgrows_capacity(self):
        _, _, cache = self.cache(capacity=4)
        for i in range(40):
            cache.get_or_prepare(f"select k from items where v < {i}")
            assert len(cache._normalized) <= 4 and len(cache) <= 4
        assert cache.evictions == 36
        # Text that lexes but does not parse is bounded like any other.
        for i in range(10):
            with pytest.raises(QueryError):
                cache.get_or_prepare(f"select from {i}")
        assert len(cache._normalized) == 4

    def test_an_evicted_plan_is_prepared_again_from_a_remembered_text(self):
        _, _, cache = self.cache(capacity=2)
        hot = "select k from items where k like ?"
        first = cache.get_or_prepare(hot)
        # Same text under other plan-shaping options: two more plans, one
        # memo entry -- the hot text's plan is evicted, its key is not.
        cache.get_or_prepare(hot, max_staleness=5.0)
        cache.get_or_prepare(hot, coordinator="s1")
        assert len(cache._normalized) == 1 and cache.evictions == 1
        again = cache.get_or_prepare(hot)
        assert again is not first and cache.misses == 4

    def test_a_manifest_edit_and_a_catalog_bump_behave_as_before(self):
        catalog, engine, cache = self.cache()
        sql = "select k from items where k like ? order by k limit ?"
        governed = cache.get_or_prepare(sql, tenant="acme")
        assert cache.get_or_prepare(sql, tenant="acme") is governed
        edited = {
            "version": 1,
            "tenants": {"acme": {"tables": {"items": {"masks": {"k": "redact"}}}}},
        }
        engine.governance.load_manifest(edited)
        # The memo kept the text's key; the signature half of the plan key
        # moved, so the edited tenant misses to a freshly governed plan.
        fresh = cache.get_or_prepare(sql, tenant="acme")
        assert fresh is not governed and cache.misses == 2
        assert engine.execute(fresh, ("%", 2)).table.rows == [("***",), ("***",)]
        # A catalog bump is not the cache's business: same entry, and the
        # engine replans it on its next execution.
        catalog.repartition("items", 3, [[f"s{i}"] for i in range(3)])
        assert cache.get_or_prepare(sql, tenant="acme") is fresh
        engine.execute(fresh, ("%", 2))
        assert fresh.replans == 1
