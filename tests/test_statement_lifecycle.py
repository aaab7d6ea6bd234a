"""One statement lifecycle (DESIGN §5g): every way a statement can reach the
engine is template -> validate -> bind -> run -> settle in one body, so
every way answers with the same rows, under the name of the tenant that
asked, on that tenant's ledger, once.

The matrix: seven entry paths x {ungoverned, governed, a second tenant
sharing the first's policy signature} x {plain, ``?`` placeholders,
``IN (SELECT ...)``} x the three optimizers, refereed by sqlite3 over the
tenant's RLS view; then what a re-execution (a cancelled producer's
fallback, a ``site_event`` replan) may and may not repeat, the budget rule
on every path, and what the ad-hoc path leaves in the metrics registry.
"""

from types import SimpleNamespace

import pytest

from repro.core import DataType, Field, Schema, Table
from repro.core.errors import QueryError
from repro.federation import (
    ArtifactStore,
    CentralizedOptimizer,
    FederatedEngine,
    FederationCatalog,
    PolicyOptimizer,
    RoundRobinPolicy,
    WorkloadManager,
    dbapi,
)
from repro.federation.agoric import BudgetExceededError
from repro.federation.gateway import Gateway, bind_sql_text
from repro.federation.governance import GovernanceRegistry
from repro.federation.workload import QueryState
from repro.sim import EventLoop, SimClock

from tests.sqlite_oracle import sqlite_answer

COLUMNS = ("id", "region", "total")
ROWS = [(i, i % 2, i * 3 % 41) for i in range(40)]

# alice and bob declare byte-identical policies (one signature, so one
# shared template); carol's differs; any other name is ungoverned.
EVEN = {"tables": {"orders": {"row_filter": "region = 0"}}, "budget": {"credits": 50.0}}
MANIFEST = {
    "version": 1,
    "tenants": {
        "alice": EVEN,
        "bob": EVEN,
        "carol": {
            "tables": {"orders": {"row_filter": "region = 1"}},
            "budget": {"credits": 50.0},
        },
    },
}
LEDGERS = ("alice", "bob", "carol")

OPTIMIZERS = {
    "agoric": lambda catalog: None,
    "centralized": CentralizedOptimizer,
    "policy": lambda catalog: PolicyOptimizer(catalog, RoundRobinPolicy()),
}

SHAPES = {
    "plain": ("select id, total from orders where total > 5", ()),
    "placeholders": (
        "select id, total from orders where total > ? and total < ?",
        (5, 30),
    ),
    "subquery": (
        "select count(*), sum(total) from orders where region in "
        "(select region from orders where total > ?)",
        (10,),
    ),
}


class World:
    def __init__(self, optimizer="agoric", manifest=MANIFEST, artifacts=False, **kw):
        self.catalog = FederationCatalog(SimClock())
        names = [self.catalog.make_site(f"s{i}").name for i in range(4)]
        schema = Schema(
            "orders", tuple(Field(c, DataType.INTEGER) for c in COLUMNS)
        )
        self.catalog.load_fragmented(
            Table(schema, ROWS), 2, [names[:2], names[2:]]
        )
        self.governance = GovernanceRegistry(manifest)
        self.engine = FederatedEngine(
            self.catalog,
            optimizer=OPTIMIZERS[optimizer](self.catalog),
            governance=self.governance,
            artifacts=ArtifactStore(self.catalog.clock) if artifacts else None,
            **kw,
        )
        self.manager = WorkloadManager(
            self.engine, EventLoop(self.catalog.clock), max_in_flight=4
        )
        self.gateway = Gateway(self.manager)
        # Every debit the engine makes, as (tenant, price).
        self.debits = []
        charge = self.governance.charge

        def recording(tenant, price):
            self.debits.append((tenant, price))
            charge(tenant, price)

        self.governance.charge = recording

    def spent(self):
        return {
            name: 50.0 - self.governance.remaining_budget(name) for name in LEDGERS
        }

    def drained(self, handle):
        self.manager.drain(handle)
        return handle.result()


# -- the seven ways in: (world, tenant, sql, params) -> QueryResult ---------------


def by_query(world, tenant, sql, params):
    return world.engine.query(bind_sql_text(sql, params), tenant=tenant)


def by_execute(world, tenant, sql, params):
    return world.engine.execute(world.engine.prepare(sql, tenant=tenant), params)


def by_gateway(world, tenant, sql, params):
    with world.gateway.connect(tenant=tenant or "default") as session:
        return session.execute(sql, params).result


def _cursor_result(cursor, rows):
    """What a DB-API user sees of a QueryResult: rows, plan and report."""
    return SimpleNamespace(
        table=SimpleNamespace(rows=rows),
        plan=cursor.last_plan,
        report=cursor.last_report,
        options=None,
    )


def by_cursor(world, tenant, sql, params):
    """An ungoverned caller names no tenant: ``connect`` makes it "default"."""
    named = {} if tenant is None else {"tenant": tenant}
    with dbapi.connect(world.gateway, **named) as connection:
        cursor = connection.cursor().execute(sql, params)
        return _cursor_result(cursor, cursor.fetchall())


def by_tenanted_cursor(world, tenant, sql, params):
    """The tenant always named, the rows read one ``fetchone`` at a time."""
    with dbapi.connect(world.gateway, tenant=tenant or "default") as connection:
        cursor = connection.cursor().execute(sql, params)
        return _cursor_result(cursor, list(cursor))


def by_submitted_sql(world, tenant, sql, params):
    return world.drained(
        world.manager.submit(bind_sql_text(sql, params), tenant=tenant or "default")
    )


def by_submitted_template(world, tenant, sql, params):
    prepared = world.gateway.plan_cache.get_or_prepare(sql, tenant=tenant)
    return world.drained(
        world.manager.submit(
            prepared=prepared, params=params, tenant=tenant or "default"
        )
    )


PATHS = {
    "query": by_query,
    "execute": by_execute,
    "gateway": by_gateway,
    "cursor": by_cursor,
    "tenanted-cursor": by_tenanted_cursor,
    "submit-sql": by_submitted_sql,
    "submit-prepared": by_submitted_template,
}


def oracle(tenant, sql, params):
    """sqlite3 over the rows the tenant's policy lets it see."""
    visible = ROWS if tenant is None else [r for r in ROWS if r[1] == 0]
    _, rows = sqlite_answer({"orders": (COLUMNS, visible)}, bind_sql_text(sql, params))
    return sorted(rows)


@pytest.mark.parametrize("optimizer", OPTIMIZERS)
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("path", PATHS)
def test_every_path_answers_as_and_bills_the_tenant_that_asked(
    path, shape, optimizer
):
    """Ungoverned, then alice, then bob -- who shares alice's signature, so
    on the caching paths runs the template compiled for alice."""
    world = World(optimizer)
    sql, params = SHAPES[shape]
    for tenant in (None, "alice", "bob"):
        before, seen = world.spent(), len(world.debits)
        result = PATHS[path](world, tenant, sql, params)
        # Clients of the front doors are always somebody: "default".
        asker = tenant if path in ("query", "execute") else tenant or "default"
        assert sorted(result.table.rows) == oracle(tenant, sql, params)
        assert result.report.governed_tenant == tenant
        if result.options is not None:
            assert result.options.tenant == asker
        # The asker pays the plan's price -- an IN (SELECT) statement also
        # its one inner select's, a debit of its own -- and nobody else pays.
        debits = world.debits[seen:]
        assert len(debits) == (2 if shape == "subquery" else 1)
        assert {name for name, _ in debits} == {asker}
        assert debits[-1][1] == result.plan.total_price
        after = world.spent()
        for name in LEDGERS:
            owed = sum(price for _, price in debits) if name == tenant else 0.0
            assert after[name] - before[name] == pytest.approx(owed, abs=1e-12)
        if optimizer == "agoric" and tenant is not None:
            assert after[tenant] > before[tenant]


# -- the drift the three hand-kept copies had grown --------------------------------


def test_a_shared_template_is_billed_to_whoever_executes_it():
    """(a) alice x1 then bob x3 over equal-signature policies."""
    world = World()
    sql = "select count(*) from orders where total > ?"
    prices = {"alice": [], "bob": []}
    for tenant, times in (("alice", 1), ("bob", 3)):
        with world.gateway.connect(tenant=tenant) as session:
            for _ in range(times):
                outcome = session.execute(sql, (1,))
                assert outcome.result.report.governed_tenant == tenant
                assert outcome.result.options.tenant == tenant
                prices[tenant].append(outcome.result.plan.total_price)
    assert world.gateway.plan_cache.misses == 1  # one template, by design
    assert outcome.prepared.options.tenant == "alice"  # compiled for alice
    spent = world.spent()
    assert spent["alice"] == pytest.approx(sum(prices["alice"]))
    assert spent["bob"] == pytest.approx(sum(prices["bob"]))
    assert [name for name, _ in world.debits] == ["alice", "bob", "bob", "bob"]


@pytest.mark.parametrize("path", ["gateway", "cursor", "tenanted-cursor"])
def test_a_governed_subquery_statement_runs_through_the_front_doors(path):
    """(b) every template is stamped where it is built, subqueries too."""
    world = World()
    sql, params = SHAPES["subquery"]
    result = PATHS[path](world, "alice", sql, params)
    assert sorted(result.table.rows) == oracle("alice", sql, params)
    template = world.engine.prepare(sql, tenant="alice")
    assert template.has_subqueries and template.logical is None
    assert template.policy_signature == world.governance.signature_for("alice")
    assert template.catalog_version == world.catalog.version


REPORT_SQL = "select region, count(*), sum(total) from orders group by region"


def submit_sql(world, tenant):
    return world.manager.submit(REPORT_SQL, tenant=tenant)


def submit_prepared(world, tenant):
    prepared = world.gateway.plan_cache.get_or_prepare(REPORT_SQL, tenant=tenant)
    return world.manager.submit(prepared=prepared, tenant=tenant)


class TestReExecution:
    def joined(self, submit):
        """A producer, and a subscriber that joined its in-flight stage."""
        world = World(artifacts=True)
        producer = submit(world, "alice")
        subscriber = submit(world, "bob")
        assert world.engine.artifacts.joins == 1
        return world, producer, subscriber

    @pytest.mark.parametrize("submit", [submit_sql, submit_prepared])
    def test_a_fallback_is_not_a_second_debit(self, submit):
        """(c) the subscriber paid at dispatch; its producer's death costs
        it a re-execution, not a second purchase."""
        world, producer, subscriber = self.joined(submit)
        paid = subscriber._inflight_result.plan.total_price
        assert world.manager.cancel(producer)
        world.manager.drain()
        result = subscriber.result()
        assert world.engine.artifacts.fallbacks == 1
        assert subscriber.state is QueryState.COMPLETED
        assert result.report.artifact_joins == 0 and result.report.rows_fetched > 0
        assert not result.options.reuse_artifacts
        assert result.options.tenant == result.report.governed_tenant == "bob"
        assert sorted(result.table.rows) == oracle("bob", REPORT_SQL, ())
        assert [name for name, _ in world.debits] == ["alice", "bob"]
        assert world.spent()["bob"] == pytest.approx(paid)
        if subscriber.prepared is not None:  # the template's plan, replayed
            assert result.plan.total_price == paid
        else:  # planned again, at today's prices, on the house
            assert result.plan.optimization_seconds > 0

    @pytest.mark.parametrize("submit", [submit_sql, submit_prepared])
    def test_a_site_event_replan_is_not_a_second_debit(self, submit):
        world = World()
        handle = submit(world, "alice")
        paid = handle._inflight_result.plan.total_price
        pending = sorted(handle._inflight_result.report.site_work)[0]
        world.manager.site_event(pending, "slow")
        assert world.manager.replans == 1
        result = world.drained(handle)
        assert result.plan.total_price == paid
        assert result.report.governed_tenant == result.options.tenant == "alice"
        assert world.debits == [("alice", paid)]
        assert world.spent() == pytest.approx({"alice": paid, "bob": 0.0, "carol": 0.0})

    def test_a_fallen_back_subquery_statement_buys_no_inner_select_twice(self):
        world = World(artifacts=True)
        sql = bind_sql_text(*SHAPES["subquery"])
        producer = world.manager.submit(sql, tenant="alice")
        subscriber = world.manager.submit(sql, tenant="bob")
        assert world.engine.artifacts.joins >= 1
        world.manager.cancel(producer)
        world.manager.drain()
        assert sorted(subscriber.result().table.rows) == oracle("bob", sql, ())
        assert [name for name, _ in world.debits] == ["alice"] * 2 + ["bob"] * 2


class TestValidation:
    SQL = "select id from orders where total > ?"

    def test_a_template_is_refused_to_a_tenant_with_another_signature(self):
        world = World()
        prepared = world.engine.prepare(self.SQL, tenant="alice")
        for foreign in ("carol", None):
            options = prepared.options.__class__(tenant=foreign)
            with pytest.raises(QueryError, match="different governance policy"):
                world.engine.execute(prepared, (5,), options=options)
        assert world.debits == [] and prepared.replans == 0
        # ... the same check, reached through the workload manager:
        handle = world.manager.submit(prepared=prepared, params=(5,), tenant="carol")
        with pytest.raises(QueryError, match="prepare it for tenant 'carol'"):
            handle.result()
        # ... and shared by the tenant whose signature it is.
        options = prepared.options.__class__(tenant="bob")
        result = world.engine.execute(prepared, (5,), options=options)
        assert result.report.governed_tenant == "bob"
        assert sorted(result.table.rows) == oracle("bob", self.SQL, (5,))

    def test_an_edited_policy_replans_for_its_owner_and_refuses_the_rest(self):
        world = World()
        prepared = world.engine.prepare(self.SQL, tenant="alice")
        edited = {
            "version": 1,
            "tenants": {
                **MANIFEST["tenants"],
                "alice": {"tables": {"orders": {"row_filter": "region = 1"}}},
            },
        }
        world.governance.load_manifest(edited)
        rows = world.engine.execute(prepared, (5,)).table.rows
        assert prepared.replans == 1
        assert sorted(rows) == sorted((r[0],) for r in ROWS if r[1] == 1 and r[2] > 5)
        # bob's signature is the one the template *was* compiled for.
        with pytest.raises(QueryError, match="different governance policy"):
            world.engine.execute(
                prepared, (5,), options=prepared.options.__class__(tenant="bob")
            )

    def test_a_replan_that_cannot_be_bought_leaves_the_template_as_it_was(self):
        world = World(manifest=TIGHT)
        prepared = world.engine.prepare(self.SQL, tenant="poor")
        world.engine.execute(prepared, (5,))  # exhausts the budget
        before = (prepared.logical, prepared.physical, prepared.catalog_version)
        world.catalog.notify_table_updated("orders")
        with pytest.raises(BudgetExceededError):
            world.engine.execute(prepared, (5,))
        assert (
            prepared.logical, prepared.physical, prepared.catalog_version
        ) == before
        assert prepared.replans == 0


# -- the budget rule, written once -------------------------------------------------

TIGHT = {
    "version": 1,
    "tenants": {
        "poor": {
            "tables": {"orders": {"row_filter": "region = 0"}},
            "budget": {"credits": 0.0001, "on_exhausted": "reject"},
        }
    },
}

BUDGET_SQL = "select id from orders where total > 5"
BUDGET_SUBQUERY = (
    "select id from orders where region in (select region from orders)"
)


def _exhausted():
    """A ``reject`` tenant that has spent past its credits, holding a
    template prepared while it still could."""
    world = World(manifest=TIGHT)
    prepared = world.engine.prepare(BUDGET_SQL, tenant="poor")
    world.engine.execute(prepared)
    assert world.governance.remaining_budget("poor") < 0
    return world, prepared


def _submitted(world, **how):
    handle = world.manager.submit(tenant="poor", **how)
    world.manager.drain(handle)
    return handle.result()


def _execute_stale(world, prepared):
    world.catalog.notify_table_updated("orders")
    return world.engine.execute(prepared)


# path -> (what an exhausted ``reject`` tenant gets, how it asks).  Whichever
# execution *plans* bids under the tenant's remaining budget; a reused
# template buys nothing new and is gated by workload admission only.
BUDGET_CELLS = {
    "ad-hoc": (
        BudgetExceededError,
        lambda world, prepared: world.engine.query(BUDGET_SQL, tenant="poor"),
    ),
    "ad-hoc subquery": (
        BudgetExceededError,
        lambda world, prepared: world.engine.query(BUDGET_SUBQUERY, tenant="poor"),
    ),
    "prepared subquery": (
        BudgetExceededError,
        lambda world, prepared: world.engine.execute(
            world.engine.prepare(BUDGET_SUBQUERY, tenant="poor")
        ),
    ),
    "prepare alone": (
        None,
        lambda world, prepared: world.engine.prepare(BUDGET_SQL, tenant="poor"),
    ),
    "reused template, direct": (
        None,
        lambda world, prepared: world.engine.execute(prepared),
    ),
    # The one cell PR 24 moved: the replan used to be bought uncapped.
    "stale template, direct": (BudgetExceededError, _execute_stale),
    "workload.submit(sql=)": (
        QueryError,  # BudgetExhaustedError: shed at admission
        lambda world, prepared: _submitted(world, sql=BUDGET_SQL),
    ),
    "workload.submit(prepared=)": (
        QueryError,
        lambda world, prepared: _submitted(world, prepared=prepared),
    ),
}


@pytest.mark.parametrize("cell", BUDGET_CELLS)
def test_the_bid_cap_binds_whichever_execution_plans(cell):
    outcome, ask = BUDGET_CELLS[cell]
    world, prepared = _exhausted()
    before = world.governance.remaining_budget("poor")
    if outcome is None:
        ask(world, prepared)
    else:
        with pytest.raises(outcome):
            ask(world, prepared)
        assert world.governance.remaining_budget("poor") == before


def test_a_caller_budget_needs_an_optimizer_that_prices_plans():
    world = World("centralized")
    with pytest.raises(QueryError, match="does not price plans"):
        world.engine.query(BUDGET_SQL, budget=1.0)
    assert world.engine.query(BUDGET_SQL).table.rows  # no cap, no complaint


def test_admission_gated_overshoot_is_unmoved():
    """A template admitted with credits left completes even when its price
    overshoots them: nothing re-plans, so nothing re-bids (E17's
    ``poor-reject`` row)."""
    world = World(manifest=TIGHT)
    prepared = world.gateway.plan_cache.get_or_prepare(BUDGET_SQL, tenant="poor")
    assert _submitted(world, prepared=prepared).table.rows
    assert world.governance.remaining_budget("poor") < 0
    with pytest.raises(QueryError, match="budget"):
        _submitted(world, prepared=prepared)


# -- what the ad-hoc path leaves behind ---------------------------------------------


def test_the_ad_hoc_path_counts_no_prepared_statement():
    world = World()
    world.engine.query(BUDGET_SQL, tenant="alice")
    world.engine.query(bind_sql_text(*SHAPES["subquery"]))
    world.engine.explain(BUDGET_SQL, analyze=True, tenant="alice")
    snapshot = world.engine.metrics.snapshot()
    assert {name for name in snapshot if not name.startswith("operator.")} == {
        "bytes.shipped", "governance.queries_policed",
        "pruning.fragments_pruned", "pruning.fragments_total", "queries",
        "query.completeness.count", "query.completeness.mean",
        "query.response_seconds.count", "query.response_seconds.mean",
        "query.staleness_seconds.count", "query.staleness_seconds.mean",
        "rows.fetched", "rows.shipped",
    }  # no queries.prepared, queries.prepared_executions, prepared.replans
    assert snapshot["queries"] == 4  # the inner select is an execution too
    assert snapshot["governance.queries_policed"] == 2
    prepared = world.engine.prepare(BUDGET_SQL)
    world.engine.execute(prepared)
    world.manager.drain(world.manager.submit(prepared=prepared))
    world.manager.drain(world.manager.submit(BUDGET_SQL))
    snapshot = world.engine.metrics.snapshot()
    assert snapshot["queries.prepared"] == 1
    assert snapshot["queries.prepared_executions"] == 2
    assert prepared.executions == 2
