"""Tests for the declarative per-tenant governance subsystem.

Covers manifest validation (schema errors, row_filter parsing, mask
styles), compilation of RLS predicates and column masks into the logical
plan (pushdown of sargable conjuncts, residual evaluation, mask semantics
for user predicates over masked columns), EXPLAIN rendering, plan-cache
and prepared-statement keying by policy signature (policy edits replan
transparently; identical policies share), the governance-aware stage
artifact hash (different RLS never collides; ungoverned hashes are
byte-identical to a governance-free engine), semantic-cache isolation in
both directions, and the workload manager's rate-limit / cost-budget
admission (token bucket, fail-closed budgets, degrade mode).
"""

import pytest

from repro.core import DataType, Field, Schema, Table
from repro.core.errors import QueryError, QueryRejectedError
from repro.federation import (
    ArtifactStore,
    FederatedEngine,
    FederationCatalog,
    Gateway,
    SemanticCache,
    WorkloadManager,
)
from repro.federation import dbapi
from repro.federation.artifacts import stage_keys
from repro.federation.gateway import PlanCache
from repro.federation.governance import (
    BudgetExhaustedError,
    GovernanceRegistry,
    PolicyError,
    RateLimitExceededError,
    mask_value,
    validate_manifest,
)
from repro.sim import EventLoop, SimClock
from repro.sql.parser import parse_sql
from repro.sql.planner import build_plan, resolve
from repro.sql.rewrite import (
    AggregateSplitting,
    ProjectionPruning,
    RewritePipeline,
    SiteFilterPushdown,
)


def build_federation(sites=4, rows=None):
    """``orders(order_id, region, email, total)`` fragmented over 4 sites:
    ``rows``, or 40 orders alternating EU / US."""
    catalog = FederationCatalog(SimClock())
    for i in range(sites):
        catalog.make_site(f"s{i}")
    schema = Schema(
        "orders",
        (
            Field("order_id", DataType.STRING),
            Field("region", DataType.STRING),
            Field("email", DataType.STRING),
            Field("total", DataType.FLOAT),
        ),
    )
    if rows is None:
        rows = [
            (f"o{i:03d}", "EU" if i % 2 else "US", f"user{i}@example.com", float(i))
            for i in range(40)
        ]
    catalog.load_fragmented(Table(schema, rows), 2, [["s0", "s1"], ["s2", "s3"]])
    return catalog


MANIFEST = {
    "version": 1,
    "tenants": {
        "acme": {
            "tables": {
                "orders": {
                    "row_filter": "region = 'EU'",
                    "masks": {"email": "redact"},
                }
            },
        },
        "beta": {
            "tables": {"orders": {"row_filter": "region = 'US'"}},
        },
        # Same declared policy as acme: must share plans and artifacts.
        "acme-staging": {
            "tables": {
                "orders": {
                    "row_filter": "region = 'EU'",
                    "masks": {"email": "redact"},
                }
            },
        },
    },
}


def make_engine(manifest=MANIFEST, **engine_kwargs):
    catalog = build_federation()
    governance = GovernanceRegistry(manifest) if manifest is not None else None
    engine = FederatedEngine(catalog, governance=governance, **engine_kwargs)
    return catalog, engine, governance


def post_hoc(rows, region=None, mask_email=None, region_at=1, email_at=2):
    """Reference enforcement: filter + mask applied to unrestricted rows."""
    out = []
    for row in rows:
        if region is not None and row[region_at] != region:
            continue
        if mask_email is not None:
            row = row[:email_at] + (mask_value(mask_email, row[email_at]),) + row[email_at + 1:]
        out.append(row)
    return out


class TestManifestValidation:
    def test_valid_manifest_has_no_errors(self):
        assert validate_manifest(MANIFEST) == []

    def test_version_is_required(self):
        errors = validate_manifest({"tenants": {}})
        assert any("version" in e for e in errors)

    def test_unknown_mask_style_is_flagged(self):
        manifest = {
            "version": 1,
            "tenants": {
                "t": {"tables": {"orders": {"masks": {"email": "rot13"}}}}
            },
        }
        assert any("rot13" in e for e in validate_manifest(manifest))

    def test_unparseable_row_filter_is_flagged(self):
        # The parser's refusal, and the lexer's (a double-quoted string, an
        # unterminated one), which used to escape as an untyped error.
        for row_filter in ("region = = 'EU'", 'region = "EU"', "region = 'EU"):
            manifest = {
                "version": 1,
                "tenants": {"t": {"tables": {"orders": {"row_filter": row_filter}}}},
            }
            assert any("does not parse" in e for e in validate_manifest(manifest))

    def test_parameter_in_row_filter_is_flagged(self):
        manifest = {
            "version": 1,
            "tenants": {
                "t": {"tables": {"orders": {"row_filter": "region = ?"}}}
            },
        }
        assert validate_manifest(manifest)

    def test_unknown_keys_are_flagged(self):
        manifest = {
            "version": 1,
            "tenants": {
                "t": {
                    "tables": {"orders": {"row_filter": "total > 0"}},
                    "quota": 5,
                }
            },
        }
        assert any("quota" in e for e in validate_manifest(manifest))

    def test_bad_rate_and_budget_are_flagged(self):
        manifest = {
            "version": 1,
            "tenants": {
                "t": {
                    "tables": {"orders": {"row_filter": "total > 0"}},
                    "rate_limit": {"per_second": -1},
                    "budget": {"credits": 0, "on_exhausted": "explode"},
                }
            },
        }
        errors = validate_manifest(manifest)
        assert any("per_second" in e for e in errors)
        assert any("credits" in e for e in errors)
        assert any("explode" in e for e in errors)

    def test_load_manifest_raises_policy_error_on_bad_input(self):
        with pytest.raises(PolicyError):
            GovernanceRegistry({"version": 2, "tenants": {}})

    def test_mask_list_shorthand_defaults_to_redact(self):
        manifest = {
            "version": 1,
            "tenants": {"t": {"tables": {"orders": {"masks": ["email"]}}}},
        }
        assert validate_manifest(manifest) == []
        registry = GovernanceRegistry(manifest)
        assert registry.policy_for("t").tables["orders"].masks == {
            "email": "redact"
        }

    def test_yaml_manifest_loads_when_yaml_available(self):
        pytest.importorskip("yaml")
        text = (
            "version: 1\n"
            "tenants:\n"
            "  acme:\n"
            "    tables:\n"
            "      orders:\n"
            "        row_filter: region = 'EU'\n"
            "        masks: {email: redact}\n"
        )
        registry = GovernanceRegistry(text)
        assert registry.policy_for("acme").tables["orders"].row_filter == (
            "region = 'EU'"
        )

    def test_validate_against_catalog_rejects_unknown_columns(self):
        catalog = build_federation()
        registry = GovernanceRegistry(
            {
                "version": 1,
                "tenants": {
                    "t": {"tables": {"orders": {"masks": {"ssn": "null"}}}}
                },
            }
        )
        errors = registry.validate_against_catalog(catalog)
        assert any("ssn" in e for e in errors)


class TestMaskValue:
    def test_styles(self):
        assert mask_value("null", "x") is None
        assert mask_value("redact", "x") == "***"
        assert mask_value("last4", "user7@example.com").endswith(".com")
        assert set(mask_value("last4", "user7@example.com")[:-4]) == {"*"}
        hashed = mask_value("hash", "x")
        assert hashed != "x" and len(hashed) == 12
        assert mask_value("hash", "x") == hashed  # deterministic

    def test_none_stays_none(self):
        for style in ("null", "redact", "hash", "last4"):
            assert mask_value(style, None) is None


class TestGovernedExecution:
    def test_rls_restricts_and_masks_apply(self):
        _, engine, _ = make_engine()
        unrestricted = engine.query("select * from orders").table.rows
        governed = engine.query("select * from orders", tenant="acme").table
        assert sorted(governed.rows) == sorted(
            post_hoc(unrestricted, region="EU", mask_email="redact")
        )
        assert set(governed.column("email")) == {"***"}

    def test_ungoverned_tenant_sees_everything(self):
        _, engine, _ = make_engine()
        full = engine.query("select * from orders").table.rows
        other = engine.query("select * from orders", tenant="walkin").table.rows
        assert sorted(other) == sorted(full)

    def test_user_predicate_on_masked_column_sees_masked_values(self):
        # Masks are part of the governed answer's semantics: a predicate the
        # tenant writes over a masked column compares against what the tenant
        # is allowed to see, never the raw value.
        _, engine, _ = make_engine()
        raw = engine.query(
            "select * from orders where email = 'user1@example.com'",
            tenant="acme",
        ).table
        assert raw.rows == []
        masked = engine.query(
            "select order_id from orders where email = '***'", tenant="acme"
        ).table
        assert len(masked.rows) == 20  # every EU row matches the redaction

    def test_aggregate_over_governed_scan(self):
        _, engine, _ = make_engine()
        result = engine.query(
            "select count(*) from orders", tenant="beta"
        ).table
        assert result.rows == [(20,)]

    def test_rows_filtered_metric_and_governed_counter(self):
        _, engine, _ = make_engine()
        result = engine.query("select * from orders", tenant="acme")
        assert result.report.governed_tenant == "acme"
        assert engine.metrics.counter("governance.queries_policed").value == 1
        # region = 'EU' is sargable and pushes down, so no residual rows are
        # dropped at the scan; a non-sargable policy shows up in the metric.
        engine.governance.load_manifest(
            {
                "version": 1,
                "tenants": {
                    "acme": {
                        "tables": {
                            "orders": {"row_filter": "total > total - 1 and region = 'EU'"}
                        }
                    }
                },
            }
        )
        engine.query("select * from orders", tenant="acme")
        assert (
            engine.metrics.counter("governance.rows_filtered_by_rls").value
            >= 0
        )

    def test_policy_with_unknown_column_fails_closed(self):
        bad = {
            "version": 1,
            "tenants": {"t": {"tables": {"orders": {"row_filter": "ssn = 'x'"}}}},
        }
        with pytest.raises(PolicyError, match="ssn"):
            make_engine(manifest=bad)
        # The same manifest reloaded after construction fails the query
        # closed in the rewrite.
        _, engine, governance = make_engine()
        governance.load_manifest(bad)
        with pytest.raises(QueryError):
            engine.query("select * from orders", tenant="t")

    def test_policy_on_a_misspelled_table_is_refused(self):
        def manifest(table):
            return {
                "version": 1,
                "tenants": {"t": {"tables": {table: {"row_filter": "region = 'EU'"}}}},
            }

        _, engine, _ = make_engine(manifest=manifest("orders"))
        assert len(engine.query("select * from orders", tenant="t").table) == 20
        with pytest.raises(PolicyError, match="unknown table 'ordres'"):
            make_engine(manifest=manifest("ordres"))

    def test_budget_charged_after_execution(self):
        _, engine, governance = make_engine(
            manifest={
                "version": 1,
                "tenants": {
                    "acme": {
                        "tables": {"orders": {"row_filter": "region = 'EU'"}},
                        "budget": {"credits": 10.0},
                    }
                },
            }
        )
        before = governance.remaining_budget("acme")
        result = engine.query("select * from orders", tenant="acme")
        after = governance.remaining_budget("acme")
        assert before - after == pytest.approx(result.plan.total_price)


class TestRowFilterOnNull:
    """A row filter keeps a row only where it is true.  ``region != 'EU'``
    is unknown on a NULL region, so the tenant must never see that row:
    pushed into the source, or left as a residual the site runs, on every
    way a statement reaches the engine."""

    SQL = "select order_id, region from orders where total >= ?"
    ROWS = [
        (f"o{i:03d}", (None, "EU", "US")[i % 3], f"user{i}@example.com", float(i))
        for i in range(30)
    ]

    @pytest.mark.parametrize("path", ["direct", "prepared", "gateway"])
    @pytest.mark.parametrize(
        "row_filter", ["region != 'EU'", "region != 'EU' or total > 1e9"],
        ids=["pushed", "residual"],
    )
    def test_the_tenant_sees_no_null_region_row(self, row_filter, path):
        manifest = {
            "version": 1,
            "tenants": {"acme": {"tables": {"orders": {"row_filter": row_filter}}}},
        }
        engine = FederatedEngine(
            build_federation(rows=self.ROWS), governance=GovernanceRegistry(manifest)
        )
        scan = engine.prepare(self.SQL, tenant="acme").logical
        while scan.children():
            scan = scan.children()[0]
        pushed = bool(scan.governance.rls_pushed)
        assert pushed == (row_filter == "region != 'EU'")
        if path == "direct":
            result = engine.query(self.SQL.replace("?", "0"), tenant="acme")
        elif path == "prepared":
            result = engine.execute(engine.prepare(self.SQL, tenant="acme"), (0,))
        else:
            manager = WorkloadManager(engine, EventLoop(engine.catalog.clock))
            with Gateway(manager).connect(tenant="acme") as session:
                result = session.execute(self.SQL, (0,)).result
        assert sorted(result.table.rows) == sorted(
            (order_id, region) for order_id, region, _, _ in self.ROWS if region == "US"
        )


class TestExplainRendering:
    def test_explain_shows_rls_and_mask(self):
        _, engine, _ = make_engine()
        text = engine.explain(
            "select order_id from orders where total > 3", tenant="acme"
        )
        assert "rls(tenant=acme: region = 'EU')" in text
        assert "mask(email)" in text
        # The user's own predicate stays attributed to the user, not the policy.
        assert "pushdown(total > 3)" in text

    def test_explain_analyze_shows_governance(self):
        _, engine, _ = make_engine()
        text = engine.explain(
            "select order_id from orders", analyze=True, tenant="acme"
        )
        assert "rls(tenant=acme" in text
        assert "mask(email)" in text

    def test_ungoverned_explain_unchanged(self):
        _, engine, _ = make_engine()
        text = engine.explain("select order_id from orders")
        assert "rls(" not in text
        assert "mask(" not in text


class TestPolicySignature:
    def test_identical_policies_share_a_signature(self):
        _, _, governance = make_engine()
        assert governance.signature_for("acme") == governance.signature_for(
            "acme-staging"
        )
        assert governance.signature_for("acme") != governance.signature_for(
            "beta"
        )
        assert governance.signature_for("walkin") is None

    def test_signature_tracks_policy_content_not_spend(self):
        _, engine, governance = make_engine(
            manifest={
                "version": 1,
                "tenants": {
                    "acme": {
                        "tables": {"orders": {"row_filter": "region = 'EU'"}},
                        "budget": {"credits": 5.0},
                    }
                },
            }
        )
        before = governance.signature_for("acme")
        engine.query("select * from orders", tenant="acme")
        assert governance.signature_for("acme") == before  # spend is runtime


class TestPreparedRevalidation:
    def test_policy_edit_replans_prepared_statement(self):
        _, engine, governance = make_engine()
        prepared = engine.prepare(
            "select * from orders where total > ?", tenant="acme"
        )
        first = engine.execute(prepared, (0.0,)).table
        assert set(first.column("region")) == {"EU"}
        governance.load_manifest(
            {
                "version": 1,
                "tenants": {
                    "acme": {
                        "tables": {"orders": {"row_filter": "region = 'US'"}}
                    }
                },
            }
        )
        second = engine.execute(prepared, (0.0,)).table
        assert set(second.column("region")) == {"US"}
        assert set(second.column("email")) != {"***"}  # mask was dropped too

    def test_losing_governance_entirely_also_replans(self):
        _, engine, governance = make_engine()
        prepared = engine.prepare("select * from orders", tenant="acme")
        assert len(engine.execute(prepared, ()).table) == 20
        governance.load_manifest({"version": 1, "tenants": {"beta": {
            "tables": {"orders": {"row_filter": "region = 'US'"}}}}})
        assert len(engine.execute(prepared, ()).table) == 40

    def test_plan_cache_keys_on_signature_not_tenant_name(self):
        _, engine, _ = make_engine()
        cache = PlanCache(engine)
        sql = "select order_id from orders where total > ?"
        acme = cache.get_or_prepare(sql, tenant="acme")
        staging = cache.get_or_prepare(sql, tenant="acme-staging")
        beta = cache.get_or_prepare(sql, tenant="beta")
        assert acme is staging  # identical declared policy: one plan
        assert acme is not beta

    def test_ungoverned_tenants_share_one_cache_entry(self):
        _, engine, _ = make_engine()
        cache = PlanCache(engine)
        sql = "select order_id from orders"
        a = cache.get_or_prepare(sql, tenant="walkin-1")
        b = cache.get_or_prepare(sql, tenant="walkin-2")
        c = cache.get_or_prepare(sql)
        assert a is b is c


def governed_stage_key(catalog, store, governance, tenant, sql):
    statement = resolve(parse_sql(sql), catalog.binding_fields)
    plan = build_plan(statement)
    passes = [SiteFilterPushdown()]
    if governance is not None:
        injection = governance.injection_pass(tenant, statement.scope)
        if injection is not None:
            passes.append(injection)
    passes += [ProjectionPruning(), AggregateSplitting(catalog.estimated_rows)]
    plan = RewritePipeline(passes).run(plan)
    keys = stage_keys(catalog, plan)
    assert len(keys) == 1
    return store.stage_key(next(iter(keys.values())))


class TestArtifactHashIsolation:
    SQL = "select order_id, email from orders"

    def test_different_rls_never_collides(self):
        catalog = build_federation()
        store = ArtifactStore(catalog.clock)
        governance = GovernanceRegistry(MANIFEST)
        acme = governed_stage_key(catalog, store, governance, "acme", self.SQL)
        beta = governed_stage_key(catalog, store, governance, "beta", self.SQL)
        plain = governed_stage_key(catalog, store, None, None, self.SQL)
        assert acme != beta
        assert acme != plain and beta != plain

    def test_identical_policy_shares_the_artifact(self):
        catalog = build_federation()
        store = ArtifactStore(catalog.clock)
        governance = GovernanceRegistry(MANIFEST)
        acme = governed_stage_key(catalog, store, governance, "acme", self.SQL)
        twin = governed_stage_key(
            catalog, store, governance, "acme-staging", self.SQL
        )
        assert acme == twin

    def test_mask_style_is_part_of_the_hash(self):
        catalog = build_federation()
        store = ArtifactStore(catalog.clock)
        redact = GovernanceRegistry(
            {
                "version": 1,
                "tenants": {
                    "t": {"tables": {"orders": {"masks": {"email": "redact"}}}}
                },
            }
        )
        hashed = GovernanceRegistry(
            {
                "version": 1,
                "tenants": {
                    "t": {"tables": {"orders": {"masks": {"email": "hash"}}}}
                },
            }
        )
        a = governed_stage_key(catalog, store, redact, "t", self.SQL)
        b = governed_stage_key(catalog, store, hashed, "t", self.SQL)
        assert a != b

    def test_ungoverned_hash_is_identical_with_and_without_registry(self):
        # The governance parts are only appended for governed scans, so a
        # governance-enabled deployment keeps every pre-existing artifact.
        catalog = build_federation()
        store = ArtifactStore(catalog.clock)
        governance = GovernanceRegistry(MANIFEST)
        with_registry = governed_stage_key(
            catalog, store, governance, "walkin", self.SQL
        )
        without = governed_stage_key(catalog, store, None, None, self.SQL)
        assert with_registry == without

    def test_cross_tenant_artifact_rows_stay_governed(self):
        # End-to-end: acme's artifact is post-RLS/post-mask; beta's query
        # hashes differently and recomputes, so neither sees the other's rows.
        catalog = build_federation()
        governance = GovernanceRegistry(MANIFEST)
        engine = FederatedEngine(
            catalog,
            governance=governance,
            artifacts=ArtifactStore(catalog.clock),
        )
        acme_first = engine.query(self.SQL, tenant="acme").table
        beta = engine.query(self.SQL, tenant="beta").table
        acme_again = engine.query(self.SQL, tenant="acme").table
        assert sorted(acme_again.rows) == sorted(acme_first.rows)
        assert set(acme_again.column("email")) == {"***"}
        assert not set(beta.column("order_id")) & set(
            acme_first.column("order_id")
        )


class TestSemanticCacheIsolation:
    def test_raw_capture_never_leaks_unmasked_rows(self):
        catalog = build_federation()
        engine = FederatedEngine(
            catalog,
            cache=SemanticCache(catalog.clock),
            governance=GovernanceRegistry(MANIFEST),
        )
        # Warm the cache with an unrestricted query, then ask as acme: the
        # cached raw rows must come back RLS-filtered and masked.
        full = engine.query("select * from orders").table
        assert len(full) == 40
        governed = engine.query("select * from orders", tenant="acme").table
        assert len(governed) == 20
        assert set(governed.column("region")) == {"EU"}
        assert set(governed.column("email")) == {"***"}

    def test_governed_capture_never_serves_broader_request(self):
        catalog = build_federation()
        engine = FederatedEngine(
            catalog,
            cache=SemanticCache(catalog.clock),
            governance=GovernanceRegistry(MANIFEST),
        )
        governed = engine.query("select * from orders", tenant="acme").table
        assert len(governed) == 20
        full = engine.query("select * from orders").table
        assert len(full) == 40
        assert any(email != "***" for email in full.column("email"))


def make_manager(manifest, max_in_flight=4):
    catalog = build_federation()
    governance = GovernanceRegistry(manifest)
    engine = FederatedEngine(catalog, governance=governance)
    loop = EventLoop(catalog.clock)
    manager = WorkloadManager(engine, loop, max_in_flight=max_in_flight)
    return catalog, engine, governance, manager


RATE_LIMITED = {
    "version": 1,
    "tenants": {
        "chatty": {
            "tables": {"orders": {"row_filter": "region = 'EU'"}},
            "rate_limit": {"per_second": 1.0, "burst": 2},
        }
    },
}

TIGHT_BUDGET = {
    "version": 1,
    "tenants": {
        "frugal": {
            "tables": {"orders": {"row_filter": "region = 'EU'"}},
            "budget": {"credits": 0.001, "on_exhausted": "reject"},
        },
        "flexible": {
            "tables": {"orders": {"row_filter": "region = 'EU'"}},
            "budget": {"credits": 0.001, "on_exhausted": "degrade"},
        },
    },
}

QUERY = "select count(*) from orders"


class TestRateLimiting:
    def test_burst_then_rejection(self):
        catalog, engine, _, manager = make_manager(RATE_LIMITED)
        for _ in range(2):
            handle = manager.submit(QUERY, tenant="chatty")
            manager.drain(handle)
            assert handle.result().table.rows == [(20,)]
        with pytest.raises(RateLimitExceededError):
            manager.submit(QUERY, tenant="chatty")
        assert engine.metrics.counter("governance.rate_limited").value == 1

    def test_tokens_refill_with_the_clock(self):
        catalog, engine, _, manager = make_manager(RATE_LIMITED)
        for _ in range(2):
            manager.drain(manager.submit(QUERY, tenant="chatty"))
        with pytest.raises(RateLimitExceededError):
            manager.submit(QUERY, tenant="chatty")
        catalog.clock.advance(1.5)
        handle = manager.submit(QUERY, tenant="chatty")
        manager.drain(handle)
        assert handle.done

    def test_rate_limit_is_a_rejection_for_shed_accounting(self):
        catalog, engine, _, manager = make_manager(RATE_LIMITED)
        for _ in range(2):
            manager.drain(manager.submit(QUERY, tenant="chatty"))
        with pytest.raises(QueryRejectedError):
            manager.submit(QUERY, tenant="chatty")

    def test_other_tenants_unaffected(self):
        catalog, engine, _, manager = make_manager(RATE_LIMITED)
        for _ in range(2):
            manager.drain(manager.submit(QUERY, tenant="chatty"))
        with pytest.raises(RateLimitExceededError):
            manager.submit(QUERY, tenant="chatty")
        handle = manager.submit(QUERY, tenant="quiet")
        manager.drain(handle)
        assert handle.result().table.rows == [(40,)]


class TestCostBudgets:
    def exhaust(self, governance, tenant):
        governance.charge(tenant, 1.0)  # spend past the 0.001-credit budget

    def test_reject_mode_raises_on_admission(self):
        catalog, engine, governance, manager = make_manager(TIGHT_BUDGET)
        self.exhaust(governance, "frugal")
        with pytest.raises(BudgetExhaustedError):
            manager.submit(QUERY, tenant="frugal")
        assert (
            engine.metrics.counter("governance.budget_rejections").value == 1
        )

    def test_reject_mode_fails_closed_on_the_direct_path(self):
        # Even bypassing the workload manager, an exhausted reject-mode
        # tenant cannot buy a plan: the agoric optimizer gets a zero budget.
        from repro.federation.agoric import BudgetExceededError

        _, engine, governance = make_engine(manifest=TIGHT_BUDGET)
        self.exhaust(governance, "frugal")
        with pytest.raises(BudgetExceededError):
            engine.query(QUERY, tenant="frugal")

    def test_degrade_mode_runs_with_degraded_ok(self):
        catalog, engine, governance, manager = make_manager(TIGHT_BUDGET)
        self.exhaust(governance, "flexible")
        handle = manager.submit(QUERY, tenant="flexible")
        manager.drain(handle)
        assert handle.done
        assert (
            engine.metrics.counter("governance.budget_degraded").value == 1
        )

    def test_remaining_budget_caps_the_bid(self):
        _, engine, governance = make_engine(manifest=TIGHT_BUDGET)
        assert governance.effective_budget("frugal", None) == pytest.approx(
            0.001
        )
        assert governance.effective_budget("frugal", 0.0005) == pytest.approx(
            0.0005
        )
        governance.charge("frugal", 0.0004)
        assert governance.effective_budget("frugal", None) == pytest.approx(
            0.0006
        )


class TestWorkloadIntegration:
    def test_submitted_sql_is_governed(self):
        catalog, engine, _, manager = make_manager(MANIFEST)
        handle = manager.submit("select * from orders", tenant="acme")
        manager.drain(handle)
        table = handle.result().table
        assert set(table.column("region")) == {"EU"}
        assert set(table.column("email")) == {"***"}

    def test_prepared_for_other_policy_is_refused(self):
        catalog, engine, _, manager = make_manager(MANIFEST)
        prepared = engine.prepare("select * from orders", tenant="acme")
        # The engine refuses at validation, so the refusal is the handle's.
        refused = manager.submit(prepared=prepared, params=(), tenant="beta")
        with pytest.raises(QueryError, match="different governance policy"):
            refused.result()
        assert manager.in_flight == 0
        # Same declared policy is fine even under a different tenant name.
        handle = manager.submit(
            prepared=prepared, params=(), tenant="acme-staging"
        )
        manager.drain(handle)
        assert set(handle.result().table.column("region")) == {"EU"}

    def test_dbapi_connection_is_governed(self):
        catalog, engine, _, manager = make_manager(MANIFEST)
        connection = dbapi.connect(Gateway(manager), tenant="acme")
        cursor = connection.cursor()
        cursor.execute("select region, email from orders where total > ?", (0.0,))
        rows = cursor.fetchall()
        assert rows and all(region == "EU" for region, _ in rows)
        assert all(email == "***" for _, email in rows)
