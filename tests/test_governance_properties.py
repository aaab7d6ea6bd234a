"""Property tests for governance: tenant isolation.

Under an adversarial interleaving of governed and ungoverned tenants over
one shared engine -- with the semantic cache and the artifact store both
switched on, and degraded partial answers allowed -- no row outside a
tenant's RLS region and no unmasked value of a masked column ever reaches
that tenant's cursor.  That a governed answer is the query over the rows
its policy leaves, masked, is refereed by sqlite3 in
``tests/test_against_sqlite.py``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DataType, Field, Schema, Table
from repro.core.errors import QueryError
from repro.federation import (
    ArtifactStore,
    FederatedEngine,
    FederationCatalog,
    SemanticCache,
)
from repro.federation.governance import GovernanceRegistry
from repro.sim import SimClock

REGIONS = ("US", "EU", "APAC")

SCHEMA = Schema(
    "accounts",
    (
        Field("id", DataType.STRING),
        Field("region", DataType.STRING),
        Field("secret", DataType.STRING),
        Field("amount", DataType.INTEGER),
    ),
)


def base_rows(count=30):
    return [
        (f"a{i:03d}", REGIONS[i % 3], f"pin-{i:04d}", (i * 7) % 50)
        for i in range(count)
    ]


def load_catalog(rows):
    catalog = FederationCatalog(SimClock())
    for i in range(4):
        catalog.make_site(f"s{i}")
    catalog.load_fragmented(
        Table(SCHEMA, rows), 2, [["s0", "s1"], ["s2", "s3"]]
    )
    return catalog


LEAKAGE_MANIFEST = {
    "version": 1,
    "tenants": {
        "eu-desk": {
            "tables": {
                "accounts": {
                    "row_filter": "region = 'EU'",
                    "masks": {"secret": "redact"},
                }
            }
        },
        "us-desk": {
            "tables": {"accounts": {"row_filter": "region = 'US'"}}
        },
    },
}

# What each governed tenant is allowed to observe, per column.
ALLOWED = {
    "eu-desk": {"region": {"EU"}, "secret": {"***"}},
    "us-desk": {"region": {"US"}, "secret": None},  # secret unmasked, US rows
}


def assert_no_leak(tenant, table, raw_rows):
    names = table.schema.field_names
    allowed = ALLOWED[tenant]
    keep_region = allowed["region"]
    us_secrets = {
        row[2] for row in raw_rows if row[1] not in keep_region
    }
    for row in table.rows:
        env = dict(zip(names, row))
        if "region" in env:
            assert env["region"] in keep_region, (tenant, row)
        if "secret" in env:
            if allowed["secret"] is not None:
                assert env["secret"] in allowed["secret"], (tenant, row)
            else:
                # Unmasked secrets are fine, but only the tenant's own rows'.
                assert env["secret"] not in us_secrets, (tenant, row)


class TestCrossTenantLeakage:
    @settings(max_examples=25, deadline=None)
    @given(
        actions=st.lists(
            st.tuples(
                st.sampled_from(["eu-desk", "us-desk", None]),
                st.sampled_from(
                    [
                        "select * from accounts",
                        "select region, secret from accounts",
                        "select id, region, secret from accounts "
                        "where amount < 40",
                        "select region, secret from accounts "
                        "where region <> 'APAC'",
                    ]
                ),
            ),
            min_size=2,
            max_size=8,
        )
    )
    def test_interleaved_tenants_never_leak(self, actions):
        # One shared engine, cache and artifacts on: every governed answer
        # in an arbitrary interleaving stays inside the tenant's manifest,
        # no matter what earlier tenants populated the caches with.
        rows = base_rows()
        catalog = load_catalog(rows)
        engine = FederatedEngine(
            catalog,
            cache=SemanticCache(catalog.clock),
            artifacts=ArtifactStore(catalog.clock),
            governance=GovernanceRegistry(LEAKAGE_MANIFEST),
        )
        full = sorted(r for r, in
                      engine.query("select id from accounts").table.rows)
        for tenant, sql in actions:
            table = engine.query(sql, tenant=tenant).table
            if tenant is None:
                continue  # the open query only seeds the caches
            assert_no_leak(tenant, table, rows)
        # Governed traffic must not have poisoned the open view either.
        assert sorted(
            r for r, in engine.query("select id from accounts").table.rows
        ) == full

    def test_degraded_partial_answers_stay_governed(self):
        # A partial answer (missing fragments accepted via degraded_ok) must
        # be a subset of the governed answer -- failure handling cannot
        # bypass RLS or masking.
        rows = base_rows()
        catalog = load_catalog(rows)
        engine = FederatedEngine(
            catalog, governance=GovernanceRegistry(LEAKAGE_MANIFEST)
        )
        whole = engine.query(
            "select * from accounts", tenant="eu-desk"
        ).table
        for site in ("s2", "s3"):
            catalog.site(site).up = False
        try:
            partial = engine.query(
                "select * from accounts", tenant="eu-desk", degraded_ok=True
            )
        except QueryError:
            return  # nothing servable at all: a refusal cannot leak
        assert partial.report.completeness <= 1.0
        assert set(partial.table.rows) <= set(whole.rows)
        assert_no_leak("eu-desk", partial.table, rows)
