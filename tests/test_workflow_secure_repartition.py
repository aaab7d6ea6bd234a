"""Tests for workflows, secure channels, and online repartitioning."""

import pytest

from repro.core import DataType, Field, Schema, Table, TransformError
from repro.core.errors import QueryError
from repro.federation import (
    FederatedEngine,
    FederationCatalog,
    Network,
    SecureNetwork,
    TamperedPayloadError,
    seal,
    unseal,
)
from repro.federation.secure import establish_session
from repro.sim import SimClock
from repro.workbench import Workflow, WorkflowContext, WorkflowStep


class TestWorkflow:
    def build(self):
        workflow = Workflow("ingest")

        @workflow.step("scrape")
        def scrape(context, upstream):
            return [1, 2, 3]

        @workflow.step("normalize", depends_on=["scrape"])
        def normalize(context, upstream):
            return [x * 10 for x in upstream["scrape"]]

        @workflow.step("publish", depends_on=["normalize"])
        def publish(context, upstream):
            context["published"] = upstream["normalize"]
            return len(upstream["normalize"])

        return workflow

    def test_runs_in_dependency_order(self):
        run = self.build().run()
        assert run.succeeded
        assert run.output_of("publish") == 3
        assert run.counts() == {"ok": 3, "failed": 0, "skipped": 0}

    def test_context_shared_across_steps(self):
        context = WorkflowContext()
        self.build().run(context)
        assert context["published"] == [10, 20, 30]

    def test_failure_skips_transitive_dependents(self):
        workflow = Workflow("fragile")
        workflow.add_step(WorkflowStep("a", lambda c, u: 1))
        workflow.add_step(
            WorkflowStep("b", lambda c, u: 1 / 0, depends_on=("a",))
        )
        workflow.add_step(WorkflowStep("c", lambda c, u: 2, depends_on=("b",)))
        workflow.add_step(WorkflowStep("d", lambda c, u: 3, depends_on=("a",)))
        run = workflow.run()
        assert run.results["b"].status == "failed"
        assert run.results["c"].status == "skipped"
        assert run.results["d"].status == "ok"  # independent branch survives
        assert not run.succeeded

    def test_output_of_failed_step_raises(self):
        workflow = Workflow("w")
        workflow.add_step(WorkflowStep("boom", lambda c, u: 1 / 0))
        run = workflow.run()
        with pytest.raises(TransformError):
            run.output_of("boom")

    def test_duplicate_step_rejected(self):
        workflow = Workflow("w")
        workflow.add_step(WorkflowStep("a", lambda c, u: 1))
        with pytest.raises(TransformError):
            workflow.add_step(WorkflowStep("a", lambda c, u: 2))

    def test_unknown_dependency_rejected(self):
        workflow = Workflow("w")
        with pytest.raises(TransformError):
            workflow.add_step(WorkflowStep("a", lambda c, u: 1, depends_on=("ghost",)))


class TestSecureChannels:
    def test_seal_unseal_round_trip(self):
        key = establish_session("integrator", "supplier", 42)
        envelope = seal("<catalog>prices</catalog>", key)
        assert unseal(envelope, key) == "<catalog>prices</catalog>"

    def test_ciphertext_hides_payload(self):
        key = establish_session("a", "b", 42)
        envelope = seal("secret price list", key)
        assert b"secret" not in envelope

    def test_tampering_detected(self):
        key = establish_session("a", "b", 42)
        envelope = bytearray(seal("pay 100 dollars", key))
        envelope[-1] ^= 0xFF
        with pytest.raises(TamperedPayloadError):
            unseal(bytes(envelope), key)

    def test_wrong_key_rejected(self):
        key_a = establish_session("a", "b", 42)
        key_b = establish_session("a", "b", 43)
        with pytest.raises(TamperedPayloadError):
            unseal(seal("hello", key_a), key_b)

    def test_session_key_is_pair_symmetric(self):
        assert establish_session("a", "b", 1) == establish_session("b", "a", 1)

    def test_first_transfer_pays_handshake(self):
        network = SecureNetwork(base_latency=0.1, seconds_per_byte=0.001,
                                handshake_seconds=0.5, encryption_factor=1.2)
        first = network.transfer_seconds_bytes("a", "b", 100)
        second = network.transfer_seconds_bytes("a", "b", 100)
        assert first == pytest.approx(0.5 + 0.2 * 1.2)
        assert second == pytest.approx(0.2 * 1.2)
        assert network.handshakes_performed == 1

    def test_secure_byte_rate_is_settable(self):
        """The rate reaches the model: ten times the rate, ten times the
        per-byte share of an established session's transfer."""
        slow = SecureNetwork(base_latency=0.0, seconds_per_byte=1e-5,
                             handshake_seconds=0.0, encryption_factor=1.0)
        fast = SecureNetwork(base_latency=0.0, seconds_per_byte=1e-6,
                             handshake_seconds=0.0, encryption_factor=1.0)
        assert slow.transfer_seconds_bytes("a", "b", 1000) == pytest.approx(0.01)
        assert fast.transfer_seconds_bytes("a", "b", 1000) == pytest.approx(0.001)
        assert SecureNetwork().seconds_per_byte == Network().seconds_per_byte

    def test_local_transfer_free_even_secured(self):
        assert SecureNetwork().transfer_seconds_bytes("a", "a", 1000) == 0.0

    def test_bad_factor_rejected(self):
        with pytest.raises(ValueError):
            SecureNetwork(encryption_factor=0.5)

    def test_secure_federation_queries_still_work(self):
        clock = SimClock()
        catalog = FederationCatalog(clock, network=SecureNetwork())
        names = [catalog.make_site(f"s{i}").name for i in range(2)]
        schema = Schema("t", (Field("a", DataType.INTEGER),))
        catalog.load_fragmented(Table(schema, [(i,) for i in range(10)]), 2,
                                [[names[0]], [names[1]]])
        engine = FederatedEngine(catalog)
        result = engine.query("select a from t where a >= 5")
        assert len(result.table) == 5
        assert catalog.network.handshakes_performed >= 1


class TestRepartition:
    def build(self):
        catalog = FederationCatalog(SimClock())
        names = [catalog.make_site(f"s{i}").name for i in range(4)]
        schema = Schema("t", (Field("a", DataType.INTEGER),))
        catalog.load_fragmented(
            Table(schema, [(i,) for i in range(100)]), 2, [[names[0]], [names[1]]]
        )
        return catalog, names

    def test_repartition_preserves_rows(self):
        catalog, names = self.build()
        engine = FederatedEngine(catalog)
        before = sorted(engine.query("select a from t").table.column("a"))
        catalog.repartition("t", 4, [[n] for n in names])
        after = sorted(engine.query("select a from t").table.column("a"))
        assert before == after
        assert len(catalog.entry("t").fragments) == 4

    def test_repartition_spreads_work(self):
        catalog, names = self.build()
        catalog.repartition("t", 4, [[n] for n in names])
        engine = FederatedEngine(catalog)
        result = engine.query("select a from t")
        assert len(result.report.site_work) == 4

    def test_repartition_can_add_replication(self):
        catalog, names = self.build()
        catalog.repartition("t", 2, [[names[0], names[2]], [names[1], names[3]]])
        catalog.site(names[0]).up = False
        catalog.site(names[1]).up = False
        engine = FederatedEngine(catalog)
        assert len(engine.query("select a from t").table) == 100

    def test_old_replicas_dropped(self):
        catalog, names = self.build()
        catalog.repartition("t", 1, [[names[3]]])
        assert not catalog.site(names[0])._sources
        assert catalog.site(names[3]).hosts("t/f0")

    def test_placement_mismatch_rejected(self):
        catalog, names = self.build()
        with pytest.raises(QueryError):
            catalog.repartition("t", 3, [[names[0]]])

    def test_dead_source_fragment_rejected(self):
        catalog, names = self.build()
        catalog.site(names[0]).up = False
        with pytest.raises(QueryError):
            catalog.repartition("t", 2, [[names[2]], [names[3]]])
