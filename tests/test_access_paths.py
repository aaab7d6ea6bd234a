"""Tests for the access-path seam (repro.federation.access) and the two
defects it fixes once for every optimizer."""

import pytest

from repro.core import DataType, Field, Schema, Table
from repro.core.errors import QueryError
from repro.federation import (
    AccessPaths,
    AgoricOptimizer,
    BudgetExceededError,
    CentralizedOptimizer,
    FederatedEngine,
    FederationCatalog,
    PolicyOptimizer,
    RoundRobinPolicy,
    SiteHealthTracker,
)
from repro.federation.governance import GovernanceRegistry
from repro.sim import SimClock
from repro.sql import build_plan, parse_sql

OPTIMIZERS = {
    "agoric": AgoricOptimizer,
    "centralized": CentralizedOptimizer,
    "policy": lambda catalog: PolicyOptimizer(catalog, RoundRobinPolicy()),
}


def orders_catalog():
    """80 orders range-partitioned on qty into f0..f3 over s0..s3, RF=2."""
    catalog = FederationCatalog(SimClock())
    names = [catalog.make_site(f"s{i}").name for i in range(4)]
    schema = Schema(
        "orders",
        (
            Field("id", DataType.INTEGER),
            Field("qty", DataType.INTEGER),
            Field("tag", DataType.STRING),
        ),
    )
    table = Table(schema, [(i, i, f"t{i % 3}") for i in range(80)])
    catalog.load_range_partitioned(
        table, "qty", 4, [[names[i], names[(i + 1) % 4]] for i in range(4)]
    )
    return catalog


def scan_for(catalog, sql):
    statement = parse_sql(sql)
    fields = catalog.binding_fields({statement.table.binding: statement.table.name})
    plan = build_plan(statement, fields)
    node = plan
    while node.children():
        node = node.children()[0]
    return plan, node


def trip(health, site_name):
    for _ in range(health.failure_threshold):
        health.record_failure(site_name)


class TestFragmentCandidates:
    def test_pruned_fragments_never_appear(self):
        catalog = orders_catalog()
        _, scan = scan_for(catalog, "select id from orders where qty < 10")
        assignment, slots = AccessPaths(catalog).fragment_candidates(scan)
        assert [slot.fragment.fragment_id for slot in slots] == ["f0"]
        assert (assignment.pruned_fragments, assignment.total_fragments) == (3, 4)
        assert assignment.choices == [] and assignment.unreachable == []

    def test_fragment_without_live_replica_is_unreachable(self):
        catalog = orders_catalog()
        catalog.site("s1").up = False
        catalog.site("s2").up = False  # f1 lives on s1+s2 only
        _, scan = scan_for(catalog, "select id from orders")
        assignment, slots = AccessPaths(catalog).fragment_candidates(scan)
        assert [f.fragment_id for f in assignment.unreachable] == ["f1"]
        assert [slot.fragment.fragment_id for slot in slots] == ["f0", "f2", "f3"]
        assert {s.fragment.fragment_id: s.replicas for s in slots} == {
            "f0": ["s0"], "f2": ["s3"], "f3": ["s0", "s3"],
        }

    def test_open_breakers_sit_out_unless_every_replica_is_tripped(self):
        catalog = orders_catalog()
        health = SiteHealthTracker(catalog.clock)
        paths = AccessPaths(catalog, health=health)
        _, scan = scan_for(catalog, "select id from orders where qty < 10")
        trip(health, "s0")
        assert paths.fragment_candidates(scan)[1][0].replicas == ["s1"]
        trip(health, "s1")
        # All breakers open: the live set still gets solicited.
        assert paths.fragment_candidates(scan)[1][0].replicas == ["s0", "s1"]

    def test_estimated_bytes_do_not_depend_on_the_replica_set(self):
        catalog = orders_catalog()
        _, scan = scan_for(catalog, "select id from orders where qty >= 30")
        before = AccessPaths(catalog).fragment_candidates(scan)[1]
        catalog.site("s2").up = False
        after = AccessPaths(catalog).fragment_candidates(scan)[1]
        assert [s.replicas for s in before] != [s.replicas for s in after]
        assert [(s.est_rows, s.est_bytes) for s in before] == [
            (s.est_rows, s.est_bytes) for s in after
        ]
        assert all(s.est_bytes > 0 for s in before)

    def test_table_without_fragments_is_a_query_error(self):
        catalog = orders_catalog()
        catalog.create_table("empty", catalog.entry("orders").schema)
        _, scan = scan_for(catalog, "select id from empty")
        with pytest.raises(QueryError, match="no fragments"):
            AccessPaths(catalog).fragment_candidates(scan)


def test_optimizers_agree_on_what_a_scan_must_read():
    """Pruning, reachability and byte estimates come from the seam, so the
    three families cannot drift apart on them."""
    reports = {}
    for name, make in OPTIMIZERS.items():
        catalog = orders_catalog()
        catalog.site("s1").up = False
        catalog.site("s2").up = False
        plan, scan = scan_for(catalog, "select id from orders where qty >= 20")
        assignment = make(catalog).optimize(plan).assignments[scan.binding]
        slots = AccessPaths(catalog).fragment_candidates(scan)[1]
        assert [c.fragment.fragment_id for c in assignment.choices] == [
            slot.fragment.fragment_id for slot in slots
        ]
        assert assignment.est_bytes == sum(slot.est_bytes for slot in slots)
        reports[name] = (
            assignment.pruned_fragments,
            assignment.total_fragments,
            [f.fragment_id for f in assignment.unreachable],
            assignment.est_bytes,
        )
    assert reports["agoric"] == reports["centralized"] == reports["policy"]
    assert reports["agoric"][:3] == (1, 4, ["f1"])


# -- a second covering view on a live host ----------------------------------


def suppliers_engine(make_optimizer):
    """suppliers lives on s1 only; whole-table views v_a@s0 and v_b@s2."""
    catalog = FederationCatalog(SimClock())
    for i in range(3):
        catalog.make_site(f"s{i}")
    schema = Schema(
        "suppliers",
        (Field("supplier_id", DataType.INTEGER), Field("city", DataType.STRING)),
    )
    table = Table(schema, [(i, f"c{i % 4}") for i in range(12)])
    catalog.load_fragmented(table, 1, [["s1"]])
    engine = FederatedEngine(catalog, optimizer=make_optimizer(catalog))
    return engine, sorted(table.column("supplier_id"))


@pytest.mark.parametrize("family", sorted(OPTIMIZERS))
class TestSecondViewOnLiveHost:
    SQL = "select supplier_id from suppliers"

    def test_planner_skips_the_view_on_the_dead_host(self, family):
        engine, expected = suppliers_engine(OPTIMIZERS[family])
        engine.create_materialized_view("v_a", "suppliers", "s0")
        engine.create_materialized_view("v_b", "suppliers", "s2")
        engine.catalog.site("s0").up = False
        engine.catalog.site("s1").up = False
        result = engine.query(self.SQL)
        assert result.plan.assignments["suppliers"].view.name == "v_b"
        assert sorted(result.table.column("supplier_id")) == expected

    def test_covering_fallback_skips_it_too(self, family):
        """Sites die *after* planning: the scan's failover must find v_b."""
        engine, expected = suppliers_engine(OPTIMIZERS[family])
        plan, _ = scan_for(engine.catalog, self.SQL)
        physical = engine.optimizer.optimize(plan)
        assert physical.assignments["suppliers"].kind == "fragments"
        engine.create_materialized_view("v_a", "suppliers", "s0")
        engine.create_materialized_view("v_b", "suppliers", "s2")
        engine.catalog.site("s0").up = False
        engine.catalog.site("s1").up = False
        physical.coordinator = "s2"
        table, report = engine.executor.execute(physical)
        assert sorted(table.column("supplier_id")) == expected
        assert report.failovers == 1 and not report.degraded


def test_live_view_keeps_registration_order_among_live_hosts():
    engine, _ = suppliers_engine(AgoricOptimizer)
    engine.create_materialized_view("v_a", "suppliers", "s0")
    engine.create_materialized_view("v_b", "suppliers", "s2")
    assert engine.paths.live_view("suppliers", None).name == "v_a"
    engine.catalog.site("s0").up = False
    assert engine.paths.live_view("suppliers", None).name == "v_b"
    assert engine.paths.live_view("suppliers", -1.0) is None  # LIVE_ONLY


# -- budget= under every optimizer ------------------------------------------


class TestBudgetAcrossOptimizers:
    SQL = "select id from orders where qty < 10"

    @pytest.mark.parametrize("family", ["centralized", "policy"])
    def test_caller_budget_on_a_non_pricing_optimizer_is_a_typed_error(
        self, family
    ):
        catalog = orders_catalog()
        optimizer = OPTIMIZERS[family](catalog)
        engine = FederatedEngine(catalog, optimizer=optimizer)
        with pytest.raises(QueryError, match=optimizer.name):
            engine.query(self.SQL, budget=10.0)
        assert len(engine.query(self.SQL).table) == 10  # no budget: fine

    def test_agoric_budget_still_binds(self):
        engine = FederatedEngine(orders_catalog())
        assert len(engine.query(self.SQL, budget=10.0).table) == 10
        with pytest.raises(BudgetExceededError):
            engine.query(self.SQL, budget=1e-9)

    @pytest.mark.parametrize("family", sorted(OPTIMIZERS))
    def test_governance_cap_binds_agoric_and_is_ignored_elsewhere(self, family):
        """An exhausted reject-tenant's zero cap fails agoric plans closed;
        the non-pricing optimizers keep relying on admission-time gates."""
        catalog = orders_catalog()
        governance = GovernanceRegistry(
            {"version": 1, "tenants": {"acme": {"budget": {"credits": 0.001}}}}
        )
        engine = FederatedEngine(
            catalog, optimizer=OPTIMIZERS[family](catalog), governance=governance
        )
        governance.charge("acme", 1.0)  # exhaust the balance
        if family == "agoric":
            with pytest.raises(BudgetExceededError):
                engine.query(self.SQL, tenant="acme")
        else:
            assert len(engine.query(self.SQL, tenant="acme").table) == 10


# -- the benchmark's span table must keep resolving -------------------------


def test_every_benchmark_trace_target_resolves():
    """benchmarks/e2e may not be edited, so renaming a traced callable must
    fail here, not as ``trace.unresolved_targets`` in a later bench run."""
    from benchmarks.e2e import trace

    unresolved = [t for t in trace.all_targets() if trace.resolve(t) is None]
    assert unresolved == []


def test_the_row_site_engine_flag_stays_deleted():
    """One site engine: no ``columnar=`` on the engine, the executor or the
    execution context, and no env-to-batch adapter to feed a second one.
    The row-at-a-time operators live in ``tests/reference_site.py``."""
    from repro.federation import columnar
    from repro.federation.executor import Executor
    from repro.federation.physical import ExecContext

    catalog = orders_catalog()
    engine = FederatedEngine(catalog)
    with pytest.raises(TypeError):
        FederatedEngine(catalog, columnar=False)
    with pytest.raises(TypeError):
        Executor(engine.paths, columnar=False)
    with pytest.raises(TypeError):
        ExecContext(engine.paths, None, None, columnar=False)
    assert not hasattr(columnar, "envs_batch")


def test_there_is_one_aggregate_implementation():
    """count/sum/avg/min/max start, fold, merge and finish in one function
    each, which ``PartialAggregate``, ``Aggregate`` and ``FinalAggregate``
    all go through: the copies stay deleted, and an operator that needs an
    aggregate extends those four instead of naming the functions again.
    The row-at-a-time aggregator lives in ``tests/reference_site.py``."""
    import ast
    from pathlib import Path

    import repro
    from repro.federation import physical
    from repro.sql.rewrite import AggregateSplitting

    for gone in ("partial_state", "_Grouped", "groups_batch"):
        assert not hasattr(physical, gone)
    for owner, gone in (
        (physical.PartialAggregate, "_row_records"),
        (physical.PartialAggregate, "_columnar_records"),
        (physical.FinalAggregate, "_eval_merged"),
        (AggregateSplitting, "_aggregate_calls"),
    ):
        assert not hasattr(owner, gone)
    assert issubclass(physical.FinalAggregate, physical.Aggregate)

    where = set()  # (file, top-level statement) of every "avg" under src/
    source_root = Path(repro.__file__).parent
    for path in source_root.rglob("*.py"):
        for statement in ast.parse(path.read_text()).body:
            if any(
                isinstance(node, ast.Constant) and node.value == "avg"
                for node in ast.walk(statement)
            ):
                name = getattr(statement, "name", None) or statement.targets[0].id
                where.add((path.relative_to(source_root).as_posix(), name))
    assert where == {("sql/ast.py", "AGGREGATE_FUNCTIONS")} | {
        ("federation/physical.py", function)
        for function in ("empty_state", "fold_state", "merge_state", "final_value")
    }


def test_plan_layer_decisions_have_one_home():
    """A plan node declares what it holds and traversals read that; WHERE
    conjuncts are placed by one loop, which owns the outer-join guard;
    output names and comparison semantics are defined once.  The per-type
    ladders, the three claim loops, the three naming rules and the second
    comparison table stay deleted."""
    import ast
    import inspect
    from pathlib import Path

    import repro
    from repro.connect.source import Predicate
    from repro.core.values import COMPARISONS
    from repro.federation import physical
    from repro.sql import params, planner, rewrite

    node_types = {
        name
        for name, member in vars(planner).items()
        if inspect.isclass(member)
        and issubclass(member, planner.PlanNode)
        and member is not planner.PlanNode
    }
    assert {"ScanNode", "FilterNode", "JoinNode", "LimitNode"} <= node_types

    def functions(tree, prefix=""):
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                yield from functions(node, f"{prefix}{node.name}.")
            elif isinstance(node, ast.FunctionDef):
                yield f"{prefix}{node.name}", node

    def calls(function, name):
        for node in ast.walk(function):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == name:
                yield node

    # Compiling a node and labelling it in EXPLAIN are per type; nothing
    # else tells three node types apart.
    ladders, probes = set(), set()
    source_root = Path(repro.__file__).parent
    for path in source_root.rglob("*.py"):
        for where, function in functions(ast.parse(path.read_text())):
            tested = set()
            for call in calls(function, "isinstance"):
                tested |= {
                    node.id
                    for node in ast.walk(call.args[1])
                    if isinstance(node, ast.Name)
                }
            if len(tested & node_types) >= 3:
                ladders.add(where)
            if any(calls(function, "hasattr")) and any(
                isinstance(node, ast.Constant) and node.value == "child"
                for node in ast.walk(function)
            ):
                probes.add(where)
    assert ladders == {"PhysicalPlanner._node", "FederatedEngine._explain_node"}
    assert probes == set()

    bind_plan = inspect.getsource(params.bind_plan)
    assert len(bind_plan.splitlines()) <= 10
    assert not any(name in bind_plan for name in node_types)
    assert not hasattr(rewrite, "_rewrite_filters")

    # One placement loop: the only consumer of a filter's conjuncts and the
    # only place the null-supplying side of a LEFT JOIN is consulted.
    splitters, guards = set(), set()
    tree = ast.parse(inspect.getsource(rewrite))
    for where, function in functions(tree):
        for call in calls(function, "split_conjuncts"):
            if getattr(call.args[0], "attr", None) == "condition":
                splitters.add(where)
        if any(calls(function, "null_supplying_bindings")):
            guards.add(where)
    assert splitters == guards == {"ConjunctPlacement.run"}
    for rule in (
        rewrite.PredicatePushdown, rewrite.TextIndexRewrite, rewrite.SiteFilterPushdown
    ):
        assert issubclass(rule, rewrite.ConjunctPlacement)
        assert "run" not in vars(rule) and "claim" in vars(rule)

    assert physical.aggregate_names is planner.item_names
    assert "item_names" in physical.output_names.__code__.co_names
    assert "item_names" in planner._rewrite_aggregate_order.__code__.co_names
    assert Predicate._OPS is COMPARISONS


def test_sql_text_has_one_scanner_and_one_prepare_or_bind():
    """``sql/lexer.py`` is the only reader of SQL characters: the segment
    scanner, its error class and the DB-API's private binder stay deleted,
    the plan-cache key and the placeholder operations are built on
    ``tokenize_sql``, and there is no prepared-or-textual fork: a ``?``
    stands wherever a literal may, so the textual arm stays deleted and
    nothing under ``src/`` -- ``GatewaySession.submit`` and
    ``Cursor.execute`` least of all -- calls the text binder."""
    import ast
    from pathlib import Path

    import repro

    source_root = Path(repro.__file__).parent
    defined, callees, forks, callers = set(), {}, set(), {}
    for path in source_root.rglob("*.py"):
        where = path.relative_to(source_root).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defined.add(node.name)
            for call in ast.walk(node):
                if isinstance(call, ast.Call):
                    called = getattr(call.func, "id", getattr(call.func, "attr", None))
                    callers.setdefault(called, set()).add(node.name)
            if where == "sql/sqltext.py":
                callees[node.name] = {
                    call.func.id
                    for call in ast.walk(node)
                    if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                }
            if where.startswith("federation/") and isinstance(node, ast.FunctionDef):
                if any(
                    isinstance(handler, ast.ExceptHandler)
                    and handler.type is not None
                    and "SqlParseError" in ast.dump(handler.type)
                    for handler in ast.walk(node)
                ):
                    forks.add(f"{where}:{node.name}")
    assert not defined & {
        "scan_segments", "_read_quoted", "SqlTextError",
        "_execute_textual", "_bind", "_quote_literal", "prepare_or_bind",
    }
    assert "bind_sql_text" not in callers
    assert callers["replace_placeholders"] == {"bind_sql_text"}

    def reaches_lexer(name, seen=()):
        return "tokenize_sql" in callees[name] or any(
            reaches_lexer(callee, (*seen, name))
            for callee in callees[name] & (callees.keys() - set(seen))
        )

    for built_on_tokens in (
        "normalize_sql", "count_placeholders", "replace_placeholders"
    ):
        assert reaches_lexer(built_on_tokens)
    assert forks == {"federation/governance.py:_parse_row_filter"}


def test_rows_of_a_table_are_kept_one_way():
    """``column <op> literal`` over a column has one definition, under
    ``core``, which the sources' pushdown and the filter kernels both
    import; a scan keeps rows of column chunks only, so the row-at-a-time
    matchers (``Table.where``, ``row_env``, per-row masks and text filter)
    stay deleted from ``src/`` -- they live in ``tests/reference_site.py``
    -- and the connectors and ``core`` stay below ``sql`` / ``federation``."""
    import ast
    from pathlib import Path

    import repro

    source_root = Path(repro.__file__).parent
    defined, called, imports = {}, {}, {}
    for path in source_root.rglob("*.py"):
        where = path.relative_to(source_root).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, []).append(where)
            elif isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                called.setdefault(name, set()).add(where)
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    imports.setdefault(where, set()).add((node.module, alias.name))
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    imports.setdefault(where, set()).add((alias.name, None))

    deleted = {
        "row_env", "where", "apply_masks", "_apply_text_filter",
        "_col_lit_scan", "_probe", "KernelFallback",
    }  # fmt: skip
    assert not deleted & defined.keys()
    assert not {"row_env", "where", "apply_masks"} & called.keys()
    scan_path = {"connect/source.py", "federation/physical.py", "federation/cache.py"}
    assert not (called["Row"] | called["to_dict"]) & scan_path

    assert defined["column_scan"] == defined["order_probe"] == ["core/records.py"]
    for user in ("connect/source.py", "federation/columnar.py"):
        assert ("repro.core.records", "column_scan") in imports[user]
        assert ("repro.core.records", "column_probe") in imports[user]
    assert called["column_scan"] == {"connect/source.py", "federation/columnar.py"}

    for where, modules in imports.items():
        if where.startswith("connect/") or where in ("core/records.py", "core/values.py"):
            above = {
                module for module, _ in modules
                if (module or "").startswith(("repro.sql", "repro.federation"))
            }  # fmt: skip
            assert not above, (where, above)


def test_a_statement_has_one_lifecycle_and_one_debit():
    """Every execution reaches ``_run_physical`` through the one lifecycle
    body; the second and third bodies, the plan step's post-edit of the
    optimizer's output and the manager's replan knob stay deleted; who is
    asking is validated, capped and billed in one place each (DESIGN §5g)."""
    import ast
    from pathlib import Path

    import repro

    source_root = Path(repro.__file__).parent
    defined, callers, assigns, reads = set(), {}, {}, {}
    for path in source_root.rglob("*.py"):
        where = path.relative_to(source_root).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                reads.setdefault(node.attr, set()).add(where)
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defined.add(node.name)
            if isinstance(node, ast.ClassDef):
                defined.update(
                    f"{node.name}.{field.target.id}"
                    for field in node.body
                    if isinstance(field, ast.AnnAssign)
                )
                continue
            for inner in ast.walk(node):
                if isinstance(inner, ast.Call) and isinstance(inner.func, ast.Attribute):
                    callers.setdefault(inner.func.attr, []).append(node.name)
                targets = getattr(inner, "targets", None) or [
                    getattr(inner, "target", None)
                ]
                for target in targets:
                    if isinstance(target, ast.Attribute) and isinstance(
                        inner, (ast.Assign, ast.AnnAssign, ast.AugAssign)
                    ):
                        assigns.setdefault(target.attr, set()).add(node.name)
    assert not defined & {
        "_execute_statement", "_plan_prepared", "_annotate_text_filters",
        "_replan_cap", "ScanAssignment.text_filter",
    }
    assert "ScanAssignment.kind" in defined  # the scan above can see fields
    assert callers["_run_physical"] == ["_run_statement"]
    assert callers["charge"] == ["_run_statement"]
    assert callers["effective_budget"] == ["_bidding"]
    assert assigns["policy_signature"] == {"_compile"}
    assert "federation/workload.py" not in reads["policy_signature"]
    assert sorted(set(callers["_run_statement"])) == [
        "_run_statement", "answer", "execute", "query", "rerun_physical"
    ]  # itself: ``answer``, the inner select of an IN (SELECT ...)
    assert callers["rerun_physical"] == ["_execute"]
    from inspect import signature

    from repro.federation import WorkloadManager

    assert "max_replans" not in signature(WorkloadManager).parameters


def test_the_benchmark_keyword_calls_still_bind():
    """The exact keyword calls ``benchmarks/e2e/workloads.py`` makes: a
    signature refactor must fail here, not as a broken bench run."""
    from inspect import signature

    from repro.federation import Gateway, GatewaySession, WorkloadManager

    catalog, sql, params = orders_catalog(), "select id from orders", (1,)
    signature(FederatedEngine).bind(catalog, governance=None)
    signature(FederatedEngine).bind(catalog, cache=None, artifacts=None)
    signature(FederatedEngine.query).bind(None, sql, advance_clock=False)
    signature(WorkloadManager).bind(
        None, None, scheduler="weighted-fair", max_in_flight=4
    )
    signature(WorkloadManager.register_tenant).bind(None, "t", queue_limit=50)
    signature(Gateway).bind(None, max_sessions=32, plan_cache_size=64)
    signature(Gateway.connect).bind(None, tenant="t")
    signature(GatewaySession.execute).bind(None, sql, params)
    signature(GatewaySession.submit).bind(None, sql, params)


# Where per-statement values may still be spelled as keywords: the public
# entry points that build a QueryOptions, and QueryOptions itself.
OPTION_FACADE = {
    "engine.FederatedEngine.query",
    "engine.FederatedEngine.execute",
    "workload.WorkloadManager.submit",
    "physical.QueryOptions.__init__",
}
PER_STATEMENT = {
    "advance_clock", "degraded_ok", "reuse_artifacts", "deadline_at", "budget"
}


def test_per_statement_values_travel_as_one_options_object():
    """Below the keyword facade no function in the statement funnel takes
    a per-statement value as its own parameter: one ``QueryOptions`` is
    handed on by reference (ROADMAP item 1c stays deleted)."""
    import inspect

    from repro.federation import engine, executor, physical, reopt, workload

    def functions(module):
        short = module.__name__.rsplit(".", 1)[1]
        for name, member in vars(module).items():
            if getattr(member, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(member):
                yield f"{short}.{name}", member
            elif inspect.isclass(member):
                for attr, value in vars(member).items():
                    value = getattr(value, "__func__", value)
                    if inspect.isfunction(value):
                        yield f"{short}.{name}.{attr}", value

    offenders = {}
    for module in (engine, executor, physical, reopt, workload):
        for where, fn in functions(module):
            loose = PER_STATEMENT & set(inspect.signature(fn).parameters)
            if loose and where not in OPTION_FACADE:
                offenders[where] = sorted(loose)
    assert offenders == {}
    for takes_options in (
        physical.ExecContext, executor.Executor.execute, reopt.ReoptController
    ):
        assert "options" in inspect.signature(takes_options).parameters


def test_a_materialized_copy_is_served_one_way():
    """An artifact is served at the ``Ship`` boundary whichever finder found
    it (no site operator serves one, and the planner has no artifact
    branch); a view or cache region is served by one ``SiteScan`` step,
    which the covering fallback reaches instead of charging, stamping and
    counting by hand; the report keeps no copy of a plan figure; and the
    physical dataclasses are imported from ``physical`` (DESIGN §5k)."""
    import ast
    from dataclasses import fields
    from pathlib import Path

    import repro
    from repro.federation.physical import ExecutionReport

    source_root = Path(repro.__file__).parent
    repo_root = source_root.parent.parent
    site_operators, serving_callers, through_executor = set(), set(), set()
    site_scan = planner_node = None
    for path in sorted(
        path
        for part in ("src", "tests", "benchmarks", "examples")
        for path in (repo_root / part).rglob("*.py")
    ):
        where = path.relative_to(repo_root).as_posix()
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and "SiteOperator" in {
                getattr(base, "id", None) for base in node.bases
            }:
                site_operators.add(node.name)
            if isinstance(node, ast.ImportFrom) and node.module == (
                "repro.federation.executor"
            ):
                through_executor |= {alias.name for alias in node.names}
        if not where.startswith("src/"):
            continue
        for top in tree.body:
            for node in ast.walk(top):
                called = isinstance(node, ast.Call) and getattr(node.func, "attr", "")
                if called in ("serve_rows", "serve_groups", "book_hit"):
                    serving_callers.add(f"{path.name}:{getattr(top, 'name', '')}")
            if where.endswith("federation/physical.py"):
                if getattr(top, "name", None) == "SiteScan":
                    site_scan = top
                if getattr(top, "name", None) == "PhysicalPlanner":
                    planner_node = next(
                        f for f in top.body if getattr(f, "name", None) == "_node"
                    )

    assert site_operators == {
        "SiteScan", "SiteFilter", "SiteProject", "PartialAggregate"
    }  # fmt: skip
    assert serving_callers == {"artifacts.py:ArtifactStore", "physical.py:Ship"}
    assert not any(
        isinstance(node, ast.Constant) and node.value == "artifact"
        for node in ast.walk(planner_node)
    )

    def count(tree, test):
        return sum(1 for node in ast.walk(tree) if test(node))

    def is_call(node, name):
        func = getattr(node, "func", None)
        return isinstance(node, ast.Call) and name in (
            getattr(func, "id", None), getattr(func, "attr", None)
        )

    assert count(site_scan, lambda n: is_call(n, "apply_predicates")) == 1
    assert count(
        site_scan,
        lambda n: isinstance(n, ast.Assign)
        and getattr(n.targets[0], "attr", None) == "staleness_seconds"
        and is_call(n.value, "max"),
    ) == 1  # fmt: skip
    (fallback,) = (
        f for f in site_scan.body if getattr(f, "name", None) == "_covering_fallback"
    )
    assert not count(fallback, lambda n: is_call(n, "charge_site"))

    def writes_an_attribute(node):  # a stamp or a count
        targets = getattr(node, "targets", [getattr(node, "target", None)])
        return any(isinstance(target, ast.Attribute) for target in targets)

    assert not count(fallback, writes_an_attribute)

    names = {field.name for field in fields(ExecutionReport)}
    assert not names & {"price", "planner_wall_seconds", "network_seconds"}
    assert through_executor == {"Executor"}


def _python_files(*parts):
    from pathlib import Path

    import repro

    repo_root = Path(repro.__file__).parent.parent.parent
    for part in parts:
        for path in sorted((repo_root / part).rglob("*.py")):
            yield path.relative_to(repo_root).as_posix(), path


def _not_builders():
    """(file, top-level definition) of every ``UnaryOp("not", ...)`` call."""
    import ast

    found = set()
    for where, path in _python_files("src", "tests", "benchmarks", "examples"):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if (
                    isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "UnaryOp"
                    and node.args
                    and getattr(node.args[0], "value", None) == "not"
                ):
                    found.add((where, getattr(top, "name", None)))
    return found


def _not_in_the_kernels():
    import ast
    import inspect

    from repro.federation import columnar

    tree = ast.parse(inspect.getsource(columnar))
    return [n.lineno for n in ast.walk(tree) if getattr(n, "value", None) == "not"]


def _null_key_patch():
    import ast

    return [
        where
        for where, path in _python_files("src", "tests")
        for node in ast.walk(ast.parse(path.read_text()))
        if getattr(node, "name", None) == "null_rejecting_keys"
    ]


def _comparisons_not_unknown_on_null():
    from repro.core.values import COMPARISONS

    return [
        (op, args)
        for op, compare in COMPARISONS.items()
        for other in (None, 0, 1, "", "a", True, 1.5)
        for args in ((None, other), (other, None))
        if compare(*args) is not None
    ]


@pytest.mark.parametrize(
    "rule, found, allowed",
    [
        ("NOT is built by sql.ast.negate alone", _not_builders,
         {("src/repro/sql/ast.py", "negate")}),
        ("no filter kernel negates", _not_in_the_kernels, []),
        ("no join patches NULL = NULL", _null_key_patch, []),
        ("a comparison with a NULL side is unknown", _comparisons_not_unknown_on_null, []),
    ],  # fmt: skip
    ids=["one-not-builder", "no-not-kernel", "no-null-key-patch", "null-is-unknown"],
)
def test_null_has_one_rule_and_not_one_home(rule, found, allowed):
    """The one NULL rule lives in ``core.values.COMPARISONS``; NOT is pushed
    to the atoms as it is parsed, so the complement kernel and the join's
    NULL-key patch stay deleted and nothing else builds a NOT node."""
    assert found() == allowed, rule
