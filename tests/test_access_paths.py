"""Tests for the access-path seam (repro.federation.access) and the two
defects it fixes once for every optimizer; and, at the end, the guard table
that keeps each "one home" decision in its one home."""

import ast
import functools
import importlib
import re
from collections import Counter, defaultdict
from pathlib import Path

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
from repro.federation.health import FAILURE_THRESHOLD
from repro.sim import SimClock
from repro.sql import build_plan, parse_sql, resolve

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
    plan = build_plan(resolve(parse_sql(sql), catalog.binding_fields))
    node = plan
    while node.children():
        node = node.children()[0]
    return plan, node


def trip(health, site_name):
    for _ in range(FAILURE_THRESHOLD):
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


# -- one guard table --------------------------------------------------------
# Each "one home" rule is one row: a query over one index of the sources
# under src/, tests/, benchmarks/ and examples/, and the homes it may find.
# A home is "file:Qualname" ("file:" at module level; a module constant is
# the home of the strings in it).


class SourceIndex:
    def __init__(self, root):
        self.params, self.bases, self.lines = {}, {}, {}  # by defining home
        self.calls = defaultdict(list)  # callee -> [(home, first argument)]
        self.passes = defaultdict(list)  # callee -> [(home, positional count, keywords)]
        self.options = {}  # a defining home -> (positional parameters, defaulted ones)
        self.callees, self.assigns = defaultdict(set), defaultdict(list)
        self.imports, self.names = defaultdict(set), defaultdict(set)  # by file, home
        self.strings, self.tested, self.excepts = (defaultdict(set) for _ in range(3))
        self.files, self.texts, self.functions = [], {}, set()
        for part in ("src", "tests", "benchmarks", "examples"):
            for path in sorted((root / part).rglob("*.py")):
                where = path.relative_to(root).as_posix()
                self.files.append(where)
                self.texts[where] = path.read_text()
                self._visit(where, "", ast.parse(self.texts[where]))

    def _visit(self, where, scope, node):
        home = f"{where}:{scope}"
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.Name, ast.Attribute)):
                self.names[home].add(_name(child))
            elif isinstance(child, ast.Constant) and isinstance(child.value, str):
                self.strings[home].add(child.value)
            elif isinstance(child, ast.Call):
                name, first = _name(child.func), (child.args or [None])[0]
                first = first.value if isinstance(first, ast.Constant) else _name(first)
                self.calls[name].append((home, first))
                self.callees[home].add(name)
                count = len(child.args)
                if any(isinstance(arg, ast.Starred) for arg in child.args):
                    count = None  # *args may fill every position
                self.passes[name].append((home, count, {k.arg for k in child.keywords}))
                if name == "isinstance" and len(child.args) == 2:
                    self.tested[home] |= set(map(_name, ast.walk(child.args[1])))
            elif isinstance(child, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = getattr(child, "targets", None) or [child.target]
                if not scope and isinstance(targets[0], ast.Name):
                    inner = targets[0].id
                for target in targets:
                    if isinstance(target, ast.Attribute):
                        self.assigns[target.attr].append(home)
                    elif isinstance(target, ast.Subscript):  # x.name[key] = ...
                        self.assigns[f"{_name(target.value)}[]"].append(home)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}".lstrip(".")
                defined = f"{where}:{inner}"
                self.params[defined] = frozenset(_params(child))
                self.bases[defined] = frozenset(map(_name, getattr(child, "bases", ())))
                self.lines[defined] = child.end_lineno - child.lineno + 1
                if not isinstance(child, ast.ClassDef):
                    self.functions.add(defined)
                    self.options[defined] = _options(child.args)
            elif isinstance(child, ast.ImportFrom):
                self.imports[where] |= {(child.module, a.name) for a in child.names}
            elif isinstance(child, ast.Import):
                self.imports[where] |= {(a.name, None) for a in child.names}
            elif isinstance(child, ast.ExceptHandler) and child.type:
                self.excepts[home] |= set(map(_name, ast.walk(child.type)))
            self._visit(where, inner, child)

    def sites(self, name, under="src/"):  # one calling home per call site
        return sorted(home for home, _ in self.calls[name] if home.startswith(under))

    def callers(self, name, under="src/"):
        return set(self.sites(name, under))

    def holding(self, table, value, under="src/"):
        """The homes under ``under`` whose entry in ``table`` holds ``value``."""
        return {h for h, held in table.items() if h.startswith(under) and value in held}

    def defined(self, under="src/"):
        """Every name defined under ``under``: bare, and as ``Owner.member``
        for a method, a parameter or a class's field."""
        found = set()
        for home, params in self.params.items():
            if home.startswith(under):
                *owner, name = home.partition(":")[2].split(".")
                found |= {name, ".".join([*owner[-1:], name])}
                found |= {f"{name}.{param}" for param in params}
        return found


def _name(node):
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _options(args):
    """A signature's positional parameters after the first (``self``), and
    the parameters that have a default."""
    positional = [a.arg for a in (*args.posonlyargs, *args.args)][1:]
    defaulted = positional[len(positional) - len(args.defaults):] if args.defaults else []
    defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return tuple(positional), tuple(defaulted)


def _params(node):
    if isinstance(node, ast.ClassDef):  # a class's parameters are its fields
        return (_name(f.target) for f in node.body if isinstance(f, ast.AnnAssign))
    args = node.args
    every = (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg)
    return (arg.arg for arg in every if arg)


@functools.cache
def source_index():
    return SourceIndex(Path(__file__).resolve().parents[1])


def top(home):
    where, _, qualname = home.partition(":")
    return f"{where}:{qualname.split('.')[0]}"


def leaf(home):
    return home.partition(":")[2].rpartition(".")[2]


def module(name):
    return importlib.import_module(f"repro.{name}")


@functools.cache
def node_types(ix):
    bases = {leaf(h): b for h, b in ix.bases.items() if h.startswith(PLANNER)}

    def is_node(name):
        return any(base == "PlanNode" or is_node(base) for base in bases.get(name, ()))

    return set(filter(is_node, bases))


def unbuilt_on_tokens(ix):
    """The placeholder operations that do not reach ``tokenize_sql``."""
    calls = defaultdict(set)  # sqltext.py's top-level function -> callees
    for home, names in ix.callees.items():
        if home.startswith(S + "sqltext.py:"):
            calls[leaf(top(home))] |= names
    reached = {"tokenize_sql"}
    while grown := {name for name, names in calls.items() if names & reached} - reached:
        reached |= grown
    return {"normalize_sql", "replace_placeholders"} - reached


def unnamed(ix):
    """The public definitions under src/ -- at module level or in a class,
    not nested in a function -- whose name no file under src/, benchmarks/
    or examples/ spells out anywhere but where it is defined: a crude word
    count, so a name in a string or a comment counts as a use."""
    text = "\n".join(t for w, t in ix.texts.items()
                     if w.startswith(("src/", "benchmarks/", "examples/")))
    words = Counter(re.findall(r"\w+", text))
    words.subtract(re.findall(r"\b(?:def|class)\s+(\w+)", text))
    found = set()
    for home in ix.params:
        where, _, qualname = home.partition(":")
        owner, _, name = qualname.rpartition(".")
        if (where.startswith("src/") and not name.startswith("_")
                and f"{where}:{owner}" not in ix.functions and words[name] <= 0):
            found.add(home)
    return found


def unset_options(ix):
    """The defaulted parameters of a public class's ``__init__`` under
    federation/ or ir/ that no call under src/, benchmarks/ or examples/
    passes, by keyword or by position (a ``**kwargs`` pass names none)."""
    found = set()
    for home, (positional, defaulted) in ix.options.items():
        where, _, qualname = home.partition(":")
        owner, _, name = qualname.rpartition(".")
        if (name != "__init__" or "." in owner or owner.startswith("_")
                or not where.startswith((F, "src/repro/ir/"))):
            continue
        passed = set()
        for caller, count, keywords in ix.passes[owner]:
            if caller.startswith(("src/", "benchmarks/", "examples/")):
                passed |= set(positional[:count]) | keywords
        found |= {f"{owner}.{option}" for option in defaulted if option not in passed}
    return found


def dotted(where):
    """The module a file under src/ is (a package's __init__.py is the package)."""
    return where[4:-3].removesuffix("/__init__").replace("/", ".")


def unimported(ix):
    """The public modules under src/ that no other file under src/,
    benchmarks/ or examples/ imports.  A package re-exporting a module's
    names is no use of it; importing a re-exported name is."""
    inits = {w for w in ix.files if w.startswith("src/") and w.endswith("/__init__.py")}
    reexports, uses, reached = {}, [], set()  # reached: (file, module)
    for user in ix.files:
        for m, name in ix.imports[user]:
            if user in inits and (m or "").startswith(dotted(user) + "."):
                reexports[dotted(user), name] = m
            elif user.startswith(("src/", "benchmarks/", "examples/")):
                uses.append((user, m or "", name))
    for user, m, name in uses:
        reached |= {(user, m), (user, f"{m}.{name}")}
        while (m := reexports.get((m, name))) is not None:
            reached.add((user, m))
    return {dotted(w) for w in ix.files if w.startswith("src/")
            and not any(part.startswith("_") for part in dotted(w).split("."))
            and not any(user != w and (m == dotted(w) or m.startswith(dotted(w) + "."))
                        for user, m in reached)}


def stage_split(ix):
    """The physical layer split on the stage line: whether ``site_ops.py``
    and ``coordinator_ops.py`` exist, which of the four modules is over
    1 000 lines, which names two of them define (a def, a class or a
    module-level assignment: an import is a use), and what ``site_ops.py``
    imports from ``coordinator_ops.py``."""
    texts = {w: ix.texts[w] for w in PLANES if w in ix.texts}
    homes = defaultdict(set)  # a module-level name -> the modules defining it
    for where, text in texts.items():
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                homes[node.name].add(where)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                for target in getattr(node, "targets", None) or [node.target]:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            homes[name.id].add(where)
    return (PLANES[1] in texts and PLANES[2] in texts,
            {w for w, text in texts.items() if len(text.splitlines()) > 1000},
            {name for name, where in homes.items() if len(where) > 1},
            {(m, name) for m, name in ix.imports[PLANES[1]]
             if "coordinator_ops" in f"{m}.{name}"})


F, S = "src/repro/federation/", "src/repro/sql/"
# The operator protocol and the planner, the two planes, and the report.
PLANES = tuple(F + f"{m}.py" for m in ("physical", "site_ops", "coordinator_ops",
                                        "report"))  # fmt: skip
DBAPI = F + "dbapi.py"
# The gateway's state and services, none of which the DB-API may touch.
BEHIND_THE_DOOR = ("PlanCache", "plan_cache", "engine", "workload", "submit", "drain")
ENGINE, PHYSICAL = F + "engine.py:FederatedEngine.", F + "physical.py:"
SITE_OPS, COORDINATOR_OPS, REPORT = (where + ":" for where in PLANES[1:])
OPERATORS = (PHYSICAL, SITE_OPS, COORDINATOR_OPS)  # the protocol and the two planes
REWRITE, PLANNER = S + "rewrite.py:", S + "planner.py:"
STAGE = F + "stage.py:"
BIND_PLAN, FALLBACK = S + "params.py:bind_plan", STAGE + "Stage._covering_fallback"
GONE = {
    "envs_batch",  # the second site engine's env-to-batch adapter
    "partial_state", "_Grouped", "groups_batch", "PartialAggregate._row_records",
    "PartialAggregate._columnar_records", "FinalAggregate._eval_merged",
    "AggregateSplitting._aggregate_calls",  # aggregate copies
    "_rewrite_filters",  # a claim loop
    "scan_segments", "_read_quoted", "SqlTextError", "_execute_textual", "_bind",
    "_quote_literal", "prepare_or_bind",  # a second SQL scanner, textual binding
    "row_env", "where", "apply_masks", "_apply_text_filter", "_col_lit_scan",
    "_probe", "KernelFallback",  # row-at-a-time matchers
    "_execute_statement", "_plan_prepared", "_annotate_text_filters",
    "_replan_cap", "ScanAssignment.text_filter",  # second lifecycle bodies
    "Bid",  # a per-replica bid object: the auction keeps a running minimum
    "count_parameters", "statement_has_subqueries",
    "statement_exprs",  # tree walks for the figures the parser stamps
    "ErpSystem", "ErpGateway", "CsvConnector", "XmlConnector", "PipelineSource",
    "_coerce_cell", "ContentIntegrationSystem.onboard_from_listing",
    "WrapperTrainingSession.train_against", "WrapperTrainingSession._matches",
    "WrapperTrainingSession._first_misread",
    "WrapperTrainingSession._normalize",  # sources and helpers only tests reached
    "Table.sorted_by",  # a second ordering rule: the coordinator Sort is the one
    "Page", "_Cursor", "execute_paged", "fetch_page", "_open_cursor", "close_cursor",
    "GatewayResult.columns",  # a second result cursor: dbapi's fetchmany pages
    "connect.workload", "connect.priority", "connect.max_staleness",
    "_install_result",  # the DB-API's own submit/drain copy of GatewaySession.execute
    "XmlTransformer", "TemplateRule", "best_matches", "register_external_table",
    "reset_budget",  # definitions only tests reached
    "ScanAssignment.rerun", "_maybe_capture", "_capture_parts", "_refreshed",
    "current_spans", "_splice",  # reuse decisions made outside the stage
    "Warehouse.table_names", "EtlJob.total_extract_seconds", "UnitNormalizer.family_of",
    "UnitNormalizer.to_canonical", "MatchSession.is_complete",
    "Lineage.source_columns_of", "DiscrepancyReport.by_rule",
    "DiscrepancyDetector.add_rule", "Taxonomy.assigned_to", "Site.hosted_names",
    "ArtifactStore.inflight_keys", "SemanticCache.entry_ages", "Network.set_latency",
    "BrowserAgent.follow_link", "token_set_similarity", "InvertedIndex.document_count",
    "CatalogSearch.add_document", "Row.values_tuple", "Table.column_chunks",
    "count_placeholders",  # public surface nothing but tests named
    "_binding_of_column", "sole_binding", "TextIndexTarget", "_resolve_order_aliases",
    "GovernanceInjection.binding_fields", "ambiguous_fields", "scan_layout",
    "EncodedBatch.aliases", "ColumnBatch.aliases", "ExecContext.ambiguous",  # late names
    "is_available",  # public surface nothing but tests named
    "ReoptPolicy", "RetryPolicy", "backoff_seconds",  # tuning no shipped caller set
    "build_url", "SupplierRegistry.withdraw", "SimClock.elapsed_since", "Taxonomy.assign",
    "Taxonomy.items_under",  # definitions only tests reached
    "book_hit", "CacheBid",  # a plan that held its artifact or region's rows
    "Stage._resolve",  # a named copy's second run path: a copy runs as itself
    "Stage.release",  # a take-back: the report holds the stages that answered
    "PartialGroup", "record_wire_bytes", "CanonicalGroup",
    "row_form_batches",  # a group record per group: groups travel as one batch
    "_rows_batch", "StagePayload.rows", "StagePayload.fields",
    "StagePayload.groups",  # a payload of value tuples: a payload is one column batch
    "SiteBatch.rows",  # one field for two kinds of value: groups have their own
    "stage_specs", "AccessPaths.stage_specs",  # a second walk over a plan's stages
    "TextIndexRewrite", "ScanNode.text_filter", "_text_condition", "_text_targets",
    "_demote_masked_text_filter", "TableEntry.key_column",
    "TableEntry.text_column",  # a second evaluator of match: it is one predicate
    "Node", "Element", "TextNode", "Comment", "full_text", "has_class", "element_id",
    "iter_descendant_elements",
    "_matches_simple_selector",  # a second element tree: HTML parses into XmlElement
}  # fmt: skip
# The retry budget and backoff schedule of scan-level failover.
RETRY_CONSTANTS = ("RETRY_BUDGET", "BACKOFF_BASE_SECONDS", "BACKOFF_MULTIPLIER",
                   "BACKOFF_CAP_SECONDS")  # fmt: skip
# Options no shipped caller sets, each kept for the reason given.
SITES = "describes a simulated site; benches set some through make_site(**kwargs)"
NETWORK = "describes the simulated network; the network tests set it"
UNSET_OPTIONS = {
    "ArtifactStore.max_rows": "its only setter is the eviction test in test_artifact_reuse",
    **{f"Site.{name}": SITES for name in (
        "cpu_seconds_per_row", "price_per_second", "load_price_factor", "congestion_alpha")},
    **{f"{owner}.{name}": NETWORK for owner in ("Network", "SecureNetwork")
       for name in ("base_latency", "seconds_per_byte")},
    **{f"SecureNetwork.{name}": NETWORK for name in (
        "handshake_seconds", "encryption_factor", "shared_secret")},
    "FederationCatalog.network": NETWORK,
    "Gateway.max_idle": "sizes the deployment's idle session pool; the gateway tests set it",
}  # fmt: skip
CLAIMS = ("PredicatePushdown", "SiteFilterPushdown")
SCAN_PATH = ("connect/source.py", "federation/physical.py", "federation/site_ops.py",
             "federation/coordinator_ops.py", "federation/report.py",
             "federation/cache.py")  # fmt: skip
PER_STATEMENT = {"advance_clock", "degraded_ok", "reuse_artifacts", "deadline_at",
                 "budget"}  # fmt: skip
FUNNEL = tuple(F + f"{m}.py:" for m in ("engine", "executor", "physical", "site_ops",
                                         "coordinator_ops", "report", "reopt",
                                         "workload"))  # fmt: skip
OPTION_FACADE = {ENGINE + "query", ENGINE + "execute", PHYSICAL + "QueryOptions",
                 F + "workload.py:WorkloadManager.submit"}  # fmt: skip
# The site plane selects rows and folds through the selections; the kept
# rows are copied out only where a consumer needs a batch of its own.
SITE_PLANE = tuple(SITE_OPS + name for name in (
    "SiteScan", "SiteFilter", "SiteProject", "SiteTopK", "PartialAggregate",
    "chunk_filter", "partial_groups", "_group_keys", "_ungrouped", "_grouped",
    "fold_state"))  # fmt: skip
TAKES_OPTIONS = (PHYSICAL + "ExecContext.__init__", F + "executor.py:Executor.execute",
                 F + "reopt.py:ReoptController.__init__")  # fmt: skip
# What a plan once held of a stored copy: its rows, its artifact, their ages.
COPY_CONTENT = {"cached_table", "cached_staleness", "artifact", "artifact_age"}
COPY_KINDS = {"cache", "artifact"}
CATALOG = F + "catalog.py:FederationCatalog."
OPTIMIZE = {F + f"{m}.py:{c}.optimize" for m, c in (("agoric", "AgoricOptimizer"),
            ("central", "CentralizedOptimizer"), ("loadbalance", "PolicyOptimizer"))}

GUARDS = [
    ("stays_deleted", "what moved to its one home is not defined again",
     lambda ix: GONE & ix.defined(), set()),
    ("stays_deleted-columnar-flag", "one site engine: nothing takes columnar=",
     lambda ix: ix.holding(ix.params, "columnar"), set()),
    ("stays_deleted-every-definition-is-named",
     "a public definition under src/ is named by src/, a bench or an example",
     unnamed, {"src/repro/htmlkit/parser.py:_TreeBuilder." + name for name in (
         "handle_starttag", "handle_endtag")}),  # HTMLParser callbacks
    ("one_value-every-option-is-set",
     "a public __init__ option under federation/ or ir/ is set by a shipped caller",
     unset_options, set(UNSET_OPTIONS)),
    ("one_resolution-resolver-takes-the-fields",
     "a name is looked up in the catalog's fields by the resolver alone",
     lambda ix: ix.holding(ix.params, "binding_fields"),
     {PLANNER + "resolve", PLANNER + "_resolved"}),
    ("one_resolution-no-bare-name-layout",
     "nothing decides which bare names a batch carries: there are none",
     lambda ix: ix.holding(ix.names, "ambiguous") | ix.holding(ix.params, "ambiguous")
     | {h for h in ix.assigns["aliases"] if h.startswith("src/")}, set()),
    ("one_aggregate-avg-homes", "an aggregate starts, folds, merges and finishes once",
     lambda ix: set(map(top, ix.holding(ix.strings, "avg"))),
     {S + "ast.py:AGGREGATE_FUNCTIONS"} | {SITE_OPS + name for name in
      ("empty_state", "fold_state", "merge_state", "final_value")}),
    ("one_aggregate-final-is-aggregate", "FinalAggregate is Aggregate over merged groups",
     lambda ix: issubclass(module("federation.coordinator_ops").FinalAggregate,
                           module("federation.coordinator_ops").Aggregate), True),
    ("one_home-index-sees-node-types", "sanity: the index finds the plan node types",
     lambda ix: {"ScanNode", "FilterNode", "JoinNode", "LimitNode"} <= node_types(ix), True),
    ("one_home-type-ladders", "only compiling and EXPLAIN tell three node types apart",
     lambda ix: {h for h, names in ix.tested.items()
                 if h.startswith("src/") and len(names & node_types(ix)) >= 3},
     {PHYSICAL + "PhysicalPlanner._node", ENGINE + "_explain_node"}),
    ("one_home-no-child-probe", "no traversal probes a node for a child",
     lambda ix: ix.callers("hasattr") & ix.holding(ix.strings, "child"), set()),
    ("one_home-bind-plan-is-generic", "binding a plan reads children, not node types",
     lambda ix: (ix.lines[BIND_PLAN] <= 10, node_types(ix) & set().union(
         *(names for h, names in ix.names.items() if h.startswith(BIND_PLAN)))),
     (True, set())),
    ("one_home-one-placement-loop", "one loop splits WHERE and owns the LEFT JOIN guard",
     lambda ix: ({h for h, first in ix.calls["split_conjuncts"]
                  if h.startswith(REWRITE) and first == "condition"},
                 ix.callers("null_supplying_bindings", REWRITE)),
     ({REWRITE + "ConjunctPlacement.run"},) * 2),
    ("one_home-rules-only-claim", "the two placement rules are claims of that loop",
     lambda ix: {rule for rule in CLAIMS
                 if "ConjunctPlacement" not in ix.bases.get(REWRITE + rule, ())
                 or f"{REWRITE}{rule}.run" in ix.params
                 or f"{REWRITE}{rule}.claim" not in ix.params}, set()),
    ("one_home-item-names-callers", "output names come from planner.item_names",
     lambda ix: ix.callers("item_names"),
     {COORDINATOR_OPS + "output_names", PLANNER + "resolve"}),
    ("one_home-aggregate-names-are-item-names", "an aggregation names its items alike",
     lambda ix: module("federation.coordinator_ops").aggregate_names
     is module("sql.planner").item_names, True),
    ("one_home-one-comparison-table", "pushdown compares with core.values.COMPARISONS",
     lambda ix: module("connect.source").Predicate._OPS
     is module("core.values").COMPARISONS, True),
    ("one_home-one-default-retry-policy", "the retry budget and backoff are defined once",
     lambda ix: {h for h in ix.names
                 if h.startswith("src/") and h.partition(":")[2] in RETRY_CONSTANTS},
     {STAGE + name for name in RETRY_CONSTANTS}),
    ("one_scanner-built-on-tokens", "the plan-cache key and placeholders read tokens",
     unbuilt_on_tokens, set()),
    ("one_scanner-no-text-binder", "nothing under src/ calls the ad-hoc client's binder",
     lambda ix: (ix.callers("bind_sql_text"), ix.callers("replace_placeholders")),
     (set(), {F + "gateway.py:bind_sql_text"})),
    ("one_scanner-no-parse-error-fork", "no prepared-or-textual fork on SqlParseError",
     lambda ix: ix.holding(ix.excepts, "SqlParseError", F),
     {F + "governance.py:_parse_row_filter"}),
    ("one_way-row-matchers-uncalled", "nothing keeps rows one row at a time",
     lambda ix: {n for n in ("row_env", "where", "apply_masks") if ix.callers(n)}, set()),
    ("one_way-scan-path-keeps-columns", "the scan path builds no Row and no dict",
     lambda ix: {h for h in ix.callers("Row") | ix.callers("to_dict")
                 if h.partition(":")[0].endswith(SCAN_PATH)}, set()),
    ("one_way-column-scan-defined-once", "column <op> literal is defined under core",
     lambda ix: {h for h in ix.params
                 if h.startswith("src/") and leaf(h) in ("column_scan", "order_probe")},
     {f"src/repro/core/records.py:{name}" for name in ("column_scan", "order_probe")}),
    ("one_way-kernels-imported", "pushdown and kernels import it; core imports no layer above",
     lambda ix: ({(user, name) for user in ("connect/source.py", "federation/columnar.py")
                  for name in ("column_scan", "column_probe")
                  if ("repro.core.records", name) not in ix.imports[f"src/repro/{user}"]},
                 {where for where, imported in ix.imports.items()
                  if where.startswith(("src/repro/connect/", "src/repro/core/records.py",
                                       "src/repro/core/values.py"))
                  and any((m or "").startswith(("repro.sql", "repro.federation"))
                          for m, _ in imported)}), (set(), set())),
    ("one_way-column-scan-callers", "and they are its only callers",
     lambda ix: {h.partition(":")[0] for h in ix.callers("column_scan")},
     {"src/repro/connect/source.py", F + "columnar.py"}),
    ("one_lifecycle-index-sees-fields", "sanity: the index sees a dataclass's fields",
     lambda ix: "ScanAssignment.kind" in ix.defined(), True),
    ("one_lifecycle-run-physical", "every execution runs in the one lifecycle body",
     lambda ix: ix.sites("_run_physical"), [ENGINE + "_run_statement"]),
    ("one_lifecycle-entry-points", "query, execute, IN (SELECT) and the replan enter it",
     lambda ix: (ix.callers("_run_statement"), ix.sites("rerun_physical")),
     ({ENGINE + name for name in ("_run_statement.answer", "execute", "query",
                                  "rerun_physical")},
      [F + "workload.py:WorkloadManager._execute"])),
    ("one_lifecycle-one-debit", "who is asking is billed in one place",
     lambda ix: ix.sites("charge"), [ENGINE + "_run_statement"]),
    ("one_lifecycle-one-cap", "and capped in one place",
     lambda ix: ix.sites("effective_budget"), [ENGINE + "_bidding"]),
    ("one_lifecycle-signature-set-once", "the template's policy signature is set once",
     lambda ix: {h for h in ix.assigns["policy_signature"] if h.startswith("src/")},
     {ENGINE + "_compile"}),
    ("one_lifecycle-manager-reads-no-signature", "the manager does not re-check it",
     lambda ix: ix.holding(ix.names, "policy_signature", F + "workload.py:")
     | ix.holding(ix.strings, "policy_signature", F + "workload.py:"), set()),
    ("one_lifecycle-no-replan-knob", "the manager has no replan cap",
     lambda ix: ix.params[F + "workload.py:WorkloadManager.__init__"] & {"max_replans"},
     set()),
    ("options_object-facade", "below the facade per-statement values are QueryOptions",
     lambda ix: {h for h, params in ix.params.items()
                 if h.startswith(FUNNEL) and params & PER_STATEMENT}, OPTION_FACADE),
    ("options_object-taken", "the executor, its context and re-opt take the object",
     lambda ix: {h for h in TAKES_OPTIONS if "options" not in ix.params.get(h, ())}, set()),
    ("late_materialisation-site-copies-nothing", "no site operator takes or concats",
     lambda ix: {h for name in ("take", "concat", "filter_batch")
                 for h in ix.callers(name) if h.startswith(SITE_PLANE)}, set()),
    ("late_materialisation-gatherers", "Ship and a mask gather the kept rows",
     lambda ix: (ix.callers("gather"), {h for h in ix.assigns["gather"]
                                        if h.startswith("src/")}),
     ({PHYSICAL + "Ship._produce", SITE_OPS + "SiteScan._apply_governance",
       F + "columnar.py:filter_batch"}, set())),
    ("one_loop-site-work-charged-once", "a site operator's work on a batch is charged "
     "in one per-batch loop, SiteOperator._compute, or by the scan's governance: no "
     "other site operator defines a _compute",
     lambda ix: (ix.callers("charge_site", SITE_OPS)
                 | ix.callers("charge_site", PHYSICAL + "SiteOperator"),
                 {h for h in ix.functions if h.startswith(SITE_OPS) and leaf(h) == "_compute"}),
     ({PHYSICAL + "SiteOperator._compute", SITE_OPS + "SiteScan._apply_governance"},
      {SITE_OPS + "SiteScan._compute"})),
    ("one_wire-ship-never-decodes", "the wire is sized: no src/ home decodes but the codec",
     lambda ix: ix.callers("decode_batch") | ix.callers("decode_column"),
     {F + "columnar.py:decode_batch"}),
    ("served_one_way-site-operators", "no site operator serves an artifact",
     lambda ix: ix.holding(ix.bases, "SiteOperator", ""),
     {SITE_OPS + n for n in ("SiteScan", "SiteFilter", "SiteProject", "SiteTopK",
                             "PartialAggregate")}),
    ("served_one_way-serving-callers", "an artifact is served by the stage",
     lambda ix: {top(h) for name in ("serve_rows", "serve_groups")
                 for h in ix.callers(name)}, {STAGE + "Stage"}),
    ("served_one_way-no-planner-branch", "the physical planner has no artifact branch",
     lambda ix: ix.holding(ix.strings, "artifact", PHYSICAL + "PhysicalPlanner._node"), set()),
    ("served_one_way-one-serving-step", "one stage step filters a copy, one stamps an age",
     lambda ix: tuple({h for h in homes if h.startswith((*OPERATORS, STAGE))} for homes in (
         [h for h, _ in ix.calls["apply_predicates"]], ix.assigns["staleness_seconds"])),
     ({STAGE + "Stage._serve_copy"}, {STAGE + "Stage._stamp"})),
    ("served_one_way-fallback-charges-nothing", "the covering fallback only plans",
     lambda ix: ix.callers("charge_site", FALLBACK), set()),
    ("served_one_way-fallback-writes-nothing", "it stamps and counts nothing by hand",
     lambda ix: {h for homes in ix.assigns.values() for h in homes if h.startswith(FALLBACK)},
     set()),
    ("served_one_way-report-keeps-no-copy", "the report copies no plan figure",
     lambda ix: ix.params[REPORT + "ExecutionReport"]
     & {"price", "planner_wall_seconds", "network_seconds"}, set()),
    ("served_one_way-executor-exports", "physical dataclasses come from physical",
     lambda ix: {name for imported in ix.imports.values()
                 for m, name in imported if m == "repro.federation.executor"}, {"Executor"}),
    ("one_stage-plan-writers", "a plan's assignments are written by the optimizers "
     "and ReoptController.consider alone: a stage's narrowing stays on the stage",
     lambda ix: {h for h in ix.assigns["assignments[]"] if h.startswith("src/")},
     OPTIMIZE | {F + "reopt.py:ReoptController.consider"}),
    ("one_stage-one-driver", "Executor.execute alone starts a stage, no Ship defines "
     "an open or close calling a Stage method, and ExecContext has no superseded field",
     lambda ix: (ix.callers("start", F),
                 {h for h in ix.functions if h.partition(":")[2] in ("Ship.open", "Ship.close")
                  and ix.callees[h] & {leaf(m) for m in ix.params if m.startswith(STAGE)}},
                 ix.holding(ix.names, "superseded") | ix.holding(ix.strings, "superseded")),
     ({F + "executor.py:Executor.execute"}, set(), set())),
    ("one_stage-one-splice", "one splice of stored parts, in parts.py, for both stores",
     lambda ix: (ix.callers("splice"),
                 {h for h in ix.params if h.startswith("src/") and leaf(h) == "splice"}),
     ({STAGE + "Stage.spliced", F + "cache.py:SemanticCache._assemble"},
      {F + "parts.py:splice"})),
    ("one_stage-split-on-the-stage-line", "site and coordinator operators have a module "
     "each, none of the four is over 1 000 lines, no name is defined in two of them, and "
     "site_ops imports nothing from coordinator_ops", stage_split, (True, set(), set(), set())),
    ("one_path-plans-hold-no-content", "a plan names its copies: no src/ home passes "
     "a ScanAssignment rows, an artifact or an age, and it has no field for them",
     lambda ix: ({h for h, _, keywords in ix.passes["ScanAssignment"]
                  if h.startswith("src/") and keywords & COPY_CONTENT},
                 ix.params[PHYSICAL + "ScanAssignment"] & COPY_CONTENT), (set(), set())),
    ("one_copy-no-nested-placement", "a priced copy is its own placement: ScanAssignment "
     "has no placement field, and no src/ home reads one",
     lambda ix: ("placement" in ix.params[PHYSICAL + "ScanAssignment"],
                 {w for w, text in ix.texts.items()
                  if w.startswith("src/") and re.search(r"\.placement\b", text)}),
     (False, set())),
    ("one_copy-offers-label-the-placement", "AccessPaths.offers alone builds a cache or "
     "artifact assignment, and no optimizer sets a copy's fields by hand",
     lambda ix: ({h for h in ix.callers("ScanAssignment") | ix.callers("replace")
                  if h.startswith(F) and ix.strings[h] & COPY_KINDS},
                 {h for name in ix.params[PHYSICAL + "ScanAssignment"] | {"placement"}
                  for h in ix.assigns[name] if leaf(h) == "optimize"}),
     ({F + "access.py:AccessPaths.offers"}, set())),
    ("one_market-keys-compiled-once", "a plan's stage keys are compiled in one pass, "
     "artifacts.stage_keys, which each optimizer asks for before it bids; a stage "
     "compiles its own key only when its plan holds none, and stage_hash, the digest "
     "the tests referee, has no caller under src/",
     lambda ix: (ix.callers("compile_stage_key"), ix.callers("stage_keys"),
                 ix.callers("stage_hash")),
     ({F + "artifacts.py:stage_keys", F + "artifacts.py:stage_hash", STAGE + "Stage.digest"},
      {F + "access.py:AccessPaths.stage_keys"} | OPTIMIZE, set())),
    ("one_version-content-moves-epochs", "a write moves fragment epochs: the catalog "
     "version moves on schema, placement and view changes alone",
     lambda ix: {h for h in ix.assigns["version"] if h.startswith(CATALOG)},
     {CATALOG + m for m in ("__init__", "create_table", "add_fragment", "place_replica",
                            "drop_replica", "register_view")}),
    ("one_per_relationship-every-source-kind-runs",
     "a ContentSource kind is built outside its module by src/, a bench or an example",
     lambda ix: {leaf(h) for h in ix.holding(ix.bases, "ContentSource")
                 if not any(where.startswith(("src/", "benchmarks/", "examples/"))
                            and where.partition(":")[0] != h.partition(":")[0]
                            for where, _ in ix.calls[leaf(h)])}, set()),
    ("one_door-every-module-runs",
     "a public module under src/ is imported by src/, a bench or an example",
     unimported, set()),
    ("one_door-dbapi-is-a-session-face", "the DB-API reaches the federation by a session",
     lambda ix: ({n for n in BEHIND_THE_DOOR if ix.holding(ix.names, n, DBAPI)},
                 {m for m, _ in ix.imports[DBAPI] if m.startswith("repro.federation")}),
     (set(), {"repro.federation.gateway"})),
    ("null_has_one_rule-one-not-builder", "NOT is built by sql.ast.negate alone",
     lambda ix: {top(h) for h, first in ix.calls["UnaryOp"] if first == "not"},
     {S + "ast.py:negate"}),
    ("null_has_one_rule-no-not-kernel", "no filter kernel negates",
     lambda ix: ix.holding(ix.strings, "not", F + "columnar.py:"), set()),
    ("null_has_one_rule-no-null-key-patch", "no join patches NULL = NULL",
     lambda ix: {h for h in ix.params if leaf(h) == "null_rejecting_keys"}, set()),
    ("null_has_one_rule-null-is-unknown", "a comparison with a NULL side is unknown",
     lambda ix: {op for op, compare in module("core.values").COMPARISONS.items()
                 for other in (None, 0, 1, "", "a", True, 1.5)
                 if {compare(None, other), compare(other, None)} != {None}}, set()),
]  # fmt: skip


@pytest.mark.parametrize(
    "rule, query, allowed", [pytest.param(*row[1:], id=row[0]) for row in GUARDS]
)
def test_guard(rule, query, allowed):
    assert query(source_index()) == allowed, rule
