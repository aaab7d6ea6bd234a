"""Composable rewrite passes over the logical plan.

The federated engine's query path used to inline its plan surgery (MATCH
rewriting in the engine, predicate splitting in the planner).  Each
transformation is now a :class:`RewritePass` so the pipeline is explicit,
testable in isolation, and extensible:

* :class:`PredicatePushdown` -- ``column op literal`` conjuncts move into
  their scan's source-level predicate list (applied by ``build_plan``);
* :class:`TextIndexRewrite` -- ``MATCH(col, 'q')`` conjuncts become a
  text-index access path on the scan (§4's "text search engine ... fully
  modeled ... as an access path");
* :class:`SiteFilterPushdown` -- residual conjuncts touching a single
  binding (ORs, fuzzy matches, arithmetic) execute at the owning site;
* :class:`ProjectionPruning` -- scans record the only columns any later
  operator reads, so sites ship narrower rows;
* :class:`AggregateSplitting` -- single-table aggregations decompose into
  site-local partials merged at the coordinator;
* :class:`GovernanceInjection` -- per-tenant row-level-security predicates
  and column masks compile into scan annotations, so policy enforcement is
  priced and pruned like any other site work;
* :class:`TopKPushdown` -- under ``ORDER BY ... LIMIT k`` the scan the first
  order key reads ships each fragment's top k rows alone (Carey & Kossmann's
  Stop(N) below the join, checked and restarted at the coordinator Sort).

The first three are *claim rules* under the one conjunct-placement loop,
:class:`ConjunctPlacement`, which is also the one home of the outer-join
guard.  Every pass reads a column's scan from ``Column.binding``, which
:func:`repro.sql.planner.resolve` set before the plan was built.  Passes
mutate scan annotations in place and may restructure filters; they never
change query answers (sqlite3 referees that in
``tests/test_against_sqlite.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.connect.source import Predicate
from repro.core.errors import QueryError
from repro.sql.ast import (
    BinaryOp,
    Column,
    Expr,
    FuncCall,
    InSubquery,
    Literal,
    Parameter,
    Star,
    columns_in,
    rebuild,
)
from repro.sql.params import bind_plan
from repro.sql.planner import (
    AggregateNode,
    AggregateSplit,
    FilterNode,
    JoinNode,
    LimitNode,
    PlanNode,
    ProjectNode,
    ScanGovernance,
    ScanNode,
    ScanTopK,
    SortNode,
    _as_pushable,
    conjoin,
    owner,
    scans_in,
    split_conjuncts,
    walk,
)


class RewritePass:
    """One plan-to-plan transformation."""

    name = "rewrite"

    def run(self, plan: PlanNode) -> PlanNode:
        raise NotImplementedError


class RewritePipeline:
    """Applies passes in order; the engine's standard pipeline lives here."""

    def __init__(self, passes: list[RewritePass]) -> None:
        self.passes = list(passes)

    def run(self, plan: PlanNode) -> PlanNode:
        for rewrite_pass in self.passes:
            plan = rewrite_pass.run(plan)
        return plan


def null_supplying_bindings(nodes: list[PlanNode]) -> set[str]:
    """Bindings on the null-extended (right) side of a LEFT JOIN among
    ``nodes`` (a subtree, walked).

    Predicates must not be pushed below the join for these bindings: a
    site-side filter would turn the outer join into an inner one for the
    filtered-out rows.
    """
    found: set[str] = set()
    for node in nodes:
        if isinstance(node, JoinNode) and node.join_type == "left":
            found.update(scan.binding for scan in scans_in(node.right))
    return found


class ConjunctPlacement(RewritePass):
    """Moves WHERE conjuncts out of residual filters onto scans.

    This is the one conjunct-placement loop: every filter, bottom-up, has
    its condition split into conjuncts; each conjunct is offered to the
    subclass's *claim rule*, which either annotates a scan with it or
    leaves it; what is left is conjoined again and an emptied filter is
    dropped.  A rule is only ever offered the scans under the filter that
    no LEFT JOIN null-extends, so a rule cannot forget the outer-join guard:
    where a conjunct is evaluated must never change what it means.
    """

    def run(self, plan: PlanNode) -> PlanNode:
        plan.replace_children(self.run)
        if not isinstance(plan, FilterNode):
            return plan
        under = walk(plan.child)
        null_extended = null_supplying_bindings(under)
        scans = {
            node.binding: node
            for node in under
            if isinstance(node, ScanNode) and node.binding not in null_extended
        }
        kept = [
            conjunct
            for conjunct in split_conjuncts(plan.condition)
            if not self.claim(conjunct, scans)
        ]
        condition = conjoin(kept)
        return plan.child if condition is None else FilterNode(plan.child, condition)

    def claim(self, conjunct: Expr, scans: dict[str, ScanNode]) -> bool:
        """Annotate one of ``scans`` (by binding) with ``conjunct`` and
        return True, or return False to leave it in the filter."""
        raise NotImplementedError


class PredicatePushdown(ConjunctPlacement):
    """Move ``column op literal`` conjuncts into their scan's pushdown."""

    name = "predicate-pushdown"

    def claim(self, conjunct: Expr, scans: dict[str, ScanNode]) -> bool:
        pushable = _as_pushable(conjunct)
        if pushable is None:
            return False
        column, op, value = pushable
        scan = scans.get(column.binding)
        if scan is None:
            return False
        scan.pushdown.append(Predicate(column.name, op, value))
        return True


class TextIndexRewrite(ConjunctPlacement):
    """Turn ``MATCH(col, 'q')`` conjuncts into text-index access paths.

    A conjunct is rewritten only when its column's binding reads a table
    with a text index on that column (``targets``: binding -> indexed
    column); otherwise it stays a row-wise predicate (the scalar ``match``
    fallback keeps answers correct).
    """

    name = "text-index"

    def __init__(self, targets: dict[str, str | None]) -> None:
        self.targets = targets

    def claim(self, conjunct: Expr, scans: dict[str, ScanNode]) -> bool:
        if not (
            isinstance(conjunct, FuncCall)
            and conjunct.name == "match"
            and len(conjunct.args) == 2
            and isinstance(conjunct.args[0], Column)
            and isinstance(conjunct.args[1], Literal)
        ):
            return False
        column, query = conjunct.args
        scan = scans.get(column.binding)
        if scan is None or self.targets.get(scan.binding) != column.name:
            return False  # unindexed: leave as a row-wise predicate
        scan.text_filter = (column.name, str(query.value))
        return True


class SiteFilterPushdown(ConjunctPlacement):
    """Move residual single-binding conjuncts to the owning site.

    Source-level pushdown only handles ``column op literal``; everything
    else (ORs, BETWEEN over expressions, ``fuzzy(...) > x``) used to run at
    the coordinator after shipping every row.  Any conjunct whose columns
    all belong to one binding is row-local, so the site can evaluate it
    before shipping -- the paper's "move the work to the data".
    """

    name = "site-filter"

    def claim(self, conjunct: Expr, scans: dict[str, ScanNode]) -> bool:
        # A constant predicate has no binding: it stays at the coordinator.
        scan = scans.get(owner(conjunct))
        if scan is None:
            return False
        scan.site_filters.append(conjunct)
        return True


class ProjectionPruning(RewritePass):
    """Record, per scan, the only columns any later operator reads: each
    column counts for the binding it resolved to, and ``SELECT *``
    (optionally qualified) keeps the matching bindings whole.
    """

    name = "projection-pruning"

    def run(self, plan: PlanNode) -> PlanNode:
        nodes = walk(plan)
        scans = [node for node in nodes if isinstance(node, ScanNode)]
        needed: dict[str, set[str]] = {scan.binding: set() for scan in scans}
        full: set[str] = set()  # bindings a ``*`` / ``alias.*`` keeps whole
        for node in nodes:
            for expr in node.exprs():
                if isinstance(expr, Star):
                    full.update(needed if expr.qualifier is None else [expr.qualifier])
                for column in columns_in(expr):
                    if column.binding in needed:  # not an output column
                        needed[column.binding].add(column.name)
        for scan in scans:
            if scan.binding not in full:
                scan.needed_columns = needed[scan.binding]
        return plan


class AggregateSplitting(RewritePass):
    """Mark single-table aggregations as partial/final decomposable.

    When an AggregateNode sits directly on a scan (after the filter passes
    absorbed the residual), every supported aggregate (count/sum/avg/min/
    max) has a mergeable partial state, so each site can aggregate its
    fragment locally and ship one row per group instead of every row.
    """

    name = "aggregate-split"

    def run(self, plan: PlanNode) -> PlanNode:
        for node in walk(plan):
            if isinstance(node, AggregateNode) and isinstance(node.child, ScanNode):
                node.split = AggregateSplit(calls=list(node.calls().values()))
        return plan


class TopKPushdown(RewritePass):
    """Mark the scan whose fragments may each ship their top k rows alone.

    Applies to ``LIMIT k`` over a Sort (through a non-DISTINCT Project, as
    a plan without aggregates has one) when the Sort's *first* key reads
    the columns of one binding B, and the path from the Sort down to B's
    scan passes only through nodes that hand B's rows on whole or drop
    them (:meth:`~repro.sql.planner.PlanNode.row_sources`: filters, inner
    joins on either side, the preserved side of a left join).  So never
    through an aggregate, DISTINCT or the null-supplying side of a left
    join, and never for ``limit 0``.  The mark is all this pass does: the
    physical compile reads it (``SiteTopK`` at B's sites, k at the Sort).
    """

    name = "top-k"

    def run(self, plan: PlanNode) -> PlanNode:
        if not isinstance(plan, LimitNode):
            return plan
        limit = plan.limit
        sort = _sort_under(plan.child)
        if sort is None or (isinstance(limit, Literal) and limit.value == 0):
            return plan
        first = sort.order_by[0]
        binding = owner(first.expr)
        node = sort.child
        while not isinstance(node, ScanNode):
            node = next(
                (
                    child
                    for child in node.row_sources()
                    if any(scan.binding == binding for scan in scans_in(child))
                ),
                None,
            )
            if node is None:
                return plan
        if node.binding == binding:
            node.top_k = ScanTopK(first, limit)
        return plan


def without_top_k(plan: PlanNode) -> PlanNode:
    """A copy of a bound plan with the top-k mark off: the ordinary plan,
    which a Sort that cannot show its truncated answer exact re-runs."""
    copy = bind_plan(plan, ())
    for scan in scans_in(copy):
        scan.top_k = None
    return copy


def _sort_under(node: PlanNode) -> SortNode | None:
    """The Sort a LIMIT takes its rows from, through a non-DISTINCT
    Project: row for row, so its first k rows are the Sort's first k."""
    if isinstance(node, ProjectNode) and not node.distinct:
        node = node.child
    return node if isinstance(node, SortNode) else None


@dataclass(frozen=True)
class GovernanceRule:
    """Compiled policy for one (tenant, table): what the injector applies.

    ``row_filter`` is the parsed RLS predicate with *bare* column names
    (the injector qualifies them to each scan's binding); ``masks`` pairs
    column names with mask styles.  Built by
    :class:`repro.federation.governance.GovernanceRegistry` so this module
    stays free of federation imports.
    """

    tenant: str
    table: str
    row_filter: Expr | None = None
    masks: tuple[tuple[str, str], ...] = ()


@dataclass
class GovernanceInjection(RewritePass):
    """Compile per-tenant RLS predicates and column masks into scans.

    The governed answer is, by definition, the query evaluated over each
    governed table replaced by ``mask(sigma_RLS(T))``: RLS conjuncts see raw
    (pre-mask) values, masks apply at the scan's output, and the tenant's
    own predicates on masked columns see masked values.  Three consequences
    shape the rewrite:

    * pushable RLS conjuncts join ``scan.pushdown`` -- they prune zone maps,
      scope semantic-cache regions, and are priced by selectivity exactly
      like user predicates; non-pushable conjuncts become ``rls_residual``
      expressions the site filters its chunks by before masking.  RLS pushes
      below LEFT JOINs too: the policy filters the table *before* the join,
      so the null-supplying exclusion that protects user predicates does
      not apply.
    * user pushdown predicates on masked columns are *hoisted back* into
      ``site_filters`` (which run post-mask), since the source would
      otherwise compare raw values the tenant never sees.
    * a text-index access path over a masked column is demoted to the
      scalar ``match`` fallback for the same reason.
    """

    name = "governance"

    rules: dict[str, GovernanceRule] = field(default_factory=dict)
    # The resolved statement's scope: each binding's field names.
    scope: dict[str, set[str]] = field(default_factory=dict)

    def run(self, plan: PlanNode) -> PlanNode:
        for scan in scans_in(plan):
            rule = self.rules.get(scan.table)
            if rule is None or scan.governance is not None:
                continue
            self._govern(scan, rule)
        return plan

    def _govern(self, scan: ScanNode, rule: GovernanceRule) -> None:
        fields = self.scope.get(scan.binding, set())
        masks: dict[str, str] = {}
        for column_name, style in rule.masks:
            if column_name not in fields:
                raise QueryError(
                    f"governance policy for tenant {rule.tenant!r} masks "
                    f"unknown column {column_name!r} of table {rule.table!r}"
                )
            masks[column_name] = style
        self._hoist_masked_pushdown(scan, masks)
        self._demote_masked_text_filter(scan, masks)
        governance = ScanGovernance(rule.tenant, masks=masks)
        if rule.row_filter is not None:
            for conjunct in split_conjuncts(rule.row_filter):
                qualified = _qualify_policy_expr(
                    conjunct, scan.binding, fields, rule
                )
                pushable = _as_pushable(qualified)
                if pushable is not None:
                    column, op, value = pushable
                    predicate = Predicate(column.name, op, value)
                    scan.pushdown.append(predicate)
                    governance.rls_pushed.append(predicate)
                else:
                    governance.rls_residual.append(qualified)
        scan.governance = governance

    def _hoist_masked_pushdown(
        self, scan: ScanNode, masks: dict[str, str]
    ) -> None:
        if not masks:
            return
        kept: list[Predicate] = []
        for predicate in scan.pushdown:
            if predicate.column in masks:
                # The tenant's predicate must see the *masked* value, so it
                # becomes a post-mask site filter instead of source pushdown.
                scan.site_filters.append(
                    BinaryOp(
                        predicate.op,
                        Column(predicate.column, scan.binding, scan.binding),
                        Literal(predicate.value),
                    )
                )
            else:
                kept.append(predicate)
        scan.pushdown[:] = kept

    def _demote_masked_text_filter(
        self, scan: ScanNode, masks: dict[str, str]
    ) -> None:
        if scan.text_filter is None or scan.text_filter[0] not in masks:
            return
        column_name, query_text = scan.text_filter
        scan.text_filter = None
        scan.site_filters.append(
            FuncCall(
                "match",
                (Column(column_name, scan.binding, scan.binding), Literal(query_text)),
            )
        )


def _qualify_policy_expr(
    expr: Expr, binding: str, fields: set[str], rule: GovernanceRule
) -> Expr:
    """A copy of a policy expression with columns qualified to ``binding``.

    Fails closed: a policy referencing a column the table does not have (or
    a construct a row filter cannot contain) is a query-time error, never a
    silently unenforced filter.
    """
    if isinstance(expr, Column):
        if expr.qualifier is not None and expr.qualifier != rule.table:
            raise QueryError(
                f"governance policy for tenant {rule.tenant!r} on table "
                f"{rule.table!r} references foreign column {expr.qualified!r}"
            )
        if expr.name not in fields:
            raise QueryError(
                f"governance policy for tenant {rule.tenant!r} filters "
                f"unknown column {expr.name!r} of table {rule.table!r}"
            )
        return Column(expr.name, binding, binding)
    if isinstance(expr, (Parameter, Star, InSubquery)):
        raise QueryError(
            f"governance policy for tenant {rule.tenant!r} on table "
            f"{rule.table!r} uses an unsupported row-filter construct: {expr!r}"
        )
    return rebuild(expr, _qualify_policy_expr, binding, fields, rule)
