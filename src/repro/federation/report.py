"""What an execution reports: the stats tree EXPLAIN ANALYZE prints, the
:class:`ExecutionReport`, and the ``describe_*`` helpers for a scan's line.
It imports nothing from :mod:`repro.federation.physical` at run time, so
that module imports it first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from repro.core.records import Table
from repro.federation.catalog import Fragment
from repro.sql.ast import render
from repro.sql.planner import ScanNode

if TYPE_CHECKING:  # physical.py imports this module first
    from repro.federation.physical import ScanAssignment


@dataclass
class OperatorStats:
    """Per-operator accounting surfaced by EXPLAIN ANALYZE."""

    name: str
    site: str = ""
    rows_in: int = 0
    rows_out: int = 0
    seconds: float = 0.0
    detail: str = ""
    children: list["OperatorStats"] = field(default_factory=list)
    # Columnar data-plane accounting (zero for pure row-path operators).
    batches: int = 0  # column batches this operator processed
    encoded_bytes: int = 0  # wire bytes after column encoding (Ship only)
    raw_bytes: int = 0  # wire bytes under naive row serialization
    encode_seconds: float = 0.0  # modeled serialization work (producer sites)
    decode_seconds: float = 0.0  # modeled deserialization work (coordinator)

    def tree_lines(self, depth: int = 0) -> list[str]:
        parts = [f"{'  ' * depth}{self.name}"]
        if self.site:
            parts.append(f"@ {self.site}")
        parts.append(f"rows_in={self.rows_in} rows_out={self.rows_out}")
        parts.append(f"seconds={self.seconds:.6f}")
        if self.batches:
            parts.append(f"batches={self.batches}")
        if self.raw_bytes:
            ratio = (
                self.raw_bytes / self.encoded_bytes if self.encoded_bytes else 0.0
            )
            parts.append(
                f"bytes={self.encoded_bytes}/{self.raw_bytes} ({ratio:.2f}x)"
            )
        if self.encode_seconds or self.decode_seconds:
            parts.append(
                f"encode={self.encode_seconds:.6f} decode={self.decode_seconds:.6f}"
            )
        if self.detail:
            parts.append(self.detail)
        lines = ["  ".join(parts)]
        for child in self.children:
            lines.extend(child.tree_lines(depth + 1))
        return lines

    def walk(self) -> Iterator["OperatorStats"]:
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass
class ScanCapture:
    """One complete fragment scan's rows, kept for the semantic cache:
    ``parts`` holds ``(fragment, epoch read at, rows)`` per fragment of the
    table in fragment order (a pruned fragment's rows empty, a refresh's
    not re-read ones ``None``: the cache keeps their stored parts);
    ``fetched_at`` is the clock when the sources were read, so staleness is
    measured from the fetch; ``fetch_seconds`` is the site work the scan
    cost, what a future hit saves (the benefit in admission/eviction)."""

    parts: "list[tuple[Fragment, int, Table | None]]"
    fetched_at: float
    fetch_seconds: float = 0.0


@dataclass
class ExecutionReport:
    """Accounting for one executed query."""

    response_seconds: float = 0.0
    rows_fetched: int = 0  # rows produced by scans (after source pushdown)
    rows_shipped: int = 0  # rows that crossed the network to the coordinator
    bytes_shipped: int = 0  # encoded wire bytes behind those shipped rows
    rows_returned: int = 0
    staleness_seconds: float = 0.0
    site_work: dict[str, float] = field(default_factory=dict)
    failovers: int = 0  # scans successfully re-routed after a site died mid-query
    failover_attempts: int = 0  # re-route attempts, successful or not
    retry_seconds: float = 0.0  # modeled backoff latency charged for retries
    # Graceful degradation: the fraction of the query's input rows that was
    # reachable (1.0 = complete answer), with the fragments left behind.
    completeness: float = 1.0
    degraded: bool = False
    unreachable_fragments: list[str] = field(default_factory=list)
    dead_sites: list[str] = field(default_factory=list)
    # Zone-map partition elimination: fragments skipped / considered.
    fragments_pruned: int = 0
    fragments_total: int = 0
    # Multi-tenant workload management (stamped by the WorkloadManager when
    # the query went through submit(): how long it queued before dispatch,
    # which tenant owned it, and which scheduling discipline dispatched it).
    queue_wait_seconds: float = 0.0
    tenant: str | None = None
    scheduler: str | None = None
    # Governance enforcement (stamped by the engine when the plan carried
    # compiled policy annotations): which tenant's policy governed the plan
    # and how many rows site-side residual RLS predicates dropped.
    governed_tenant: str | None = None
    rows_filtered_by_rls: int = 0
    # Live fragment-scan outputs, for the engine's semantic cache to store.
    scan_tables: dict[str, ScanCapture] = field(default_factory=dict)
    # Stage-artifact reuse accounting (see repro.federation.artifacts):
    # hits served from committed artifacts, joins onto in-flight stages,
    # the site rows / wire bytes those reuses avoided, the joined stage
    # keys (for the workload manager's subscription protocol), captured
    # stage outputs awaiting publication, and the keys the engine actually
    # registered in flight.
    artifact_hits: int = 0
    artifact_joins: int = 0
    artifact_rows_saved: int = 0
    artifact_bytes_saved: int = 0
    artifact_join_keys: list = field(default_factory=list)
    stage_outputs: list = field(default_factory=list)
    artifact_published_keys: list = field(default_factory=list)
    # Adaptive mid-query re-optimization (repro.federation.reopt): stages
    # re-quoted, stages actually migrated, the modeled seconds spent on
    # re-quotes that did *not* migrate (plus any superseded partial
    # execution the workload manager discarded), and the event trail.
    reoptimizations: int = 0
    migrated_stages: int = 0
    reopt_wasted_seconds: float = 0.0
    reopt_events: list = field(default_factory=list)
    # Per-stage runtime: binding -> (modeled arrival seconds, sites the
    # stage touched).  The workload manager projects which stages are
    # still pending at a disturbance from these.
    stage_runtimes: dict[str, tuple[float, tuple[str, ...]]] = field(
        default_factory=dict
    )
    operators: OperatorStats | None = None  # per-operator stats tree
    # Why a top-k stage's answer was not known exact, when the ordinary
    # plan ran after it (EXPLAIN ANALYZE prints it).
    top_k_restart: str | None = None


def describe_region(region: "frozenset | None") -> str:
    """Render a predicate region for EXPLAIN (``*`` = the whole table)."""
    if not region:
        return "*"
    rendered = sorted(
        f"{p.column} {p.op} {p.value!r}" for p in region
    )
    return " and ".join(rendered)


def describe_pruning(assignment: ScanAssignment) -> str:
    """Zone-map elimination as EXPLAIN shows it: `` pruned k/n`` or ``""``."""
    if assignment.pruned_fragments <= 0:
        return ""
    return (
        f" pruned {assignment.pruned_fragments}/{assignment.total_fragments}"
    )


def describe_access_path(assignment: ScanAssignment) -> str:
    """The access path the optimizer chose for one scan, as EXPLAIN shows
    it; a named copy shows the placement it falls back to."""
    kind = assignment.kind
    if kind == "view":
        return f"view {assignment.view.name} @ {assignment.view.site_name}"
    placed = ", ".join(
        f"{c.fragment.fragment_id}@{c.site_name}" for c in assignment.choices
    )
    path = f"fragments [{placed}]{describe_pruning(assignment)}"
    if kind == "cache":
        return f"cache(region {describe_region(assignment.cached_region)}) else {path}"
    if kind == "artifact":
        return f"artifact(stage) else {path}"
    return path


def describe_pushdown(scan: ScanNode) -> str:
    """`` pushdown(...)`` for the predicates the *user* pushed into a scan.

    RLS conjuncts live in the ordinary pushdown list (that is how they
    prune and price); :func:`describe_governance` attributes them to the
    policy instead of listing them twice.
    """
    pushdown = scan.pushdown
    governance = scan.governance
    if governance is not None and governance.rls_pushed:
        pushdown = [p for p in pushdown if p not in governance.rls_pushed]
    if not pushdown:
        return ""
    predicates = ", ".join(f"{p.column} {p.op} {p.value!r}" for p in pushdown)
    return f" pushdown({predicates})"


def describe_governance(scan: ScanNode) -> str:
    """`` rls(tenant=...: ...)`` and `` mask(col)`` for a governed scan."""
    governance = scan.governance
    if governance is None:
        return ""
    detail = ""
    rls_parts = [f"{p.column} {p.op} {p.value!r}" for p in governance.rls_pushed]
    rls_parts.extend(render(c) for c in governance.rls_residual)
    if rls_parts:
        detail += f" rls(tenant={governance.tenant}: {', '.join(rls_parts)})"
    for column in sorted(governance.masks):
        detail += f" mask({column})"
    return detail
