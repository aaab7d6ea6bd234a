"""Content-hashed stage artifacts: workload-level common-subexpression reuse.

The PR 5 workload manager overlaps many tenants' queries on one federation,
and identical pushed-down sub-plans -- the column batches one ``Ship``
stage delivers -- now run repeatedly across tenants and statement shapes.
This module materializes those stage outputs once and serves them to every
equivalent consumer:

* **Content hashing.**  :func:`stage_hash` canonically digests the
  pushed-down operator subtree of one stage: the base table and its
  fragment set, the source-level pushdown predicates, the site-filter
  conjuncts, the projected column set, a top-k stage's key, direction and
  bound k, and (for split aggregations) the partial-aggregate spec.
  Binding aliases are canonicalized away, so ``select v from items i
  where i.v < 5`` and ``select v from items where v < 5`` collide --
  across tenants, sessions and SQL spellings.  The stage hash is the
  artifact key.  What the stage read is kept in parts,
  one per fragment of the base table, each tagged with the content epoch
  it was read at (:mod:`repro.federation.parts`); an artifact serves whole
  only while every part is current.
* **A fourth access path.**
  :meth:`repro.federation.access.AccessPaths.offers` offers a completed
  artifact to the optimizers alongside fragments, materialized
  views and the semantic cache; the bid prices a coordinator-local pass
  over the materialized rows -- near-zero scan work and zero shipped
  bytes -- so a warm artifact usually wins the market.  The stage
  (:mod:`repro.federation.stage`) serves a chosen artifact exactly as it
  serves one its run-time probe finds: one coordinator pass, one booked hit.
* **Runtime publication and reuse.**  A stage that misses
  executes normally and publishes its output through the report; the
  engine registers it *in flight* until the query's modeled completion,
  then it commits under benefit-based admission (rows saved x stage
  seconds, mirroring the semantic cache's economy).  A concurrent query
  whose stage hash matches an in-flight stage *joins* it: it subscribes to
  the producer's completion instead of recomputing, paying only the
  remaining wait.  If the producer dies mid-flight, subscribers fall back
  to independent execution (once -- the fallback itself never joins).
* **Invalidation and refresh.**  The store listens on the catalog's
  base-table update bus exactly like the semantic cache; a write drops
  the table's artifacts and in-flight stages that have no current part
  left.  A stage whose committed artifact has stale parts re-runs its site
  pipeline over the stale fragments alone, serves the current parts beside
  them and publishes the spliced artifact (the stage's narrowing).

Payloads are stored in a binding-agnostic canonical form (bare column
names, canonical aggregate-call keys) and rebuilt per consumer, so a hit
is bit-identical to recomputation no matter which alias or ambiguity set
the consuming query uses.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.federation.columnar import ColumnBatch, scan_names
from repro.federation.parts import Part, all_current, any_current
from repro.sim.clock import SimClock
from repro.sql.ast import Column, render
from repro.sql.planner import AggregateNode, PlanNode, ScanNode, walk

Env = dict


# -- canonical stage digests ---------------------------------------------------


def canonical_expr(expr, binding: str) -> str:
    """Render ``expr`` with the scan's binding alias canonicalized to ``@``.

    This is ``describe_expr`` under another column spelling: two
    site-filter trees that differ only in the table alias (``i.v < 5`` vs
    ``items.v < 5`` vs bare ``v < 5``) render identically, which is what
    lets equivalent sub-plans collide across statement shapes.
    """

    def spelled(column: Column) -> str:
        if column.qualifier is None or column.qualifier == binding:
            return f"@.{column.name}"
        return column.qualified  # foreign binding: keep it distinguishing

    return render(expr, spelled)


@dataclass(frozen=True)
class StageSpec:
    """One publishable/consumable stage: a scan, optionally agg-inclusive."""

    scan: ScanNode
    agg: AggregateNode | None = None


def stage_specs(plan: PlanNode) -> "dict[str, StageSpec]":
    """The stages of a logical plan a plan may embed an artifact for, keyed
    by scan binding.

    Mirrors the physical planner's stage formation: a split aggregation
    directly over a scan ships partial-aggregate records (one agg-inclusive
    stage); any other scan ships its filtered/projected rows -- each
    fragment's top k alone when the scan carries a top-k mark, which the
    stage digest covers.  A top-k stage is left out: only its own
    run-time probe serves it, because a Sort that cannot show the truncated
    answer exact re-runs the plan's assignments with the mark off, and an
    embedded truncated artifact would then answer the untruncated stage.
    """
    specs: dict[str, StageSpec] = {}
    for node in walk(plan):  # parents first: a split aggregate claims its scan
        if (
            isinstance(node, AggregateNode)
            and node.split is not None
            and isinstance(node.child, ScanNode)
        ):
            specs[node.child.binding] = StageSpec(node.child, node)
        elif (
            isinstance(node, ScanNode)
            and node.binding not in specs
            and node.top_k is None
        ):
            specs[node.binding] = StageSpec(node)
    return specs


def stage_fields(schema, scan: ScanNode) -> tuple[str, ...]:
    """The stage's output columns in schema order (the payload row layout)."""
    names = tuple(schema.field_names)
    if scan.needed_columns is None:
        return names
    keep = set(scan.needed_columns) & set(names)
    if keep >= set(names):
        return names
    return tuple(n for n in names if n in keep)


def stage_hash(catalog, spec: StageSpec) -> str | None:
    """Canonical content hash of one stage's pushed-down subtree.

    Returns ``None`` for stages that are not artifact-eligible: text-index
    scans (their answers depend on the index, not the digested predicates)
    and names that resolve to views rather than base tables.
    """
    scan = spec.scan
    if scan.text_filter is not None:
        return None
    entry = catalog.tables.get(scan.table)
    if entry is None:
        return None
    parts = [
        f"table={scan.table}",
        "fragments=" + ",".join(sorted(f.fragment_id for f in entry.fragments)),
        "pushdown="
        + ";".join(
            sorted(f"{p.column} {p.op} {p.value!r}" for p in scan.pushdown)
        ),
        "filters="
        + ";".join(
            sorted(canonical_expr(c, scan.binding) for c in scan.site_filters)
        ),
        "columns=" + ",".join(stage_fields(entry.schema, scan)),
    ]
    if scan.top_k is not None:
        # A truncated output answers only the same truncation.
        order = scan.top_k.order
        parts.append(
            f"top-k={canonical_expr(order.expr, scan.binding)}"
            f"{' desc' if order.descending else ''} {render(scan.top_k.limit)}"
        )
    governance = getattr(scan, "governance", None)
    if governance is not None and (governance.rls_residual or governance.masks):
        # Governed stages capture post-RLS, post-mask rows, so the policy
        # work that shaped the payload is part of the stage identity.
        # Pushed RLS conjuncts already flow through ``pushdown=`` above;
        # the residual expressions and masks are added here.  The tenant
        # *name* is deliberately excluded: two tenants with byte-identical
        # policies produce byte-identical payloads and may share, while any
        # difference in predicates or masks changes the digest -- tenants
        # with different RLS can never collide on one artifact.
        parts.append(
            "rls="
            + ";".join(
                sorted(
                    canonical_expr(c, scan.binding)
                    for c in governance.rls_residual
                )
            )
        )
        parts.append(
            "masks="
            + ";".join(
                f"{column}:{style}"
                for column, style in sorted(governance.masks.items())
            )
        )
    if spec.agg is not None:
        parts.append(
            "group="
            + ";".join(
                canonical_expr(g, spec.scan.binding) for g in spec.agg.group_by
            )
        )
        parts.append(
            "aggs="
            + ";".join(
                sorted(
                    canonical_expr(c, spec.scan.binding)
                    for c in spec.agg.split.calls
                )
            )
        )
    digest = hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()
    return digest[:16]


# -- canonical payloads --------------------------------------------------------


@dataclass(frozen=True)
class CanonicalGroup:
    """One partial-aggregate group in binding-agnostic form."""

    key: tuple
    count: int
    states: "dict[str, object]"  # canonical call string -> partial state
    representative: "dict[str, object]"  # bare field name -> value


@dataclass
class StagePayload:
    """A stage's materialized output, stored binding-agnostically.

    ``kind`` is ``"rows"`` (filtered/projected scan output: value tuples in
    ``fields`` order) or ``"groups"`` (partial-aggregate records).  Serving
    rebuilds the consumer-shaped form -- qualified env keys, ``repr(call)``
    state keys -- from this canonical one, so the payload is reusable under
    any alias.
    """

    kind: str  # "rows" | "groups"
    fields: tuple[str, ...] = ()
    rows: list[tuple] = field(default_factory=list)
    groups: list[CanonicalGroup] = field(default_factory=list)

    @property
    def row_count(self) -> int:
        return len(self.rows) if self.kind == "rows" else len(self.groups)


def rows_payload(batches, binding: str, fields: tuple[str, ...]) -> StagePayload:
    """Canonicalize a rows stage's output batches into a payload; raises
    KeyError when a batch lacks one of ``fields``."""
    rows: list[tuple] = []
    for batch in batches:
        if not fields:
            rows.extend([()] * batch.count)
            continue
        indexes = [batch.index_of(f"{binding}.{name}") for name in fields]
        if None in indexes:
            raise KeyError(fields[indexes.index(None)])
        rows.extend(zip(*[batch.columns[i] for i in indexes]))
    return StagePayload(kind="rows", fields=fields, rows=rows)


def groups_payload(records, binding: str, calls) -> StagePayload:
    """Canonicalize a partial-aggregate stage's records into a payload."""
    canonical_by_repr = {repr(call): canonical_expr(call, binding) for call in calls}
    groups = []
    for record in records:
        states = {
            canonical_by_repr[key]: state for key, state in record.states.items()
        }
        # Every key is ``binding.field``: the scan's own columns.
        representative = {
            key.split(".", 1)[1]: value
            for key, value in record.representative.items()
        }
        groups.append(
            CanonicalGroup(
                key=tuple(record.key),
                count=record.count,
                states=states,
                representative=representative,
            )
        )
    return StagePayload(kind="groups", groups=groups)


# -- the stored artifact -------------------------------------------------------


@dataclass
class Artifact:
    """One stage output, the same object from capture to eviction: the
    stage builds it into the report on a miss, the engine registers a successful
    report's artifacts in flight (a failed execution simply drops them, so
    nothing half-computed ever becomes visible), the store commits it."""

    key: str  # the stage hash
    table_name: str
    payload: StagePayload
    rows_saved: int  # site rows the producing stage executed
    bytes_saved: int  # wire bytes the producing stage shipped
    fetch_seconds: float  # stage pipeline seconds a hit avoids
    fetched_at: float  # simulated time the oldest part was read
    hits: int = 0
    # One per fragment of the table, in payload order; none for an
    # artifact built whole, current until its table's next write.
    parts: tuple[Part, ...] = ()

    @property
    def row_count(self) -> int:
        return self.payload.row_count

    @property
    def current(self) -> bool:
        return all_current(self.parts)

    @property
    def partly_current(self) -> bool:
        return any_current(self.parts)

    def benefit(self) -> float:
        """What evicting this artifact throws away (semantic-cache economy)."""
        return self.rows_saved * self.fetch_seconds

    # -- consumer-shaped serving (see StagePayload) ------------------------

    def serve_rows(self, binding: str):
        """The stage's rows as one column batch under the consumer's
        binding, or None on kind mismatch (a hash collision guard, not an
        expected path)."""
        payload = self.payload
        if payload.kind != "rows":
            return None
        names = scan_names(binding, payload.fields)
        columns = [list(column) for column in zip(*payload.rows)]
        if not columns:
            columns = [[] for _ in names]
        return ColumnBatch(names, columns, len(payload.rows))

    def serve_groups(self, binding: str, calls):
        """Rebuild fresh PartialGroup records for an aggregate consumer.

        Records are rebuilt per serve (the coordinator's final merge
        mutates its copies) and states are re-keyed from canonical call
        strings to the consumer's ``repr(call)`` keys.
        """
        from repro.federation.physical import PartialGroup

        if self.payload.kind != "groups":
            return None
        records = []
        for group in self.payload.groups:
            states = {}
            for call in calls:
                canonical = canonical_expr(call, binding)
                if canonical not in group.states:
                    return None
                states[repr(call)] = group.states[canonical]
            representative: Env = {
                f"{binding}.{name}": value
                for name, value in group.representative.items()
            }
            records.append(
                PartialGroup(
                    key=group.key,
                    count=group.count,
                    states=states,
                    representative=representative,
                )
            )
        return records


@dataclass
class _InFlightStage:
    """A registered stage whose producing query has not yet completed."""

    artifact: Artifact
    completes_at: float
    producer: object = None  # the producing QueryHandle, when dispatched via WLM
    subscribers: list = field(default_factory=list)  # joined QueryHandles


class ArtifactStore:
    """Benefit-admitted, write-invalidated store of stage artifacts.

    ``max_rows`` bounds the total materialized rows (admission refuses
    oversized stages; overflow evicts lowest benefit first, exactly the
    semantic cache's policy).  ``serve_seconds_per_row`` and
    ``price_per_second`` shape the bid an artifact makes in the optimizer
    market.  ``max_age_seconds`` is the store's own TTL (None = none);
    per-call staleness bounds always override it for serveability, the
    same contract the semantic cache honors.
    """

    def __init__(
        self,
        clock: SimClock,
        max_rows: int = 100_000,
        max_age_seconds: float | None = None,
        serve_seconds_per_row: float = 0.00002,
        price_per_second: float = 1.0,
        metrics=None,
    ) -> None:
        self.clock = clock
        self.max_rows = max_rows
        self.max_age_seconds = max_age_seconds
        self.serve_seconds_per_row = serve_seconds_per_row
        self.price_per_second = price_per_second
        self.metrics = metrics  # optional MetricsRegistry, attached by the engine
        self._artifacts: "dict[str, Artifact]" = {}
        self._inflight: "dict[str, _InFlightStage]" = {}
        self.hits = 0
        self.joins = 0
        self.misses = 0
        self.refreshes = 0
        self.published = 0
        self.invalidations = 0
        self.evictions = 0
        self.rejected = 0
        self.aborts = 0
        self.fallbacks = 0

    # -- metrics -----------------------------------------------------------

    def _count(self, name: str, amount: float = 1.0) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(amount)

    def _gauge_rows(self) -> None:
        if self.metrics is not None:
            self.metrics.gauge("artifacts.stored_rows").set(self.stored_rows())

    # -- freshness ---------------------------------------------------------

    def _servable(self, artifact: Artifact, max_staleness: float | None) -> bool:
        if max_staleness is not None and max_staleness < 0:
            return False  # LIVE_ONLY: no materialized path at all
        limit = (
            max_staleness if max_staleness is not None else self.max_age_seconds
        )
        if limit is None:
            return True
        return (self.clock.now() - artifact.fetched_at) <= limit

    def _sweep(self) -> None:
        """Commit in-flight stages whose producer's modeled completion has
        passed, and reclaim artifacts dead by the store's own TTL."""
        now = self.clock.now()
        for key, stage in list(self._inflight.items()):
            if stage.completes_at <= now:
                del self._inflight[key]
                self._admit(stage.artifact)
        if self.max_age_seconds is not None:
            for key, artifact in list(self._artifacts.items()):
                if (now - artifact.fetched_at) > self.max_age_seconds:
                    del self._artifacts[key]
                    self.evictions += 1
                    self._count("artifacts.evictions")
        self._gauge_rows()

    # -- keying ------------------------------------------------------------

    def stage_key(self, catalog, spec: StageSpec) -> str | None:
        """The artifact key for one stage, or None if ineligible."""
        return stage_hash(catalog, spec)

    # -- lookup paths ------------------------------------------------------

    def bid(
        self, key: str, max_staleness: float | None = None
    ) -> "tuple[Artifact, float, float] | None":
        """Plan-time offer: ``(artifact, price, age)`` for a *committed*,
        current artifact, or None.  Books no hit/miss accounting -- the
        serve-time paths do -- so planning does not double count."""
        self._sweep()
        artifact = self._artifacts.get(key)
        if not self._whole(artifact, max_staleness):
            return None
        seconds = artifact.row_count * self.serve_seconds_per_row
        age = self.clock.now() - artifact.fetched_at
        return artifact, seconds * self.price_per_second, age

    def _whole(
        self, artifact: "Artifact | None", max_staleness: float | None
    ) -> bool:
        """Servable whole: every part current, and fresh enough."""
        return (
            artifact is not None
            and artifact.current
            and self._servable(artifact, max_staleness)
        )

    def has_twin(
        self, key: str | None, max_staleness: float | None = None
    ) -> bool:
        """Migration probe (DESIGN §5i): does a servable committed *or*
        in-flight twin of this stage exist?  Books no accounting -- the
        re-opt controller asks before soliciting sites, and a stage that
        can be served locally needs no market at all."""
        if key is None:
            return False
        self._sweep()
        stage = self._inflight.get(key)
        return self._whole(self._artifacts.get(key), max_staleness) or (
            stage is not None and self._whole(stage.artifact, max_staleness)
        )

    def acquire(
        self, key: str | None, max_staleness: float | None = None
    ) -> "tuple[Artifact, float, bool] | None":
        """Runtime lookup: ``(artifact, wait_seconds, joined_in_flight)``.

        A committed artifact serves immediately (wait 0).  An in-flight
        stage serves its already-materialized payload but charges the
        remaining wait until the producer's modeled completion -- that is
        the stage *join*.  Only an artifact whose every part is current
        serves.  Books hit/join/miss accounting.
        """
        if key is None:
            return None
        self._sweep()
        artifact = self._artifacts.get(key)
        if self._whole(artifact, max_staleness):
            self.book_hit(artifact)
            return artifact, 0.0, False
        stage = self._inflight.get(key)
        if stage is not None and self._whole(stage.artifact, max_staleness):
            self.joins += 1
            self._count("artifacts.joins")
            wait = max(0.0, stage.completes_at - self.clock.now())
            return stage.artifact, wait, True
        self.misses += 1
        self._count("artifacts.misses")
        return None

    def refreshable(
        self, key: str, max_staleness: float | None = None
    ) -> Artifact | None:
        """After a miss: the committed artifact of this stage that is stale
        in parts but has current ones, fresh enough to serve them, for the
        caller to *refresh* (re-run the stale fragments alone).  Books a
        refresh."""
        artifact = self._artifacts.get(key)
        if (
            artifact is None
            or not artifact.partly_current
            or not self._servable(artifact, max_staleness)
        ):
            return None
        self.refreshes += 1
        self._count("artifacts.refreshes")
        return artifact

    def book_hit(self, artifact: Artifact) -> None:
        """Hit accounting for a committed artifact: booked by
        :meth:`acquire`, and by the stage that serves a plan-embedded
        artifact (whose plan-time :meth:`bid` booked nothing)."""
        artifact.hits += 1
        self.hits += 1
        self._count("artifacts.hits")
        if self.metrics is not None:
            self.metrics.histogram("artifacts.hit_age_seconds").observe(
                self.clock.now() - artifact.fetched_at
            )

    # -- publication lifecycle ---------------------------------------------

    def begin_stage(
        self,
        artifact: Artifact,
        completes_at: float,
        producer=None,
    ) -> bool:
        """Register a completing stage's artifact as in flight.

        Concurrent queries may join it immediately; it commits to the
        artifact table (under admission) once ``completes_at`` passes,
        replacing a committed artifact of the same stage that had stale
        parts.  Returns False when the key is already in flight or
        committed current (first producer wins) or the payload exceeds the
        row budget outright.
        """
        self._sweep()
        key = artifact.key
        committed = self._artifacts.get(key)
        if key in self._inflight or (committed is not None and committed.current):
            return False
        if artifact.row_count > self.max_rows:
            self.rejected += 1
            self._count("artifacts.rejected")
            return False
        self._inflight[key] = _InFlightStage(
            artifact=artifact, completes_at=completes_at, producer=producer
        )
        return True

    def subscribe(self, key: str, subscriber) -> bool:
        """Record that ``subscriber`` joined the in-flight stage at ``key``."""
        stage = self._inflight.get(key)
        if stage is None:
            return False
        stage.subscribers.append(subscriber)
        return True

    def set_producer(self, key: str, producer) -> None:
        stage = self._inflight.get(key)
        if stage is not None:
            stage.producer = producer

    def abort_stages(self, keys) -> list:
        """Drop in-flight stages (their producer died); return subscribers.

        The caller (the workload manager) re-executes each returned
        subscriber independently -- the first-failure fallback.
        """
        subscribers: list = []
        for key in keys:
            stage = self._inflight.pop(key, None)
            if stage is None:
                continue
            self.aborts += 1
            self._count("artifacts.inflight_aborts")
            subscribers.extend(stage.subscribers)
        return subscribers

    def note_fallback(self) -> None:
        self.fallbacks += 1
        self._count("artifacts.fallbacks")

    def _admit(self, artifact: Artifact) -> None:
        """Commit one in-flight artifact under the benefit economy."""
        if artifact.row_count > self.max_rows:
            self.rejected += 1
            self._count("artifacts.rejected")
            return
        self._artifacts[artifact.key] = artifact
        self.published += 1
        self._count("artifacts.published")
        while self.stored_rows() > self.max_rows and self._artifacts:
            victim = min(
                self._artifacts,
                key=lambda k: (
                    self._artifacts[k].benefit(),
                    self._artifacts[k].fetched_at,
                ),
            )
            del self._artifacts[victim]
            self.evictions += 1
            self._count("artifacts.evictions")

    # -- invalidation ------------------------------------------------------

    def invalidate_table(self, table_name: str) -> int:
        """Drop the table's artifacts and in-flight stages that have no
        current part left: one built whole, or one whose every fragment
        was written.  An artifact with a current part stays for the next
        probe of its stage to refresh.

        Subscribed queries keep the results they already joined (their
        answers reflect the pre-write snapshot they were dispatched
        against, the simulation's execute-at-dispatch semantics); the drop
        only prevents *new* reuse of the stale content.
        """
        doomed = [
            k
            for k, a in self._artifacts.items()
            if a.table_name == table_name and not a.partly_current
        ]
        for key in doomed:
            del self._artifacts[key]
        doomed_inflight = [
            k
            for k, s in self._inflight.items()
            if s.artifact.table_name == table_name
            and not s.artifact.partly_current
        ]
        for key in doomed_inflight:
            del self._inflight[key]
        dropped = len(doomed) + len(doomed_inflight)
        self.invalidations += dropped
        self._count("artifacts.invalidations", dropped)
        self._gauge_rows()
        return dropped

    # -- introspection -----------------------------------------------------

    def stored_rows(self) -> int:
        return sum(a.row_count for a in self._artifacts.values())

    def __len__(self) -> int:
        return len(self._artifacts)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.joins + self.misses
        return (self.hits + self.joins) / total if total else 0.0

    def __repr__(self) -> str:
        return (
            f"ArtifactStore(artifacts={len(self._artifacts)}, "
            f"inflight={len(self._inflight)}, hits={self.hits}, "
            f"joins={self.joins}, misses={self.misses})"
        )

