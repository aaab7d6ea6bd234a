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
  artifact key, and a fact of the plan: :func:`compile_stage_key` renders
  it once when the plan is built, each ``?`` left a slot, and an
  execution only fills in its bound values (:class:`StageKey`), so a
  prepared, an ad hoc and a gateway entry of one bound stage get one key.
  What the stage read is kept in parts,
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
  seconds, mirroring the semantic cache's economy); the store's
  stored-rows total moves as artifacts come and go, and no probe sums
  it.  A concurrent query
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

A payload is one column batch stored under binding-agnostic canonical
names (bare column names, canonical aggregate-call keys) and served to each
consumer under its own names with the stored columns, read-only by the
:class:`~repro.federation.columnar.ColumnBatch` contract, so a hit is
bit-identical to recomputation no matter which alias the consuming query
uses, and costs no copy.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.federation.columnar import ColumnBatch, scan_names
from repro.federation.parts import Part, all_current, any_current
from repro.sim.clock import SimClock
from repro.sql.ast import Column, Parameter, render
from repro.sql.params import bind_expr
from repro.sql.planner import AggregateNode, PlanNode, ScanNode, walk

# An artifact's bid: one coordinator pass over its rows at this many
# seconds per row, priced at this much per second.
SERVE_SECONDS_PER_ROW = 0.00002
PRICE_PER_SECOND = 1.0


# -- canonical stage digests ---------------------------------------------------


def canonical_expr(expr, binding: str) -> str:
    """Render ``expr`` with the scan's binding alias canonicalized to ``@``.

    This is :func:`~repro.sql.ast.render` under another column spelling: two
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


def stage_fields(schema, scan: ScanNode) -> tuple[str, ...]:
    """The stage's output columns in schema order (the payload row layout)."""
    names = tuple(schema.field_names)
    if scan.needed_columns is None:
        return names
    keep = set(scan.needed_columns) & set(names)
    if keep >= set(names):
        return names
    return tuple(n for n in names if n in keep)


# A parameter's slot in compiled canonical text: its index between two of
# these.  No rendered text holds one otherwise -- a literal renders by repr,
# which escapes control characters, and a column by its identifier.
_SLOT = "\x00"


class _Slot(str):
    """What a compile binds a parameter to: a string (a LIKE pattern may
    be one) whose repr, how a Literal's value renders, is the slot."""

    __repr__ = str.__str__


class _Slots:
    """A compile's values: parameter ``i`` is bound to slot ``i``."""

    def __getitem__(self, index: int) -> _Slot:
        return _Slot(f"{_SLOT}{index}{_SLOT}")


_SLOTS = _Slots()


def _pieces(text: str):
    """Canonical text rendered with slots: the text itself when it holds
    none, else its pieces -- text at even positions, parameter indices at
    odd ones."""
    if _SLOT not in text:
        return text
    pieces = text.split(_SLOT)
    return tuple(int(p) if i % 2 else p for i, p in enumerate(pieces))


def _filled(pieces, values) -> str:
    """Pieces with each slot spelled as :func:`canonical_expr` spells what
    fills it: a bound value as its Literal (its repr), and with no values
    the Parameter itself."""
    if isinstance(pieces, str):
        return pieces
    text = list(pieces)
    for i in range(1, len(text), 2):
        text[i] = repr(values[text[i]] if values else Parameter(text[i]))
    return "".join(text)


@dataclass(frozen=True)
class StageKey:
    """One stage's content digest, compiled with its plan (DESIGN §5h).

    The canonical text of the stage's pushed-down subtree is rendered once,
    each :class:`~repro.sql.ast.Parameter` left a slot; an execution only
    fills the slots with its bound values (:meth:`fill`), sorts the few
    filled sections that are sorted and hashes.  ``sections`` are the
    '|'-joined sections of the text: fixed text, or ``(prefix, items,
    sorted)`` for a section whose items hold slots, joined by ';'.  A
    stage without parameters is digested at compile (``digest``).
    ``version`` is the catalog version the fragment set and fields were
    read at.
    """

    sections: tuple
    version: int
    digest: str | None = None

    def fill(self, values=()) -> str:
        """The artifact key of this stage bound to ``values``."""
        if self.digest is not None:
            return self.digest
        text = []
        for section in self.sections:
            if isinstance(section, str):
                text.append(section)
                continue
            prefix, items, ordered = section
            filled = [_filled(item, values) for item in items]
            text.append(prefix + ";".join(sorted(filled) if ordered else filled))
        return _digest("|".join(text))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def compile_stage_key(catalog, spec: StageSpec) -> StageKey | None:
    """Compile one stage's canonical content digest, or ``None`` for a
    stage that is not artifact-eligible: a name that resolves to a view
    rather than a base table.

    The digest covers the base table and its fragment set, the
    source-level pushdown predicates, the site-filter conjuncts, the
    projected column set, a top-k stage's key, direction and bound k, a
    governed stage's residual RLS and masks, and (for split aggregations)
    the partial-aggregate spec.
    """
    scan = spec.scan
    entry = catalog.tables.get(scan.table)
    if entry is None:
        return None
    binding = scan.binding

    def slotted(expr) -> str:
        return canonical_expr(bind_expr(expr, _SLOTS), binding)

    def rendered(exprs) -> list:
        return [_pieces(slotted(expr)) for expr in exprs]

    # (prefix, items, whether they are sorted): items joined by ';'.
    fragments = ",".join(sorted(f.fragment_id for f in entry.fragments))
    pushdown = [f"{p.column} {p.op} {p.value!r}" for p in scan.pushdown]
    sections = [
        ("table=", [scan.table], False),
        ("fragments=", [fragments], False),
        ("pushdown=", pushdown, True),
        ("filters=", rendered(scan.site_filters), True),
        ("columns=", [",".join(stage_fields(entry.schema, scan))], False),
    ]
    if scan.top_k is not None:
        # A truncated output answers only the same truncation.
        order = scan.top_k.order
        top_k = (
            f"{slotted(order.expr)}{' desc' if order.descending else ''} "
            f"{render(bind_expr(scan.top_k.limit, _SLOTS))}"
        )
        sections.append(("top-k=", [_pieces(top_k)], False))
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
        masks = sorted(governance.masks.items())
        sections.append(("rls=", rendered(governance.rls_residual), True))
        sections.append(("masks=", [f"{c}:{style}" for c, style in masks], False))
    if spec.agg is not None:
        sections.append(("group=", rendered(spec.agg.group_by), False))
        sections.append(("aggs=", rendered(spec.agg.split.calls), True))
    # Fixed text is joined here: what is left to fill holds a slot.
    compiled: list = []
    for prefix, items, ordered in sections:
        if not all(isinstance(item, str) for item in items):
            compiled.append((prefix, tuple(items), ordered))
            continue
        text = prefix + ";".join(sorted(items) if ordered else items)
        if compiled and isinstance(compiled[-1], str):
            compiled[-1] += "|" + text
        else:
            compiled.append(text)
    if len(compiled) == 1:
        return StageKey(tuple(compiled), catalog.version, _digest(compiled[0]))
    return StageKey(tuple(compiled), catalog.version)


def stage_hash(catalog, spec: StageSpec) -> str | None:
    """Canonical content hash of one stage's pushed-down subtree: its
    compiled key (:func:`compile_stage_key`) filled with no values, so a
    spec's parameters, if it holds any, are digested as themselves.  The
    stage hash is the artifact key; ``None`` for an ineligible stage."""
    compiled = compile_stage_key(catalog, spec)
    return None if compiled is None else compiled.fill()


def stage_keys(catalog, plan: PlanNode) -> "dict[str, StageKey | None]":
    """The compiled key of every stage the physical planner forms, keyed by
    scan binding (a split aggregation directly over a scan is one
    agg-inclusive stage): the one walk over a plan's stages, made before
    the optimizer bids, and filled by each execution."""
    keys: dict[str, StageKey | None] = {}
    for node in walk(plan):  # parents first: a split aggregate claims its scan
        if (
            isinstance(node, AggregateNode)
            and node.split is not None
            and isinstance(node.child, ScanNode)
        ):
            keys[node.child.binding] = compile_stage_key(
                catalog, StageSpec(node.child, node)
            )
        elif isinstance(node, ScanNode) and node.binding not in keys:
            keys[node.binding] = compile_stage_key(catalog, StageSpec(node))
    return keys


# -- canonical payloads --------------------------------------------------------


@dataclass
class StagePayload:
    """A stage's materialized output: one column batch, stored
    binding-agnostically.

    ``kind`` is ``"rows"`` (filtered/projected scan output, under its bare
    field names) or ``"groups"``: the partial aggregate's batch of groups
    (``site_ops.partial_groups``), its keys and states under their
    canonical expressions and each group's first row a number into
    ``firsts``, the first rows under their bare field names.  Serving
    renames the canonical names to the consumer's -- qualified field names,
    ``repr(call)`` state keys -- and hands out the stored columns, which
    no consumer writes, so the payload is reusable under any alias.
    """

    kind: str  # "rows" | "groups"
    batch: ColumnBatch
    firsts: ColumnBatch | None = None

    @property
    def row_count(self) -> int:
        return self.batch.count


def rows_payload(batches, binding: str, fields: tuple[str, ...]) -> StagePayload:
    """Concatenate a rows stage's output batches' ``fields`` columns into a
    payload; raises KeyError when a batch lacks one of them."""
    columns: list[list] = [[] for _ in fields]
    count = 0
    for batch in batches:
        indexes = [batch.index_of(f"{binding}.{name}") for name in fields]
        if None in indexes:
            raise KeyError(fields[indexes.index(None)])
        for column, index in zip(columns, indexes):
            column.extend(batch.columns[index])
        count += batch.count
    return StagePayload("rows", ColumnBatch(list(fields), columns, count))


def groups_payload(batches, binding: str, agg: AggregateNode) -> StagePayload:
    """Canonicalize a partial-aggregate stage's batches of groups into one
    payload batch; each group's first row is gathered into ``firsts``, the
    scan's fields in its batch's order."""
    from repro.federation.site_ops import PARTIAL_FIRST, PARTIAL_ROWS

    names = [
        *(canonical_expr(expr, binding) for expr in agg.group_by),
        PARTIAL_ROWS,
        *(canonical_expr(call, binding) for call in agg.split.calls),
        PARTIAL_FIRST,
    ]
    columns: list[list] = [[] for _ in names]
    for batch in batches:
        for column, more in zip(columns, batch.columns):
            column.extend(more)
    firsts = [first for first in columns[-1] if first is not None]
    # Every name is ``binding.field``: the scan's own columns.
    fields = [] if not firsts else [
        name.split(".", 1)[1] for name in firsts[0][0].names
    ]
    first_columns = [
        [batch.columns[j][row] for batch, row in firsts] for j in range(len(fields))
    ]
    numbers = iter(range(len(firsts)))
    columns[-1] = [None if first is None else next(numbers) for first in columns[-1]]
    return StagePayload(
        "groups",
        ColumnBatch(names, columns, len(columns[-1])),
        ColumnBatch(fields, first_columns, len(firsts)),
    )


def _renamed(binding: str, batch: ColumnBatch) -> ColumnBatch:
    """A stored batch of bare field names under ``binding``: its columns."""
    names = scan_names(binding, batch.names)
    return ColumnBatch(names, list(batch.columns), batch.count)


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
        binding -- the stored columns, renamed -- or None on kind mismatch
        (a hash collision guard, not an expected path)."""
        payload = self.payload
        if payload.kind != "rows":
            return None
        return _renamed(binding, payload.batch)

    def serve_groups(self, binding: str, agg: AggregateNode):
        """The stage's batch of groups under the consumer's names, its
        states in the consumer's call order, or None on a kind or call
        mismatch.  The columns are the stored ones: a merge builds its own."""
        from repro.federation.site_ops import partial_names

        payload, calls = self.payload, agg.split.calls
        if payload.kind != "groups":
            return None
        stored = payload.batch
        states = [stored.index_of(canonical_expr(call, binding)) for call in calls]
        if None in states:
            return None
        width = len(agg.group_by)
        firsts = _renamed(binding, payload.firsts)
        return ColumnBatch(
            partial_names(agg.group_by, [repr(call) for call in calls]),
            [
                *stored.columns[: width + 1],
                *(stored.columns[j] for j in states),
                [None if row is None else (firsts, row) for row in stored.columns[-1]],
            ],
            stored.count,
        )


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
    semantic cache's policy).  :data:`SERVE_SECONDS_PER_ROW` and
    :data:`PRICE_PER_SECOND` shape the bid an artifact makes in the
    optimizer market.  An artifact has no age limit of its own: each
    call's staleness bound decides whether it is served, the same contract
    the semantic cache honors.
    """

    def __init__(self, clock: SimClock, max_rows: int = 100_000) -> None:
        self.clock = clock
        self.max_rows = max_rows
        self.metrics = None  # the engine's MetricsRegistry, attached by it
        self._artifacts: "dict[str, Artifact]" = {}
        self._inflight: "dict[str, _InFlightStage]" = {}
        self._rows = 0  # the committed artifacts' rows, moved by deltas
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
            self.metrics.gauge("artifacts.stored_rows").set(self._rows)

    # -- freshness ---------------------------------------------------------

    def _servable(self, artifact: Artifact, max_staleness: float | None) -> bool:
        if max_staleness is None:
            return True
        if max_staleness < 0:
            return False  # LIVE_ONLY: no materialized path at all
        return (self.clock.now() - artifact.fetched_at) <= max_staleness

    def _sweep(self) -> None:
        """Commit in-flight stages whose producer's modeled completion has
        passed."""
        now = self.clock.now()
        for key, stage in list(self._inflight.items()):
            if stage.completes_at <= now:
                del self._inflight[key]
                self._admit(stage.artifact)

    # -- keying ------------------------------------------------------------

    def stage_key(self, compiled: StageKey | None, values=()) -> str | None:
        """The artifact key of one execution of a stage: its compiled key
        filled with the execution's bound values, or None if ineligible."""
        return None if compiled is None else compiled.fill(values)

    # -- lookup paths ------------------------------------------------------

    def bid(self, key: str, max_staleness: float | None = None) -> float | None:
        """Plan-time offer: the price of serving a *committed*, current
        artifact, or None.  Books no hit/miss accounting -- the stage's
        :meth:`acquire` does when the plan runs -- so planning does not
        double count."""
        self._sweep()
        artifact = self._artifacts.get(key)
        if not self._whole(artifact, max_staleness):
            return None
        return artifact.row_count * SERVE_SECONDS_PER_ROW * PRICE_PER_SECOND

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
            artifact.hits += 1
            self.hits += 1
            self._count("artifacts.hits")
            if self.metrics is not None:
                self.metrics.histogram("artifacts.hit_age_seconds").observe(
                    self.clock.now() - artifact.fetched_at
                )
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

    # -- publication lifecycle ---------------------------------------------

    def begin_stage(self, artifact: Artifact, completes_at: float) -> bool:
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
        self._inflight[key] = _InFlightStage(artifact, completes_at)
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
        """Commit one in-flight artifact under the benefit economy.  The
        stored-rows total moves by what changed: the artifact's rows in, a
        same-stage artifact it replaces (a refresh) and each victim out."""
        if artifact.row_count > self.max_rows:
            self.rejected += 1
            self._count("artifacts.rejected")
            return
        replaced = self._artifacts.get(artifact.key)
        if replaced is not None:
            self._rows -= replaced.row_count
        self._artifacts[artifact.key] = artifact
        self._rows += artifact.row_count
        self.published += 1
        self._count("artifacts.published")
        while self._rows > self.max_rows and self._artifacts:
            victim = min(
                self._artifacts,
                key=lambda k: (
                    self._artifacts[k].benefit(),
                    self._artifacts[k].fetched_at,
                ),
            )
            self._rows -= self._artifacts.pop(victim).row_count
            self.evictions += 1
            self._count("artifacts.evictions")
        self._gauge_rows()

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
            self._rows -= self._artifacts.pop(key).row_count
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
        if doomed:
            self._gauge_rows()
        return dropped

    # -- introspection -----------------------------------------------------

    def stored_rows(self) -> int:
        """The committed artifacts' rows: a running total, summed by no
        probe."""
        return self._rows

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

