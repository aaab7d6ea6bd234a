"""Semantic caching of predicate regions, priced as an access path.

§3.2 C5 suggests "something closer to semantic caching [3] or prefetching"
as the flexible fetch-in-advance mechanism.  Entries are keyed by the
*predicate region* they answered: a request hits when some cached entry's
region is **weaker or equal** (a superset of rows) -- the residual
predicates are then applied to the cached rows locally.

Coverage is *implication-aware*: beyond the verbatim-subset test, per-column
interval subsumption lets ``price < 5`` cover ``price < 3`` and
``supplier = 'acme'`` imply ``supplier != 'bolt'``.  Every implication rule
is sound -- a doubtful case is a miss, never a wrong hit -- and residual
predicates are always re-applied locally, so a covered answer is
row-identical to a bypassed one.

The cache is not a post-hoc swap: :meth:`SemanticCache.bid` quotes a price
for serving a scan, and the optimizers (agoric, centralized, policy) weigh
that bid against fragment scans and materialized views in the same market
(:meth:`repro.federation.access.AccessPaths.offers`).

Admission and eviction are cost-aware rather than plain LRU: an entry's
benefit is ``rows x saved fetch seconds``, entries larger than the row
budget are refused outright, and when the budget overflows the
lowest-benefit entries go first (the entry being stored competes too, so a
worthless result is simply not admitted).  An entry has no age limit of its
own: each lookup's ``max_staleness`` bound decides whether it is fresh
enough to serve that request.  A bid is a local pass over the entry's rows,
:data:`SERVE_SECONDS_PER_ROW` each, priced at :data:`PRICE_PER_SECOND`.

An entry the engine stores keeps its region's rows *in parts*, one per
fragment of the table (a pruned fragment's part is empty), each tagged with
the content epoch it was read at (:class:`repro.federation.parts.Part`).
A region serves only while every part is current; a write to one fragment
leaves the others' parts in place, and a scan that re-reads just the stale
fragments refills them.  A region stored whole, with no parts, is current
until its table's next write.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING

from repro.connect.source import Predicate, apply_predicates
from repro.core.errors import QueryError
from repro.core.records import Table
from repro.federation.parts import Part, all_current, any_current, splice
from repro.sim.clock import SimClock

if TYPE_CHECKING:
    from repro.federation.catalog import Fragment

_RANGE_OPS = ("<", "<=", ">", ">=")
# A cache bid: a local pass over the entry's rows at this many seconds per
# row, priced at this much per second.
SERVE_SECONDS_PER_ROW = 0.00005
PRICE_PER_SECOND = 1.0


@dataclass
class CacheEntry:
    table_name: str
    region: frozenset[Predicate]
    table: Table  # the parts' rows, part after part
    as_of: float  # simulated time the oldest part was *fetched* (not stored)
    fetch_seconds: float = 0.0  # what re-fetching this region would cost
    hits: int = 0
    last_used: float = 0.0
    # One per fragment, in ``table`` order; none for a region stored whole.
    parts: tuple[Part, ...] = ()

    def benefit(self) -> float:
        """What evicting this entry throws away: rows x saved fetch seconds."""
        return len(self.table) * self.fetch_seconds

    @property
    def current(self) -> bool:
        return all_current(self.parts)


def predicate_implies(requested: Predicate, cached: Predicate) -> bool:
    """True when one requested predicate alone implies the cached one.

    Sound but conservative: every rule below is a real entailment for the
    value types the sources produce (numbers, strings, booleans); anything
    doubtful -- mixed types, unordered values -- falls through to False,
    which only costs a cache miss.  The zone-map pruner
    (:mod:`repro.federation.stats`) reuses this machinery to test whether a
    scan predicate entails falling outside a fragment's value range.
    """
    if requested.column != cached.column:
        return False
    if requested == cached:
        return True
    column = cached.column
    try:
        if requested.op == "=":
            if cached.op == "contains" and not isinstance(requested.value, str):
                return False  # str(1) vs str(1.0): repr-level, not value-level
            # Every row satisfying the request has this exact value, so the
            # cached predicate holds for the row iff it holds for the value.
            return bool(cached.matches({column: requested.value}))
        if cached.op in _RANGE_OPS and requested.op in _RANGE_OPS:
            return _bound_implies(requested, cached)
        if cached.op == "!=":
            if requested.op == "!=":
                return bool(requested.value == cached.value)
            if requested.op in _RANGE_OPS:
                # A bound that excludes the forbidden value implies != (and
                # an unknown one, a NULL bound or a NULL value, does not).
                return requested.matches({column: cached.value}) is False
            return False
        if cached.op == "contains" and requested.op == "contains":
            # Containing the longer needle implies containing any substring
            # (and a NULL needle is contained in nothing).
            return (
                cached.value is not None
                and str(cached.value).lower() in str(requested.value).lower()
            )
    except (TypeError, QueryError):
        # Incomparable values (Predicate.matches wraps the TypeError in a
        # QueryError): conservatively a miss.
        return False
    return False


def _bound_implies(requested: Predicate, cached: Predicate) -> bool:
    """Interval subsumption between two range predicates on one column."""
    r, c = requested, cached
    if c.op in ("<", "<="):
        if r.op not in ("<", "<="):
            return False
        if r.value < c.value:
            return True
        # Equal bounds: strict implies non-strict, and like implies like.
        return bool(r.value == c.value) and (c.op == "<=" or r.op == "<")
    if c.op in (">", ">="):
        if r.op not in (">", ">="):
            return False
        if r.value > c.value:
            return True
        return bool(r.value == c.value) and (c.op == ">=" or r.op == ">")
    return False


def coverage_kind(
    cached: frozenset[Predicate], requested: frozenset[Predicate]
) -> str | None:
    """How (if at all) the cached region is guaranteed to contain the request.

    Returns ``"verbatim"`` when every cached predicate appears verbatim in
    the request (the original subset test), ``"implication"`` when each
    remaining cached predicate is entailed by some requested predicate on
    the same column, and ``None`` otherwise.  Both answers are sound: the
    cached constraint set is weaker-or-equal, so the cached rows are a
    superset and residual predicates recover the exact answer.
    """
    if cached <= requested:
        return "verbatim"
    for constraint in cached:
        if constraint in requested:
            continue
        if not any(predicate_implies(p, constraint) for p in requested):
            return None
    return "implication"


class SemanticCache:
    """A benefit-evicted cache of answered predicate regions."""

    def __init__(
        self,
        clock: SimClock,
        max_rows: int = 100_000,
        coverage: str = "implication",
    ) -> None:
        if coverage not in ("implication", "verbatim"):
            raise ValueError(f"unknown coverage policy {coverage!r}")
        self.clock = clock
        self.max_rows = max_rows
        self.coverage = coverage
        self.metrics = None  # the engine's MetricsRegistry, attached by it
        self._entries: "OrderedDict[tuple[str, frozenset[Predicate]], CacheEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.verbatim_hits = 0
        self.implication_hits = 0
        self.evictions = 0
        self.rejected = 0
        self.invalidations = 0

    # -- metrics hooks -----------------------------------------------------

    def _count(self, name: str, amount: float = 1.0) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(amount)

    def _observe(self, name: str, value: float) -> None:
        if self.metrics is not None:
            self.metrics.histogram(name).observe(value)

    # -- lookup ------------------------------------------------------------

    def _expired(self, entry: CacheEntry, max_staleness: float | None) -> bool:
        if max_staleness is None:
            return False
        return (self.clock.now() - entry.as_of) > max_staleness

    def _find(
        self,
        table_name: str,
        requested: frozenset[Predicate],
        max_staleness: float | None,
        region: frozenset[Predicate] | None = None,
    ) -> tuple[tuple, CacheEntry, str] | None:
        """The current, fresh-enough entry whose region covers the request,
        as ``(key, entry, coverage kind)``: the first found, and with
        ``region`` -- a key a plan named -- the entry at that key first (one
        dict lookup), so a named region that is gone, stale or too old is
        found again by covering.  Books a miss when none does."""
        keys = self._entries
        if (table_name, region) in keys:
            keys = chain([(table_name, region)], keys)
        for key in keys:
            entry = self._entries[key]
            if entry.table_name != table_name or not entry.current:
                continue
            if self._expired(entry, max_staleness):
                continue  # too stale for this request's bound
            kind = coverage_kind(entry.region, requested)
            if kind is None or (self.coverage == "verbatim" and kind != "verbatim"):
                continue
            return key, entry, kind
        self.misses += 1
        self._count("cache.misses")
        return None

    def lookup(
        self,
        table_name: str,
        predicates: "list[Predicate] | tuple[Predicate, ...]" = (),
        max_staleness: float | None = None,
    ) -> Table | None:
        """Return rows satisfying ``predicates`` if some region covers them."""
        found = self.lookup_entry(table_name, predicates, max_staleness)
        return found[0] if found is not None else None

    def lookup_entry(
        self,
        table_name: str,
        predicates: "list[Predicate] | tuple[Predicate, ...]" = (),
        max_staleness: float | None = None,
        region: frozenset[Predicate] | None = None,
    ) -> "tuple[Table, float, frozenset[Predicate]] | None":
        """Like :meth:`lookup` but also returns the entry's age in seconds
        and the region it was stored under; with ``region``, the entry a
        plan named by that key answers first, and any other covering entry
        when it cannot.  Books one hit or one miss."""
        found = self._find(table_name, frozenset(predicates), max_staleness, region)
        if found is None:
            return None
        key, entry, kind = found
        now = self.clock.now()
        self._entries.move_to_end(key)
        entry.hits += 1
        entry.last_used = now
        self.hits += 1
        self._count("cache.hits")
        if kind == "verbatim":
            self.verbatim_hits += 1
            self._count("cache.verbatim_hits")
        else:
            self.implication_hits += 1
            self._count("cache.implication_hits")
        self._observe("cache.entry_age_seconds", now - entry.as_of)
        residual = [p for p in predicates if p not in entry.region]
        return apply_predicates(entry.table, residual), now - entry.as_of, entry.region

    def bid(
        self,
        table_name: str,
        predicates: "list[Predicate] | tuple[Predicate, ...]" = (),
        max_staleness: float | None = None,
    ) -> tuple[frozenset[Predicate], float] | None:
        """Quote serving this scan from cache, priced like any access path:
        ``(the covering region's key, price)``, or None (a miss, booked).

        The modeled cost is a local pass over the cached entry's rows (the
        residual filter); there is no network and no remote backlog, which
        is exactly why a warm cache usually wins the auction.  The hit is
        booked when a plan that took the bid runs and looks its region up.
        """
        found = self._find(table_name, frozenset(predicates), max_staleness)
        if found is None:
            return None
        entry = found[1]
        return entry.region, len(entry.table) * SERVE_SECONDS_PER_ROW * PRICE_PER_SECOND

    # -- admission & eviction ----------------------------------------------

    def store(
        self,
        table_name: str,
        predicates: "list[Predicate] | tuple[Predicate, ...]",
        table: "Table | list[tuple[Fragment, int, Table | None]]",
        as_of: float | None = None,
        fetch_seconds: float = 0.0,
    ) -> bool:
        """Remember that ``table`` answers ``predicates``; returns admission.

        ``table`` is the region's rows whole, or a scan's capture: one
        ``(fragment, epoch read at, rows)`` per fragment of the table, in
        fragment order, where ``rows`` is ``None`` for a fragment the scan
        did not re-read -- its part is kept from the region already stored,
        and a capture with a gap no current stored part fills is not
        admitted.  ``as_of`` is the simulated time the rows were fetched --
        callers that execute before advancing the clock must pass it
        explicitly, or staleness would be measured from store time and
        underestimated.  Entries larger than the whole row budget are
        refused, and a stored entry competes on benefit immediately: if it
        is the least valuable thing in an overflowing cache it is not
        admitted at all.
        """
        key = (table_name, frozenset(predicates))
        now = self.clock.now()
        fetched = now if as_of is None else as_of
        parts: tuple[Part, ...] = ()
        if not isinstance(table, Table):
            spliced = self._assemble(self._entries.get(key), table, fetched)
            if spliced is None:
                return False
            table, parts, stored_seconds = spliced
            fetch_seconds = max(fetch_seconds, stored_seconds)
            fetched = min(part.fetched_at for part in parts)
        if len(table) > self.max_rows:
            self.rejected += 1
            self._count("cache.rejected")
            return False
        self._entries[key] = CacheEntry(
            table_name,
            key[1],
            table,
            as_of=fetched,
            fetch_seconds=fetch_seconds,
            last_used=now,
            parts=parts,
        )
        self._entries.move_to_end(key)
        self._evict()
        return key in self._entries

    @staticmethod
    def _assemble(stored: "CacheEntry | None", capture, fetched_at: float):
        """The capture's parts over the stored entry's current ones:
        ``(table, parts, stored fetch seconds)``, or None for a gap or a
        capture that read nothing.  A capture read whole is the one fold
        of its tables, which also refuses a table of another schema; a
        refill joins the re-read tables' rows and the stored rows a run of
        current parts at a time (:func:`splice`), in fragment order."""
        reads = {f.fragment_id: (e, rows) for f, e, rows in capture if rows is not None}
        if not reads:
            return None  # nothing was read: the stored entry stands as is
        spliced = splice(
            [fragment for fragment, _, _ in capture],
            reads,
            () if stored is None else stored.parts,
            lambda start, stop: stored.table.rows[start:stop],
        )
        if len(spliced) < len(capture):
            return None  # a fragment neither read nor kept current
        parts = tuple(
            part if isinstance(part, Part) else Part(part, got[0], len(got[1]), fetched_at)
            for part, got in spliced
        )
        first, *rest = [table for _, table in reads.values()]
        if len(reads) == len(capture):
            return (first.union_all(*rest) if rest else first), parts, 0.0
        rows: list = []
        for part, got in spliced:
            rows += got if isinstance(part, Part) else got[1].rows
        table = Table(first.schema, validate=False)
        table.rows = rows  # already rows of this schema: no copy
        return table, parts, stored.fetch_seconds

    def invalidate_table(self, table_name: str) -> int:
        """Drop the table's regions that have no current part left (on
        known base updates): a region stored whole, or one whose every
        fragment was written.  A region with a current part stays, serving
        nothing until a scan refills its stale parts."""
        doomed = [
            key
            for key, entry in self._entries.items()
            if entry.table_name == table_name
            and not any_current(entry.parts)
        ]
        for key in doomed:
            del self._entries[key]
        self.invalidations += len(doomed)
        self._count("cache.invalidations", len(doomed))
        return len(doomed)

    def _evict(self) -> None:
        """Shed lowest-benefit entries until the row budget is respected."""
        while self.cached_rows() > self.max_rows and self._entries:
            victim = min(
                self._entries,
                key=lambda k: (self._entries[k].benefit(), self._entries[k].last_used),
            )
            entry = self._entries.pop(victim)
            self.evictions += 1
            self._count("cache.evictions")
            self._observe(
                "cache.evicted_age_seconds", self.clock.now() - entry.as_of
            )

    def cached_rows(self) -> int:
        return sum(len(e.table) for e in self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

