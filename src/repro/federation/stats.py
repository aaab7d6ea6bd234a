"""Per-fragment zone-map statistics and predicate-based partition elimination.

The federation descends from Mariposa, where horizontal fragments are the
unit of placement and pricing (§3.2 C8) -- which means fragment count
directly multiplies planning work unless the planner can *rule fragments
out*.  A :class:`ZoneMap` records, per column of one fragment, the min/max
value range, the null count and a distinct-value estimate; the optimizers
test each scan's sargable pushed-down predicates against it and skip
fragments whose ranges cannot satisfy them (partition elimination).  Pruned
fragments solicit no bids and enqueue no site work.

Soundness is the contract: :func:`fragment_can_match` may only return False
when **no** row of the fragment can satisfy the predicates.  The range
reasoning reuses the semantic cache's implication machinery
(:func:`repro.federation.cache.predicate_implies`): a fragment whose values
all lie in ``[lo, hi]`` is prunable by predicate ``p`` exactly when ``p``
entails ``column < lo`` or ``column > hi``.  Anything doubtful -- missing
statistics, incomparable types, un-analyzed operators -- keeps the
fragment, which only costs performance, never correctness.  Statistics are
dropped (never trusted) when the catalog reports a base-table update.

The same statistics replace the old textbook constant selectivities: range
predicates interpolate across the recorded value interval and equalities
use the distinct estimate, so bid prices and the centralized baseline's
makespan estimates reflect how many rows a filtered scan actually ships
(:func:`zone_selectivity` / :func:`fallback_selectivity`, shared by every
optimizer through :func:`fragment_selectivity`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.core.errors import QueryError
from repro.core.records import Table
from repro.connect.source import Predicate
from repro.federation.cache import predicate_implies

_RANGE_OPS = ("<", "<=", ">", ">=")

# The pre-zone-map textbook constants, kept as the estimate of last resort
# (no statistics, unanalyzed column, incomparable values).
_FALLBACK_FRACTION = {
    "=": 0.1,
    "<": 0.3,
    "<=": 0.3,
    ">": 0.3,
    ">=": 0.3,
    "!=": 0.9,
    "contains": 0.5,
}

_MIN_FRACTION = 0.001


@dataclass(frozen=True)
class ColumnStats:
    """Zone-map statistics for one column of one fragment.

    ``minimum``/``maximum`` cover the *non-null* values and are ``None``
    when the column has no comparable non-null values (all-null, or mixed
    incomparable types) -- in which case range reasoning is disabled for
    the column and only the null count remains usable.
    """

    minimum: Any = None
    maximum: Any = None
    null_count: int = 0
    distinct: int = 0  # distinct non-null values (estimate)


@dataclass
class ZoneMap:
    """Per-column statistics for one fragment's rows."""

    row_count: int = 0
    columns: dict[str, ColumnStats] = field(default_factory=dict)

    @classmethod
    def from_table(cls, table: Table) -> "ZoneMap":
        """Collect statistics in one pass over a fragment's rows."""
        zone = cls(row_count=len(table))
        for index, field_def in enumerate(table.schema.fields):
            values = [row[index] for row in table.rows]
            non_null = [v for v in values if v is not None]
            nulls = len(values) - len(non_null)
            try:
                minimum = min(non_null) if non_null else None
                maximum = max(non_null) if non_null else None
            except Exception:
                # Mixed incomparable types (e.g. Money across currencies):
                # no range statistics, the column is simply never pruned on.
                minimum = maximum = None
            try:
                distinct = len(set(non_null))
            except TypeError:
                distinct = len(non_null)
            zone.columns[field_def.name] = ColumnStats(
                minimum=minimum,
                maximum=maximum,
                null_count=nulls,
                distinct=distinct,
            )
        return zone


def fragment_can_match(
    zone: "ZoneMap | None", predicates: Sequence[Predicate]
) -> bool:
    """Whether any row of a fragment could satisfy all ``predicates``.

    ``True`` is always safe (the fragment is scanned); ``False`` is a proof
    of emptiness under the zone map, so the fragment may be skipped without
    changing the answer.  A missing zone map (external source, invalidated
    statistics) disables pruning entirely.
    """
    if zone is None:
        return True
    if zone.row_count == 0:
        return False  # an empty fragment matches nothing
    for predicate in predicates:
        stats = zone.columns.get(predicate.column)
        if stats is None:
            continue  # un-analyzed column: cannot rule anything out
        if not _predicate_satisfiable(predicate, stats, zone.row_count):
            return False
    return True


def _predicate_satisfiable(
    predicate: Predicate, stats: ColumnStats, row_count: int
) -> bool:
    """Can *some* value in the fragment satisfy this one predicate?"""
    if predicate.value is None or stats.null_count == row_count:
        return False  # a comparison with a NULL side is never true
    column = predicate.column
    if predicate.op in _RANGE_OPS or predicate.op == "=":
        if stats.minimum is None:
            return True  # no range statistics: assume satisfiable
        # All values lie in [minimum, maximum]; the predicate excludes the
        # fragment exactly when it entails falling off either end.  The
        # entailment test is the cache's sound implication machinery.
        below = Predicate(column, "<", stats.minimum)
        above = Predicate(column, ">", stats.maximum)
        try:
            if predicate_implies(predicate, below) or predicate_implies(
                predicate, above
            ):
                return False
        except (TypeError, QueryError):
            return True  # incomparable: conservatively satisfiable
        return True
    if predicate.op == "!=" and stats.distinct == 1 and stats.minimum is not None:
        try:
            # Every non-null value is the forbidden one.
            return not bool(stats.minimum == predicate.value == stats.maximum)
        except (TypeError, QueryError):
            return True
    return True  # and min / max say nothing about ``contains``


def zone_selectivity(
    zone: "ZoneMap | None", predicates: Sequence[Predicate]
) -> float:
    """Estimated fraction of the fragment's rows satisfying ``predicates``.

    Conjuncts multiply (independence assumption, as before); each factor is
    interpolated from the zone map when possible -- equality via the
    distinct estimate, ranges via linear interpolation across the recorded
    ``[min, max]`` interval -- and falls back to the textbook constant
    otherwise.  The result is floored so quotes never reach zero.
    """
    if zone is None:
        return fallback_selectivity(predicates)
    if zone.row_count == 0 or not fragment_can_match(zone, predicates):
        return 0.0
    fraction = 1.0
    for predicate in predicates:
        fraction *= _predicate_fraction(predicate, zone)
    return min(1.0, max(fraction, _MIN_FRACTION))


def fallback_selectivity(predicates: Sequence[Predicate]) -> float:
    """The pre-statistics constant heuristic (kept for statless sources)."""
    fraction = 1.0
    for predicate in predicates:
        fraction *= _FALLBACK_FRACTION.get(predicate.op, 0.5)
    return max(fraction, 0.01)


def fragment_selectivity(fragment, predicates: Sequence[Predicate]) -> float:
    """The shared per-fragment estimator every optimizer quotes with."""
    zone = getattr(fragment, "zone_map", None)
    if zone is None:
        return fallback_selectivity(predicates)
    return zone_selectivity(zone, predicates)


def _predicate_fraction(predicate: Predicate, zone: ZoneMap) -> float:
    stats = zone.columns.get(predicate.column)
    if stats is None:
        return _FALLBACK_FRACTION.get(predicate.op, 0.5)
    rows = zone.row_count
    op, value = predicate.op, predicate.value
    if value is None or stats.distinct <= 0:
        return 0.0  # a NULL literal, or no non-null cell: nothing passes
    non_null_fraction = (rows - stats.null_count) / rows
    if op == "=":
        return non_null_fraction / stats.distinct
    if op == "!=":
        return non_null_fraction * (1.0 - 1.0 / stats.distinct)
    if op in _RANGE_OPS:
        interpolated = _range_fraction(op, value, stats)
        if interpolated is None:
            return _FALLBACK_FRACTION[op] * non_null_fraction
        return interpolated * non_null_fraction
    if op == "contains":
        return _FALLBACK_FRACTION["contains"] * non_null_fraction
    return 0.5


# Naive per-value wire bytes by logical type, matching the columnar byte
# model (:func:`repro.federation.columnar.value_wire_bytes`; strings
# assumed short).
_TYPE_WIRE_BYTES = {
    "STRING": 14,
    "TEXT": 42,
    "INTEGER": 8,
    "FLOAT": 8,
    "TIMESTAMP": 8,
    "BOOLEAN": 1,
    "MONEY": 16,
}


# Without statistics, assume column encoding halves the payload -- the
# conservative end of what dictionary/RLE/delta achieve on real columns.
_DEFAULT_ENCODING_RATIO = 0.5


def estimated_shipped_bytes(fragment, schema, rows: int) -> int:
    """Estimated *encoded* wire bytes for shipping ``rows`` of a fragment.

    Uses the zone map's distinct counts to model dictionary encoding per
    column (dictionary entries plus small per-row codes); columns without
    statistics assume a flat encoding ratio.  Replica-independent by
    construction: every optimizer prices the same fragment identically
    regardless of which site would serve it, so bytes-aware pricing shifts
    access-path choices (cache vs view vs fragments), never replica
    tie-breaks.
    """
    if rows <= 0:
        return 0
    zone = getattr(fragment, "zone_map", None)
    total = 0.0
    for field_def in schema.fields:
        full = _TYPE_WIRE_BYTES.get(field_def.dtype.name, 8)
        if field_def.dtype.name == "BOOLEAN":
            total += rows * 0.25  # flag columns bit-pack four per byte
            continue
        stats = zone.columns.get(field_def.name) if zone is not None else None
        if stats is None or zone.row_count <= 0:
            total += rows * full * _DEFAULT_ENCODING_RATIO
            continue
        distinct = max(1, stats.distinct)
        index_bytes = 1 if distinct <= 256 else 2
        dictionary = distinct * full / zone.row_count  # amortized per row
        total += rows * min(float(full), index_bytes + dictionary)
    return max(1, int(total))


def _range_fraction(op: str, value: Any, stats: ColumnStats) -> float | None:
    """Linear interpolation of a range predicate across ``[min, max]``.

    Only numeric (non-bool) intervals interpolate; anything else returns
    ``None`` so the caller falls back to the constant heuristic.
    """
    lo, hi = stats.minimum, stats.maximum
    if not all(
        isinstance(v, (int, float)) and not isinstance(v, bool)
        for v in (lo, hi, value)
    ):
        return None
    if hi <= lo:  # single-valued column: the predicate either takes it or not
        return 1.0 if Predicate("probe", op, value).matches({"probe": lo}) else 0.0
    if op in ("<", "<="):
        fraction = (value - lo) / (hi - lo)
    else:  # >, >=
        fraction = (hi - value) / (hi - lo)
    return min(1.0, max(0.0, fraction))
