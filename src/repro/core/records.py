"""Tables: the unit of content flowing through the system.

A :class:`Table` binds a :class:`~repro.core.schema.Schema` to a list of
positional rows.  Connectors emit tables, the workbench transforms tables,
and the federation's physical operators produce and consume tables.

Rows are stored as tuples for compactness; :class:`Row` offers a dict-like
view when name-based access is more readable.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import chain
from operator import ne
from types import NoneType
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.core.errors import SchemaError
from repro.core.schema import Schema

# Rows per column slice, and so per batch of a scan.  Large enough that
# per-batch overhead (kernel dispatch, encoding headers) amortizes to noise,
# small enough that a batch of wide strings stays cache-resident and
# pipelined operators keep peak memory bounded (see DESIGN §5f).
DEFAULT_BATCH_SIZE = 1024


class Row(Mapping[str, Any]):
    """An immutable, name-addressable view over one positional row."""

    __slots__ = ("_schema", "_values")

    def __init__(self, schema: Schema, values: Sequence[Any]) -> None:
        self._schema = schema
        self._values = tuple(values)

    def __getitem__(self, name: str) -> Any:
        return self._values[self._schema.index_of(name)]

    def __iter__(self) -> Iterator[str]:
        return iter(self._schema.field_names)

    def __len__(self) -> int:
        return len(self._values)

    @property
    def schema(self) -> Schema:
        return self._schema

    def to_dict(self) -> dict[str, Any]:
        return dict(zip(self._schema.field_names, self._values))

    def __repr__(self) -> str:
        return f"Row({self.to_dict()!r})"


class ColumnOrders:
    """The sort orders of a table layout's column slices, built on demand.

    An order is ``(values ascending, their row numbers)``; the sort is
    stable, so equal values stay in row order.  Only a slice whose values
    have a total order gets one -- ints with floats (no bool), or strings
    alone, and no NULL or NaN among them: ``<`` on such values never
    raises, and two bisects find exactly the rows a comparison with a
    literal keeps.  Slices are told apart by ``id``: the layout keeps them
    alive and dies together with this object.
    """

    __slots__ = ("_found", "_numbers")

    def __init__(self) -> None:
        self._found: dict[int, Any] = {}  # 1: asked for once; None: no order
        self._numbers: tuple[int, ...] = ()  # row numbers, shared by the orders

    def of(self, column: tuple) -> "tuple[list, list[int]] | None":
        """The order of one slice, from the second time it is asked for: a
        table fetched for one statement never pays for a sort.  ``None``
        the first time, and for a slice without a total order."""
        key = id(column)
        found = self._found.get(key, 0)
        if found == 0:
            self._found[key] = 1
            return None
        if found == 1:
            found = self._found[key] = self._sorted(column)
        return found

    def carried(self, pairs: "Iterable[tuple[tuple, tuple]]") -> "ColumnOrders":
        """A fresh object for a rebuilt layout, keyed by its new slices:
        ``pairs`` are ``(old slice, new slice)``.  A mark carries over as a
        mark; a built order (or a found absence of one) only to a slice
        that was not rebuilt, and a rebuilt slice gets a mark instead.

        This object is never re-keyed in place: batches still holding the
        old slices keep asking it, and a freed old slice's ``id`` can come
        back as another column's new slice, which would be handed the
        wrong order.
        """
        fresh = ColumnOrders()
        fresh._numbers = self._numbers
        found = self._found
        for old, new in pairs:
            if id(old) in found:
                fresh._found[id(new)] = found[id(old)] if new is old else 1
        return fresh

    def _sorted(self, column: tuple) -> "tuple[list, list[int]] | None":
        kinds = set(map(type, column))
        if not (kinds <= {int, float} or kinds == {str}):
            return None
        if float in kinds and any(map(ne, column, column)):  # NaN
            return None
        if len(self._numbers) < len(column):
            self._numbers = tuple(range(len(column)))
        rows = sorted(self._numbers[: len(column)], key=column.__getitem__)
        return [column[row] for row in rows], rows


# -- the column form of ``core.values.COMPARISONS`` ------------------------------
# ``column <op> literal`` over a column slice, for a source's pushed predicates
# (``connect.source.apply_predicates``) and a filter's kernels
# (``federation.columnar``) alike; property-tested against the scalar rule.


def column_scan(op: str, lit: Any) -> Callable[[Sequence, Iterable[int]], list[int]]:
    """``scan(column, sel)``: the row numbers in ``sel`` whose value passes
    ``COMPARISONS[op](value, lit)``, in ``sel``'s order.  A NULL literal
    keeps no row and a NULL cell is never kept: with a NULL side the
    comparison is unknown.  An incomparable pair raises ``TypeError`` for
    the caller to word, as the scalar does."""
    if lit is None:
        return lambda col, sel: []
    if op == "=":
        return lambda col, sel: [
            i for i in sel if (v := col[i]) is not None and v == lit
        ]
    if op == "!=":
        return lambda col, sel: [
            i for i in sel if (v := col[i]) is not None and v != lit
        ]
    if op == "contains":
        needle = str(lit).lower()
        return lambda col, sel: [
            i for i in sel if (v := col[i]) is not None and needle in str(v).lower()
        ]
    if op == "<":
        return lambda col, sel: [
            i for i in sel if (v := col[i]) is not None and v < lit
        ]
    if op == "<=":
        return lambda col, sel: [
            i for i in sel if (v := col[i]) is not None and v <= lit
        ]
    if op == ">":
        return lambda col, sel: [
            i for i in sel if (v := col[i]) is not None and v > lit
        ]
    return lambda col, sel: [  # >=
        i for i in sel if (v := col[i]) is not None and v >= lit
    ]


# Where the rows passing ``column <op> literal`` start and stop among the
# column's values in ascending order (``None``: at that end of them).
_CUTS = {
    "=": (bisect_left, bisect_right),
    "<": (None, bisect_left),
    "<=": (None, bisect_right),
    ">": (bisect_right, None),
    ">=": (bisect_left, None),
}


def order_probe(low_cut, low: Any, high_cut, high: Any):
    """``probe(orders, column)``: the rows with ``low <(=) column <(=) high``
    as a slice of the column's order, in value order.

    ``None`` for a bound no order answers as the scalar rule does (NULL,
    NaN, a class of its own); ``probe`` returns ``None`` where the column
    has no order (:class:`ColumnOrders`) or a bound does not compare with
    its values, and the scan decides, or raises, as ever.
    """
    for bound in (low, high):
        if type(bound) not in (bool, int, float, str) or bound != bound:
            return None

    def probe(orders: "ColumnOrders | None", column: tuple) -> "list[int] | None":
        order = None if orders is None else orders.of(column)
        if order is None:
            return None
        values, rows = order
        try:
            lo = low_cut(values, low) if low_cut else 0
            return rows[lo : high_cut(values, high) if high_cut else None]
        except TypeError:
            return None

    return probe


def column_probe(op: str, lit: Any):
    """The :func:`order_probe` answering ``column <op> lit``, if one can."""
    cuts = _CUTS.get(op)
    return None if cuts is None else order_probe(cuts[0], lit, cuts[1], lit)


def _compacted(chunks: list[tuple[int, tuple]]) -> list[tuple[int, tuple]]:
    """``chunks`` with the same cells in fewer, closer objects.

    A column whose cells are all ``str`` or ``None`` holds one object per
    distinct value, shared across the chunks; a column of exact ``float``
    values with no NaN holds freshly packed, bit-identical floats.  Every
    other column keeps the row's own objects: ints, bools, mixed numeric
    types, subclasses, :class:`~repro.core.values.Money`, and NaN-bearing
    floats, since a NaN is a group key by identity alone and one NaN object
    must not become two.  A kept column keeps its slices, too.
    """
    if not chunks or not chunks[0][1]:  # no rows, or no columns
        return chunks
    columns = [list(slices) for slices in zip(*(cols for _, cols in chunks))]
    for position, slices in enumerate(columns):
        cells = list(chain.from_iterable(slices))
        kinds = set(map(type, cells))
        if kinds <= {str, NoneType}:
            one = dict(zip(cells, cells)).__getitem__  # an object per value
            columns[position] = [tuple(map(one, column)) for column in slices]
        elif kinds == {float} and not any(map(ne, cells, cells)):
            columns[position] = [
                tuple(array("d", column).tolist()) for column in slices
            ]
    return [(count, rebuilt) for (count, _), rebuilt in zip(chunks, zip(*columns))]


class Table:
    """A schema plus an ordered list of conforming rows.

    Construction validates every row against the schema (catching type
    drift at subsystem boundaries, where it is cheap to diagnose).  Use
    ``validate=False`` only on hot internal paths that construct rows from
    already-validated tables.

    The table also owns its *column layout*: :meth:`column_layout` transposes
    the rows into fixed-size column slices and keeps the result until
    ``rows`` is rebound; the second use compacts it once (one object per
    distinct string, packed floats).  Rows and slices are never mutated in
    place -- every operation here returns a fresh table, and compaction
    builds new slices beside ``rows`` without touching them -- so the
    layout can be shared by every scan of the table, and a sort order kept
    beside a slice stays true for as long as the slice lives (see DESIGN
    §5f).
    """

    def __init__(
        self,
        schema: Schema,
        rows: Iterable[Sequence[Any]] = (),
        validate: bool = True,
    ) -> None:
        self.schema = schema
        self.rows: list[tuple[Any, ...]] = [tuple(r) for r in rows]
        if validate:
            for row in self.rows:
                schema.validate_row(row)

    @property
    def rows(self) -> list[tuple[Any, ...]]:
        return self._rows

    @rows.setter
    def rows(self, rows: list[tuple[Any, ...]]) -> None:
        self._rows = rows
        # (batch size, compacted?, (column chunks, their orders))
        self._layout: tuple[int, bool, tuple[list, ColumnOrders]] | None = None

    def column_layout(
        self, batch_size: int = DEFAULT_BATCH_SIZE
    ) -> tuple[list[tuple[int, tuple]], ColumnOrders]:
        """``(chunks, orders)``: ``(row count, columns)`` per
        ``batch_size``-row slice, in row order, and the sort orders kept
        beside the slices.

        Each column is a tuple of that slice's values.  Built on first use
        and kept until ``rows`` is rebound or another ``batch_size`` is
        asked for; callers share the slices and must not mutate them.  The
        second use at the same size rebuilds the slices once in compact
        form (:func:`_compacted`), equal cell for cell, and keys fresh
        orders by them (:meth:`ColumnOrders.carried`): a table read by one
        statement never pays for it, and batches holding the first slices
        keep the first orders.  ``rows`` stay as they are.
        """
        layout = self._layout
        if layout is None or layout[0] != batch_size:
            rows = self._rows
            chunks = []
            for start in range(0, len(rows), batch_size):
                slice_rows = rows[start : start + batch_size]
                chunks.append((len(slice_rows), tuple(zip(*slice_rows))))
            layout = self._layout = (batch_size, False, (chunks, ColumnOrders()))
        elif not layout[1]:
            chunks, orders = layout[2]
            compact = _compacted(chunks)
            slices = zip(
                chain.from_iterable(columns for _, columns in chunks),
                chain.from_iterable(columns for _, columns in compact),
            )
            orders = orders.carried(slices)
            layout = self._layout = (batch_size, True, (compact, orders))
        return layout[2]

    # -- construction helpers ---------------------------------------------

    @classmethod
    def from_dicts(cls, schema: Schema, dicts: Iterable[Mapping[str, Any]]) -> "Table":
        """Build a table from mappings; missing keys become None."""
        names = schema.field_names
        rows = [tuple(d.get(name) for name in names) for d in dicts]
        return cls(schema, rows)

    # -- access -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Row]:
        for values in self.rows:
            yield Row(self.schema, values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        return self.schema.field_names == other.schema.field_names and self.rows == other.rows

    def column(self, name: str) -> list[Any]:
        """Return all values of one column, in row order."""
        index = self.schema.index_of(name)
        return [row[index] for row in self.rows]

    def to_dicts(self) -> list[dict[str, Any]]:
        names = self.schema.field_names
        return [dict(zip(names, row)) for row in self.rows]

    # -- relational-ish operations used throughout the system ---------------

    def project(self, names: Sequence[str]) -> "Table":
        """Return a table keeping only the columns in ``names``."""
        indexes = [self.schema.index_of(n) for n in names]
        projected = Table(self.schema.project(names), validate=False)
        projected.rows = [tuple(row[i] for i in indexes) for row in self.rows]
        return projected

    def extended(self, table_name: str | None = None) -> "Table":
        """Return a shallow copy (rows shared) optionally renaming the schema."""
        copy = Table(
            Schema(table_name or self.schema.name, self.schema.fields),
            validate=False,
        )
        copy.rows = list(self.rows)
        return copy

    def union_all(self, *others: "Table") -> "Table":
        """Concatenate union-compatible tables, in one pass."""
        for other in others:
            if other.schema is not self.schema and not self.schema.union_compatible(
                other.schema
            ):
                raise SchemaError(
                    f"tables {self.schema.name!r} and {other.schema.name!r} "
                    "are not union-compatible"
                )
        combined = Table(self.schema, validate=False)
        combined.rows = [*self.rows, *chain.from_iterable(t.rows for t in others)]
        return combined

    def limit(self, n: int) -> "Table":
        """Return a copy with at most the first ``n`` rows."""
        if n < 0:
            raise ValueError(f"negative limit {n!r}")
        head = Table(self.schema, validate=False)
        head.rows = self.rows[:n]
        return head

    def __repr__(self) -> str:
        return f"Table({self.schema.name!r}, rows={len(self.rows)})"
