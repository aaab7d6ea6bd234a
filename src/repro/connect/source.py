"""The ContentSource protocol: what the federation sees of any connector.

Every way of getting content -- scraping a site, reading an owner's
operational state, holding fixed content -- ends in an object with a schema,
a ``fetch`` method taking optional pushed-down predicates, and
cost/availability metadata the federated optimizer uses.  This uniformity is
what lets the optimizer treat "a scraped web site" and "an owner's live
system" as interchangeable access paths (§3.2).  A supplier's file drop is
not a source of its own: :func:`read_csv` loads it into a
:class:`~repro.core.records.Table` that any source can hold.
"""

from __future__ import annotations

import abc
import csv
import io
import re
from dataclasses import dataclass
from itertools import chain
from operator import is_
from typing import Any, Sequence

from repro.core.errors import QueryError, SchemaError
from repro.core.records import Table, column_probe, column_scan
from repro.core.schema import DataType, Field, Schema
from repro.core.values import COMPARISONS


@dataclass(frozen=True)
class Predicate:
    """A simple comparison that sources may evaluate locally (pushdown)."""

    column: str
    op: str  # one of =, !=, <, <=, >, >=, contains
    value: Any

    _OPS = COMPARISONS

    def __post_init__(self) -> None:
        if self.op not in self._OPS:
            raise ValueError(f"unsupported predicate operator {self.op!r}")
        if self.op == "contains" and not isinstance(self.value, (str, type(None))):
            # The needle is the value's text: 1, True and 1.0 are equal (and
            # hash alike) but search for '1', 'True' and '1.0', so two
            # regions may only compare equal on the text.
            object.__setattr__(self, "value", str(self.value))

    def matches(self, row: dict[str, Any]) -> bool | None:
        """Whether ``row`` passes; ``None`` (unknown) with a NULL side."""
        try:
            return self._OPS[self.op](row.get(self.column), self.value)
        except TypeError as error:
            raise QueryError(
                f"cannot apply {self.column} {self.op} {self.value!r} "
                f"to value {row.get(self.column)!r}: {error}"
            ) from error


def apply_predicates(table: Table, predicates: Sequence[Predicate]) -> Table:
    """The rows of ``table`` passing all ``predicates``, in row order: the
    table itself when that is all of them, so it keeps its column layout.

    The column kernels run over that layout a chunk at a time, each conjunct
    on the rows the ones before kept; leading conjuncts a column order
    answers cannot raise, so the one keeping the fewest rows goes first (as
    ``federation.columnar``'s AND does).
    """
    if not predicates:
        return table
    names = table.schema.field_names
    for p in predicates:
        if p.column not in names:
            raise QueryError(
                f"pushed-down predicate {p.column} {p.op} {p.value!r} names "
                f"no column of {table.schema.name!r}"
            )
    conjuncts = [
        (names.index(p.column), column_scan(p.op, p.value), column_probe(p.op, p.value))
        for p in predicates
    ]
    chunks, orders = table.column_layout()
    rows, kept, start = table.rows, [], 0
    for count, columns in chunks:
        chunk_rows = rows[start : start + count]
        start += count
        sel, rest = range(count), conjuncts
        for position, (index, _, probe) in enumerate(conjuncts):
            hits = probe and probe(orders, columns[index])
            if hits is None:
                break
            if rest is conjuncts or len(hits) < len(sel):
                sel, rest = hits, conjuncts[:position] + conjuncts[position + 1 :]
        try:
            for index, scan, _ in rest:
                sel = scan(columns[index], sel)
        except Exception:
            # Whatever the kernel met, the scalar rule words it: the first
            # offending value in row order.
            for values in chunk_rows:
                row = dict(zip(names, values))
                all(p.matches(row) for p in predicates)
            raise
        if len(sel) == count:
            kept += chunk_rows
        else:
            kept += map(chunk_rows.__getitem__, sorted(sel))
    if len(kept) == len(rows):
        return table
    filtered = Table(table.schema, validate=False)
    filtered.rows = kept
    return filtered


@dataclass
class FetchResult:
    """A fetched table plus the cost actually incurred getting it."""

    table: Table
    cost_seconds: float = 0.0

    def __len__(self) -> int:
        return len(self.table)


class ContentSource(abc.ABC):
    """Abstract base for every connector the federation can query."""

    name: str
    schema: Schema

    @abc.abstractmethod
    def fetch(self, predicates: Sequence[Predicate] = ()) -> FetchResult:
        """Retrieve (a predicate-filtered view of) the source's content."""

    def is_available(self) -> bool:
        """Whether a fetch right now is expected to succeed."""
        return True

    def estimated_rows(self) -> int:
        """Optimizer statistic: expected row count of an unfiltered fetch."""
        return 1000

    def estimated_cost(self) -> float:
        """Optimizer statistic: expected seconds for an unfiltered fetch."""
        return 1.0


class LiveSource(ContentSource):
    """A source over *mutable* operational state (Characteristic 5).

    ``rows_fn`` is called on every fetch, so updates between fetches are
    always visible -- this is the fetch-on-demand path volatile content
    (hotel rooms, airline seats, spot prices) flows through.

    What is re-read is not always re-admitted: when every value of the
    fetched rows is the *same object* as in the table the last fetch
    admitted (and the row count is the same), that table is served again,
    with its resident column layout and orders (DESIGN §5f).  Otherwise a
    new table is built and validated, and kept.  Identity is exact for what
    validation admits -- str, int, float, bool, None and the frozen
    ``Money`` -- where ``==`` is not (``5 == 5.0``, ``0.0 == -0.0``); a
    false mismatch only costs a rebuild.
    """

    def __init__(
        self,
        name: str,
        schema: "Schema",
        rows_fn,
        cost_seconds: float = 0.05,
        estimated_rows: int | None = None,
    ) -> None:
        self.name = name
        self.schema = schema
        self._rows_fn = rows_fn
        self._cost = cost_seconds
        self._estimated_rows = estimated_rows
        self._table = Table(schema)  # the last table admitted

    def fetch(self, predicates: Sequence[Predicate] = ()) -> FetchResult:
        names = self.schema.field_names
        rows = [tuple(map(row.get, names)) for row in self._rows_fn()]
        table = self._table
        if len(rows) != len(table.rows) or not all(
            map(is_, chain.from_iterable(rows), chain.from_iterable(table.rows))
        ):
            table = self._table = Table(self.schema, rows)
        return FetchResult(
            apply_predicates(table, predicates), cost_seconds=self._cost
        )

    def estimated_rows(self) -> int:
        if self._estimated_rows is not None:
            return self._estimated_rows
        return len(self._rows_fn())

    def estimated_cost(self) -> float:
        return self._cost


class StaticSource(ContentSource):
    """A trivial in-memory source (used by tests and as cached content)."""

    def __init__(self, name: str, table: Table, cost_seconds: float = 0.0) -> None:
        self.name = name
        self.schema = table.schema
        self._table = table
        self._cost = cost_seconds

    def fetch(self, predicates: Sequence[Predicate] = ()) -> FetchResult:
        return FetchResult(
            apply_predicates(self._table, predicates), cost_seconds=self._cost
        )

    def estimated_rows(self) -> int:
        return len(self._table)

    def estimated_cost(self) -> float:
        return self._cost


# A sign, digits grouped by thousands or not, and for a decimal a fraction
# and an exponent (a digit first, before or after the point): what ``int``
# and ``float`` read once the commas go.
_INTEGER = re.compile(r"[+-]?(?:\d{1,3}(?:,\d{3})+|\d+)", re.ASCII)
_DECIMAL = re.compile(
    r"[+-]?(?=\.?\d)(?:\d{1,3}(?:,\d{3})+|\d*)(?:\.\d*)?(?:[eE][+-]?\d+)?", re.ASCII
)
_BOOLEANS = {"true": True, "yes": True, "1": True,
             "false": False, "no": False, "0": False}


def read_csv(schema: Schema, text: str) -> Table:
    """A CSV extract with a header row, read against ``schema``.

    Records are read by :func:`csv.reader` (quoted cells, doubled-quote
    escapes, quoted newlines); empty or whitespace-only lines are skipped.
    The header must name the schema's fields in order.  Cells are stripped
    and a blank cell is NULL; a cell its column's type cannot hold is a
    :class:`SchemaError` naming its row's line, its column and its text.
    """
    reader = csv.reader(io.StringIO(text))
    records = (
        cells for cells in reader if len(cells) > 1 or (cells and cells[0].strip())
    )
    header = next(records, None)
    if header is not None and header != list(schema.field_names):
        raise SchemaError(
            f"CSV header {header!r} does not match schema fields "
            f"{list(schema.field_names)!r}"
        )
    rows = []
    for cells in records:
        line = reader.line_num  # where the record ends
        if len(cells) != len(schema):
            raise SchemaError(
                f"CSV row at line {line} has {len(cells)} cells, "
                f"schema needs {len(schema)}"
            )
        rows.append(
            tuple(
                _read_cell(cell, field, line)
                for cell, field in zip(cells, schema.fields)
            )
        )
    return Table(schema, rows)


def _read_cell(text: str, field: Field, line: int) -> Any:
    text, dtype = text.strip(), field.dtype
    if not text:
        return None
    if dtype in (DataType.STRING, DataType.TEXT):
        return text
    if dtype is DataType.INTEGER and _INTEGER.fullmatch(text):
        return int(text.replace(",", ""))
    if dtype in (DataType.FLOAT, DataType.TIMESTAMP) and _DECIMAL.fullmatch(text):
        return float(text.replace(",", ""))
    if dtype is DataType.BOOLEAN and text.lower() in _BOOLEANS:
        return _BOOLEANS[text.lower()]
    raise SchemaError(
        f"CSV row at line {line}, column {field.name!r}: "
        f"cannot read {text!r} as {dtype.value}"
    )
