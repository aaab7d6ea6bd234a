"""The columnar data plane: batches, filter kernels and wire encodings.

What moves between operators is *columns*, not per-row ``dict`` envs.  A
:class:`ColumnBatch` is one fixed-size slice of one scan's output held as
parallel per-column value arrays (nulls are in-band ``None``; kernels that
need an explicit view call :meth:`ColumnBatch.null_mask`).  Operators pass
batches by reference and work on whole columns:

* **Filter kernels** (:func:`compile_predicate`) compile a predicate into
  a selection-vector function ``kernel(batch, sel) -> sel'``; running one
  (:func:`select_rows`) is the one way rows of a batch are kept -- a site
  filter, a scan's text-index hits and residual RLS, a coordinator filter.
  Selecting copies nothing: a site batch stays its resident chunks plus
  their sorted kept rows, and :func:`gather` copies those rows out only
  for a consumer that needs them as a batch of their own (``Ship``, a
  mask, the coordinator's :func:`filter_batch`).
  A kernel answers one question, "where is the predicate true": a
  comparison with a NULL side is unknown and an unknown row is not kept,
  and a NOT never reaches a kernel, because the parser pushed it down to
  the atoms (:func:`repro.sql.ast.negate`).  So AND keeps what every
  conjunct keeps, each seeing only the rows the ones before it kept, and
  OR what either side keeps.  A comparison of a column with a literal is
  the column form of ``core.values.COMPARISONS``
  (:func:`repro.core.records.column_scan`, shared with the sources'
  pushdown) and is answered from the resident chunk's sort order where it
  has one (:func:`repro.core.records.order_probe`).  Anything the compiler
  cannot prove equivalent returns ``None`` and the batch goes through
  per-row :func:`repro.sql.expressions.evaluate`; a kernel that meets an
  incomparable pair mid-flight raises ``TypeError`` to the same effect,
  so the row path words the error.  (A later conjunct never sees a row an
  earlier one left unknown, where ``evaluate`` still evaluates it: README's
  divergence table.)
* **Wire encodings** (:func:`encode_batch` / :func:`decode_batch`): the
  Ship operator serializes each column under the cheapest of seven
  self-describing encodings -- plain, dictionary (low-cardinality
  columns), run-length (sorted/flag columns), zigzag-varint delta (int
  columns), two-bit flags, scaled decimals (short-decimal float columns)
  and front-coded prefixes (sorted-ish string columns).  Encoded sizes
  use a fixed byte model (:func:`value_wire_bytes`), so
  ``bytes_shipped`` is deterministic (DESIGN §7) and the network can
  charge per byte instead of per row; candidates are only sized, with
  whole-column passes, and the winner alone is built (DESIGN §5f).
  Decoding is exact: every encoding round-trips values (and their
  types) unchanged.

Batches flow all the way to the result table: ``Ship`` hands decoded (or
coordinator-local, by reference) batches to the coordinator operators,
which join, filter, project, sort and aggregate over whole columns
(DESIGN §5f).  :meth:`ColumnBatch.to_envs` survives as the fallback's
helper only: an expression with no column form (a scalar function,
arithmetic, a nested-loop join condition) is run through
:func:`repro.sql.expressions.evaluate` on the per-row envs of the one
batch at hand, so its values and errors are the row engine's.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import compress, islice, repeat, takewhile, tee
from operator import (
    eq,
    getitem,
    is_,
    is_not,
    mul,
    ne,
    not_,
    sub,
    truediv,
)
from typing import Any, Callable

from repro.core.records import (
    DEFAULT_BATCH_SIZE,
    ColumnOrders,
    Table,
    column_probe,
    column_scan,
    order_probe,
)
from repro.core.values import COMPARISONS, Money
from repro.sql.ast import (
    Between,
    BinaryOp,
    Column,
    Expr,
    InList,
    Like,
    Literal,
    UnaryOp,
)
from repro.sql.expressions import evaluate, like_to_regex
from repro.sql.planner import split_conjuncts

# Modeled (de)serialization cost, charged per *encoded* byte: encoding is
# producer-site work, decoding is coordinator work.  Deterministic by
# construction -- these never read the host clock.
ENCODE_SECONDS_PER_BYTE = 2e-9
DECODE_SECONDS_PER_BYTE = 1e-9

# Every serialized column carries a small self-description header
# (encoding tag, value count, name id).
COLUMN_HEADER_BYTES = 4


class ColumnBatch:
    """One fixed-size slice of a scan's rows, stored column-wise.

    ``names`` are the env keys a resolved column reads: ``binding.field``
    below the projection (see :func:`table_chunks`), the output names above
    it -- one key per column, since name resolution left no bare name a
    batch must answer to.  ``count`` is tracked explicitly so a batch
    projected down to zero columns still knows how many rows it carries.  A
    scan's ``columns`` are the table's resident, shared tuples (see
    :func:`table_chunks`): operators read them and build new columns, never
    write into them.  ``orders`` are that table's
    :class:`~repro.core.records.ColumnOrders`, which a batch keeps for as
    long as its columns are resident ones: through ``project`` and a
    :func:`select_rows`, which only selects, not through ``take`` /
    ``slice`` / :func:`concat` or a masked column.
    """

    __slots__ = ("names", "columns", "count", "orders", "_index")

    def __init__(
        self,
        names: list[str],
        columns: list[list],
        count: int | None = None,
        orders: ColumnOrders | None = None,
    ) -> None:
        self.names = names
        self.columns = columns
        self.count = count if count is not None else (len(columns[0]) if columns else 0)
        self.orders = orders
        self._index: dict[str, int] | None = None

    def __len__(self) -> int:
        return self.count

    def index_of(self, key: str) -> int | None:
        """Column index for an env key (``Column.key``)."""
        index = self._index
        if index is None:
            index = self._index = {name: i for i, name in enumerate(self.names)}
        return index.get(key)

    def null_mask(self, column_index: int) -> list[bool]:
        """Explicit null mask for one column (True where the value is NULL)."""
        return [value is None for value in self.columns[column_index]]

    def take(self, selection: list[int]) -> "ColumnBatch":
        """Materialize the rows named by a selection vector, in its order."""
        return ColumnBatch(
            self.names,
            [[column[i] for i in selection] for column in self.columns],
            len(selection),
        )

    def slice(self, start: int, stop: int) -> "ColumnBatch":
        """Rows ``start`` up to ``stop`` (which must not pass the end)."""
        return ColumnBatch(
            self.names,
            [column[start:stop] for column in self.columns],
            stop - start,
        )

    def narrowing(self, allowed: set[str]) -> tuple[list[int], list[str]]:
        """``(indexes, names)`` of the columns whose env key is allowed:
        the same for every batch of this layout."""
        keep = [j for j, name in enumerate(self.names) if name in allowed]
        return keep, [self.names[j] for j in keep]

    def project(self, narrow) -> "ColumnBatch":
        """Column-slice projection onto the ``narrow`` columns
        (:meth:`narrowing`), shared by reference: it copies nothing."""
        keep, names = narrow
        return ColumnBatch(
            names, [self.columns[j] for j in keep], self.count, self.orders
        )

    def env_at(self, i: int) -> dict[str, Any]:
        """One row's env."""
        return {name: column[i] for name, column in zip(self.names, self.columns)}

    def to_envs(self, selection: "list[int] | None" = None) -> list[dict[str, Any]]:
        """Per-row env dicts, for expressions that have no column form: of
        the ``selection``'s rows alone when given, in its order."""
        rows = range(self.count) if selection is None else selection
        keys, cols = self.names, self.columns
        if not keys:
            return [{} for _ in rows]
        if selection is None:
            return [dict(zip(keys, values)) for values in zip(*cols)]
        return [dict(zip(keys, [col[i] for col in cols])) for i in rows]


def scan_names(binding: str, fields) -> list[str]:
    """One scan's batch names: its field names qualified by the binding."""
    return [f"{binding}.{name}" for name in fields]


def table_chunks(
    binding: str, table: Table, batch_size: int = DEFAULT_BATCH_SIZE
) -> list[ColumnBatch]:
    """Wrap one site's scan output table in per-query column-batch headers.

    The fixed-size column slices are the table's own resident layout
    (:meth:`~repro.core.records.Table.column_layout`): transposed by the
    first scan of the table, shared by reference with every later one and
    never mutated.  Only the names belong to the query.
    """
    names = scan_names(binding, table.schema.field_names)
    chunks, orders = table.column_layout(batch_size)
    return [
        ColumnBatch(names, list(columns), count, orders) for count, columns in chunks
    ]


def concat(batches: "list[ColumnBatch]") -> "ColumnBatch | None":
    """One batch holding the rows of ``batches`` in order, or ``None`` for
    no batches.  They must share a layout, as one operator's output does."""
    if len(batches) < 2:
        return batches[0] if batches else None
    first = batches[0]
    columns = [list(column) for column in first.columns]
    for batch in batches[1:]:
        for column, more in zip(columns, batch.columns):
            column.extend(more)
    return ColumnBatch(first.names, columns, sum(b.count for b in batches))


# -- filter kernels ------------------------------------------------------------

Kernel = Callable[[ColumnBatch, "list[int] | None"], list[int]]

_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def compile_predicate(expr: Expr, layout: ColumnBatch) -> Kernel | None:
    """Compile a predicate into a selection-vector kernel, or ``None``.

    The returned kernel maps a selection of row numbers -- ``None`` for
    every row of the batch -- to those of them where the predicate is
    true, in no particular order (:func:`select_rows` sorts them).
    ``None`` means "not provably equivalent to :func:`evaluate`" -- the
    caller must use the row path for the whole batch.
    """
    if isinstance(expr, BinaryOp) and expr.op in ("and", "or"):
        parts = split_conjuncts(expr) if expr.op == "and" else [expr.left, expr.right]
        kernels = [compile_predicate(part, layout) for part in parts]
        if None in kernels:
            return None
        return _and_kernel(kernels) if expr.op == "and" else _or_kernel(*kernels)
    scan = _scan_kernel(expr, layout)
    if scan is None:
        return None
    probe = getattr(scan, "probe", None)

    def kernel(batch: ColumnBatch, sel) -> list[int]:
        if sel is None:
            rows = probe(batch) if probe else None
            if rows is not None:
                return rows
            sel = range(batch.count)
        return scan(batch, sel)

    kernel.probe = probe
    return kernel


def _and_kernel(conjuncts: list[Kernel]) -> Kernel:
    # A conjunct only ever runs on rows the ones before it kept, so an error
    # lurking in it surfaces (or not) as in the row path, which skips the
    # rows they made false -- but evaluates the unknown ones (README's
    # divergence table).  A conjunct answered from a column order cannot
    # raise, so the leading ones that are may run in any order: the one
    # keeping the fewest rows goes first, and its rows are all the rest see.
    probes = (getattr(kernel, "probe", None) for kernel in conjuncts)
    leading = [
        (probe, conjuncts[:position] + conjuncts[position + 1 :])
        for position, probe in enumerate(takewhile(callable, probes))
    ]

    def _and(batch: ColumnBatch, sel) -> list[int]:
        rest = conjuncts
        if sel is None:
            sel = range(batch.count)
            for probe, others in leading:
                rows = probe(batch)
                if rows is None:
                    break
                if rest is conjuncts or len(rows) < len(sel):
                    sel, rest = rows, others
        for kernel in rest:
            sel = kernel(batch, sel)
        return sel

    return _and


def _or_kernel(left: Kernel, right: Kernel) -> Kernel:
    probe = getattr(right, "probe", None)

    def _or(batch: ColumnBatch, sel) -> list[int]:
        hits = left(batch, sel)
        more = probe(batch) if sel is None and probe else None
        if more is not None:
            return list(set(hits).union(more))
        # evaluate() short-circuits: a right side that could raise only
        # sees rows the left side rejected.
        taken = set(hits)
        rows = range(batch.count) if sel is None else sel
        more = right(batch, [i for i in rows if i not in taken])
        return sorted(hits + more)

    return _or


def _scan_kernel(expr: Expr, layout: ColumnBatch) -> Kernel | None:
    """The kernel of a predicate that is not AND / OR, over a selection
    that spells its rows out.  One that a column order can answer too
    carries that as ``probe`` (see :func:`_batch_probe`)."""
    if isinstance(expr, BinaryOp):
        if expr.op in COMPARISONS:
            left = _operand(expr.left, layout)
            right = _operand(expr.right, layout)
            if left is None or right is None:
                return None
            return _comparison_kernel(expr.op, left, right)
        return None
    if isinstance(expr, UnaryOp):
        if expr.op in ("is-null", "is-not-null"):
            if not isinstance(expr.operand, Column):
                return None
            idx = layout.index_of(expr.operand.key)
            if idx is None:
                return None
            want_null = expr.op == "is-null"

            def _nulls(batch: ColumnBatch, sel: list[int]) -> list[int]:
                mask = batch.null_mask(idx)
                return [i for i in sel if mask[i] is want_null]

            return _nulls
        return None
    if isinstance(expr, InList):
        return _in_list_kernel(expr, layout)
    if isinstance(expr, Between):
        return _between_kernel(expr, layout)
    if isinstance(expr, Like):
        return _like_kernel(expr, layout)
    return None


def _operand(expr: Expr, layout: ColumnBatch):
    if isinstance(expr, Literal):
        return ("lit", expr.value)
    if isinstance(expr, Column):
        idx = layout.index_of(expr.key)
        if idx is None:
            return None
        return ("col", idx)
    return None


def _batch_probe(idx: int, probe):
    """A core probe (:func:`~repro.core.records.order_probe`) as
    ``probe(batch)`` over column ``idx`` and the batch's orders."""
    if probe is None:
        return None
    return lambda batch: probe(batch.orders, batch.columns[idx])


def _comparison_kernel(op: str, left, right) -> Kernel | None:
    lkind, lval = left
    rkind, rval = right
    if lkind == "lit" and rkind == "lit":
        return None  # constant predicate: rare, leave to the row path
    if lkind == "col" and rkind == "col":
        return _col_col_kernel(op, lval, rval)
    if lkind == "col":
        return _col_lit_kernel(op, lval, rval)
    # literal <op> column: flip range operators so the column is on the
    # left; =, != and the null rules are symmetric.  ``contains`` is not
    # symmetric (haystack CONTAINS needle), so it keeps its orientation.
    if op in _FLIP:
        return _col_lit_kernel(_FLIP[op], rval, lval)
    if op in ("=", "!="):
        return _col_lit_kernel(op, rval, lval)
    if op == "contains":
        return _lit_col_contains_kernel(lval, rval)
    return None


def _col_lit_kernel(op: str, idx: int, lit: Any) -> Kernel:
    scan = column_scan(op, lit)

    def kernel(batch: ColumnBatch, sel: list[int]) -> list[int]:
        return scan(batch.columns[idx], sel)

    kernel.probe = _batch_probe(idx, column_probe(op, lit))
    return kernel


def _col_col_kernel(op: str, a: int, b: int) -> Kernel:
    compare = COMPARISONS[op]  # unknown (None) where either side is NULL

    def _compare(batch: ColumnBatch, sel: list[int]) -> list[int]:
        ca, cb = batch.columns[a], batch.columns[b]
        return [i for i in sel if compare(ca[i], cb[i])]

    return _compare


def _lit_col_contains_kernel(lit: Any, idx: int) -> Kernel:
    """``literal CONTAINS column``: the haystack is constant."""
    if lit is None:
        return lambda batch, sel: []
    haystack = str(lit).lower()

    def _contains(batch: ColumnBatch, sel: list[int]) -> list[int]:
        col = batch.columns[idx]
        return [
            i
            for i in sel
            if (v := col[i]) is not None and str(v).lower() in haystack
        ]

    return _contains


def _in_list_kernel(expr: InList, layout: ColumnBatch) -> Kernel | None:
    if not isinstance(expr.operand, Column):
        return None
    idx = layout.index_of(expr.operand.key)
    if idx is None:
        return None
    # An empty list (an empty subquery's) is left to the row path: NOT IN
    # it is true for NULL too.
    if not expr.items or not all(isinstance(item, Literal) for item in expr.items):
        return None
    values = [item.value for item in expr.items if item.value is not None]
    negated = expr.negated
    if negated and len(values) < len(expr.items):
        # NOT IN a list holding NULL is never true: unknown where no item
        # matches, false where one does.
        return lambda batch, sel: []
    try:
        value_set: set | None = set(values)
    except TypeError:
        value_set = None

    def _in(batch: ColumnBatch, sel: list[int]) -> list[int]:
        col = batch.columns[idx]
        out = []
        for i in sel:
            v = col[i]
            if v is None:
                continue  # NULL [NOT] IN is unknown
            if value_set is not None:
                try:
                    hit = v in value_set
                except TypeError:
                    hit = any(item == v for item in values)
            else:
                hit = any(item == v for item in values)
            if hit != negated:
                out.append(i)
        return out

    return _in


def _between_kernel(expr: Between, layout: ColumnBatch) -> Kernel | None:
    if not isinstance(expr.operand, Column):
        return None
    idx = layout.index_of(expr.operand.key)
    if idx is None:
        return None
    if not (isinstance(expr.low, Literal) and isinstance(expr.high, Literal)):
        return None
    low, high = expr.low.value, expr.high.value
    negated = expr.negated

    def _between(batch: ColumnBatch, sel: list[int]) -> list[int]:
        col = batch.columns[idx]
        return [
            i
            for i in sel
            if (v := col[i]) is not None and (low <= v <= high) != negated
        ]

    if not negated:
        _between.probe = _batch_probe(
            idx, order_probe(bisect_left, low, bisect_right, high)
        )
    return _between


def _like_kernel(expr: Like, layout: ColumnBatch) -> Kernel | None:
    if not isinstance(expr.operand, Column):
        return None
    idx = layout.index_of(expr.operand.key)
    if idx is None or not isinstance(expr.pattern, Literal):
        return None
    regex = like_to_regex(expr.pattern.value)
    negated = expr.negated

    def _like(batch: ColumnBatch, sel: list[int]) -> list[int]:
        col = batch.columns[idx]
        return [
            i
            for i in sel
            if (v := col[i]) is not None
            and ((regex.fullmatch(str(v)) is not None) != negated)
        ]

    return _like


def select_rows(
    batch: ColumnBatch,
    condition: Expr,
    kernel: Kernel | None,
    selection: "list[int] | None" = None,
) -> "list[int] | None":
    """The rows of ``selection`` -- every row of ``batch`` for ``None`` --
    on which ``condition`` is truthy, sorted; ``None`` when that is every
    row of the batch.  Nothing is gathered (see :func:`gather`).

    ``kernel`` is ``compile_predicate(condition, <this layout>)``; without
    one, or when it meets an incomparable pair (``TypeError``), the rows go
    through ``evaluate``, which raises the row engine's exact error.  A row
    outside ``selection`` is never looked at.
    """
    kept = None
    if kernel is not None:
        try:
            kept = kernel(batch, selection)
        except TypeError:
            pass
    if kept is None:
        rows = range(batch.count) if selection is None else selection
        envs = batch.to_envs(selection)
        kept = [i for i, env in zip(rows, envs) if evaluate(condition, env)]
    if len(kept) == batch.count:
        return None
    kept.sort()
    return kept


def gather(batch: ColumnBatch, selection: "list[int] | None") -> ColumnBatch:
    """The rows a :func:`select_rows` selection names as a batch of their
    own: ``batch`` itself for ``None``, else a copy of those rows."""
    return batch if selection is None else batch.take(selection)


def filter_batch(
    batch: ColumnBatch, condition: Expr, kernel: Kernel | None
) -> ColumnBatch:
    """The rows of ``batch`` on which ``condition`` is truthy, in row
    order: the batch itself when that is all of them, else a gathered one."""
    return gather(batch, select_rows(batch, condition, kernel))


# -- wire encodings ------------------------------------------------------------


def value_wire_bytes(value: Any) -> int:
    """Bytes one value costs under naive (plain) row serialization."""
    if value is None:
        return 1
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return 8
    if isinstance(value, float):
        return 8
    if isinstance(value, Money):
        return 16
    if isinstance(value, str):
        return 2 + len(value.encode("utf-8"))
    return 2 + len(str(value).encode("utf-8"))


@dataclass
class EncodedColumn:
    """One column serialized under its cheapest encoding."""

    name: str
    encoding: str  # plain | dict | rle | delta | bits | scaled | prefix
    count: int
    payload: Any
    encoded_bytes: int
    raw_bytes: int


@dataclass
class EncodedBatch:
    """One ColumnBatch on the wire."""

    names: list[str]
    count: int
    columns: list[EncodedColumn]

    @property
    def encoded_bytes(self) -> int:
        return sum(column.encoded_bytes for column in self.columns)

    @property
    def raw_bytes(self) -> int:
        return sum(column.raw_bytes for column in self.columns)


# The codec classifies a column once, by the exact types of its values.
# Columns of the plain wire types are sized with whole-column passes that
# run inside the interpreter's C loops; any other type (Money, Decimal,
# lists, subclasses) takes the per-value codec, because its equality may
# raise, answer with a non-bool or be unhashable.
_NONE = type(None)
_PLAIN_TYPES = frozenset((_NONE, bool, int, float, str))
_NUMERIC_TYPES = frozenset((bool, int, float))
_FLAG_TYPES = frozenset((_NONE, bool))
_TEXT_TYPES = frozenset((_NONE, str))
_INT_ONLY = frozenset((int,))
_FLOAT_ONLY = frozenset((float,))
# What value_wire_bytes charges the fixed-width plain types, and the
# fewest bytes one value of each plain type can cost (an empty string is
# its two length bytes): the floor under a candidate's per-entry cost.
_FIXED_WIRE_BYTES = {_NONE: 1, bool: 1, int: 8, float: 8}
_MIN_WIRE_BYTES = {**_FIXED_WIRE_BYTES, str: 2}
# What the first value of a delta-coded column costs.
_DELTA_BASE_BYTES = 9


def _utf8_bytes(strings) -> int:
    """UTF-8 bytes of all ``strings`` together, encoded at most once."""
    text = "".join(strings)
    return len(text) if text.isascii() else len(text.encode("utf-8"))


def _wire_bytes(values, kinds) -> int:
    """``sum(map(value_wire_bytes, values))`` without the per-value calls.

    ``kinds`` is the set of exact types in ``values`` and holds plain wire
    types only.
    """
    if len(kinds) == 1:
        (kind,) = kinds
        if kind is str:
            return 2 * len(values) + _utf8_bytes(values)
        return _FIXED_WIRE_BYTES[kind] * len(values)
    types = list(map(type, values))
    total = 0
    for kind in kinds:
        if kind is str:
            strings = compress(values, map(is_, types, repeat(str)))
            total += 2 * types.count(str) + _utf8_bytes(strings)
        else:
            total += _FIXED_WIRE_BYTES[kind] * types.count(kind)
    return total


def _value_key(value: Any) -> tuple:
    """What makes two values the same dictionary entry or the same run.

    The key pairs the value with its type so 1/1.0/True never collapse;
    floats key by repr so 0.0/-0.0 stay distinct (and all NaNs are one).
    """
    if type(value) is float:
        return (float, repr(value))
    return (type(value), value)


def _first_values(distinct: dict, keys, values) -> list:
    """The first value that carried each key of ``distinct``, in its
    (first-appearance) order: zipping backwards lets the earliest win."""
    first_of = dict(zip(reversed(keys), reversed(values)))
    return list(map(first_of.__getitem__, distinct))


def _codes(distinct: dict, keys) -> list:
    """Each key's position in ``distinct``."""
    code_of = {key: code for code, key in enumerate(distinct)}
    return list(map(code_of.__getitem__, keys))


def _varint_bytes(deltas: list) -> int:
    """Total zigzag-varint bytes of ``deltas``.

    zigzag(d) is 2d for d >= 0 and -2d - 1 below zero: one bit more than
    ``d.bit_length()`` (which ignores the sign), except that -2**k lands
    on 2**(k + 1) - 1 and needs no extra bit.  That saves a byte only
    where k + 1 is a multiple of seven, so the deltas are visited in
    Python once per distinct bit length, never once per delta.
    """
    total = 0
    for width, times in Counter(map(int.bit_length, deltas)).items():
        total += (width + 7) // 7 * times
        if width and width % 7 == 0:
            total -= deltas.count(-(1 << (width - 1)))
    return total


def _scaled_ints(values, scale: int) -> "list[int] | None":
    """``round(v * scale)`` per value when every ``v`` is bit-exactly
    that integer over ``scale``, else ``None``.

    One lazy pass that stops at the first value that is not; an inf or
    nan met before one raises OverflowError / ValueError.  -0.0 compares
    equal to the +0.0 its integer decodes to and is told apart by repr.
    """
    scaled, kept = tee(map(round, map(mul, values, repeat(scale))))
    if not all(map(eq, map(truediv, scaled, repeat(scale)), values)):
        return None
    ints = list(kept)
    zeros = compress(values, map(not_, ints))
    return None if "-0.0" in map(repr, zeros) else ints


def _shared_prefix_lengths(strings, budget: int) -> "list[int] | None":
    """How many leading characters each string shares with the one before.

    A suffix costs at least one byte per character, so once the suffix
    characters seen reach ``budget`` front coding has lost and the scan
    stops (returns ``None``).  Clustered identifiers mostly share what
    the pair before them shared, so that prefix (``head``) is tried
    first, in one ``startswith``, and characters are compared only past
    it; when it fails the pair is compared from the start.
    """
    lengths = []
    prev, prev_len, shared, head = "", 0, 0, ""
    for value in strings:
        value_len = len(value)
        limit = value_len if value_len < prev_len else prev_len
        if not value.startswith(head):
            shared = 0
        while shared < limit and prev[shared] == value[shared]:
            shared += 1
        if shared != len(head):
            head = value[:shared]
        budget -= value_len - shared
        if budget <= 0:
            return None
        lengths.append(shared)
        prev, prev_len = value, value_len
    return lengths


def encode_column(name: str, values: list) -> EncodedColumn:
    """Serialize one column under the cheapest applicable encoding.

    Candidates are tried in a fixed order -- dict, rle, delta, bits,
    scaled, prefix -- and one replaces the incumbent only when strictly
    smaller, so an earlier candidate wins ties: order and tie rule are
    part of the byte model.  Each candidate is only *sized*; a size only
    grows as entries are added, so a candidate is dropped as soon as a
    lower bound on it reaches the incumbent, and the payload is built
    for the winner alone.
    """
    count = len(values)
    if count < 2:
        # One entry plus any candidate's own header never undercuts plain.
        raw = COLUMN_HEADER_BYTES + sum(map(value_wire_bytes, values))
        return EncodedColumn(name, "plain", count, list(values), raw, raw)
    kinds = set(map(type, values))
    if not kinds <= _PLAIN_TYPES:
        return _encode_opaque(name, values)
    raw = COLUMN_HEADER_BYTES + _wire_bytes(values, kinds)
    encoding, size = "plain", raw

    # ``==`` on the raw values tells entries apart exactly as _value_key
    # does unless two numeric types meet (1 == 1.0 == True), a float is
    # NaN (never equal to itself) or zero (0.0 == -0.0); only then is the
    # key built per value.
    keys = values
    distinct = dict.fromkeys(values)
    if len(kinds & _NUMERIC_TYPES) > 1 or (
        float in kinds
        and (0.0 in distinct or any(map(ne, distinct, distinct)))
    ):
        keys = list(map(_value_key, values))
        distinct = dict.fromkeys(keys)

    # Neither a dictionary nor runs can save unless some entry repeats.
    entries = len(distinct)
    if entries < count:
        # Dictionary: first-appearance codes.
        if entries <= 65536:
            if keys is values:
                dict_values = list(distinct)
            else:
                dict_values = _first_values(distinct, keys, values)
            dict_size = (
                COLUMN_HEADER_BYTES
                + _wire_bytes(dict_values, kinds)
                + count * (1 if entries <= 256 else 2)
            )
            if dict_size < size:
                encoding, size = "dict", dict_size

        # Run-length: a run ends where the key changes, and costs its
        # head value plus a two-byte length.
        changes = bytes(map(ne, islice(keys, 1, None), keys))
        runs = 1 + sum(changes)
        cheapest_run = 2 + min(map(_MIN_WIRE_BYTES.__getitem__, kinds))
        if COLUMN_HEADER_BYTES + runs * cheapest_run < size:
            heads = [values[0], *compress(islice(values, 1, None), changes)]
            rle_size = (
                COLUMN_HEADER_BYTES + _wire_bytes(heads, kinds) + 2 * runs
            )
            if rle_size < size:
                encoding, size = "rle", rle_size

    # Delta: exact-int columns only (bool is excluded so decode
    # preserves types), zigzag-varint deltas of at least a byte each.
    if kinds == _INT_ONLY:
        delta_size = COLUMN_HEADER_BYTES + _DELTA_BASE_BYTES
        if delta_size + count - 1 < size:
            deltas = list(map(sub, islice(values, 1, None), values))
            delta_size += _varint_bytes(deltas)
            if delta_size < size:
                encoding, size = "delta", delta_size

    # Bit-packing: pure flag columns (bool or NULL) at two bits per
    # value -- random flags defeat RLE but still pack four values per
    # byte against one byte each under plain.
    if kinds <= _FLAG_TYPES:
        bits_size = COLUMN_HEADER_BYTES + (count + 3) // 4
        if bits_size < size:
            encoding, size = "bits", bits_size

    # Scaled-decimal delta: float columns holding short decimals
    # (prices, distances) store integer multiples of 1/scale,
    # delta-coded.  Chosen only when every value provably round-trips
    # bit-exactly through the scaling; the first scale that does decides.
    if kinds == _FLOAT_ONLY:
        scaled_size = COLUMN_HEADER_BYTES + 1 + _DELTA_BASE_BYTES
        if scaled_size + count - 1 < size:
            for scale in (10, 100):
                try:
                    scaled = _scaled_ints(values, scale)
                except (OverflowError, ValueError):  # inf, nan: no scale fits
                    break
                if scaled is not None:
                    deltas = list(map(sub, islice(scaled, 1, None), scaled))
                    scaled_size += _varint_bytes(deltas)
                    if scaled_size < size:
                        encoding, size = "scaled", scaled_size
                    break

    # Prefix (front coding): string columns that share leading bytes
    # with their predecessor (sorted or clustered identifiers).
    if str in kinds and kinds <= _TEXT_TYPES:
        strings = values
        if _NONE in kinds:
            strings = list(compress(values, map(is_not, values, repeat(None))))
        prefix_size = COLUMN_HEADER_BYTES + count + len(strings)
        shared = _shared_prefix_lengths(strings, size - prefix_size)
        if shared is not None:
            suffixes = list(
                map(getitem, strings, map(slice, shared, repeat(None)))
            )
            prefix_size += _utf8_bytes(suffixes)
            if prefix_size < size:
                encoding, size = "prefix", prefix_size

    if encoding in ("plain", "bits"):
        payload: Any = list(values)
    elif encoding == "dict":
        payload = (dict_values, _codes(distinct, keys))
    elif encoding == "rle":
        starts = [0, *compress(range(1, count), changes), count]
        payload = list(zip(heads, map(sub, islice(starts, 1, None), starts)))
    elif encoding == "delta":
        payload = (values[0], deltas)
    elif encoding == "scaled":
        payload = (scale, scaled[0], deltas)
    elif _NONE in kinds:
        front_coded = zip(shared, suffixes)
        payload = [None if v is None else next(front_coded) for v in values]
    else:
        payload = list(zip(shared, suffixes))
    return EncodedColumn(name, encoding, count, payload, size, raw)


def _opaque_runs(values):
    """``(head, length)`` runs of a column of arbitrary values.

    Runs compare against their head by (type, value) so True/1 stay
    distinct; floats compare by repr so 0.0/-0.0 never merge and
    equal-repr NaNs do (bit-equivalent on decode).  An equality that
    raises ends the run.
    """
    rest = iter(values)
    head, length = next(rest), 1
    for value in rest:
        if type(head) is type(value):
            if type(value) is float:
                same = repr(head) == repr(value)
            else:
                try:
                    same = bool(head == value)
                except Exception:
                    same = False
            if same:
                length += 1
                continue
        yield head, length
        head, length = value, 1
    yield head, length


def _encode_opaque(name: str, values: list) -> EncodedColumn:
    """The codec for a column holding any type outside the plain wire
    types, one value at a time.  Only dictionary and run-length can
    apply: delta, bits, scaled and prefix each demand plain types
    throughout.
    """
    count = len(values)
    raw = COLUMN_HEADER_BYTES + sum(map(value_wire_bytes, values))
    encoding, size = "plain", raw

    keys = list(map(_value_key, values))
    try:
        distinct = dict.fromkeys(keys)
    except TypeError:  # unhashable: no dictionary
        distinct = {}
    if distinct and len(distinct) < count and len(distinct) <= 65536:
        dict_values = _first_values(distinct, keys, values)
        dict_size = (
            COLUMN_HEADER_BYTES
            + sum(map(value_wire_bytes, dict_values))
            + count * (1 if len(distinct) <= 256 else 2)
        )
        if dict_size < size:
            encoding, size = "dict", dict_size

    rle_size = COLUMN_HEADER_BYTES
    for head, _ in _opaque_runs(values):
        rle_size += value_wire_bytes(head) + 2
        if rle_size >= size:
            break
    else:
        encoding, size = "rle", rle_size

    if encoding == "dict":
        payload: Any = (dict_values, _codes(distinct, keys))
    elif encoding == "rle":
        payload = list(_opaque_runs(values))
    else:
        payload = list(values)
    return EncodedColumn(name, encoding, count, payload, size, raw)


def decode_column(column: EncodedColumn) -> list:
    """Exact inverse of :func:`encode_column`."""
    if column.encoding == "plain":
        return list(column.payload)
    if column.encoding == "dict":
        dict_values, codes = column.payload
        return [dict_values[code] for code in codes]
    if column.encoding == "rle":
        out: list = []
        for value, run in column.payload:
            out.extend([value] * run)
        return out
    if column.encoding == "delta":
        first, deltas = column.payload
        out = [first]
        current = first
        for delta in deltas:
            current += delta
            out.append(current)
        return out
    if column.encoding == "bits":
        return list(column.payload)
    if column.encoding == "scaled":
        scale, first, deltas = column.payload
        ints = [first]
        current = first
        for delta in deltas:
            current += delta
            ints.append(current)
        return [i / scale for i in ints]
    if column.encoding == "prefix":
        out = []
        prev = ""
        for entry in column.payload:
            if entry is None:
                out.append(None)
                continue
            shared, suffix = entry
            value = prev[:shared] + suffix
            out.append(value)
            prev = value
        return out
    raise ValueError(f"unknown column encoding {column.encoding!r}")


def encode_batch(batch: ColumnBatch) -> EncodedBatch:
    """Serialize a batch column-by-column for the wire."""
    return EncodedBatch(
        names=list(batch.names),
        count=batch.count,
        columns=[
            encode_column(name, column)
            for name, column in zip(batch.names, batch.columns)
        ],
    )


def decode_batch(encoded: EncodedBatch) -> ColumnBatch:
    """Exact inverse of :func:`encode_batch`."""
    return ColumnBatch(
        list(encoded.names),
        [decode_column(column) for column in encoded.columns],
        encoded.count,
    )
