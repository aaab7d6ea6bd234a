"""A split aggregate crosses the wire as one column batch of groups.

At each site ``site_ops.partial_groups`` folds the kept rows of a batch's
``(chunk, selection)`` parts into one batch: key columns, row counts, a
state column per aggregate call and where each group's first row is.
``partial_wire_bytes`` is what ``Ship`` charges for that batch,
``merged_groups`` merges the arrived batches by key, and
``finished_groups`` evaluates the select items and HAVING over the merged
batch.  Here all four are held to a fold written one row at a time:

* a site's groups in first-appearance order, each state folded over the
  group's non-NULL values in row order;
* the sites' groups merged in arrival order, a group of no row (the
  ungrouped one of a site that had none) replaced by the first that has
  rows;
* the answer sorted by the rows' ``repr`` and compared by ``repr``, so
  float bits, ``-0.0`` and ``1`` against ``1.0`` / ``True`` count;
* the bytes priced as records: 12 a group, then its keys and its states
  at ``value_wire_bytes`` each, a ``(total, n)`` state as two values.
"""

from dataclasses import dataclass, field

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import QueryError
from repro.core.values import Money
from repro.federation import coordinator_ops, physical, site_ops
from repro.federation.columnar import ColumnBatch, value_wire_bytes
from repro.sql.ast import BinaryOp, Column, FuncCall, Literal, SelectItem
from repro.sql.planner import AggregateNode, AggregateSplit

NAMES = ["t.k1", "t.k2", "t.v", "t.w"]
K1, K2, V, W = (Column(name, "t") for name in ("k1", "k2", "v", "w"))
STAR = FuncCall("count", (), star=True)
CALLS = [STAR, FuncCall("count", (V,)), FuncCall("sum", (V,)), FuncCall("avg", (V,)),
         FuncCall("min", (V,)), FuncCall("max", (V,)), FuncCall("count", (K1,))]  # fmt: skip
GROUP_BYS = [[], [K1], [K2], [K1, K2]]

# Two NaN objects shared by every row that draws them; ``fresh_nan`` is a
# new object each time, a group of its own.
SHARED_NANS = (float("nan"), float("nan"))
fresh_nan = st.builds(float, st.just("nan"))
KEYS = st.one_of(
    st.sampled_from(["a", "b", None, 1, 1.0, True, *SHARED_NANS]), fresh_nan
)
# Mostly values whose sums depend on the order of the additions.
ODD_SUMS = st.sampled_from([0.1, 0.2, 0.3, 0.7, 1e16, 1.0, 0.0, -0.0])
FLOATS = st.one_of(ODD_SUMS, ODD_SUMS, st.floats(allow_nan=False, allow_infinity=False))
BIG_INTS = st.one_of(
    st.integers(-5, 5), st.integers(2**63, 2**80), st.integers(-(2**80), -(2**63))
)
ARGUMENTS = {
    "float": FLOATS,
    "int": BIG_INTS,
    "number": st.one_of(FLOATS, BIG_INTS),
    "money": st.builds(Money, st.sampled_from([0.1, 0.2, 0.3, -0.0, 1e16]), st.just("EUR")),
}
FIRSTS = st.sampled_from(["x", "y", None, 2.5])


@st.composite
def inputs(draw):
    """``(argument kind, sites)``: each site its rows in chunks of a drawn
    size, a ``(rows, selection)`` part per chunk, a selection the sorted
    row numbers kept or None."""
    kind = draw(st.sampled_from(sorted(ARGUMENTS)))
    # A few keys per example, so groups hold several rows of several parts.
    keys = st.sampled_from(draw(st.lists(KEYS, min_size=1, max_size=4)))
    argument = ARGUMENTS[kind]
    row = st.tuples(keys, keys, st.one_of(st.none(), argument, argument), FIRSTS)
    sites = []
    for _ in range(draw(st.integers(0, 4))):
        rows, size = draw(st.lists(row, max_size=12)), draw(st.integers(1, 5))
        parts = []
        for start in range(0, len(rows), size):  # the site's chunks
            chunk = rows[start : start + size]
            flags = st.lists(st.booleans(), min_size=len(chunk), max_size=len(chunk))
            selection = draw(
                st.none() | flags.map(lambda kept: [i for i, k in enumerate(kept) if k])
            )
            parts.append((chunk, selection))
        sites.append(parts)
    return kind, sites


def part_batch(rows) -> ColumnBatch:
    columns = [list(column) for column in zip(*rows)] or [[] for _ in NAMES]
    return ColumnBatch(NAMES, columns, len(rows))


# -- the fold, one row at a time --------------------------------------------------


@dataclass
class Group:
    key: tuple
    count: int = 0
    first: "tuple | None" = None
    states: dict = field(default_factory=dict)


def empty(call):
    return 0 if call.name == "count" else (None, 0) if call.name == "avg" else None


def folded(call, state, value):
    """``state`` after one more non-NULL argument ``value``."""
    if call.name == "count":
        return state + 1
    if call.name == "avg":
        total, n = state
        return (value if n == 0 else total + value, n + 1)
    if state is None:
        return value
    if call.name == "sum":
        return state + value
    return min(state, value) if call.name == "min" else max(state, value)


def merged(call, a, b):
    if call.star or call.name == "count":
        return a + b
    if call.name == "avg":
        return b if a[1] == 0 else a if b[1] == 0 else (a[0] + b[0], a[1] + b[1])
    if a is None or b is None:
        return b if a is None else a
    if call.name == "sum":
        return a + b
    return min(a, b) if call.name == "min" else max(a, b)


def site_groups(parts, group_by, calls) -> list[Group]:
    """One site's groups: its kept rows, part after part, folded a row at
    a time (the ungrouped one exists with no row)."""
    groups: dict = {}
    if not group_by:
        groups[()] = Group((), states={repr(c): empty(c) for c in calls})
    for rows, selection in parts:
        for i in range(len(rows)) if selection is None else selection:
            row = dict(zip(NAMES, rows[i]))
            key = tuple(row[expr.key] for expr in group_by)
            group = groups.get(key)
            if group is None:
                group = groups[key] = Group(key, states={repr(c): empty(c) for c in calls})
            group.count += 1
            if group.first is None:
                group.first = rows[i]
            for call in calls:
                if call.star:
                    group.states[repr(call)] = group.count
                elif (value := row[call.args[0].key]) is not None:
                    state = group.states[repr(call)]
                    group.states[repr(call)] = folded(call, state, value)
    return list(groups.values())


def merged_in_arrival_order(sites: list[list[Group]], calls) -> list[Group]:
    out: dict = {}
    for groups in sites:
        for group in groups:
            seen = out.get(group.key)
            if seen is None or seen.count == 0:
                out[group.key] = Group(group.key, group.count, group.first, dict(group.states))
                continue
            seen.count += group.count
            for call in calls:
                key = repr(call)
                seen.states[key] = merged(call, seen.states[key], group.states[key])
    return list(out.values())


def record_bytes(groups: list[Group]) -> int:
    """What the wire charged a site's groups as records."""
    total = 0
    for group in groups:
        total += 12 + sum(value_wire_bytes(value) for value in group.key)
        for state in group.states.values():
            parts = state if isinstance(state, tuple) else (state,)
            total += sum(value_wire_bytes(value) for value in parts)
    return total


def final(call, group):
    state = group.states[repr(call)]
    if call.star:
        return group.count
    if call.name == "avg":
        return None if state[1] == 0 else state[0] / state[1]
    return state


# -- partial -> merge -> finish ---------------------------------------------------


def run(group_by, calls, sites, having_at=None):
    """The engine's answer and the row fold's, with their per-site bytes."""
    state_keys = {repr(call): call for call in calls}
    batches = [
        site_ops.partial_groups(
            [(part_batch(rows), selection) for rows, selection in parts],
            group_by,
            state_keys,
        )
        for parts in sites
    ]
    expected_sites = [site_groups(parts, group_by, calls) for parts in sites]
    groups = merged_in_arrival_order(expected_sites, calls)
    if not sites and not group_by:  # what aggregating no rows gives
        groups = site_groups([], group_by, calls)
    items = [*group_by, *calls, Literal(7)]
    if STAR in calls:
        items.append(BinaryOp("+", STAR, Literal(1)))
    with_first = all(group.first is not None for group in groups)
    if with_first:  # a bare column reads the group's first row
        items.append(W)
    having = None
    if STAR in calls and having_at is not None:
        having = BinaryOp(">=", STAR, Literal(having_at))

    def value(item, group):
        if isinstance(item, FuncCall):
            return final(item, group)
        if isinstance(item, Literal):
            return item.value
        if isinstance(item, BinaryOp):
            return group.count + 1
        if item is W:
            return group.first[3]
        return group.key[group_by.index(item)]

    expected = [
        tuple(value(item, group) for item in items)
        for group in groups
        if having is None or group.count >= having_at
    ]
    expected.sort(key=lambda row: tuple(map(repr, row)))
    node = AggregateNode(
        None, group_by, [SelectItem(item) for item in items], having, AggregateSplit(calls)
    )
    names = [f"c{i}" for i in range(len(items))]
    whole = coordinator_ops.merged_groups(batches, group_by, calls)
    (out,) = coordinator_ops.finished_groups(node, names, whole)
    return (
        list(zip(*out.columns)),
        expected,
        [physical.partial_wire_bytes(batch) for batch in batches],
        [record_bytes(groups) for groups in expected_sites],
    )


def draw_calls(data, kind):
    allowed = [c for c in CALLS if not (kind == "money" and c.name == "avg")]
    return data.draw(st.lists(st.sampled_from(allowed), unique_by=repr, max_size=5))


class TestPartialMergeFinishIsTheRowFold:
    @settings(max_examples=400, deadline=None)
    @given(inputs(), st.sampled_from(GROUP_BYS), st.none() | st.integers(1, 4), st.data())
    def test_answers_and_bytes(self, drawn, group_by, having_at, data):
        kind, sites = drawn
        calls = draw_calls(data, kind)
        answer, expected, charged, records = run(group_by, calls, sites, having_at)
        assert repr(answer) == repr(expected)
        assert charged == records

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(ODD_SUMS, min_size=3, max_size=12),
        st.integers(2, 4),
        st.sampled_from(GROUP_BYS),
    )
    def test_a_site_adds_its_rows_in_row_order(self, values, size, group_by):
        """Float bits: one site's sum is one left-to-right pass over its
        rows, not a sum of its chunks' sums."""
        rows = [(1, "a", value, "x") for value in values]
        parts = [(rows[i : i + size], None) for i in range(0, len(rows), size)]
        calls = [FuncCall("sum", (V,)), FuncCall("avg", (V,))]
        answer, expected, _, _ = run(group_by, calls, [parts])
        assert repr(answer) == repr(expected)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(GROUP_BYS), st.data())
    def test_no_rows(self, group_by, data):
        """Sites that keep no row: a grouped input has no group and an
        ungrouped one the group of no row -- count 0, NULL sum, min, max
        and avg -- however many sites sent nothing."""
        calls = draw_calls(data, "float")
        sites = data.draw(
            st.lists(
                st.lists(st.tuples(st.just([(1, 2, 3.0, "x")]), st.just([])), max_size=2),
                max_size=3,
            )
        )
        answer, expected, charged, records = run(group_by, calls, sites)
        assert repr(answer) == repr(expected)
        assert len(answer) == (0 if group_by else 1)
        assert charged == records

    def test_distinct_nan_objects_stay_apart_across_sites(self):
        first, second = float("nan"), float("nan")
        sites = [[([(first, "a", 1.0, "x")], None)], [([(second, "a", 2.0, "y")], None),
                                                     ([(first, "b", 4.0, "z")], None)]]  # fmt: skip
        answer, expected, _, _ = run([K1], [STAR, FuncCall("sum", (V,))], sites)
        assert repr(answer) == repr(expected) == repr([(second, 1, 2.0, 7, 2, "y"),
                                                       (first, 2, 5.0, 7, 3, "x")])  # fmt: skip

    def test_an_empty_first_site_gives_way_to_one_with_rows(self):
        sites = [[([(1, 1, 5.0, "x")], [])], [([(1, 1, 6.0, "y")], None)]]
        answer, _, _, _ = run([], [STAR, FuncCall("sum", (V,))], sites)
        assert answer == [(1, 6.0, 7, 2, "y")]

    def test_a_group_with_no_first_row_has_no_bare_column(self):
        node = AggregateNode(None, [], [SelectItem(W)], None, AggregateSplit([]))
        whole = coordinator_ops.merged_groups([], [], [])
        with pytest.raises(QueryError, match="t.w"):
            coordinator_ops.finished_groups(node, ["w"], whole)
