"""Property test for :func:`repro.federation.parts.splice`, the one splice
both stores use to serve a stored answer's current parts beside the
fragments a refresh re-read.

Parts are drawn as ``Stage.capture`` builds them: one per fragment in
fragment order, then the pruned (size-0) fragments' parts appended after
the others.  The splice must hand on what a per-part splice would -- the
same parts and fragments in the same order, the same rows -- while cutting
the stored payload once per run of current parts that neighbour each other
both in fragment order and in the payload.
"""

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.federation.parts import Part, splice

# Per fragment: (rows stored, part current, re-read, pruned, has a part).
FRAGMENT = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.booleans(),
    st.booleans(),
    st.booleans(),
    st.booleans(),
)


def build(drawn):
    """``(fragments, read, stored parts, payload)`` for drawn fragments."""
    fragments, read, kept, pruned = [], {}, [], []
    for i, (size, current, reread, is_pruned, has_part) in enumerate(drawn):
        fragment = SimpleNamespace(fragment_id=f"f{i}", epoch=1)
        fragments.append(fragment)
        if reread:
            read[fragment.fragment_id] = [("new", i)]
        if not has_part:
            continue
        epoch = 1 if current else 0
        if is_pruned:
            pruned.append(Part(fragment, epoch, 0, 0.0))
        else:
            kept.append(Part(fragment, epoch, size, 0.0))
    stored = kept + pruned
    payload = [(part.fragment.fragment_id, row) for part in stored for row in range(part.size)]
    return fragments, read, stored, payload


def per_part(fragments, read, stored, payload):
    """The reference: every current part cut alone, as ``(first, rows,
    span)`` per fragment answered (``span`` None for one re-read)."""
    spans, start = {}, 0
    for part in stored:
        if part.current:
            spans[part.fragment.fragment_id] = (part, start, start + part.size)
        start += part.size
    out = []
    for fragment in fragments:
        if fragment.fragment_id in read:
            out.append((fragment, read[fragment.fragment_id], None))
        elif fragment.fragment_id in spans:
            part, start, stop = spans[fragment.fragment_id]
            out.append((part, payload[start:stop], (start, stop)))
    return out


def runs(reference) -> int:
    """Maximal runs of stored parts that neighbour each other in fragment
    order and in the payload: an empty part neighbours anything."""
    count, stop = 0, None  # stop: where the open run's rows end, if any
    open_run = False
    for _, _, span in reference:
        if span is None:
            open_run = False
            continue
        start, end = span
        if not open_run:
            count, open_run, stop = count + 1, True, None
        if start == end:
            continue
        if stop is not None and start != stop:
            count, stop = count + 1, None
        stop = end
    return count


@settings(max_examples=300, deadline=None)
@given(drawn=st.lists(FRAGMENT, max_size=9))
def test_splice_cuts_a_run_at_a_time_and_serves_what_per_part_does(drawn):
    fragments, read, stored, payload = build(drawn)
    calls = []

    def cut(start, stop):
        calls.append((start, stop))
        return payload[start:stop]

    got = splice(fragments, read, stored, cut)
    want = per_part(fragments, read, stored, payload)
    assert [first for first, _ in got] == [first for first, _, _ in want]
    assert [row for _, rows in got for row in rows] == [
        row for _, rows, _ in want for row in rows
    ]
    assert len(calls) == runs(want)
    assert all(0 <= start <= stop <= len(payload) for start, stop in calls)


def test_one_written_fragment_of_fifty_is_three_pieces():
    drawn = [(2, i != 20, i == 20, False, True) for i in range(50)]
    fragments, read, stored, payload = build(drawn)
    calls = []

    def cut(start, stop):
        calls.append((start, stop))
        return payload[start:stop]

    got = splice(fragments, read, stored, cut)
    assert len(got) == 50
    assert calls == [(0, 40), (42, 100)]
    assert [len(rows) for _, rows in got if rows] == [40, 1, 58]
