"""Stored answers kept in parts, one per fragment, tagged by content epoch.

The semantic cache keeps a region's rows and the artifact store a stage's
output as one part per fragment of the base table (a pruned fragment's part
is empty), each tagged with the fragment's content epoch when it was read
(:attr:`repro.federation.catalog.Fragment.epoch`).  A stored answer serves
whole only while every part is current; a write to one fragment makes that
part stale and leaves the others servable, so re-reading the stale
fragments alone brings the answer back (:func:`splice`, the one splice both
stores use, each slicing its own payload).  A splice costs what was re-read,
not what was kept: the kept parts are cut from the payload a run of
neighbours at a time, so the current parts on either side of one written
fragment come out as two slices, whatever the number of fragments.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Sequence

if TYPE_CHECKING:
    from repro.federation.catalog import Fragment


class Part(NamedTuple):
    """``size`` rows (or group records) of a stored answer, read from
    ``fragment`` at content epoch ``epoch``, at simulated time
    ``fetched_at``; for a top-k stage whose ``SiteTopK`` dropped rows of
    this fragment, ``cut`` holds the fragment's boundary key, ``(key,)``,
    which a served part hands the coordinator ``Sort`` as a run would.
    (A tuple: a refresh builds fifty of them, and a frozen dataclass costs
    about three times as much to build.)"""

    fragment: "Fragment"
    epoch: int
    size: int
    fetched_at: float
    cut: "tuple | None" = None

    @property
    def current(self) -> bool:
        """Whether the fragment still holds what was read."""
        return self.fragment.epoch == self.epoch


def all_current(parts: Sequence[Part]) -> bool:
    """Every part current (an answer with no parts is vacuously so)."""
    return all(part.fragment.epoch == part.epoch for part in parts)


def any_current(parts: Sequence[Part]) -> bool:
    """Some part current: what a write leaves of a stored answer."""
    return any(part.fragment.epoch == part.epoch for part in parts)


def splice(fragments, read: dict, stored: Sequence[Part], cut) -> list:
    """Per fragment of ``fragments``, in order: ``(fragment, read[id])`` for
    one read again, else ``(part, payload)`` for a current part of
    ``stored``, whose payload holds the parts one after another.  A fragment
    in neither is left out.

    The stored payload is cut (``cut(start, stop)`` slices the store's own
    payload) once per *run*: current parts that follow each other here and
    in the payload -- an empty part, such as a pruned fragment's, follows
    anything.  The run's first part carries its slice and the rest ``[]``,
    so a refresh of one fragment of fifty hands on three pieces, not
    fifty-one."""
    spans, start = {}, 0
    for part in stored:
        stop = start + part.size
        if part.current:
            spans[part.fragment.fragment_id] = (part, start, stop)
        start = stop
    spliced, runs, run = [], [], None  # run: [its first slot, start, stop]
    for fragment in fragments:
        fragment_id = fragment.fragment_id
        if fragment_id in read:
            spliced.append((fragment, read[fragment_id]))
            run = None
            continue
        if fragment_id not in spans:
            continue
        part, start, stop = spans[fragment_id]
        if run is None:
            run = [len(spliced), start, stop]
            runs.append(run)
        elif start < stop:  # an empty part joins any run
            if run[1] == run[2]:  # the run so far is empty: its rows start here
                run[1:] = start, stop
            elif run[2] == start:  # the next rows in the payload
                run[2] = stop
            else:
                run = [len(spliced), start, stop]
                runs.append(run)
        spliced.append((part, []))
    for first, start, stop in runs:
        spliced[first] = (spliced[first][0], cut(start, stop))
    return spliced
