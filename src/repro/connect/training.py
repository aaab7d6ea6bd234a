"""The wrapper training loop (the engine behind a training GUI).

Cohera Connect "comes with an intuitive graphical 'training' interface for
generating HTML and XML wrappers" (§4).  A GUI is out of scope for a
library, but the *session logic* behind one is not:

1. The content manager opens a sample page and marks one record
   (:meth:`WrapperTrainingSession.mark_record`).
2. The session induces a wrapper and shows what it would extract
   (:meth:`propose`).
3. The manager either accepts (:meth:`accept`) or marks a record the
   proposal got wrong -- which is just another :meth:`mark_record` -- and
   the loop repeats.

The session records every human action, so the "cost of a person using the
system to perform a task" (§3.1 themes) is measurable: see
``human_actions`` and experiment E8.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.connect.induction import InducedWrapper, WrapperInducer
from repro.core.errors import WrapperError


@dataclass
class TrainingProposal:
    """What the current wrapper would extract from the sample page."""

    records: list[dict[str, str]]
    wrapper: InducedWrapper | None
    error: str = ""

    @property
    def learned(self) -> bool:
        return self.wrapper is not None


@dataclass
class WrapperTrainingSession:
    """One manager + one sample page + one wrapper-in-progress."""

    fields: tuple[str, ...]
    page: str
    human_actions: int = 0
    accepted: bool = False
    _inducer: WrapperInducer = field(init=False)
    _wrapper: InducedWrapper | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        self.fields = tuple(self.fields)
        self._inducer = WrapperInducer(self.fields)

    # -- the manager's actions ------------------------------------------------

    def mark_record(self, record: dict[str, str]) -> TrainingProposal:
        """Mark one record's field values on the page; re-learn; preview."""
        if self.accepted:
            raise WrapperError("training session is already accepted")
        self._inducer.add_example(self.page, record)
        self.human_actions += 1
        return self.propose()

    def propose(self) -> TrainingProposal:
        """Induce from marks so far and preview the extraction."""
        try:
            self._wrapper = self._inducer.learn()
        except WrapperError as error:
            self._wrapper = None
            return TrainingProposal([], None, str(error))
        return TrainingProposal(self._wrapper.extract(self.page), self._wrapper)

    def accept(self) -> InducedWrapper:
        """The manager signs off; returns the trained wrapper."""
        if self._wrapper is None:
            raise WrapperError("nothing to accept: no wrapper learned yet")
        self.accepted = True
        self.human_actions += 1
        return self._wrapper
