"""Fixtures shared by the column-layout tests."""

import pytest

from repro.core import records


@pytest.fixture
def compactions(monkeypatch):
    """The first layout of every table compacted while the test runs
    (:meth:`~repro.core.records.Table.column_layout`), held, so no slice's
    ``id`` is reused."""
    seen = []
    inner = records._compacted

    def spy(chunks):
        seen.append(chunks)
        return inner(chunks)

    monkeypatch.setattr(records, "_compacted", spy)
    return seen
