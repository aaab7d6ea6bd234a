"""Data lineage through transform pipelines.

The paper's sharpest criticism of warehouse ETL (§3.2 C5): "the ETL tools
gave up on data independence, leading to nasty problems of data lineage
through arbitrary code."  The workbench keeps lineage as a first-class
artifact: every :class:`~repro.workbench.transforms.Pipeline` run produces a
:class:`Lineage` that can answer, for any cell of the output,

* *which source row produced this row* (:meth:`Lineage.origin_of`), and
* *through which transformations did this column pass*
  (:meth:`Lineage.explain`).

Opaque script steps that change the row count mark the lineage *broken* --
the honest answer an imperative ETL job gives -- which is precisely the
contrast experiment E10 quantifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class RowOrigin:
    """Where one output row came from."""

    source: str
    row_index: int


@dataclass
class ColumnTrace:
    """The derivation chain of one output column, newest step last."""

    source_columns: tuple[str, ...]
    steps: list[str] = field(default_factory=list)


class Lineage:
    """Provenance for one pipeline run."""

    def __init__(self, source_name: str, row_count: int, columns: tuple[str, ...]) -> None:
        self.source_name = source_name
        self.row_origins: list[RowOrigin] = [
            RowOrigin(source_name, i) for i in range(row_count)
        ]
        self.columns: dict[str, ColumnTrace] = {
            name: ColumnTrace((name,)) for name in columns
        }
        self.broken = False
        self.break_reason = ""

    # -- queries -------------------------------------------------------------

    def origin_of(self, row_index: int) -> RowOrigin:
        """The source row behind output row ``row_index``."""
        if self.broken:
            raise LookupError(
                f"lineage was broken by {self.break_reason!r}; "
                "row provenance is unavailable"
            )
        return self.row_origins[row_index]

    def explain(self, column: str) -> list[str]:
        """Human-readable derivation of ``column``, source first."""
        if column not in self.columns:
            raise LookupError(f"no lineage for column {column!r}")
        trace = self.columns[column]
        sources = ", ".join(trace.source_columns) or "(constant)"
        lines = [f"source {self.source_name}({sources})"]
        lines.extend(trace.steps)
        return lines

    # -- mutation hooks used by transform steps ---------------------------------

    def record_rename(self, old: str, new: str, description: str) -> None:
        trace = self.columns.pop(old)
        trace.steps.append(description)
        self.columns[new] = trace

    def record_derivation(
        self, output: str, inputs: tuple[str, ...], description: str
    ) -> None:
        """Column ``output`` now derives from ``inputs`` via a step."""
        source_columns: list[str] = []
        steps: list[str] = []
        for name in inputs:
            trace = self.columns.get(name)
            if trace is None:
                continue
            for source_column in trace.source_columns:
                if source_column not in source_columns:
                    source_columns.append(source_column)
            for step in trace.steps:
                if step not in steps:
                    steps.append(step)
        steps.append(description)
        self.columns[output] = ColumnTrace(tuple(source_columns), steps)

    def record_drop(self, names: tuple[str, ...]) -> None:
        for name in names:
            self.columns.pop(name, None)

    def record_filter(self, kept_indices: list[int], description: str) -> None:
        self.row_origins = [self.row_origins[i] for i in kept_indices]
        for trace in self.columns.values():
            trace.steps.append(description)

    def mark_broken(self, reason: str) -> None:
        """An opaque step destroyed row-level provenance (the ETL failure)."""
        self.broken = True
        self.break_reason = reason
        self.row_origins = []
