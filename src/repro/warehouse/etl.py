"""Batch Extract-Transform-Load jobs.

An :class:`EtlJob` pulls a full snapshot from a
:class:`~repro.connect.source.ContentSource`, pushes it through an
imperative transform script (any ``Table -> Table`` function -- exactly the
"non-standard imperative scripting languages" of §3.2 C5), and hands the
result to the warehouse.  Because the transform is opaque code, an ETL run
carries **no lineage**: ask an :class:`EtlRun` where a value came from and
the honest answer is "the script" -- the contrast with
:class:`repro.workbench.transforms.Pipeline` that experiment E10 measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.connect.source import ContentSource
from repro.core.errors import TransformError
from repro.core.records import Table

TransformScript = Callable[[Table], Table]


@dataclass
class EtlRun:
    """Accounting for one completed ETL execution."""

    job_name: str
    started_at: float
    extract_seconds: float
    rows_in: int
    rows_out: int
    table: Table = field(repr=False, default=None)

    def origin_of(self, row_index: int):
        """ETL cannot answer row provenance; that is the point."""
        raise LookupError(
            f"ETL job {self.job_name!r} ran an opaque transform script; "
            "row provenance was not preserved"
        )


class EtlJob:
    """One source -> script -> warehouse-table batch job."""

    def __init__(
        self,
        name: str,
        source: ContentSource,
        transform: TransformScript | None = None,
        target_table: str | None = None,
    ) -> None:
        self.name = name
        self.source = source
        self.transform = transform
        self.target_table = target_table or name
        self.runs: list[EtlRun] = []

    def run(self, now: float) -> EtlRun:
        """Execute one batch: full extract, transform, return the load table."""
        result = self.source.fetch()
        table = result.table
        if self.transform is not None:
            table = self.transform(table)
            if not isinstance(table, Table):
                raise TransformError(
                    f"ETL transform of job {self.name!r} must return a Table"
                )
        table = table.extended(self.target_table)
        run = EtlRun(
            job_name=self.name,
            started_at=now,
            extract_seconds=result.cost_seconds,
            rows_in=len(result.table),
            rows_out=len(table),
            table=table,
        )
        self.runs.append(run)
        return run
