"""Direct-access gateways: ERP systems and structured files.

The other end of Characteristic 1's relationship spectrum: "some content
owners will allow an integrator to directly access their internal systems,
often SAP or another ERP system".  :class:`ErpSystem` is the in-process
analog of such a system -- named tables behind a predicate-filter query API
with a latency cost model -- and :class:`ErpGateway` is the wrapper
("Merant, NEON, Attunity") that exposes one ERP table as a
:class:`~repro.connect.source.ContentSource`.

:class:`CsvConnector` and :class:`XmlConnector` cover the file-drop
relationships (suppliers mailing catalog extracts), completing Cohera
Connect's claim to "HTML, XML and text data either over the web, or via a
file system" (§4).
"""

from __future__ import annotations

import csv
import io
import re
from typing import Any, Sequence

from repro.connect.source import ContentSource, FetchResult, Predicate, apply_predicates
from repro.core.errors import SchemaError, SourceUnavailableError, WrapperError
from repro.core.records import Table
from repro.core.schema import DataType, Schema
from repro.sim.clock import SimClock
from repro.xmlkit import XmlElement, parse_xml, xpath


class ErpSystem:
    """A simulated enterprise system: named tables, filtered reads, a cost model.

    Reads cost ``base_latency`` plus ``per_row_cost`` times the rows scanned
    (the whole table -- ERPs here scan, they do not index), charged to the
    shared clock so federated plans that hit ERPs repeatedly pay for it.
    """

    def __init__(
        self,
        name: str,
        clock: SimClock,
        base_latency: float = 0.05,
        per_row_cost: float = 0.0001,
    ) -> None:
        self.name = name
        self.clock = clock
        self.base_latency = base_latency
        self.per_row_cost = per_row_cost
        self.up = True
        self.queries_served = 0
        self._tables: dict[str, Table] = {}

    def load_table(self, table: Table) -> None:
        self._tables[table.schema.name] = table

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def query(self, table_name: str, predicates: Sequence[Predicate] = ()) -> Table:
        """Filtered read of one table, charging simulated time."""
        if not self.up:
            raise SourceUnavailableError(self.name)
        if table_name not in self._tables:
            raise WrapperError(f"ERP {self.name!r} has no table {table_name!r}")
        table = self._tables[table_name]
        self.clock.advance(self.base_latency + self.per_row_cost * len(table))
        self.queries_served += 1
        return apply_predicates(table, predicates)

    def update_rows(self, table_name: str, new_table: Table) -> None:
        """Replace a table's contents (how operational volatility arrives)."""
        if table_name not in self._tables:
            raise WrapperError(f"ERP {self.name!r} has no table {table_name!r}")
        self._tables[table_name] = new_table


class ErpGateway(ContentSource):
    """A ContentSource exposing one ERP table, with predicate pushdown."""

    def __init__(self, name: str, erp: ErpSystem, table_name: str) -> None:
        self.name = name
        self.erp = erp
        self.table_name = table_name
        self.schema = erp.query(table_name).schema  # probe once for metadata

    def fetch(self, predicates: Sequence[Predicate] = ()) -> FetchResult:
        before = self.erp.clock.now()
        table = self.erp.query(self.table_name, predicates)
        return FetchResult(
            table,
            cost_seconds=self.erp.clock.now() - before,
            fetched_at=self.erp.clock.now(),
        )

    def is_available(self) -> bool:
        return self.erp.up

    def estimated_rows(self) -> int:
        return len(self.erp._tables[self.table_name])

    def estimated_cost(self) -> float:
        return self.erp.base_latency + self.erp.per_row_cost * self.estimated_rows()


class CsvConnector(ContentSource):
    """Parses CSV text against a declared schema.

    Records are read by :func:`csv.reader` (quoted cells, doubled-quote
    escapes, quoted newlines), and values are coerced to the schema's types;
    blank cells become None.  Empty or whitespace-only lines are skipped.
    """

    def __init__(self, name: str, schema: Schema, text: str, has_header: bool = True) -> None:
        self.name = name
        self.schema = schema
        self._table = self._parse(text, has_header)

    def _parse(self, text: str, has_header: bool) -> Table:
        records = [
            cells
            for cells in csv.reader(io.StringIO(text))
            if len(cells) > 1 or (cells and cells[0].strip())
        ]
        if has_header and records:
            header = records[0]
            expected = list(self.schema.field_names)
            if header != expected:
                raise SchemaError(
                    f"CSV header {header!r} does not match schema fields {expected!r}"
                )
            records = records[1:]
        rows = []
        for cells in records:
            if len(cells) != len(self.schema):
                raise SchemaError(
                    f"CSV row has {len(cells)} cells, schema needs {len(self.schema)}"
                )
            rows.append(
                tuple(
                    _coerce_cell(cell, field.dtype)
                    for cell, field in zip(cells, self.schema.fields)
                )
            )
        return Table(self.schema, rows)

    def fetch(self, predicates: Sequence[Predicate] = ()) -> FetchResult:
        return FetchResult(apply_predicates(self._table, predicates))

    def estimated_rows(self) -> int:
        return len(self._table)

    def estimated_cost(self) -> float:
        return 0.01


class XmlConnector(ContentSource):
    """Maps an XML document to rows via XPath.

    ``row_path`` selects one element per record; ``field_paths`` maps each
    schema field to a relative XPath evaluated against the row element
    (ending in ``text()`` or ``@attr``; plain element paths yield the
    element's text).
    """

    def __init__(
        self,
        name: str,
        schema: Schema,
        document: "XmlElement | str",
        row_path: str,
        field_paths: dict[str, str],
        transformer=None,
    ) -> None:
        """``transformer`` (an :class:`~repro.xmlkit.transform.
        XmlTransformer`) is the §4 expert escape hatch -- "customize
        wrappers directly with XSLT transformations": the document is
        rewritten by the stylesheet before extraction, so awkward feeds can
        be reshaped into something the path mapping can handle."""
        self.name = name
        self.schema = schema
        self.row_path = row_path
        self.field_paths = dict(field_paths)
        missing = set(schema.field_names) - set(field_paths)
        if missing:
            raise SchemaError(f"XML connector lacks paths for fields {sorted(missing)!r}")
        root = parse_xml(document) if isinstance(document, str) else document
        if transformer is not None:
            root = transformer.transform_document(root)
        self._table = self._extract(root)

    def _extract(self, root: XmlElement) -> Table:
        rows = []
        for element in xpath(root, self.row_path):
            values = []
            for field in self.schema.fields:
                results = xpath(element, self.field_paths[field.name])
                if not results:
                    values.append(None)
                    continue
                first = results[0]
                text = first if isinstance(first, str) else first.full_text()
                values.append(_coerce_cell(text, field.dtype))
            rows.append(tuple(values))
        return Table(self.schema, rows)

    def fetch(self, predicates: Sequence[Predicate] = ()) -> FetchResult:
        return FetchResult(apply_predicates(self._table, predicates))

    def estimated_rows(self) -> int:
        return len(self._table)

    def estimated_cost(self) -> float:
        return 0.01


def _coerce_cell(text: str, dtype: DataType) -> Any:
    """Coerce a string cell to a schema type; blank -> None."""
    stripped = text.strip()
    if stripped == "":
        return None
    if dtype in (DataType.STRING, DataType.TEXT):
        return stripped
    if dtype is DataType.INTEGER:
        return int(re.sub(r"[^\d-]", "", stripped))
    if dtype in (DataType.FLOAT, DataType.TIMESTAMP):
        return float(stripped.replace(",", ""))
    if dtype is DataType.BOOLEAN:
        return stripped.lower() in ("true", "yes", "1")
    raise SchemaError(f"cannot coerce CSV/XML cell into {dtype.value}")
