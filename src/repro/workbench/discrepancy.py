"""Discrepancy detection: rules that find data problems and guide fixes.

The Cohera Workbench "includes rules for detecting data discrepancies and
guiding the content manager through the task of fixing them" (§4).  A
:class:`DiscrepancyDetector` runs a rule set over a table and produces a
:class:`DiscrepancyReport` listing every finding with its row, column,
severity and (when the rule can propose one) a suggested fix the manager
can apply with one call.
"""

from __future__ import annotations

import abc
import math
import re
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.core.records import Row, Table


@dataclass(frozen=True)
class Discrepancy:
    """One detected problem."""

    rule: str
    row_index: int
    column: str
    message: str
    severity: str = "warning"  # "warning" | "error"
    suggested_value: Any = None
    has_suggestion: bool = False


class DiscrepancyRule(abc.ABC):
    """One check over a table."""

    name: str

    @abc.abstractmethod
    def check(self, table: Table) -> list[Discrepancy]:
        ...


class MissingValueRule(DiscrepancyRule):
    """Flags None (or blank string) values in a required column."""

    def __init__(self, column: str, default: Any = None) -> None:
        self.column = column
        self.default = default
        self.name = f"missing({column})"

    def check(self, table: Table) -> list[Discrepancy]:
        index = table.schema.index_of(self.column)
        findings = []
        for i, row in enumerate(table.rows):
            value = row[index]
            if value is None or (isinstance(value, str) and not value.strip()):
                findings.append(
                    Discrepancy(
                        self.name, i, self.column,
                        f"row {i}: {self.column!r} is missing",
                        severity="error",
                        suggested_value=self.default,
                        has_suggestion=self.default is not None,
                    )
                )
        return findings


class RangeRule(DiscrepancyRule):
    """Flags numeric values outside [minimum, maximum]."""

    def __init__(
        self,
        column: str,
        minimum: float | None = None,
        maximum: float | None = None,
        clamp: bool = False,
    ) -> None:
        self.column = column
        self.minimum = minimum
        self.maximum = maximum
        self.clamp = clamp
        self.name = f"range({column})"

    def check(self, table: Table) -> list[Discrepancy]:
        index = table.schema.index_of(self.column)
        findings = []
        for i, row in enumerate(table.rows):
            value = row[index]
            if value is None or not isinstance(value, (int, float)) or math.isnan(value):
                continue
            clamped = value
            if self.minimum is not None and value < self.minimum:
                clamped = self.minimum
            if self.maximum is not None and value > self.maximum:
                clamped = self.maximum
            if clamped != value:
                findings.append(
                    Discrepancy(
                        self.name, i, self.column,
                        f"row {i}: {self.column}={value!r} outside "
                        f"[{self.minimum}, {self.maximum}]",
                        suggested_value=clamped if self.clamp else None,
                        has_suggestion=self.clamp,
                    )
                )
        return findings


class FormatRule(DiscrepancyRule):
    """Flags string values not matching a regular expression."""

    def __init__(self, column: str, pattern: str, normalizer: Callable[[str], str] | None = None) -> None:
        self.column = column
        self.pattern = re.compile(pattern)
        self.normalizer = normalizer
        self.name = f"format({column})"

    def check(self, table: Table) -> list[Discrepancy]:
        index = table.schema.index_of(self.column)
        findings = []
        for i, row in enumerate(table.rows):
            value = row[index]
            if value is None or not isinstance(value, str):
                continue
            if self.pattern.fullmatch(value):
                continue
            suggestion = None
            if self.normalizer is not None:
                candidate = self.normalizer(value)
                if self.pattern.fullmatch(candidate):
                    suggestion = candidate
            findings.append(
                Discrepancy(
                    self.name, i, self.column,
                    f"row {i}: {self.column}={value!r} does not match expected format",
                    suggested_value=suggestion,
                    has_suggestion=suggestion is not None,
                )
            )
        return findings


class DuplicateKeyRule(DiscrepancyRule):
    """Flags rows whose key columns repeat an earlier row's key."""

    def __init__(self, columns: Sequence[str]) -> None:
        self.columns = list(columns)
        self.name = f"duplicate({', '.join(columns)})"

    def check(self, table: Table) -> list[Discrepancy]:
        indexes = [table.schema.index_of(c) for c in self.columns]
        seen: dict[tuple, int] = {}
        findings = []
        for i, row in enumerate(table.rows):
            key = tuple(row[j] for j in indexes)
            if key in seen:
                findings.append(
                    Discrepancy(
                        self.name, i, self.columns[0],
                        f"row {i}: key {key!r} duplicates row {seen[key]}",
                        severity="error",
                    )
                )
            else:
                seen[key] = i
        return findings


class CrossFieldRule(DiscrepancyRule):
    """Flags rows violating an arbitrary cross-column invariant."""

    def __init__(self, name: str, predicate: Callable[[Row], bool], message: str) -> None:
        self.name = name
        self.predicate = predicate
        self.message = message

    def check(self, table: Table) -> list[Discrepancy]:
        findings = []
        for i, row in enumerate(table):
            if not self.predicate(row):
                findings.append(
                    Discrepancy(self.name, i, "*", f"row {i}: {self.message}")
                )
        return findings


@dataclass
class DiscrepancyReport:
    """All findings of one detector run, with fix support."""

    findings: list[Discrepancy]

    def __len__(self) -> int:
        return len(self.findings)

    def errors(self) -> list[Discrepancy]:
        return [f for f in self.findings if f.severity == "error"]

    def fixable(self) -> list[Discrepancy]:
        return [f for f in self.findings if f.has_suggestion]


class DiscrepancyDetector:
    """Runs a rule set and (optionally) applies suggested fixes."""

    def __init__(self, rules: Sequence[DiscrepancyRule] = ()) -> None:
        self.rules: list[DiscrepancyRule] = list(rules)

    def run(self, table: Table) -> DiscrepancyReport:
        findings: list[Discrepancy] = []
        for rule in self.rules:
            findings.extend(rule.check(table))
        findings.sort(key=lambda f: (f.row_index, f.column, f.rule))
        return DiscrepancyReport(findings)

    @staticmethod
    def apply_fixes(table: Table, findings: Sequence[Discrepancy]) -> Table:
        """Return a copy of ``table`` with all suggested values applied."""
        rows = [list(row) for row in table.rows]
        for finding in findings:
            if not finding.has_suggestion:
                continue
            column_index = table.schema.index_of(finding.column)
            rows[finding.row_index][column_index] = finding.suggested_value
        fixed = Table(table.schema, validate=False)
        fixed.rows = [tuple(row) for row in rows]
        return fixed
