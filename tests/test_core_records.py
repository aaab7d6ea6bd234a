"""Unit tests for Row and Table."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import DataType, Field, Schema, SchemaError, Table


def parts_schema():
    return Schema(
        "parts",
        (
            Field("part_id", DataType.STRING, nullable=False),
            Field("name", DataType.STRING),
            Field("qty", DataType.INTEGER),
        ),
    )


def parts_table():
    return Table(
        parts_schema(),
        [("p1", "bolt", 5), ("p2", "nut", 10), ("p3", "washer", None)],
    )


class TestRow:
    def test_name_based_access(self):
        row = next(iter(parts_table()))
        assert row["part_id"] == "p1"
        assert row["qty"] == 5

    def test_mapping_protocol(self):
        row = next(iter(parts_table()))
        assert set(row) == {"part_id", "name", "qty"}
        assert len(row) == 3
        assert row.to_dict() == {"part_id": "p1", "name": "bolt", "qty": 5}

    def test_values_tuple(self):
        row = next(iter(parts_table()))
        assert tuple(row.values()) == ("p1", "bolt", 5)


class TestTableConstruction:
    def test_rows_validated_on_construction(self):
        with pytest.raises(SchemaError):
            Table(parts_schema(), [("p1", "bolt", "five")])

    def test_validation_can_be_skipped(self):
        table = Table(parts_schema(), [("p1", "bolt", "five")], validate=False)
        assert len(table) == 1

    def test_from_dicts_fills_missing_with_none(self):
        table = Table.from_dicts(parts_schema(), [{"part_id": "p1", "name": "bolt"}])
        assert table.rows == [("p1", "bolt", None)]

    def test_to_dicts_round_trip(self):
        table = parts_table()
        rebuilt = Table.from_dicts(table.schema, table.to_dicts())
        assert rebuilt == table


class TestTableOperations:
    def test_column(self):
        assert parts_table().column("name") == ["bolt", "nut", "washer"]

    def test_project(self):
        projected = parts_table().project(["qty", "part_id"])
        assert projected.schema.field_names == ("qty", "part_id")
        assert projected.rows[0] == (5, "p1")

    def test_union_all(self):
        doubled = parts_table().union_all(parts_table())
        assert len(doubled) == 6

    def test_union_all_incompatible_rejected(self):
        with pytest.raises(SchemaError):
            parts_table().union_all(parts_table().project(["part_id"]))

    def test_limit(self):
        assert len(parts_table().limit(2)) == 2
        assert len(parts_table().limit(0)) == 0

    def test_limit_negative_rejected(self):
        with pytest.raises(ValueError):
            parts_table().limit(-1)

    def test_extended_renames_without_copying_rows(self):
        renamed = parts_table().extended("catalog")
        assert renamed.schema.name == "catalog"
        assert renamed == parts_table().extended("catalog")

    def test_equality_ignores_schema_name(self):
        a = parts_table()
        b = parts_table().extended("other_name")
        assert a == b

    @given(st.lists(st.tuples(st.text(min_size=1), st.text(), st.integers())))
    def test_project_then_project_is_stable(self, rows):
        table = Table(parts_schema(), rows, validate=False)
        once = table.project(["part_id", "qty"])
        twice = once.project(["part_id", "qty"])
        assert once == twice
        assert len(once) == len(table)
