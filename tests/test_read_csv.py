"""Tests for ``read_csv``, the loader for a supplier's CSV extract."""

import pytest

from repro.connect.source import Predicate, StaticSource, read_csv
from repro.core import DataType, Field, Schema, SchemaError

CSV_TEXT = """sku,name,price,active
A-1,black ink,5.00,true
A-2,"ink, blue",6.50,false
A-3,"say ""hi"" pen",,yes
"""


def catalog_schema():
    return Schema(
        "catalog",
        (
            Field("sku", DataType.STRING),
            Field("name", DataType.STRING),
            Field("price", DataType.FLOAT),
            Field("active", DataType.BOOLEAN),
        ),
    )


class TestReadCsv:
    def test_parses_quoted_cells_and_types(self):
        rows = read_csv(catalog_schema(), CSV_TEXT).to_dicts()
        assert rows[1]["name"] == "ink, blue"
        assert rows[2]["name"] == 'say "hi" pen'
        assert rows[0]["price"] == 5.0
        assert rows[2]["price"] is None
        assert rows[0]["active"] is True
        assert rows[1]["active"] is False
        assert rows[2]["active"] is True  # "yes"

    def test_header_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            read_csv(catalog_schema(), "a,b,c,d\n1,2,3,4\n")
        with pytest.raises(SchemaError, match="header"):  # a headerless extract
            read_csv(catalog_schema(), "A-1,ink,1.0,true\n")

    def test_cell_count_mismatch_rejected(self):
        with pytest.raises(SchemaError, match="line 2 has 2 cells"):
            read_csv(catalog_schema(), "sku,name,price,active\nA-1,x\n")

    def test_blank_lines_skipped_and_empty_cells_null(self):
        text = "sku,name,price,active\n\n   \n,,,\nA-1,ink,1.0,true\n"
        rows = read_csv(catalog_schema(), text).rows
        assert rows == [(None, None, None, None), ("A-1", "ink", 1.0, True)]

    def test_predicates(self):
        source = StaticSource("csv", read_csv(catalog_schema(), CSV_TEXT))
        result = source.fetch([Predicate("active", "=", True)])
        assert result.table.column("sku") == ["A-1", "A-3"]


def one_cell(dtype, text):
    schema = Schema("t", (Field("sku", DataType.STRING), Field("v", dtype)))
    return read_csv(schema, f'sku,v\nA-1,"{text}"\n').rows[0][1]


@pytest.mark.parametrize(
    "dtype, text",
    [
        (DataType.INTEGER, "1.5"),  # read 15: every non-digit was dropped
        (DataType.INTEGER, "1e3"),  # read 13
        (DataType.FLOAT, "1,5"),  # read 15.0: every comma was dropped
        (DataType.INTEGER, "abc"),  # a bare ValueError
        (DataType.BOOLEAN, "maybe"),  # read False
    ],
)
def test_a_cell_its_column_cannot_hold_is_rejected(dtype, text):
    with pytest.raises(SchemaError, match=f"line 2, column 'v': cannot read '{text}'"):
        one_cell(dtype, text)


@pytest.mark.parametrize(
    "dtype, text, value",
    [
        (DataType.INTEGER, "1,200", 1200),
        (DataType.INTEGER, "-1,234,567", -1234567),
        (DataType.INTEGER, "+7", 7),
        (DataType.FLOAT, "1,234.5", 1234.5),
        (DataType.FLOAT, "-.5", -0.5),
        (DataType.FLOAT, "2.5e-3", 0.0025),
        (DataType.BOOLEAN, "TRUE", True),
        (DataType.BOOLEAN, "No", False),
        (DataType.BOOLEAN, "0", False),
    ],
)
def test_a_well_formed_cell_reads_as_its_value(dtype, text, value):
    assert one_cell(dtype, text) == value
