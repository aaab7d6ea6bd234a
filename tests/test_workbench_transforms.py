"""Tests for the transform pipeline and lineage tracking."""

import pytest

from repro.core import DataType, Field, Money, Schema, Table, TransformError
from repro.workbench import (
    AddColumn,
    CastColumn,
    DropColumns,
    FilterRows,
    MapColumn,
    MergeColumns,
    Pipeline,
    ProjectColumns,
    RenameColumns,
    ScriptStep,
    SplitColumn,
)
from repro.workbench.normalize import parse_price


def raw_schema():
    return Schema(
        "acme_raw",
        (
            Field("sku", DataType.STRING),
            Field("item", DataType.STRING),
            Field("price_raw", DataType.STRING),
            Field("qty_raw", DataType.STRING),
        ),
    )


def raw_table():
    return Table(
        raw_schema(),
        [
            ("A-1", "black ink", "$5.00", "10"),
            ("A-2", "blue ink", "5,50 FRF", "0"),
            ("A-3", "hex bolt", "$1.25", "40"),
        ],
    )


class TestIndividualSteps:
    def test_rename(self):
        result = Pipeline("p", [RenameColumns({"item": "part_name"})]).run(raw_table())
        assert result.table.schema.has_field("part_name")
        assert result.lineage.explain("part_name")[0] == "source acme_raw(item)"

    def test_rename_missing_column_fails(self):
        with pytest.raises(Exception):
            Pipeline("p", [RenameColumns({"ghost": "x"})]).run(raw_table())

    def test_project_and_drop(self):
        result = Pipeline("p", [ProjectColumns(["sku", "item"])]).run(raw_table())
        assert result.table.schema.field_names == ("sku", "item")
        result2 = Pipeline("p", [DropColumns(["qty_raw"])]).run(raw_table())
        assert not result2.table.schema.has_field("qty_raw")

    def test_cast_to_integer(self):
        result = Pipeline("p", [CastColumn("qty_raw", DataType.INTEGER)]).run(raw_table())
        assert result.table.column("qty_raw") == [10, 0, 40]
        assert result.table.schema.field_named("qty_raw").dtype is DataType.INTEGER

    def test_cast_failure_carries_value(self):
        bad = Table(raw_schema(), [("A", "x", "p", "not-a-number")])
        with pytest.raises(TransformError) as excinfo:
            Pipeline("p", [CastColumn("qty_raw", DataType.INTEGER)]).run(bad)
        assert "not-a-number" in str(excinfo.value)

    def test_cast_custom_converter(self):
        result = Pipeline(
            "p", [CastColumn("price_raw", DataType.MONEY, converter=parse_price)]
        ).run(raw_table())
        assert result.table.column("price_raw")[0] == Money(5.0, "USD")

    def test_cast_none_passes_through(self):
        table = Table(raw_schema(), [("A", "x", None, "1")])
        result = Pipeline("p", [CastColumn("price_raw", DataType.FLOAT)]).run(table)
        assert result.table.column("price_raw") == [None]

    def test_map_column(self):
        result = Pipeline(
            "p", [MapColumn("item", str.upper, description="uppercase(item)")]
        ).run(raw_table())
        assert result.table.column("item")[0] == "BLACK INK"
        assert "uppercase(item)" in result.lineage.explain("item")

    def test_add_column(self):
        step = AddColumn(
            "label", DataType.STRING,
            fn=lambda row: f"{row['sku']}:{row['item']}",
            inputs=("sku", "item"),
        )
        result = Pipeline("p", [step]).run(raw_table())
        assert result.table.column("label")[0] == "A-1:black ink"
        assert set(result.lineage.columns["label"].source_columns) == {"sku", "item"}

    def test_split_column(self):
        result = Pipeline("p", [SplitColumn("sku", ["family", "number"], "-")]).run(raw_table())
        assert result.table.column("family") == ["A", "A", "A"]
        assert result.table.column("number") == ["1", "2", "3"]
        assert not result.table.schema.has_field("sku")
        assert result.lineage.columns["family"].source_columns == ("sku",)

    def test_split_pads_missing_parts(self):
        table = Table(raw_schema(), [("NODASH", "x", "1", "1")])
        result = Pipeline("p", [SplitColumn("sku", ["a", "b"], "-")]).run(table)
        assert result.table.column("b") == [None]

    def test_merge_columns(self):
        result = Pipeline(
            "p", [MergeColumns(["sku", "item"], "title", joiner=" | ")]
        ).run(raw_table())
        assert result.table.column("title")[0] == "A-1 | black ink"
        assert set(result.lineage.columns["title"].source_columns) == {"sku", "item"}

    def test_filter_rows_updates_row_origins(self):
        result = Pipeline(
            "p", [FilterRows(lambda row: row["qty_raw"] != "0", "drop out-of-stock")]
        ).run(raw_table())
        assert len(result.table) == 2
        assert result.lineage.origin_of(1).row_index == 2  # A-3 was source row 2


class TestScriptStep:
    def test_row_preserving_script_keeps_lineage(self):
        def shout(table):
            index = table.schema.index_of("item")
            out = Table(table.schema, validate=False)
            out.rows = [r[:index] + (r[index].upper(),) + r[index + 1:] for r in table.rows]
            return out

        result = Pipeline("p", [ScriptStep(shout, "shout")]).run(raw_table())
        assert not result.lineage.broken
        assert result.lineage.origin_of(0).row_index == 0

    def test_row_changing_script_breaks_lineage(self):
        def dedupe(table):
            out = Table(table.schema, validate=False)
            out.rows = table.rows[:1]
            return out

        result = Pipeline("p", [ScriptStep(dedupe, "dedupe")]).run(raw_table())
        assert result.lineage.broken
        with pytest.raises(LookupError):
            result.lineage.origin_of(0)

    def test_script_must_return_table(self):
        with pytest.raises(TransformError):
            Pipeline("p", [ScriptStep(lambda t: None, "bad")]).run(raw_table())


class TestFullPipeline:
    def make_pipeline(self):
        return Pipeline(
            "acme-normalize",
            [
                RenameColumns({"item": "part_name"}),
                CastColumn("qty_raw", DataType.INTEGER),
                RenameColumns({"qty_raw": "qty"}),
                CastColumn("price_raw", DataType.MONEY, converter=parse_price),
                RenameColumns({"price_raw": "price"}),
                FilterRows(lambda row: row["qty"] > 0, "in-stock only"),
            ],
        )

    def test_end_to_end(self):
        result = self.make_pipeline().run(raw_table(), source_name="acme")
        assert result.table.schema.field_names == ("sku", "part_name", "price", "qty")
        assert len(result.table) == 2

    def test_lineage_explains_full_chain(self):
        result = self.make_pipeline().run(raw_table(), source_name="acme")
        chain = result.lineage.explain("price")
        assert chain[0] == "source acme(price_raw)"
        assert any("cast" in step for step in chain)
        assert any("in-stock" in step for step in chain)

    def test_row_provenance_after_filter(self):
        result = self.make_pipeline().run(raw_table(), source_name="acme")
        origins = [result.lineage.origin_of(i) for i in range(len(result.table))]
        assert [o.row_index for o in origins] == [0, 2]
        assert all(o.source == "acme" for o in origins)

    def test_describe_lists_steps(self):
        descriptions = self.make_pipeline().describe()
        assert len(descriptions) == 6
        assert descriptions[0].startswith("rename")

    def test_unknown_lineage_column_raises(self):
        result = self.make_pipeline().run(raw_table())
        with pytest.raises(LookupError):
            result.lineage.explain("ghost")
