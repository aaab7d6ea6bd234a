"""Tests for ERP gateways and the CSV/XML file connectors."""

import pytest

from repro.connect import CsvConnector, ErpGateway, ErpSystem, XmlConnector
from repro.connect.source import Predicate
from repro.core import DataType, Field, Schema, SchemaError, Table
from repro.core.errors import SourceUnavailableError, WrapperError
from repro.sim import SimClock


def orders_schema():
    return Schema(
        "orders",
        (
            Field("order_id", DataType.STRING),
            Field("sku", DataType.STRING),
            Field("qty", DataType.INTEGER),
        ),
    )


def make_erp():
    clock = SimClock()
    erp = ErpSystem("sap-acme", clock)
    erp.load_table(
        Table(
            orders_schema(),
            [("o1", "A-1", 5), ("o2", "A-2", 2), ("o3", "A-1", 9)],
        )
    )
    return clock, erp


class TestErpSystem:
    def test_query_returns_table(self):
        _, erp = make_erp()
        assert len(erp.query("orders")) == 3

    def test_query_charges_time(self):
        clock, erp = make_erp()
        erp.query("orders")
        assert clock.now() == pytest.approx(0.05 + 3 * 0.0001)

    def test_predicates_pushed_down(self):
        _, erp = make_erp()
        table = erp.query("orders", [Predicate("sku", "=", "A-1")])
        assert table.column("order_id") == ["o1", "o3"]

    def test_unknown_table_rejected(self):
        _, erp = make_erp()
        with pytest.raises(WrapperError):
            erp.query("ghosts")

    def test_down_erp_raises(self):
        _, erp = make_erp()
        erp.up = False
        with pytest.raises(SourceUnavailableError):
            erp.query("orders")

    def test_update_rows_is_visible(self):
        _, erp = make_erp()
        erp.update_rows("orders", Table(orders_schema(), [("o9", "B-1", 1)]))
        assert erp.query("orders").column("order_id") == ["o9"]


class TestErpGateway:
    def test_fetch_reports_cost(self):
        _, erp = make_erp()
        gateway = ErpGateway("acme-orders", erp, "orders")
        result = gateway.fetch()
        assert len(result.table) == 3
        assert result.cost_seconds > 0

    def test_gateway_estimates(self):
        _, erp = make_erp()
        gateway = ErpGateway("acme-orders", erp, "orders")
        assert gateway.estimated_rows() == 3
        assert gateway.estimated_cost() == pytest.approx(0.05 + 3 * 0.0001)

    def test_availability_tracks_erp(self):
        _, erp = make_erp()
        gateway = ErpGateway("acme-orders", erp, "orders")
        erp.up = False
        assert not gateway.is_available()


CSV_TEXT = """sku,name,price,active
A-1,black ink,5.00,true
A-2,"ink, blue",6.50,false
A-3,"say ""hi"" pen",,yes
"""


class TestCsvConnector:
    def schema(self):
        return Schema(
            "catalog",
            (
                Field("sku", DataType.STRING),
                Field("name", DataType.STRING),
                Field("price", DataType.FLOAT),
                Field("active", DataType.BOOLEAN),
            ),
        )

    def test_parses_quoted_cells_and_types(self):
        connector = CsvConnector("csv", self.schema(), CSV_TEXT)
        rows = connector.fetch().table.to_dicts()
        assert rows[1]["name"] == "ink, blue"
        assert rows[2]["name"] == 'say "hi" pen'
        assert rows[0]["price"] == 5.0
        assert rows[2]["price"] is None
        assert rows[0]["active"] is True
        assert rows[1]["active"] is False
        assert rows[2]["active"] is True  # "yes"

    def test_header_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            CsvConnector("csv", self.schema(), "a,b,c,d\n1,2,3,4\n")

    def test_cell_count_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            CsvConnector("csv", self.schema(), "sku,name,price,active\nA-1,x\n")

    def test_blank_lines_skipped_and_empty_cells_null(self):
        text = "sku,name,price,active\n\n   \n,,,\nA-1,ink,1.0,true\n"
        rows = CsvConnector("csv", self.schema(), text).fetch().table.rows
        assert rows == [(None, None, None, None), ("A-1", "ink", 1.0, True)]

    def test_no_header_mode(self):
        connector = CsvConnector(
            "csv", self.schema(), "A-1,ink,1.0,true\n", has_header=False
        )
        assert len(connector.fetch().table) == 1

    def test_predicates(self):
        connector = CsvConnector("csv", self.schema(), CSV_TEXT)
        result = connector.fetch([Predicate("active", "=", True)])
        assert result.table.column("sku") == ["A-1", "A-3"]


XML_TEXT = """
<catalog>
  <item sku="A-1"><name>black ink</name><price>5.00</price><qty>10</qty></item>
  <item sku="A-2"><name>blue ink</name><price>6.50</price><qty>3</qty></item>
</catalog>
"""


class TestXmlConnector:
    def schema(self):
        return Schema(
            "catalog",
            (
                Field("sku", DataType.STRING),
                Field("name", DataType.STRING),
                Field("price", DataType.FLOAT),
                Field("qty", DataType.INTEGER),
            ),
        )

    def make(self):
        return XmlConnector(
            "xml",
            self.schema(),
            XML_TEXT,
            row_path="//item",
            field_paths={
                "sku": "@sku",
                "name": "name/text()",
                "price": "price/text()",
                "qty": "qty/text()",
            },
        )

    def test_extracts_rows(self):
        rows = self.make().fetch().table.to_dicts()
        assert rows == [
            {"sku": "A-1", "name": "black ink", "price": 5.0, "qty": 10},
            {"sku": "A-2", "name": "blue ink", "price": 6.5, "qty": 3},
        ]

    def test_missing_field_path_rejected(self):
        with pytest.raises(SchemaError):
            XmlConnector("xml", self.schema(), XML_TEXT, "//item", {"sku": "@sku"})

    def test_absent_path_yields_none(self):
        connector = XmlConnector(
            "xml",
            Schema("c", (Field("sku", DataType.STRING), Field("color", DataType.STRING))),
            XML_TEXT,
            "//item",
            {"sku": "@sku", "color": "color/text()"},
        )
        assert connector.fetch().table.column("color") == [None, None]

    def test_element_path_yields_text(self):
        connector = XmlConnector(
            "xml",
            Schema("c", (Field("name", DataType.STRING),)),
            XML_TEXT,
            "//item",
            {"name": "name"},
        )
        assert connector.fetch().table.column("name") == ["black ink", "blue ink"]


class TestXsltCustomizedWrapper:
    """§4: "expert users can also customize wrappers directly with XSLT"."""

    AWKWARD_FEED = """
    <feed>
      <entry kind="product" code="A-1"><label>black ink</label></entry>
      <entry kind="banner" code="x"><label>SALE SALE SALE</label></entry>
      <entry kind="product" code="A-2"><label>hex bolt</label></entry>
    </feed>
    """

    def test_transformer_reshapes_before_extraction(self):
        from repro.xmlkit import XmlElement, XmlTransformer

        stylesheet = XmlTransformer()
        stylesheet.add_rule("entry[kind=banner]", lambda e, t: [])  # drop ads

        @stylesheet.rule("entry")
        def to_item(element, t):
            item = XmlElement("item", {"sku": element.get("code") or ""})
            name = XmlElement("name")
            label = element.first("label")
            if label is not None:
                name.append(label.text)
            item.append(name)
            return [item]

        connector = XmlConnector(
            "feed",
            Schema("feed", (Field("sku", DataType.STRING),
                            Field("name", DataType.STRING))),
            self.AWKWARD_FEED,
            row_path="//item",
            field_paths={"sku": "@sku", "name": "name/text()"},
            transformer=stylesheet,
        )
        assert connector.fetch().table.to_dicts() == [
            {"sku": "A-1", "name": "black ink"},
            {"sku": "A-2", "name": "hex bolt"},
        ]
