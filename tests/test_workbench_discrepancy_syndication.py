"""Tests for discrepancy detection and custom syndication."""

import pytest

from repro.core import DataType, Field, Schema, Table
from repro.core.errors import SyndicationError
from repro.workbench import (
    AvailabilityRule,
    CrossFieldRule,
    DiscrepancyDetector,
    DuplicateKeyRule,
    FormatRule,
    MissingValueRule,
    PricingRule,
    RangeRule,
    Recipient,
    Syndicator,
)
from repro.workbench.syndication import LegislatedFormat
from repro.xmlkit import xpath


def catalog_schema():
    return Schema(
        "catalog",
        (
            Field("sku", DataType.STRING),
            Field("name", DataType.STRING),
            Field("price", DataType.FLOAT),
            Field("qty", DataType.INTEGER),
            Field("reserve_qty", DataType.INTEGER),
            Field("currency", DataType.STRING),
        ),
    )


def catalog_table():
    return Table(
        catalog_schema(),
        [
            ("A-1", "black ink", 5.0, 10, 2, "USD"),
            ("A-2", None, -3.0, 0, 5, "USD"),
            ("a 3", "hex bolt", 1.25, 40, 0, "USD"),
            ("A-1", "black ink dup", 5.0, 1, 0, "USD"),
        ],
    )


class TestDiscrepancyRules:
    def test_missing_value_rule(self):
        report = DiscrepancyDetector([MissingValueRule("name")]).run(catalog_table())
        assert len(report) == 1
        assert report.findings[0].row_index == 1
        assert report.findings[0].severity == "error"

    def test_missing_value_with_default_is_fixable(self):
        detector = DiscrepancyDetector([MissingValueRule("name", default="UNKNOWN")])
        report = detector.run(catalog_table())
        fixed = DiscrepancyDetector.apply_fixes(catalog_table(), report.fixable())
        assert fixed.column("name")[1] == "UNKNOWN"

    def test_range_rule_with_clamp(self):
        detector = DiscrepancyDetector([RangeRule("price", minimum=0.0, clamp=True)])
        report = detector.run(catalog_table())
        assert len(report) == 1
        fixed = DiscrepancyDetector.apply_fixes(catalog_table(), report.fixable())
        assert fixed.column("price")[1] == 0.0

    def test_format_rule_with_normalizer_suggestion(self):
        detector = DiscrepancyDetector(
            [FormatRule("sku", r"[A-Z]+-\d+", normalizer=lambda s: s.upper().replace(" ", "-"))]
        )
        report = detector.run(catalog_table())
        assert len(report) == 1
        assert report.findings[0].suggested_value == "A-3"

    def test_duplicate_key_rule(self):
        report = DiscrepancyDetector([DuplicateKeyRule(["sku"])]).run(catalog_table())
        assert len(report) == 1
        assert report.findings[0].row_index == 3

    def test_cross_field_rule(self):
        rule = CrossFieldRule(
            "reserve-needs-stockout",
            lambda row: row["reserve_qty"] == 0 or row["qty"] is not None,
            "reserve without qty",
        )
        assert len(DiscrepancyDetector([rule]).run(catalog_table())) == 0

    def test_report_aggregations(self):
        detector = DiscrepancyDetector(
            [MissingValueRule("name"), RangeRule("price", minimum=0.0, clamp=True),
             DuplicateKeyRule(["sku"])]
        )
        report = detector.run(catalog_table())
        assert len(report) == 3
        assert len(report.errors()) == 2
        assert len(report.fixable()) == 1
        assert [f.rule for f in report.findings].count("missing(name)") == 1

    def test_findings_sorted_by_row(self):
        detector = DiscrepancyDetector([DuplicateKeyRule(["sku"]), MissingValueRule("name")])
        report = detector.run(catalog_table())
        assert [f.row_index for f in report.findings] == sorted(
            f.row_index for f in report.findings
        )


class TestSyndication:
    def make_syndicator(self):
        return Syndicator(
            pricing_rules=[
                PricingRule.tier_discount("preferred", 10.0),
                PricingRule(
                    "bulk-ink-surcharge",
                    applies=lambda r, row: "ink" in (row.get("name") or ""),
                    adjust=lambda price, row: price + 0.5,
                    priority=50,
                ),
            ],
            availability_rules=[AvailabilityRule.bump_for_tier("platinum")],
            exchange_rates={"USD": 1.0, "FRF": 0.14},
        )

    def test_standard_buyer_gets_list_price_plus_surcharge(self):
        syndicator = self.make_syndicator()
        result = syndicator.syndicate(catalog_table(), Recipient("shop", tier="standard"))
        prices = result.table.column("price")
        assert prices[0] == pytest.approx(5.5)   # ink surcharge
        assert prices[2] == pytest.approx(1.25)  # bolt untouched

    def test_preferred_buyer_discount_composes_after_surcharge(self):
        syndicator = self.make_syndicator()
        result = syndicator.syndicate(catalog_table(), Recipient("big", tier="preferred"))
        # surcharge (priority 50) first, then 10% off: (5.0 + 0.5) * 0.9
        assert result.table.column("price")[0] == pytest.approx(4.95)

    def test_platinum_sees_bumped_availability(self):
        syndicator = self.make_syndicator()
        plain = syndicator.syndicate(catalog_table(), Recipient("s", tier="standard"))
        platinum = syndicator.syndicate(catalog_table(), Recipient("p", tier="platinum"))
        assert plain.table.column("qty")[1] == 0
        assert platinum.table.column("qty")[1] == 5  # reserve released

    def test_currency_conversion_per_recipient(self):
        syndicator = self.make_syndicator()
        result = syndicator.syndicate(
            catalog_table(), Recipient("paris", tier="standard", currency="FRF")
        )
        # 1.25 USD -> FRF at 1/0.14, then no surcharge for bolts
        assert result.table.column("price")[2] == pytest.approx(1.25 / 0.14, rel=1e-3)
        assert result.table.column("currency")[2] == "FRF"

    def test_missing_rate_rejected(self):
        syndicator = self.make_syndicator()
        with pytest.raises(SyndicationError):
            syndicator.syndicate(catalog_table(), Recipient("tokyo", currency="JPY"))

    def test_csv_output(self):
        syndicator = self.make_syndicator()
        result = syndicator.syndicate(
            catalog_table(), Recipient("s", output_format="csv")
        )
        lines = result.payload.splitlines()
        assert lines[0].startswith("sku,name,price")
        assert len(lines) == 5

    def test_csv_quotes_commas(self):
        table = Table(catalog_schema(), [("A-1", "ink, black", 1.0, 1, 0, "USD")])
        result = Syndicator().syndicate(table, Recipient("s", output_format="csv"))
        assert '"ink, black"' in result.payload

    def test_canonical_xml_output(self):
        syndicator = self.make_syndicator()
        result = syndicator.syndicate(catalog_table(), Recipient("s", output_format="xml"))
        assert result.payload.tag == "catalog"
        assert len(xpath(result.payload, "//item")) == 4

    def test_legislated_xml_output(self):
        contract = LegislatedFormat(
            root_tag="cbl:catalog",
            row_tag="cbl:product",
            field_map={"cbl:id": "sku", "cbl:amount": "price"},
        )
        syndicator = self.make_syndicator()
        result = syndicator.syndicate(
            catalog_table(),
            Recipient("market", output_format="xml", legislated=contract),
        )
        products = result.payload.child_elements("cbl:product")
        assert len(products) == 4
        assert products[0].first("cbl:id").text == "A-1"

    def test_legislated_format_missing_column_is_enablement_gap(self):
        contract = LegislatedFormat("c", "p", {"id": "ghost_column"})
        with pytest.raises(SyndicationError):
            Syndicator().syndicate(
                catalog_table(), Recipient("m", output_format="xml", legislated=contract)
            )

    def test_unknown_output_format_rejected(self):
        with pytest.raises(SyndicationError):
            Syndicator().syndicate(catalog_table(), Recipient("s", output_format="fax"))
