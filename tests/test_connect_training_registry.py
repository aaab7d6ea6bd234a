"""Tests for the wrapper training session and the UDDI-like registry."""

import pytest

from repro.connect import (
    SupplierListing,
    SupplierRegistry,
    WrapperTrainingSession,
)
from repro.core import DataType, Field, Schema
from repro.core.errors import WrapperError


def render_page(records):
    rows = "".join(
        f"<tr><td class='s'>{r['sku']}</td><td class='n'>{r['name']}</td></tr>"
        for r in records
    )
    return f"<html><body><table>{rows}</table></body></html>"


RECORDS = [
    {"sku": "A-1", "name": "black ink"},
    {"sku": "A-2", "name": "blue ink"},
    {"sku": "A-3", "name": "hex bolt"},
]


class TestWrapperTrainingSession:
    def test_mark_then_accept(self):
        session = WrapperTrainingSession(("sku", "name"), render_page(RECORDS))
        proposal = session.mark_record(RECORDS[0])
        assert proposal.learned
        assert proposal.records == RECORDS
        wrapper = session.accept()
        assert wrapper.extract(render_page(RECORDS)) == RECORDS
        assert session.human_actions == 2  # one mark + one accept

    def test_accept_before_learning_rejected(self):
        session = WrapperTrainingSession(("sku",), render_page(RECORDS))
        with pytest.raises(WrapperError):
            session.accept()

    def test_mark_after_accept_rejected(self):
        session = WrapperTrainingSession(("sku", "name"), render_page(RECORDS))
        session.mark_record(RECORDS[0])
        session.accept()
        with pytest.raises(WrapperError):
            session.mark_record(RECORDS[1])


def integrator_schema():
    return Schema(
        "catalog",
        (
            Field("sku", DataType.STRING),
            Field("name", DataType.STRING),
            Field("price", DataType.FLOAT),
            Field("qty", DataType.INTEGER),
        ),
    )


def make_registry():
    from repro.workbench import SynonymTable

    field_synonyms = SynonymTable()
    field_synonyms.add_group(["sku", "part_num", "part number"])
    registry = SupplierRegistry(field_synonyms=field_synonyms)
    registry.publish(
        SupplierListing(
            "acme", "acme.example", "http://acme.example/catalog", "scrape",
            fields=("sku", "name", "price", "qty"), layout_hint="table",
        )
    )
    registry.publish(
        SupplierListing(
            "paris-bureau", "pb.example", "http://pb.example/catalog", "scrape",
            fields=("part_num", "part_name", "unit_price", "stock_qty"),
            layout_hint="divs", currency="FRF", price_style="code-suffix",
        )
    )
    registry.publish(
        SupplierListing(
            "weird-co", "weird.example", "http://weird.example/feed", "file",
            fields=("zzz", "yyy"),
        )
    )
    return registry


class TestSupplierRegistry:
    def test_publish_and_listing(self):
        registry = make_registry()
        assert len(registry) == 3
        assert registry.listing("acme").layout_hint == "table"

    def test_unknown_listing_rejected(self):
        with pytest.raises(WrapperError):
            make_registry().listing("ghost")

    def test_empty_fields_rejected(self):
        with pytest.raises(WrapperError):
            SupplierRegistry().publish(
                SupplierListing("x", "x.example", "http://x.example", "file", ())
            )

    def test_discover_by_required_fields(self):
        registry = make_registry()
        found = registry.discover(required_fields={"sku", "price"})
        names = [listing.supplier for listing in found]
        assert "acme" in names
        assert "paris-bureau" in names  # approximate name match
        assert "weird-co" not in names

    def test_discover_by_access(self):
        registry = make_registry()
        assert [listing.supplier
                for listing in registry.discover(access="file")] == ["weird-co"]

    def test_enablement_plan_auto_for_exact_names(self):
        registry = make_registry()
        plan = registry.enablement_plan("acme", integrator_schema())
        assert plan.automatic
        assert plan.field_mapping == {
            "sku": "sku", "name": "name", "price": "price", "qty": "qty"
        }

    def test_enablement_plan_maps_renamed_fields(self):
        registry = make_registry()
        plan = registry.enablement_plan("paris-bureau", integrator_schema())
        mapping = plan.field_mapping
        review_targets = {s.source_code for s in plan.needs_review}
        # Every integrator field is either mapped or queued for review.
        assert set(mapping.values()) | review_targets == {
            "sku", "name", "price", "qty"
        }
        assert not plan.unmapped

    def test_enablement_plan_reports_gaps(self):
        registry = make_registry()
        plan = registry.enablement_plan("weird-co", integrator_schema())
        assert not plan.automatic
        assert set(plan.unmapped) | {s.source_code for s in plan.needs_review} == {
            "sku", "name", "price", "qty"
        }
