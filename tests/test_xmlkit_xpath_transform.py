"""Unit tests for the XPath subset."""

import pytest

from repro.xmlkit import XPathError, parse_xml, xpath

CATALOG = parse_xml(
    """
<catalog market="mro">
  <supplier name="acme">
    <item sku="A-1"><name>black ink</name><price currency="USD">5.00</price></item>
    <item sku="A-2"><name>blue ink</name><price currency="USD">6.00</price></item>
  </supplier>
  <supplier name="bolt-co">
    <item sku="B-1" featured="yes"><name>hex bolt</name><price currency="FRF">30.00</price></item>
  </supplier>
</catalog>
"""
)


class TestPaths:
    def test_absolute_path(self):
        items = xpath(CATALOG, "/catalog/supplier/item")
        assert len(items) == 3

    def test_absolute_path_wrong_root_is_empty(self):
        assert xpath(CATALOG, "/warehouse/item") == []

    def test_relative_path_from_root_children(self):
        suppliers = xpath(CATALOG, "supplier")
        assert [s.get("name") for s in suppliers] == ["acme", "bolt-co"]

    def test_descendant_axis(self):
        assert len(xpath(CATALOG, "//item")) == 3
        assert len(xpath(CATALOG, "//name")) == 3

    def test_descendant_in_middle(self):
        prices = xpath(CATALOG, "/catalog//price")
        assert len(prices) == 3

    def test_wildcard(self):
        assert len(xpath(CATALOG, "/catalog/*")) == 2

    def test_text_extraction(self):
        names = xpath(CATALOG, "//item/name/text()")
        assert names == ["black ink", "blue ink", "hex bolt"]

    def test_attribute_extraction(self):
        skus = xpath(CATALOG, "//item/@sku")
        assert skus == ["A-1", "A-2", "B-1"]

    def test_dot_and_dotdot(self):
        names = xpath(CATALOG, "//price/../name/text()")
        assert len(names) == 3
        self_items = xpath(CATALOG, "//item/.")
        assert len(self_items) == 3


class TestPredicates:
    def test_attr_equals(self):
        items = xpath(CATALOG, "//supplier[@name='acme']/item")
        assert len(items) == 2

    def test_attr_exists(self):
        assert len(xpath(CATALOG, "//item[@featured]")) == 1

    def test_position(self):
        first = xpath(CATALOG, "/catalog/supplier[1]")
        assert first[0].get("name") == "acme"

    def test_last(self):
        last = xpath(CATALOG, "/catalog/supplier[last()]")
        assert last[0].get("name") == "bolt-co"

    def test_position_out_of_range_is_empty(self):
        assert xpath(CATALOG, "/catalog/supplier[9]") == []

    def test_child_exists(self):
        assert len(xpath(CATALOG, "//item[name]")) == 3

    def test_child_text_equals(self):
        items = xpath(CATALOG, "//item[name='hex bolt']")
        assert items[0].get("sku") == "B-1"

    def test_text_equals(self):
        names = xpath(CATALOG, "//name[text()='blue ink']")
        assert len(names) == 1

    def test_contains_attr(self):
        items = xpath(CATALOG, "//item[contains(@sku,'A-')]")
        assert len(items) == 2

    def test_contains_text(self):
        names = xpath(CATALOG, "//name[contains(text(),'ink')]")
        assert len(names) == 2

    def test_chained_predicates(self):
        items = xpath(CATALOG, "//item[contains(@sku,'A-')][2]")
        assert items[0].get("sku") == "A-2"


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        ["", "/", "//", "//item[", "//item[foo(]", "//@sku/name", "//text()/x"],
    )
    def test_invalid_paths_rejected(self, bad):
        with pytest.raises(XPathError):
            xpath(CATALOG, bad)

