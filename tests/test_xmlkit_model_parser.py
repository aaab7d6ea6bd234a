"""Unit tests for the XML model and strict parser."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.xmlkit import XmlElement, XmlParseError, parse_xml, xml_escape


class TestXmlElement:
    def test_builder_and_text(self):
        catalog = XmlElement("catalog")
        item = catalog.element("item", {"sku": "A-1"})
        item.append("bolt")
        assert catalog.first("item").text == "bolt"
        assert catalog.first("item").get("sku") == "A-1"

    def test_full_text_spans_subtree(self):
        root = parse_xml("<a>x<b>y</b>z</a>")
        assert root.get_text(strip=False) == "xyz"
        assert root.text == "xz"

    def test_child_elements_filter_by_tag(self):
        root = parse_xml("<r><a/><b/><a/></r>")
        assert len(root.child_elements("a")) == 2
        assert len(root.child_elements()) == 3

    def test_iter_descendants_document_order(self):
        root = parse_xml("<r><a><b/></a><c/></r>")
        assert [e.tag for e in root.iter_descendants()] == ["a", "b", "c"]

    def test_equality_is_structural(self):
        assert parse_xml("<a x='1'>t</a>") == parse_xml('<a x="1">t</a>')
        assert parse_xml("<a>t</a>") != parse_xml("<a>u</a>")

    def test_copy_is_deep(self):
        original = parse_xml("<a><b>x</b></a>")
        duplicate = original.copy()
        duplicate.first("b").children[0:1] = ["y"]
        assert original.first("b").text == "x"

    def test_parent_links(self):
        root = parse_xml("<a><b><c/></b></a>")
        c = root.first("b").first("c")
        assert c.parent.tag == "b"
        assert c.parent.parent is root


class TestSerialization:
    def test_round_trip(self):
        markup = '<catalog><item sku="A-1">bolt &amp; nut</item><empty/></catalog>'
        assert parse_xml(parse_xml(markup).to_string()) == parse_xml(markup)

    def test_empty_element_self_closes(self):
        assert XmlElement("a").to_string() == "<a/>"

    def test_attribute_escaping(self):
        element = XmlElement("a", {"t": 'x "y" & z'})
        assert parse_xml(element.to_string()).get("t") == 'x "y" & z'

    def test_pretty_print_indents(self):
        root = parse_xml("<a><b>x</b></a>")
        pretty = root.to_string(indent=2)
        assert "\n  <b>" in pretty
        assert parse_xml(pretty).first("b").text == "x"

    def test_xml_escape(self):
        assert xml_escape("<a & b>") == "&lt;a &amp; b&gt;"
        assert xml_escape('say "hi"', quote=True) == "say &quot;hi&quot;"


class TestStrictParsing:
    def test_declaration_and_comment_skipped(self):
        root = parse_xml('<?xml version="1.0"?><!-- c --><a>x</a>')
        assert root.tag == "a"

    def test_cdata_preserved_verbatim(self):
        root = parse_xml("<a><![CDATA[<not> & markup]]></a>")
        assert root.text == "<not> & markup"

    def test_numeric_character_references(self):
        assert parse_xml("<a>&#65;&#x42;</a>").text == "AB"

    def test_predefined_entities(self):
        assert parse_xml("<a>&lt;&gt;&amp;&quot;&apos;</a>").text == "<>&\"'"

    def test_namespaced_tags_are_opaque_names(self):
        root = parse_xml("<cbl:order><cbl:line/></cbl:order>")
        assert root.tag == "cbl:order"
        assert root.first("cbl:line") is not None

    @pytest.mark.parametrize(
        "bad",
        [
            "<a><b></a></b>",  # mismatched nesting
            "<a>",  # unclosed
            "</a>",  # close without open
            "<a></a><b></b>",  # two roots
            "text only",  # no root
            "",  # empty
            "<a>&nope;</a>",  # unknown entity
            "<a x='1' x='2'/>",  # duplicate attribute
            "<a x=unquoted/>",  # unquoted attribute
            "<1tag/>",  # invalid name
            "<a><![CDATA[open</a>",  # unterminated CDATA
            "<!-- unterminated",  # unterminated comment
            "<a>x & y</a>",  # bare ampersand
            "<a b='<'/>",  # '<' in an attribute value
            "<a>]]></a>",  # CDATA end outside a CDATA section
            "<a>&#0;</a>",  # reference to a character XML does not allow
            "<a>&#xD800;</a>",  # reference to a surrogate
            "<a b='1'c='2'/>",  # no space between attributes
            "<a>\x01</a>",  # control character
            "<a><!-- x -- y --></a>",  # '--' inside a comment
            "<a>\ud800</a>",  # lone surrogate in the string
        ],
    )
    def test_malformed_documents_rejected(self, bad):
        with pytest.raises(XmlParseError):
            parse_xml(bad)

    def test_error_carries_position(self):
        with pytest.raises(XmlParseError) as excinfo:
            parse_xml("<a><b></c></a>")
        assert excinfo.value.position > 0

    def test_error_position_counts_characters_not_bytes(self):
        positions = []
        for markup in ("<a>e<b></c></a>", "<a>é<b></c></a>"):
            with pytest.raises(XmlParseError) as excinfo:
                parse_xml(markup)
            positions.append(excinfo.value.position)
        assert positions[0] == positions[1]

    def test_non_ascii_names_and_text(self):
        root = parse_xml("<é>ü</é>")
        assert (root.tag, root.text) == ("é", "ü")

    def test_adjacent_text_is_one_child_and_cdata_its_own(self):
        root = parse_xml("<a>x&amp;<!-- c -->y<![CDATA[<z>]]>w<b/>v</a>")
        assert root.children == ["x&y", "<z>", "w", XmlElement("b"), "v"]

    def test_whitespace_outside_root_allowed(self):
        assert parse_xml("  <a/>  \n").tag == "a"

    def test_text_outside_root_rejected(self):
        with pytest.raises(XmlParseError):
            parse_xml("<a/>trailing")


# XML's end-of-line and attribute-value normalisation rewrite a literal
# \r, and a tab or newline inside an attribute; the escaping must survive it.
WHITESPACE_AND_PRINTABLE = st.characters(
    min_codepoint=32, max_codepoint=126, include_characters="\t\n\r"
)


@st.composite
def xml_trees(draw, depth=0):
    tag = draw(st.sampled_from(["a", "b", "c", "item", "price"]))
    attrs = draw(
        st.dictionaries(
            st.sampled_from(["x", "y", "sku"]),
            st.text(alphabet=WHITESPACE_AND_PRINTABLE, max_size=8),
            max_size=2,
        )
    )
    element = XmlElement(tag, attrs)
    if depth < 2:
        for child in draw(st.lists(xml_trees(depth=depth + 1), max_size=3)):
            element.append(child)
    text = draw(st.text(alphabet=WHITESPACE_AND_PRINTABLE, max_size=10))
    if text:
        element.append(text)
    return element


class TestRoundTripProperty:
    @given(xml_trees())
    def test_serialize_parse_round_trip(self, tree):
        assert parse_xml(tree.to_string()) == tree
