"""Unit tests for the tolerant HTML parser and navigation of the tree it builds."""

from repro.htmlkit import parse_html
from repro.xmlkit import XmlElement


class TestBasicParsing:
    def test_simple_nesting(self):
        doc = parse_html("<html><body><p>hello</p></body></html>")
        p = doc.find("p")
        assert p is not None
        assert p.get_text() == "hello"

    def test_attributes_double_single_and_unquoted(self):
        doc = parse_html('<a href="http://x" rel=\'nofollow\' target=_blank>link</a>')
        a = doc.find("a")
        assert a.get("href") == "http://x"
        assert a.get("rel") == "nofollow"
        assert a.get("target") == "_blank"

    def test_boolean_attribute(self):
        doc = parse_html("<input disabled>")
        assert doc.find("input").get("disabled") == ""

    def test_tag_and_attribute_names_lowercased(self):
        doc = parse_html('<DIV CLASS="Big">x</DIV>')
        div = doc.find("div")
        assert div is not None
        assert div.get("class") == "Big"

    def test_entities_decoded_in_text_and_attrs(self):
        doc = parse_html('<p title="a &amp; b">x &lt; y</p>')
        p = doc.find("p")
        assert p.get("title") == "a & b"
        assert p.get_text() == "x < y"

    def test_comment_dropped_text_on_either_side_kept(self):
        doc = parse_html("<p>a<!--c-->b</p>")
        assert doc.find("p").get_text(" ") == "a b"
        assert doc.find("p").children == ["a", "b"]

    def test_doctype_skipped(self):
        doc = parse_html("<!DOCTYPE html><html><body>x</body></html>")
        assert doc.find("html") is not None


class TestMalformedRecovery:
    def test_unclosed_tags_closed_at_eof(self):
        doc = parse_html("<div><p>dangling")
        assert doc.find("p").get_text() == "dangling"

    def test_stray_close_tag_ignored(self):
        doc = parse_html("<div></span>text</div>")
        assert doc.find("div").get_text() == "text"

    def test_void_elements_take_no_children(self):
        doc = parse_html("<p>a<br>b</p>")
        p = doc.find("p")
        assert p.get_text(separator=" ") == "a b"
        assert doc.find("br").children == []

    def test_self_closing_syntax(self):
        doc = parse_html("<div><img src='x.png'/><span>s</span></div>")
        assert doc.find("img").get("src") == "x.png"
        assert doc.find("span").get_text() == "s"

    def test_implicit_li_closing(self):
        doc = parse_html("<ul><li>one<li>two<li>three</ul>")
        items = doc.find_all("li")
        assert [li.get_text() for li in items] == ["one", "two", "three"]
        assert all(li.parent.tag == "ul" for li in items)

    def test_implicit_tr_td_closing(self):
        doc = parse_html("<table><tr><td>a<td>b<tr><td>c</table>")
        rows = doc.find_all("tr")
        assert len(rows) == 2
        assert [td.get_text() for td in rows[0].find_all("td")] == ["a", "b"]

    def test_script_content_is_raw_text(self):
        doc = parse_html("<script>if (a < b) { x(); }</script><p>after</p>")
        script = doc.find("script")
        assert "a < b" in script.get_text(strip=False)
        assert doc.find("p").get_text() == "after"

    def test_unterminated_script_consumes_rest(self):
        doc = parse_html("<script>var x = 1;")
        assert "var x = 1;" in doc.find("script").get_text(strip=False)

    def test_lone_left_angle_is_text(self):
        doc = parse_html("<p>5 < 6</p>")
        assert "<" in doc.find("p").get_text(separator=" ", strip=False)

    def test_empty_document(self):
        doc = parse_html("")
        assert doc.tag == "document"
        assert doc.children == []

    def test_mismatched_close_pops_to_match(self):
        doc = parse_html("<div><b><i>x</b>y</div>")
        div = doc.find("div")
        # </b> pops both <i> and <b>; "y" lands back in <div>.
        assert div.get_text(separator="|") == "x|y"


class TestNavigation:
    CATALOG = """
    <html><body>
      <table id="catalog" class="catalog wide">
        <tr class="item"><td class="sku">A-1</td><td class="price">$5.00</td></tr>
        <tr class="item"><td class="sku">A-2</td><td class="price">$7.50</td></tr>
      </table>
      <div id="footer">contact us</div>
    </body></html>
    """

    def test_find_all_by_tag(self):
        doc = parse_html(self.CATALOG)
        assert len(doc.find_all("tr")) == 2

    def test_find_all_by_class(self):
        doc = parse_html(self.CATALOG)
        assert len(doc.find_all("td", class_name="price")) == 2

    def test_find_all_by_attrs(self):
        doc = parse_html(self.CATALOG)
        assert doc.find_all("div", attrs={"id": "footer"})[0].get_text() == "contact us"

    def test_find_with_predicate(self):
        doc = parse_html(self.CATALOG)
        cell = doc.find("td", predicate=lambda e: "7.50" in e.get_text())
        assert cell.get_text() == "$7.50"

    def test_find_returns_none_when_absent(self):
        assert parse_html(self.CATALOG).find("video") is None

    def test_select_descendant_combinator(self):
        doc = parse_html(self.CATALOG)
        prices = doc.select("table.catalog tr td.price")
        assert [p.get_text() for p in prices] == ["$5.00", "$7.50"]

    def test_select_by_id(self):
        doc = parse_html(self.CATALOG)
        assert doc.select("#catalog")[0].tag == "table"

    def test_select_tag_with_id(self):
        doc = parse_html(self.CATALOG)
        assert doc.select("div#footer")[0].get_text() == "contact us"

    def test_select_star(self):
        doc = parse_html("<div><p class='x'>a</p><span class='x'>b</span></div>")
        assert len(doc.select("*.x")) == 2

    def test_classes_and_has_class(self):
        doc = parse_html(self.CATALOG)
        table = doc.find("table")
        assert table.classes == ["catalog", "wide"]
        assert "wide" in table.classes
        assert "narrow" not in table.classes

    def test_parents_are_wired(self):
        doc = parse_html(self.CATALOG)
        td = doc.find("td")
        assert td.parent.tag == "tr"
        assert td.parent.parent.tag == "table"

    def test_get_text_separator(self):
        doc = parse_html("<tr><td>a</td><td>b</td></tr>")
        assert doc.find("tr").get_text(separator=",") == "a,b"


class TestDomPrimitives:
    def test_append_sets_parent(self):
        parent = XmlElement("div")
        child = parent.append(XmlElement("span"))
        assert child.parent is parent
