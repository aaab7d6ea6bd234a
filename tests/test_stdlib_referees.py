"""The stdlib as referee for the hand-written XPath and HTML readers, and
for the CSV connector that now reads with it.

A case on which ours and the stdlib's still disagree is marked a strict
xfail: it turns XPASS (red) when ROADMAP item 5 makes the two agree, and
the mark goes then.
"""

import csv
import io
import xml.etree.ElementTree as ElementTree
from html.parser import HTMLParser

import pytest

from repro.connect.gateways import CsvConnector
from repro.core import DataType, Field, Schema
from repro.core.errors import SchemaError
from repro.htmlkit import parse_html
from repro.xmlkit import parse_xml, xpath

DIVERGES = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 5: ours and the stdlib's disagree",
)
# ``p`` children under two parents: a positional predicate is per parent.
TWO_PARENTS = "<r><a><p>1</p><p>2</p></a><b><p>3</p><p>4</p></b></r>"


@DIVERGES
@pytest.mark.parametrize("path", ["//p[1]", "//p[2]", "//p[last()]"])
def test_xpath_positional_predicates_match_elementtree(path):
    ours = [element.text for element in xpath(parse_xml(TWO_PARENTS), path)]
    theirs = ElementTree.fromstring(TWO_PARENTS).findall("." + path)
    assert ours == [element.text for element in theirs]


class _FirstTag(HTMLParser):
    def __init__(self):
        super().__init__()
        self.attrs, self.text = None, ""

    def handle_starttag(self, tag, attrs):
        self.attrs = self.attrs or dict(attrs)

    def handle_data(self, data):
        self.text += data


@DIVERGES
def test_html_quoted_gt_matches_html_parser():
    markup = "<p title='a>b'>t</p>"
    referee = _FirstTag()
    referee.feed(markup)
    referee.close()
    (paragraph,) = parse_html(markup).children
    assert (paragraph.attrs, paragraph.get_text()) == (referee.attrs, referee.text)


def test_csv_quoted_newline_matches_csv_reader():
    text = 'a,b\n"x\ny",z\n'
    schema = Schema("t", (Field("a", DataType.STRING), Field("b", DataType.STRING)))
    header, *rows = csv.reader(io.StringIO(text))
    try:
        ours = CsvConnector("t", schema, text).fetch().table.rows
    except SchemaError:
        ours = None
    assert ours == [tuple(row) for row in rows]
