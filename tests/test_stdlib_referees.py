"""The stdlib as referee for XPath, and for the HTML and CSV readers built
on it.

``html.parser`` tokenizes our HTML, so the cases below pin what the tree
builder makes of the tokens.  ``csv`` reads our CSV records, but the typed
cells and NULLs are ours: rows ``csv.writer`` writes must come back from
``read_csv`` unchanged.  XPath is still ours: a grammar of the supported
subset is checked against ``ElementTree.findall`` on generated documents.
"""

import csv
import io
import xml.etree.ElementTree as ElementTree
from html.parser import HTMLParser

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.connect.source import read_csv
from repro.core import DataType, Field, Schema
from repro.core.errors import SchemaError
from repro.htmlkit import parse_html
from repro.xmlkit import XmlElement, parse_xml, xpath

# ``p`` children under two parents: a positional predicate is per parent.
TWO_PARENTS = "<r><a><p>1</p><p>2</p></a><b><p>3</p><p>4</p></b></r>"


@pytest.mark.parametrize("path", ["//p[1]", "//p[2]", "//p[last()]"])
def test_xpath_positional_predicates_match_elementtree(path):
    ours = [element.text for element in xpath(parse_xml(TWO_PARENTS), path)]
    theirs = ElementTree.fromstring(TWO_PARENTS).findall("." + path)
    assert ours == [element.text for element in theirs]


TAGS = ["a", "b"]
VALUES = ["", "u", "v", "uv"]


@st.composite
def documents(draw, depth=0):
    """An element tree; ``n`` attributes are added by :func:`numbered`."""
    element = XmlElement(draw(st.sampled_from(TAGS)))
    element.attrs.update(
        draw(st.dictionaries(st.sampled_from(["x", "y"]), st.sampled_from(VALUES), max_size=2))
    )
    children = st.sampled_from(VALUES[1:])
    if depth < 3:
        children = st.one_of(children, documents(depth=depth + 1))
    for child in draw(st.lists(children, min_size=int(depth < 2), max_size=4)):
        element.append(child)
    return element


def numbered(root):
    """Serialize ``root`` with each element's document-order number as ``n``."""
    for number, element in enumerate([root, *root.iter_descendants()]):
        element.attrs["n"] = str(number)
    return root.to_string()


def literal():
    return st.sampled_from(VALUES).map(lambda value: f"'{value}'")


# (ours, ElementTree's) for each predicate both evaluate.
FILTERS = st.one_of(
    st.just(("@x", "@x")),
    literal().map(lambda value: (f"@x={value}",) * 2),
    st.sampled_from(TAGS).map(lambda tag: (tag, tag)),
    st.tuples(st.sampled_from(TAGS), literal()).map(lambda p: (f"{p[0]}={p[1]}",) * 2),
    literal().map(lambda value: (f"text()={value}", f".={value}")),
)

# ``contains()`` has no ElementTree form: it filters ElementTree's answer.
CONTAINS = {
    "@x": lambda element, value: "x" in element.attrib and value in element.get("x"),
    "text()": lambda element, value: value in "".join(element.itertext()),
    "b": lambda element, value: any(
        value in "".join(child.itertext()) for child in element.findall("b")
    ),
}


@st.composite
def steps(draw):
    test = draw(st.sampled_from([*TAGS, "*"]))
    ours, theirs = test, test
    # ElementTree counts a position among the siblings of the element's own
    # tag, before any other predicate: so only after a name, and first.
    if test != "*" and draw(st.booleans()):
        position = f"[{draw(st.sampled_from(['1', '2', 'last()']))}]"
        ours, theirs = ours + position, theirs + position
    for mine, its in draw(st.lists(FILTERS, max_size=1)):
        ours, theirs = f"{ours}[{mine}]", f"{theirs}[{its}]"
    return ours, theirs


@st.composite
def paths(draw):
    """(our path, ElementTree's path, post-filter, final step)."""
    start = draw(st.sampled_from(["", "/", "//"]))
    ours, theirs = draw(steps())
    ours, theirs = start + ours, start + theirs
    for _ in range(draw(st.integers(0, 1))):
        separator = draw(st.sampled_from(["/", "//"]))
        mine, its = draw(steps())
        ours, theirs = ours + separator + mine, theirs + separator + its
    if draw(st.integers(0, 3)) == 0:
        ours, theirs = ours + "/..", theirs + "/.."
    contains = None
    if draw(st.integers(0, 3)) == 0:
        contains = draw(st.tuples(st.sampled_from(sorted(CONTAINS)), st.sampled_from(VALUES[1:])))
        ours += f"[contains({contains[0]},'{contains[1]}')]"
    final = draw(st.sampled_from(["", "/text()", "/@x"]))
    return ours + final, theirs, contains, final


def elementtree_answer(markup, path, contains, final):
    root = ElementTree.fromstring(markup)
    if path.startswith("/"):
        # Our absolute path starts above the root; a wrapper stands there.
        wrapper = ElementTree.Element("document")
        wrapper.append(root)
        found = [e for e in wrapper.findall("." + path) if e is not wrapper]
    else:
        found = root.findall(path)
    if contains:
        test, value = contains
        found = [e for e in found if CONTAINS[test](e, value)]
    if final == "/text()":
        return ["".join(e.itertext()) for e in found]
    if final == "/@x":
        return [e.get("x") for e in found if "x" in e.attrib]
    return [e.get("n") for e in found]


@settings(max_examples=400, derandomize=True, deadline=None)
@given(document=documents(), path=paths())
def test_xpath_answers_what_elementtree_answers(document, path):
    ours, theirs, contains, final = path
    markup = numbered(document)
    got = xpath(parse_xml(markup), ours)
    if not final:
        got = [element.get("n") for element in got]
    assert got == elementtree_answer(markup, theirs, contains, final), (markup, ours)


class _FirstTag(HTMLParser):
    def __init__(self):
        super().__init__()
        self.attrs, self.text = None, ""

    def handle_starttag(self, tag, attrs):
        self.attrs = self.attrs or dict(attrs)

    def handle_data(self, data):
        self.text += data


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
        ours = read_csv(schema, text).rows
    except SchemaError:
        ours = None
    assert ours == [tuple(row) for row in rows]


# A string cell is drawn non-empty and without surrounding whitespace: the
# loader strips cells and reads a blank one as NULL (both pinned below).
CELLS = {
    DataType.STRING: st.text(st.sampled_from('ab ,"\n\r\t;\u00e9'), min_size=1).filter(
        lambda text: text == text.strip()
    ),
    DataType.INTEGER: st.integers(),
    DataType.FLOAT: st.floats(allow_nan=False, allow_infinity=False),
    DataType.BOOLEAN: st.booleans(),
}


@st.composite
def typed_rows(draw):
    """A schema of two to four typed columns and rows for it, NULLs among them."""
    dtypes = draw(st.lists(st.sampled_from(list(CELLS)), min_size=2, max_size=4))
    schema = Schema("t", tuple(Field(f"c{i}", d) for i, d in enumerate(dtypes)))
    cells = [st.none() | CELLS[dtype] for dtype in dtypes]
    return schema, draw(st.lists(st.tuples(*cells), max_size=6))


def written(schema, rows):
    """The extract ``csv.writer`` writes: a header row, NULL as a blank cell."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(schema.field_names)
    writer.writerows(rows)
    return out.getvalue()


@settings(max_examples=400, derandomize=True, deadline=None)
@given(typed_rows())
def test_rows_csv_writer_writes_read_back_unchanged(drawn):
    schema, rows = drawn
    assert read_csv(schema, written(schema, rows)).rows == rows


TWO_STRINGS = Schema("t", (Field("a", DataType.STRING), Field("b", DataType.STRING)))


def test_csv_cells_are_stripped():
    rows = read_csv(TWO_STRINGS, written(TWO_STRINGS, [(" ink ", "x\n")])).rows
    assert rows == [("ink", "x")]


def test_csv_empty_string_reads_as_null():
    rows = read_csv(TWO_STRINGS, written(TWO_STRINGS, [("", "x")])).rows
    assert rows == [(None, "x")]


def test_csv_one_column_null_row_reads_as_a_blank_line():
    """``csv.writer`` writes a lone NULL as ``""``, which the loader skips
    with the blank lines; with two columns or more a NULL row is ``,``."""
    schema = Schema("t", (Field("a", DataType.INTEGER),))
    assert read_csv(schema, written(schema, [(1,), (None,), (2,)])).rows == [(1,), (2,)]
