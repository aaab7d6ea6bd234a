"""A strict XML tree builder over ``expat``.

Unlike the tolerant HTML parser, XML here is *validated for well-formedness*:
B2B feeds and "legislated formats" (§3.1 Characteristic 4) are contracts, and
a malformed document must be rejected loudly rather than guessed at.
:mod:`xml.parsers.expat` reads the characters and checks well-formedness
(names, attribute syntax, entity and character references, comments, the
end-of-line and attribute-value normalisation); this module builds the
:class:`~repro.xmlkit.model.XmlElement` tree.  Namespaces are not processed:
``ns:tag`` is an opaque tag name.
"""

from __future__ import annotations

from xml.parsers import expat

from repro.xmlkit.model import XmlElement


class XmlParseError(Exception):
    """Raised when a document is not well-formed; carries the position."""

    def __init__(self, message: str, position: int) -> None:
        self.position = position
        super().__init__(f"{message} (at offset {position})")


def parse_xml(markup: str) -> XmlElement:
    """Parse ``markup`` and return its single root element.

    Adjacent character data is one text child; a CDATA section is a text
    child of its own.  Raises :class:`XmlParseError` on any well-formedness
    violation, with ``position`` a character offset into ``markup``.
    """
    document = XmlElement("")
    stack = [document]
    joining: XmlElement | None = None  # its last text child takes more data

    def start(tag: str, attrs: dict[str, str]) -> None:
        nonlocal joining
        stack.append(stack[-1].append(XmlElement(tag, attrs)))
        joining = None

    def text(data: str) -> None:
        nonlocal joining
        if joining is stack[-1]:
            stack[-1].children[-1] += data
        else:
            stack[-1].append(data)
            joining = stack[-1]

    def start_cdata() -> None:
        nonlocal joining
        stack[-1].append("")
        joining = stack[-1]

    def end_cdata() -> None:
        nonlocal joining
        joining = None

    parser = expat.ParserCreate()
    parser.buffer_text = True
    parser.StartElementHandler = start
    parser.EndElementHandler = lambda tag: stack.pop()
    parser.CharacterDataHandler = text
    parser.StartCdataSectionHandler = start_cdata
    parser.EndCdataSectionHandler = end_cdata
    try:
        parser.Parse(markup, True)
    except expat.ExpatError as error:
        consumed = markup.encode("utf-8")[: max(parser.ErrorByteIndex, 0)]
        position = len(consumed.decode("utf-8", "ignore"))
        raise XmlParseError(expat.ErrorString(error.code), position) from None
    except UnicodeEncodeError as error:
        raise XmlParseError("unencodable character", error.start) from None
    (root,) = document.children
    root.parent = None
    return root
