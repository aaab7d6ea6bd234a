"""XML substrate: model, strict parser, XPath subset and XQuery FLWOR.

Characteristic 6 requires content integration engines to answer "emerging
XML-based query access like XQuery ... in the meantime ... XPath and XSLT".
This package supplies the XML machinery the rest of the system uses:

* :class:`~repro.xmlkit.model.XmlElement` -- an ordered element tree.
* :func:`~repro.xmlkit.parser.parse_xml` -- a strict tree builder over
  :mod:`xml.parsers.expat`, which checks well-formedness (unlike the
  tolerant HTML parser: B2B XML feeds are contracts, so errors must
  surface).
* :func:`~repro.xmlkit.xpath.xpath` -- an XPath 1.0 subset evaluator used
  for XML queries over integrated views.
* :func:`~repro.xmlkit.xquery.xquery` -- an XQuery FLWOR subset over the
  same documents.
"""

from repro.xmlkit.model import XmlElement, xml_escape
from repro.xmlkit.parser import XmlParseError, parse_xml
from repro.xmlkit.xpath import XPathError, xpath
from repro.xmlkit.xquery import XQueryError, xquery

__all__ = [
    "XmlElement",
    "xml_escape",
    "XmlParseError",
    "parse_xml",
    "XPathError",
    "xpath",
    "XQueryError",
    "xquery",
]
