"""repro -- a reproduction of "Content Integration for E-Business" (SIGMOD 2001).

This library rebuilds the Cohera Content Integration System described by
Stonebraker and Hellerstein, as three cooperating layers plus the substrates
they depend on:

* **Connect** (:mod:`repro.connect`) -- wrappers over heterogeneous sources:
  scraped (simulated) supplier web sites, live reads of an owner's
  operational state, and CSV extracts, with semi-automatic wrapper
  induction.
* **Workbench** (:mod:`repro.workbench`) -- content mapping: declarative
  transforms with lineage, currency/unit normalization, synonym tables,
  hierarchical taxonomies with a semi-automatic matcher, discrepancy
  detection, and rule-driven custom syndication.
* **Integrate** (:mod:`repro.federation`) -- a federated query processor
  with an agoric (Mariposa-style) optimizer, materialized views and semantic
  caching, fragmentation/replication, load balancing and failover, answering
  SQL and XPath over the integrated content.

Baselines the paper argues against are also implemented: a batch-ETL data
warehouse (:mod:`repro.warehouse`) and a centralized cost-based distributed
optimizer (:mod:`repro.federation.central`).

The quickest entry point is
:class:`~repro.core.system.ContentIntegrationSystem`; see
``examples/quickstart.py``.
"""

from repro.core.records import Row, Table
from repro.core.schema import DataType, Field, Schema
from repro.core.system import ContentIntegrationSystem
from repro.core.values import Money

__version__ = "1.0.0"

__all__ = [
    "Row",
    "Table",
    "DataType",
    "Field",
    "Schema",
    "ContentIntegrationSystem",
    "Money",
    "__version__",
]
