"""E3c -- Vectorized columnar execution vs the row-at-a-time engine.

The row-at-a-time side is no longer in ``src/``: it is the reference site
engine kept in ``tests/reference_site.py``, so run this bench with
``tests/`` on the path (``PYTHONPATH=../src:../tests``).

The federation's data plane moves *content*, and §3.2 C8's scalability
story dies if every row costs a dict allocation and an AST walk.  This
experiment measures the two wins the columnar refactor claims:

* **Throughput.**  The same scan+filter+aggregate query runs through the
  batch-at-a-time engine (selection-vector kernels, tight aggregate
  loops) and the reference row engine over identical catalogs.  The
  acceptance bar is a >= ``E3C_MIN_SPEEDUP``x (default 5x) rows/sec win,
  with bit-identical answers.  That is one cold query on a fresh engine;
  the ``warm`` figures time the *third* execution on one engine, by which
  the filter answers from the fragments' column orders (DESIGN §5f) --
  same query, same comparison with the row engine.
* **Wire bytes.**  Shipping the hotel-market static table across sites
  with per-column encodings (prefix/dict/RLE/delta/bit-pack/scaled
  decimal) must cut the payload at least ``E3C_MIN_BYTES_RATIO``x
  (default 3x) against naive row serialization.

Wall-clock numbers (machine-dependent) go into ``BENCH_E3.json`` at the
repo root for the CI regression gate; the ``results/`` table carries only
modeled, deterministic quantities so the determinism double-run diff
stays byte-identical (DESIGN.md §7).
"""

import os
import time

from _bench_util import merge_json, report
from reference_site import ReferenceSitePlanner
from repro.core import DataType, Field, Schema, Table
from repro.federation import FederatedEngine, FederationCatalog
from repro.sim import SimClock
from repro.workloads import generate_hotels

# Env-overridable so CI can run a smaller smoke configuration.
ROWS = int(os.environ.get("E3C_ROWS", "20000"))
REPEATS = int(os.environ.get("E3C_REPEATS", "5"))
MIN_SPEEDUP = float(os.environ.get("E3C_MIN_SPEEDUP", "5.0"))
MIN_BYTES_RATIO = float(os.environ.get("E3C_MIN_BYTES_RATIO", "3.0"))
SITES = 4
FRAGMENTS = 4
SUPPLIERS = 8

# Scan + disjunctive filter + grouped partial aggregation: the hot path
# the kernels vectorize end to end.
QUERY = (
    "select supplier, count(*) as n, sum(price) as total "
    "from parts where price >= 750.0 or supplier = 'sup-03' "
    "group by supplier order by supplier"
)


def build_engine(columnar: bool) -> FederatedEngine:
    catalog = FederationCatalog(SimClock())
    names = [catalog.make_site(f"s{i}").name for i in range(SITES)]
    schema = Schema(
        "parts",
        (
            Field("sku", DataType.STRING),
            Field("supplier", DataType.STRING),
            Field("price", DataType.FLOAT),
            Field("qty", DataType.INTEGER),
        ),
    )
    rows = [
        (
            f"part-{i:06d}",
            f"sup-{i % SUPPLIERS:02d}",
            float((i * 37) % 1000),
            i % 50,
        )
        for i in range(ROWS)
    ]
    table = Table(schema, rows, validate=False)
    placement = [
        [names[i % SITES], names[(i + 1) % SITES]] for i in range(FRAGMENTS)
    ]
    catalog.load_fragmented(table, FRAGMENTS, placement)
    engine = FederatedEngine(catalog)
    if not columnar:
        engine.executor.planner = ReferenceSitePlanner(catalog)
    return engine


def timed_runs(columnar: bool, executions: int = 1):
    """Wall-time the last of ``executions`` of the query on a fresh engine,
    REPEATS times; returns (last result, samples)."""
    samples, result = [], None
    for _ in range(REPEATS):
        engine = build_engine(columnar)
        for _ in range(executions - 1):
            engine.query(QUERY, advance_clock=False)
        start = time.perf_counter()
        result = engine.query(QUERY, advance_clock=False)
        samples.append(time.perf_counter() - start)
    return result, samples


def percentile(values, q):
    ordered = sorted(values)
    rank = max(1, -(-q * len(ordered) // 100))  # nearest-rank, ceil
    return ordered[rank - 1]


def wall_clock(samples) -> dict:
    return {
        "rows_per_sec": round(ROWS / min(samples), 1),
        "best_s": round(min(samples), 6),
        "p50_s": round(percentile(samples, 50), 6),
        "p95_s": round(percentile(samples, 95), 6),
        "p99_s": round(percentile(samples, 99), 6),
    }


def exact(result):
    return [tuple(map(repr, r)) for r in result.table.rows]


WARM = 3  # executions on one engine: cold, orders marked, orders built


def test_e3c_columnar_throughput(benchmark):
    vec_result, vec_samples = timed_runs(columnar=True)
    row_result, row_samples = timed_runs(columnar=False)
    warm_vec_result, warm_vec = timed_runs(columnar=True, executions=WARM)
    warm_row_result, warm_row = timed_runs(columnar=False, executions=WARM)

    # Bit-identical answers, ordering included, cold and warm.
    assert exact(vec_result) == exact(row_result)
    assert exact(warm_vec_result) == exact(warm_row_result) == exact(vec_result)

    vec_best, row_best = min(vec_samples), min(row_samples)
    speedup = row_best / vec_best

    # Deterministic (modeled) quantities only -- wall numbers go to JSON.
    report(
        "e3_columnar_engine",
        f"E3c: columnar vs row engine, scan+filter+aggregate "
        f"({ROWS} rows, {FRAGMENTS} fragments, {SITES} sites)",
        ["engine", "rows fetched", "rows shipped", "bytes shipped",
         "groups"],
        [
            ["columnar", vec_result.report.rows_fetched,
             vec_result.report.rows_shipped,
             vec_result.report.bytes_shipped, len(vec_result.table)],
            ["row", row_result.report.rows_fetched,
             row_result.report.rows_shipped,
             row_result.report.bytes_shipped, len(row_result.table)],
        ],
    )

    merge_json(
        "BENCH_E3",
        {
            "query": QUERY,
            "rows": ROWS,
            "repeats": REPEATS,
            "columnar": {
                **wall_clock(vec_samples),
                "bytes_shipped": vec_result.report.bytes_shipped,
            },
            "row": wall_clock(row_samples),
            "speedup": round(speedup, 2),
            "warm": {
                "executions": WARM,
                "columnar": wall_clock(warm_vec),
                "row": wall_clock(warm_row),
                "speedup": round(min(warm_row) / min(warm_vec), 2),
            },
        }
    )

    # Same plan-level accounting regardless of execution style.
    assert (
        vec_result.report.rows_shipped == row_result.report.rows_shipped
    )
    assert vec_result.report.bytes_shipped > 0
    # The acceptance bar: the batch engine is >= MIN_SPEEDUP x faster on
    # the scan/filter/aggregate hot path.
    assert speedup >= MIN_SPEEDUP, (
        f"columnar speedup {speedup:.2f}x below the {MIN_SPEEDUP}x bar "
        f"(columnar {vec_best:.4f}s vs row {row_best:.4f}s)"
    )

    engine = build_engine(columnar=True)
    benchmark(lambda: engine.query(QUERY, advance_clock=False))


def test_e3c_wire_bytes_on_hotels(benchmark):
    """Shipping the 1000-hotel static table: encoded vs naive bytes."""
    market = generate_hotels(seed=0, chain_count=50, hotels_per_chain=20)
    table = market.static_table()
    catalog = FederationCatalog(SimClock())
    names = [catalog.make_site(f"s{i}").name for i in range(4)]
    # One single-replica fragment per site: three of four fragments must
    # cross the wire to whichever site coordinates.
    catalog.load_fragmented(table, 4, [[names[i % 4]] for i in range(4)])
    engine = FederatedEngine(catalog)

    sql = (
        "select hotel_id, chain, name, miles_to_airport, has_health_club "
        "from hotel_static"
    )
    result = engine.query(sql, advance_clock=False)
    assert len(result.table) == len(table)

    ship = next(
        s for s in result.report.operators.walk() if s.name == "Ship"
    )
    ratio = ship.raw_bytes / ship.encoded_bytes
    encodings = {}
    from repro.federation.columnar import encode_column

    for field, column in zip(
        table.schema.fields, zip(*table.rows)
    ):
        encoded = encode_column(field.name, list(column))
        encodings[field.name] = {
            "encoding": encoded.encoding,
            "encoded_bytes": encoded.encoded_bytes,
            "raw_bytes": encoded.raw_bytes,
        }

    report(
        "e3_columnar_wire_bytes",
        f"E3c: hotel_static shipment, per-column encodings "
        f"({len(table)} rows, 4 fragments, 4 sites)",
        ["column", "encoding", "encoded B", "raw B", "ratio"],
        [
            [name, info["encoding"], info["encoded_bytes"],
             info["raw_bytes"],
             info["raw_bytes"] / info["encoded_bytes"]]
            for name, info in encodings.items()
        ]
        + [
            ["(shipped total)", "-", ship.encoded_bytes, ship.raw_bytes,
             ratio],
        ],
    )

    merge_json(
        "BENCH_E3",
        {
            "hotel_wire": {
                "rows": len(table),
                "bytes_shipped": result.report.bytes_shipped,
                "naive_bytes": ship.raw_bytes,
                "ratio": round(ratio, 2),
                "columns": encodings,
            }
        }
    )

    assert result.report.bytes_shipped == ship.encoded_bytes
    assert ratio >= MIN_BYTES_RATIO, (
        f"encoded shipment only {ratio:.2f}x under naive rows "
        f"(bar: {MIN_BYTES_RATIO}x)"
    )

    benchmark(lambda: engine.query(sql, advance_clock=False))
