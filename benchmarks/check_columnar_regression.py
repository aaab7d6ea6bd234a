#!/usr/bin/env python3
"""CI gate: the columnar engine's throughput win must not regress, and
the wire byte model must not move.

Usage::

    check_columnar_regression.py BASELINE.json FRESH.json [FRESH2.json ...]

Each file is a ``BENCH_E3.json`` produced by ``bench_e3_columnar.py``.
The gate compares the *speedup* (columnar rows/sec over row-engine
rows/sec measured in the same run on the same machine), not absolute
rows/sec -- CI runners are slower and noisier than the machine that
committed the baseline, but the ratio between the two engines transports.
Multiple fresh files may be passed (CI runs the micro-bench twice); the
best one counts, which absorbs warm-up and scheduling noise.

Fails (exit 1) when the best fresh speedup drops below ``FLOOR`` times
the committed baseline's speedup -- i.e. the columnar engine lost more
than 30% of its relative throughput advantage.  Two speedups are gated
that way: the cold query on a fresh engine, and the ``warm`` one (third
execution on one engine, answered from the column orders).

Also fails unless *every* fresh file's ``hotel_wire`` block (per-column
encoding, encoded and raw bytes, plus the shipment totals and ratio)
equals the committed baseline's.  Those numbers come from the codec's
fixed byte model, not from a clock, so the comparison is ``==``: any
difference is a change to the model, which must be committed with the
regenerated baseline rather than drift in unnoticed.
"""

import json
import sys

FLOOR = 0.7


def load(path: str) -> dict:
    with open(path) as f:
        payload = json.load(f)
    for key, bench in (
        ("speedup", "throughput"),
        ("warm", "throughput"),
        ("hotel_wire", "wire_bytes"),
    ):
        if key not in payload:
            raise SystemExit(f"{path}: no {key!r} key ({bench} bench not run?)")
    return payload


def speedups(payload: dict) -> dict[str, float]:
    return {
        "cold": float(payload["speedup"]),
        "warm": float(payload["warm"]["speedup"]),
    }


def wire_differences(baseline: dict, fresh: dict) -> list[str]:
    """Every ``hotel_wire`` entry where ``fresh`` departs from ``baseline``."""
    found = []
    for key in sorted(set(baseline) | set(fresh)):
        want, got = baseline.get(key), fresh.get(key)
        if isinstance(want, dict) and isinstance(got, dict):
            found += [f"{key}.{inner}" for inner in wire_differences(want, got)]
        elif want != got:
            found.append(f"{key}: committed {want!r}, fresh {got!r}")
    return found


def main(argv: list[str]) -> int:
    if len(argv) < 3:
        print(__doc__)
        return 2
    committed = load(argv[1])
    fresh = {path: load(path) for path in argv[2:]}
    drifted = False
    for path, payload in fresh.items():
        for difference in wire_differences(
            committed["hotel_wire"], payload["hotel_wire"]
        ):
            print(f"FAIL: {path}: hotel_wire.{difference}")
            drifted = True
    if drifted:
        print("FAIL: the wire byte model moved against the committed baseline")
        return 1
    print(f"OK: hotel_wire identical to the baseline in {len(fresh)} fresh file(s)")

    failed = False
    for name, baseline in speedups(committed).items():
        fresh_runs = [speedups(payload)[name] for payload in fresh.values()]
        best = max(fresh_runs)
        bar = FLOOR * baseline
        print(
            f"{name}: baseline speedup {baseline:.2f}x; fresh runs "
            f"{', '.join(f'{s:.2f}x' for s in fresh_runs)}; "
            f"bar {bar:.2f}x ({FLOOR:.0%} of baseline)"
        )
        if best < bar:
            print(
                f"FAIL: best fresh {name} speedup {best:.2f}x regressed more "
                f"than {1 - FLOOR:.0%} below the committed {baseline:.2f}x"
            )
            failed = True
        else:
            print(f"OK: best fresh {name} speedup {best:.2f}x holds the bar")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
