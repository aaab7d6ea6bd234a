#!/usr/bin/env python3
"""Compare two result files of ``run.py``: ``compare.py A.json B.json``.

One row per (workload, end-to-end metric): A's and B's medians, the ratio
B/A **with A as its base**, the bound from ``BENCHMARK.json`` and a
verdict:

* ``regressed``  -- B is worse than A by more than the bound;
* ``unresolved`` -- the run-to-run spread inside A or B (interquartile
  range over the median, when a file holds several runs per workload) is
  wider than the bound, and the runs of the two sides overlap;
* ``ok``         -- otherwise.

``fail_rate`` has an absolute bound of 0: any failure on the B side is a
regression.  Exit status is non-zero when any row is ``regressed``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SETUP_FLOOR_S = 0.05  # set-up medians closer than this always compare as ok


def spread(values: list) -> float:
    """Interquartile range over the median (0 for a single run)."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def verdict(metric: dict, a: list, b: list) -> tuple[float, float, float, str]:
    """``(median A, median B, B/A, verdict)`` for one metric's runs."""
    base, new = statistics.median(a), statistics.median(b)
    higher = metric["better"] == "higher"
    worse_by = (base - new) / base if higher else (new - base) / base
    if metric["name"] == "setup_s" and abs(new - base) < SETUP_FLOOR_S:
        return base, new, new / base, "ok"
    # Every run of one side beating every run of the other settles it
    # whatever the spread.
    if higher:
        b_all_worse, b_all_better = max(b) < min(a), min(b) > max(a)
    else:
        b_all_worse, b_all_better = min(b) > max(a), max(b) < min(a)
    noisy = max(spread(a), spread(b)) > metric["bound"]
    if noisy and not (b_all_worse or b_all_better):
        outcome = "unresolved"
    elif worse_by > metric["bound"]:
        outcome = "regressed"
    else:
        outcome = "ok"
    return base, new, new / base, outcome


def compare(contract: dict, a: dict, b: dict) -> list[tuple]:
    rows = []
    for spec in contract["workloads"]:
        name = spec["name"]
        if name not in a["workloads"] or name not in b["workloads"]:
            continue
        side_a, side_b = a["workloads"][name], b["workloads"][name]
        for metric in contract["end_to_end"]:
            rows.append(
                (name, metric["name"], metric["bound"])
                + verdict(
                    metric,
                    side_a["end_to_end"][metric["name"]],
                    side_b["end_to_end"][metric["name"]],
                )
            )
        fail_a, fail_b = max(side_a["fail_rate"]), max(side_b["fail_rate"])
        rows.append(
            (name, "fail_rate", 0.0, fail_a, fail_b, float("nan"),
             "regressed" if fail_b > 0 else "ok")
        )
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        contract = json.load(handle)
    sides = []
    for path in argv[1:]:
        with open(path, encoding="utf-8") as handle:
            sides.append(json.load(handle))
    rows = compare(contract, *sides)
    print(
        f"{'workload':12s} {'metric':12s} {'A':>12s} {'B':>12s} "
        f"{'B/A (base A)':>13s} {'bound':>6s}  verdict"
    )
    for name, metric, bound, base, new, ratio, outcome in rows:
        print(
            f"{name:12s} {metric:12s} {base:12.4f} {new:12.4f} "
            f"{ratio:13.4f} {bound:6.2f}  {outcome}"
        )
    for name in sides[0]["workloads"].keys() & sides[1]["workloads"].keys():
        side_a, side_b = (side["workloads"][name] for side in sides)
        if side_a["info"]["input_sha256"] != side_b["info"]["input_sha256"]:
            print(f"note: {name} was offered different input streams")
        sim = "engine.sim_response_s"
        if side_a["per_layer"][sim] != side_b["per_layer"][sim]:
            print(f"note: {name} {sim} differs between the two sides")
    regressed = sum(1 for row in rows if row[-1] == "regressed")
    unresolved = sum(1 for row in rows if row[-1] == "unresolved")
    print(f"{regressed} regressed, {unresolved} unresolved, {len(rows)} rows")
    return 1 if regressed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
