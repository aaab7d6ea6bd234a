#!/usr/bin/env python3
"""CI gate: the gateway's SLOs must not regress against the committed run.

Usage::

    check_gateway_slo.py BASELINE.json FRESH.json

Each file is a ``BENCH_E14.json`` produced by ``bench_e14_gateway.py``.
The fresh file typically comes from a smoke run (``E14_QUERIES`` scaled
far down), so the gate compares *shapes*, not exact numbers:

* **Shed + timeout rate** per tenant may exceed the baseline's by at most
  ``RATE_SLACK`` (absolute) -- admission behaviour is modeled time and
  nearly scale-free, so a jump means the gateway or workload manager
  changed behaviour, not the runner.
* **P99 latency** per tenant (modeled seconds) may rise to at most
  ``P99_CEILING`` times the baseline's P99 -- smoke runs have fewer
  samples in the tail, so the ceiling is generous, but a deterministic
  queueing regression blows well past 3x.
* **Plan-cache hit rate** may drop at most ``HIT_RATE_SLACK`` below the
  baseline.  Misses are one-per-SQL-shape, so the smoke run's hit rate is
  a little lower than the full run's; a cache keying bug sends it toward
  zero.
* **Plan-cache misses** must equal the planning table's shape count
  exactly, at any scale: the mix's statements are all templates, so a shape
  that silently stops being preparable (or a key that stops folding
  spellings) shows as one miss too few or too many.
* **Error rate** must be exactly zero, at any scale.
* **Wall-clock prepared-statement speedup** must stay above
  ``MIN_SPEEDUP`` -- absolute wall numbers do not transport across
  runners, but prepare-once/execute-many beating parse-per-statement by a
  healthy margin does.

Exits 1 on the first violated bound.
"""

import json
import sys

RATE_SLACK = 0.05  # absolute shed+timeout headroom per tenant
P99_CEILING = 3.0  # fresh p99 may be at most this multiple of baseline
HIT_RATE_SLACK = 0.02
MIN_SPEEDUP = 1.1  # wall-clock prepared vs parse-per-statement


def load(path: str) -> dict:
    with open(path) as f:
        payload = json.load(f)
    for key in ("tenants", "plan_cache", "planning"):
        if key not in payload:
            raise SystemExit(f"{path}: no '{key}' key (full E14 bench not run?)")
    return payload


def main(argv: "list[str]") -> int:
    if len(argv) != 3:
        print(__doc__)
        return 2
    baseline = load(argv[1])
    fresh = load(argv[2])
    failures = []

    for tenant, base_stats in sorted(baseline["tenants"].items()):
        stats = fresh["tenants"].get(tenant)
        if stats is None:
            failures.append(f"{tenant}: missing from fresh run")
            continue
        base_rate = base_stats["shed_rate"] + base_stats["timeout_rate"]
        rate = stats["shed_rate"] + stats["timeout_rate"]
        if rate > base_rate + RATE_SLACK:
            failures.append(
                f"{tenant}: shed+timeout rate {rate:.4f} exceeds baseline "
                f"{base_rate:.4f} + {RATE_SLACK}"
            )
        ceiling = P99_CEILING * base_stats["p99_s"]
        if stats["p99_s"] > ceiling:
            failures.append(
                f"{tenant}: p99 {stats['p99_s']:.4f}s exceeds "
                f"{P99_CEILING}x baseline ({ceiling:.4f}s)"
            )
        if stats["error_rate"] != 0:
            failures.append(f"{tenant}: nonzero error rate {stats['error_rate']}")
        print(
            f"{tenant}: shed+timeout {rate:.4f} (bar {base_rate + RATE_SLACK:.4f}), "
            f"p99 {stats['p99_s']:.4f}s (bar {ceiling:.4f}s)"
        )

    hit_bar = baseline["plan_cache"]["hit_rate"] - HIT_RATE_SLACK
    hit_rate = fresh["plan_cache"]["hit_rate"]
    print(f"plan-cache hit rate {hit_rate:.4f} (bar {hit_bar:.4f})")
    if hit_rate < hit_bar:
        failures.append(
            f"plan-cache hit rate {hit_rate:.4f} below baseline "
            f"{baseline['plan_cache']['hit_rate']:.4f} - {HIT_RATE_SLACK}"
        )

    misses, shapes = fresh["plan_cache"]["misses"], fresh["planning"]["shapes"]
    print(f"plan-cache misses {misses} (bar: exactly {shapes}, one per shape)")
    if misses != shapes:
        failures.append(
            f"plan-cache misses {misses} != {shapes} SQL shapes in the mix"
        )

    speedup = fresh["planning"]["wall_speedup"]
    print(f"prepared-statement wall speedup {speedup:.2f}x (bar {MIN_SPEEDUP}x)")
    if speedup < MIN_SPEEDUP:
        failures.append(
            f"prepared wall speedup {speedup:.2f}x below {MIN_SPEEDUP}x"
        )

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("OK: gateway SLOs hold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
