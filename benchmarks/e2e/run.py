#!/usr/bin/env python3
"""The repo's one benchmark command (see README.md beside this file).

Two ways in:

* ``run.py --workload NAME --seed N --seconds S --trace 0|1`` measures one
  workload in this process and prints, as the last line of stdout, one
  JSON object ``{"correct", "attempted", "failed", "metrics"}`` -- every
  end-to-end metric with ``--trace 0``, every per-layer metric with
  ``--trace 1``.  This is the form ``BENCHMARK.json`` records.
* ``run.py [--seed N] [--smoke] [--runs K]`` runs all six workloads, each
  in its own child process (clean heap, per-workload peak RSS), untraced
  and traced, prints every metric by name with its unit, evaluates the
  layer-separation self-checks, and writes the results (and the traced
  runs' spans as JSON lines) under ``out/``.  Non-zero exit on any wrong
  answer, failed statement or violated self-check.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")
DEFAULT_SEED = 20018


def bootstrap() -> None:
    """Make ``repro`` (src/) and ``benchmarks.e2e`` importable.

    Run as a script, Python puts this directory first on ``sys.path``,
    where ``trace.py`` would shadow the stdlib module of that name.
    """
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(
            f"benchmarks/e2e needs the program under test at {source}/repro",
            file=sys.stderr,
        )
        raise SystemExit(2)
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != HERE]
    for path in (ROOT, source):
        if path not in sys.path:
            sys.path.insert(0, path)


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# -- one workload, in this process ---------------------------------------------


def run_one(args) -> int:
    from benchmarks.e2e.harness import measure
    from benchmarks.e2e.layers import PER_LAYER, measure_traced
    from benchmarks.e2e.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(
            f"unknown workload {args.workload!r}; have {list(WORKLOADS)}"
        )
    workload = WORKLOADS[args.workload]
    if args.trace:
        outcome = measure_traced(workload, args.seed, args.smoke, args.spans_out)
        values = {
            name: (outcome["metrics"][name], unit)
            for name, (unit, _) in PER_LAYER.items()
        }
    else:
        outcome = measure(workload, args.seed, args.seconds, smoke=args.smoke)
        values = outcome["metrics"]

    print(
        f"workload {workload.name} seed {args.seed} trace {args.trace} "
        f"seconds {args.seconds}"
    )
    for name, (value, unit) in values.items():
        print(f"  {name:42s} {value:16.6f} {unit}")
    info = outcome["info"]
    for key in ("input_sha256", "answers_sha256"):
        print(f"  {key:42s} {info[key]}")
    print(
        f"  samples: {info['timed_ops']} timed ops, "
        f"{outcome['attempted']} statements attempted, {outcome['failed']} failed"
    )
    print("detail: " + json.dumps(info, sort_keys=True))
    correct = outcome["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()
                },
            }
        )
    )
    return 0 if correct else 1


# -- all workloads, one child process each ----------------------------------------


def child(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    command = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if smoke:
        command.append("--smoke")
    if trace:
        command += [
            "--spans-out", os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.jsonl")
        ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        detail = next(
            json.loads(line[len("detail: "):])
            for line in lines
            if line.startswith("detail: ")
        )
    except (IndexError, ValueError, StopIteration):
        print(done.stdout)
        raise SystemExit(
            f"{workload} (trace {trace}) printed no result, exit {done.returncode}"
        )
    result["info"] = detail
    return result


def run_all(args) -> int:
    from benchmarks.e2e.checks import concurrency_share
    from benchmarks.e2e.harness import SMOKE_DIVISOR

    contract = load_contract()
    seconds = contract["run_seconds"] / (SMOKE_DIVISOR if args.smoke else 1)
    os.makedirs(OUT_DIR, exist_ok=True)
    results = {}
    failed = 0
    for spec in contract["workloads"]:
        name = spec["name"]
        runs = [
            child(name, args.seed, seconds, 0, args.smoke) for _ in range(args.runs)
        ]
        traced = child(name, args.seed, seconds, 1, args.smoke)
        failed += sum(run["failed"] for run in runs) + traced["failed"]
        results[name] = {
            "end_to_end": {
                metric["name"]: [
                    run["metrics"][metric["name"]]["value"] for run in runs
                ]
                for metric in contract["end_to_end"]
            },
            "fail_rate": [run["info"]["fail_rate"] for run in runs],
            "per_layer": {
                metric["name"]: traced["metrics"][metric["name"]]["value"]
                for metric in contract["per_layer"]
            },
            "info": runs[-1]["info"],
            "trace_info": traced["info"],
        }
        report(name, spec["why"], contract, results[name])

    checks = [
        dict(check, workload=name)
        for name, result in results.items()
        for check in result["trace_info"]["checks"]
    ]
    print("\nlayer-separation self-checks")
    for check in checks:
        verdict = "ok" if check["ok"] else "VIOLATED"
        print(
            f"  {check['workload']:12s} {check['check']:42s} "
            f"{check['value']:8.3f} {check['op']} {check['bound']:<5} {verdict}"
        )
    for name in ("hot_mix", "burst_queue"):
        value = concurrency_share(
            results[name]["per_layer"], results[name]["trace_info"]["traced_us"]
        )
        label = "concurrency-layer share (informational)"
        print(f"  {name:12s} {label:42s} {value:8.3f}")
    violated = [check for check in checks if not check["ok"]]

    path = args.out or os.path.join(OUT_DIR, f"results-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "seed": args.seed,
                "run_seconds": seconds,
                "smoke": args.smoke,
                "workloads": results,
                "checks": checks,
            },
            handle,
            indent=1,
            sort_keys=True,
        )
    print(f"\nresults written to {os.path.relpath(path)}")
    if failed:
        print(f"{failed} statements failed or answered wrong", file=sys.stderr)
    if violated and not args.smoke:
        # A smoke run is too short for timing shares to mean anything.
        print(f"{len(violated)} self-checks violated", file=sys.stderr)
        return 1
    return 1 if failed else 0


def report(name: str, why: str, contract: dict, result: dict) -> None:
    info, trace_info = result["info"], result["trace_info"]
    print(f"\n== {name}: {why}")
    print(f"   input sha256 {info['input_sha256']}")
    for metric in contract["end_to_end"]:
        values = result["end_to_end"][metric["name"]]
        note = ""
        if metric["name"].endswith("_ms"):
            note = f"  (n={info['latency_samples']})"
        print(
            f"   {metric['name']:42s} {statistics.median(values):16.4f} "
            f"{metric['unit']}{note}"
        )
    if "p99_ms" in info:
        print(
            f"   {'p99_ms (informational)':42s} {info['p99_ms']:16.4f} ms"
            f"  (n={info['latency_samples']})"
        )
    print(
        f"   {'fail_rate':42s} {max(result['fail_rate']):16.4f} failed/attempted"
    )
    print(
        f"   -- per layer, traced run of {trace_info['statements']} statements "
        f"({trace_info['spans']} spans)"
    )
    for metric in contract["per_layer"]:
        value = result["per_layer"][metric["name"]]
        if value:
            print(f"   {metric['name']:42s} {value:16.4f} {metric['unit']}")


def main() -> int:
    bootstrap()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="measure this one workload in-process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="timed window per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="1/50 of the work")
    parser.add_argument("--spans-out", help="write the traced spans here (JSONL)")
    parser.add_argument(
        "--runs", type=int, default=1, help="untraced runs per workload"
    )
    parser.add_argument("--out", help="results file of the all-workloads run")
    args = parser.parse_args()
    if args.workload is None:
        return run_all(args)
    if args.seconds is None:
        args.seconds = load_contract()["run_seconds"]
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
