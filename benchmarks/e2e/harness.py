"""Measurement core: set-up, warm-up, the timed closed loop, statistics.

One process, one client, closed loop: the engine is single-threaded and
every bit of concurrency inside it is simulated on the sim clock, so the
caller of ``GatewaySession.execute`` waits for its reply and wall latency
is service time.  Only the calls into the program are timed (one segment
per op); the harness's own bookkeeping, answer checks and the calibration
kernel between segments are not charged to the program.

Every duration is reported at reference speed (see ``calibrate.py``): the
loop is cut into slices of ~50 ms of measured work, each followed by one
run of the calibration kernel, and a segment's seconds are divided by the
speed factor of its slice.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time
from dataclasses import dataclass, field

from benchmarks.e2e.calibrate import (
    SLICE_SECONDS,
    speed_factor_now,
    speed_factors,
    timed_kernel,
)
from benchmarks.e2e.workloads import Workload, World, stream_digest

MIN_TIMED_OPS = 400  # p95 needs >= 20 samples beyond it
SETUP_REPEATS = 5  # setup_s is the median of this many full set-ups
QPS_SLICES = 20  # qps is the median throughput of this many runs of ops
SMOKE_DIVISOR = 50  # a smoke run does 1/50 of the timed work ...
SMOKE_WARMUP_DIVISOR = 10  # ... after 1/10 of the warm-up


@dataclass
class Window:
    """What one timed loop observed."""

    # Every op in order, writes included: (raw seconds, statements, slice).
    segments: list = field(default_factory=list)
    kernel_seconds: list = field(default_factory=list)  # one per slice
    failed: int = 0  # statements that raised, were shed, or answered wrong

    @property
    def ops(self) -> int:
        return len(self.segments)

    @property
    def statements(self) -> int:
        return sum(offered for _, offered, _ in self.segments)

    def calibrated(self) -> list:
        """``(seconds at reference speed, statements)`` per op."""
        factors = speed_factors(self.kernel_seconds)
        return [
            (seconds / factors[index], offered)
            for seconds, offered, index in self.segments
        ]


def percentile(ordered: list, q: float) -> float:
    """Nearest-rank percentile of an already-sorted, non-empty list."""
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def set_up(workload: Workload, seed: int, warmup: list) -> tuple[World, float]:
    """Build the program state and warm it; returns (world, wall seconds)."""
    start = time.perf_counter()
    world = workload.build(seed)
    for op in warmup:
        workload.execute(world, op)
    return world, time.perf_counter() - start


def timed_loop(
    workload: Workload,
    world: World,
    ops: list,
    seconds: float | None,
    max_ops: int | None = None,
    min_ops: int = 0,
    observer=None,
    before_op=None,
) -> Window:
    """Run ``ops`` (cycling) until ``seconds`` of wall time *and* ``min_ops``
    have passed, or exactly ``max_ops`` ops when given."""
    window = Window()
    segments = window.segments
    execute = workload.execute
    clock = time.perf_counter
    count = len(ops)
    index = 0
    slice_index = 0
    slice_busy = 0.0
    timed_statements = 0
    started = clock()
    while True:
        op = ops[index % count]
        offered = workload.statements(op)
        if before_op is not None:
            before_op(index)
        t0 = clock()
        try:
            result = execute(world, op)
        except Exception as error:  # a failed op is a measurement, not a crash
            t1 = clock()
            window.failed += offered
            print(f"op {index} failed: {error!r}", flush=True)
        else:
            t1 = clock()
            window.failed += workload.check(world, op, result)
            if observer is not None:
                observer(op, result)
        segments.append((t1 - t0, offered, slice_index))
        slice_busy += t1 - t0
        timed_statements += 1 if offered else 0
        index += 1
        if max_ops is not None:
            done = index >= max_ops
        else:
            done = t1 - started >= seconds and timed_statements >= min_ops
        if done or slice_busy >= SLICE_SECONDS:
            window.kernel_seconds.append(timed_kernel())
            slice_index += 1
            slice_busy = 0.0
            if done:
                return window


def sliced_qps(segments: list, slices: int = QPS_SLICES) -> float:
    """Median statements-per-busy-second over equal-count runs of ops.

    A stall of the box lands in one run of ops and the median ignores it,
    where total/total would carry it into the result.
    """
    size = max(1, len(segments) // slices)
    rates = []
    for start in range(0, len(segments) - size + 1, size):
        chunk = segments[start : start + size]
        busy = sum(seconds for seconds, _ in chunk)
        rates.append(sum(offered for _, offered in chunk) / busy)
    return statistics.median(rates)


def quiesce() -> None:
    """Move everything allocated so far out of the collector's way."""
    gc.collect()
    gc.freeze()


def summarize(segments: list) -> dict:
    """qps / p50 / p95 (/ p99) of ``(seconds, statements)`` segments."""
    ordered = sorted(seconds for seconds, offered in segments if offered)
    summary = {
        "qps": sliced_qps(segments),
        "p50_ms": 1e3 * percentile(ordered, 50),
        "p95_ms": 1e3 * percentile(ordered, 95),
    }
    if len(ordered) >= 10_000:
        # >= 100 samples beyond it; informational (see README: demoted).
        summary["p99_ms"] = 1e3 * percentile(ordered, 99)
    return summary


def measure(
    workload: Workload, seed: int, seconds: float, smoke: bool = False
) -> dict:
    """The untraced run: every end-to-end metric of one workload.

    ``smoke`` sets up once, warms up briefly and drops the sample-count
    floor: a quick check that everything runs and answers correctly, not a
    measurement.
    """
    warmup, ops = workload.generate(seed)
    digest = stream_digest(warmup, ops)
    if smoke:
        warmup = warmup[: len(warmup) // SMOKE_WARMUP_DIVISOR]

    setups, raw_setups = [], []
    world = None
    for _ in range(1 if smoke else SETUP_REPEATS):
        world = None  # drop the previous federation before building anew
        gc.collect()
        before = speed_factor_now()
        world, elapsed = set_up(workload, seed, warmup)
        raw_setups.append(elapsed)
        setups.append(elapsed / ((before + speed_factor_now()) / 2.0))

    quiesce()
    window = timed_loop(
        workload,
        world,
        ops,
        seconds,
        min_ops=MIN_TIMED_OPS // SMOKE_DIVISOR if smoke else MIN_TIMED_OPS,
    )
    gc.unfreeze()

    checked, wrong, answers = workload.verify(world, ops)
    summary = summarize(window.calibrated())
    raw = summarize([(s, offered) for s, offered, _ in window.segments])
    metrics = {
        "qps": (summary["qps"], "1/s"),
        "p50_ms": (summary["p50_ms"], "ms"),
        "p95_ms": (summary["p95_ms"], "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MiB",
        ),
    }
    statements = window.statements
    info = {
        "input_sha256": digest,
        "answers_sha256": answers,
        "timed_ops": window.ops,
        "latency_samples": sum(1 for _, offered, _ in window.segments if offered),
        "verified": checked,
        "wrong_answers": wrong,
        "fail_rate": (window.failed + wrong) / (statements + checked),
        "speed_factor": statistics.median(speed_factors(window.kernel_seconds)),
        "raw_wall": dict(raw, setup_s=statistics.median(raw_setups)),
    }
    if "p99_ms" in summary:
        info["p99_ms"] = summary["p99_ms"]
    return {
        "attempted": statements + checked,
        "failed": window.failed + wrong,
        "metrics": metrics,
        "info": info,
    }
