"""Speed calibration: a fixed pure-Python kernel timed beside the workload.

The box this benchmark runs on is a small VM whose effective speed moves
by 20 % and more for seconds to minutes at a time (neighbours on the
host).  Raw wall-clock numbers of two runs of the *same* commit then
differ by more than any bound worth setting.  So the timed loop runs this
kernel after every ~50 ms of measured ops; the kernel's time over its
reference time is the box's momentary **speed factor**, and every
measured duration is divided by the factor of its slice.  Reported times
are therefore wall-clock seconds *at reference speed*; the raw wall-clock
figures are printed next to them.

The kernel never touches the program under test -- a slower or faster
``repro`` cannot move it -- but it is built from the same stuff
(small dicts, attribute access, isinstance dispatch, recursion, grouping,
sorting), because that is what tracks the program's own slowdown best:
an arithmetic loop tracks it three to four times worse.
"""

from __future__ import annotations

import statistics
import time

# The kernel's run time on the reference box in a quiet moment.  It only
# fixes the scale of the reported numbers; it is not tuned per commit.
REFERENCE_SECONDS = 0.0016
SLICE_SECONDS = 0.05  # measured work between two kernel runs
SMOOTHING = 5  # a slice's factor is the median of this many kernel runs


class _Node:
    __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right) -> None:
        self.op = op
        self.left = left
        self.right = right


def _evaluate(node, env):
    if isinstance(node, _Node):
        left = _evaluate(node.left, env)
        right = _evaluate(node.right, env)
        if node.op == "+":
            return left + right
        if node.op == "<":
            return left < right
        return left and right
    if isinstance(node, str):
        return env[node]
    return node


_PREDICATE = _Node(
    "and",
    _Node("<", "p.price", _Node("+", "p.qty", 40)),
    _Node("<", 3, "p.qty"),
)
_NAMES = ["p.sku", "p.supplier", "p.price", "p.qty"]


def kernel() -> list:
    """Build row envs, filter them through a tiny expression tree, group."""
    kept = []
    for i in range(800):
        env = dict(
            zip(_NAMES, (f"part-{i:06d}", f"sup-{i % 40:02d}", float(i % 97), i % 50))
        )
        if _evaluate(_PREDICATE, env):
            kept.append(env)
    groups: dict = {}
    for env in kept:
        groups.setdefault(env["p.supplier"], []).append(env["p.price"])
    return sorted((key, len(values), sum(values)) for key, values in groups.items())


def timed_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def speed_factors(kernel_seconds: list) -> list:
    """One factor per kernel run: the median of its neighbourhood over the
    reference (a stall that hits a single kernel run is smoothed away)."""
    half = SMOOTHING // 2
    return [
        statistics.median(kernel_seconds[max(0, i - half) : i + half + 1])
        / REFERENCE_SECONDS
        for i in range(len(kernel_seconds))
    ]


def speed_factor_now() -> float:
    """From back-to-back kernel runs (used around set-up, which has no
    slices of its own)."""
    return (
        statistics.median(timed_kernel() for _ in range(SMOOTHING))
        / REFERENCE_SECONDS
    )
