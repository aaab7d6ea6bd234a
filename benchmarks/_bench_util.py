"""Shared helpers for the experiment benchmarks.

Every experiment (E1..E12, see DESIGN.md §4) produces a small result table.
:func:`report` prints it *and* writes it under ``benchmarks/results/`` so the
series survive pytest's output capturing and can be pasted into
EXPERIMENTS.md.  Assertions in each bench check the paper-claim *shape*
(who wins, which way the curve bends), not absolute numbers.
"""

from __future__ import annotations

import json
import os

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def report(name: str, title: str, header: list[str], rows: list[list]) -> str:
    """Format, print, and persist one experiment's result table."""
    widths = [
        max(len(str(header[i])), *(len(_fmt(row[i])) for row in rows))
        for i in range(len(header))
    ]
    lines = [title, ""]
    lines.append("  ".join(str(h).rjust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(_fmt(cell).rjust(w) for cell, w in zip(row, widths)))
    text = "\n".join(lines) + "\n"

    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as f:
        f.write(text)
    print(f"\n{text}")
    return text


def write_json(name: str, payload: dict) -> str:
    """Persist a machine-readable benchmark summary at the repo root.

    Wall-clock numbers (rows/sec, latency percentiles) live here, NOT in
    the ``results/`` tables -- the tables must stay byte-identical across
    runs (DESIGN.md §7, CI determinism job), while these JSON files are
    the regression-gate inputs and vary with the machine.

    An existing file's ``"gate"`` list (the contract ``check_gates.py``
    reads) is carried forward: no bench computes its own gates.
    """
    path = os.path.join(REPO_ROOT, f"{name}.json")
    if os.path.exists(path):
        with open(path) as f:
            gate = json.load(f).get("gate")
        if gate is not None:
            payload = {**payload, "gate": gate}
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"\nwrote {path}")
    return path


def merge_json(name: str, update: dict) -> str:
    """Fold ``update``'s sections into ``<name>.json``, keeping the rest
    (several benches contribute to one summary)."""
    path = os.path.join(REPO_ROOT, f"{name}.json")
    payload = {}
    if os.path.exists(path):
        with open(path) as f:
            payload = json.load(f)
    payload.update(update)
    return write_json(name, payload)


def _fmt(cell) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000:
            return f"{cell:.0f}"
        if abs(cell) >= 1:
            return f"{cell:.2f}"
        return f"{cell:.4f}"
    return str(cell)
