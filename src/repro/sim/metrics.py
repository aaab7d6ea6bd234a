"""Lightweight metrics used by experiments to read out simulation results.

Benchmarks create one :class:`MetricsRegistry` per run, components record
into it, and the bench prints the registry summary as its result table.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable

# Histograms keep at most this many raw samples by default.  Large enough
# that percentile error is negligible for experiment readouts, small enough
# that millions of observations (e.g. per-query latencies in the workload
# benchmarks) cost bounded memory.
DEFAULT_RESERVOIR_SIZE = 4096


@dataclass
class Counter:
    """A monotonically increasing count (queries served, pages fetched...)."""

    name: str
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount


@dataclass
class Gauge:
    """A point-in-time value that may move in either direction."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, amount: float) -> None:
        self.value += amount


@dataclass
class Histogram:
    """A collection of observations with summary statistics.

    Count, total, mean, min, max and stddev are **exact** over every
    observation (maintained as running aggregates).  Raw samples are kept in
    a bounded **reservoir** (Vitter's Algorithm R, ``capacity`` samples, at
    least :data:`DEFAULT_RESERVOIR_SIZE` by default): up to ``capacity``
    observations the reservoir holds everything and percentiles are exact;
    beyond it, ``percentile`` is computed over a uniform random sample of
    everything seen, so it is an approximation whose error shrinks with
    capacity.  The reservoir's RNG is seeded from the histogram's name, so
    identical runs produce identical reservoirs.
    """

    name: str
    capacity: int = DEFAULT_RESERVOIR_SIZE
    samples: list[float] = field(default_factory=list)  # the reservoir

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError(f"histogram {self.name!r} needs capacity >= 1")
        self._rng = random.Random(self.name)
        self._count = 0
        self._total = 0.0
        self._sumsq = 0.0
        self._min = math.nan
        self._max = math.nan
        # Samples passed at construction are replayed as observations so the
        # exact aggregates stay in sync with the reservoir.
        seeded, self.samples = list(self.samples), []
        for value in seeded:
            self.observe(value)

    def observe(self, value: float) -> None:
        self._count += 1
        self._total += value
        self._sumsq += value * value
        if self._count == 1:
            self._min = value
            self._max = value
        else:
            self._min = min(self._min, value)
            self._max = max(self._max, value)
        if len(self.samples) < self.capacity:
            self.samples.append(value)
        else:
            slot = self._rng.randrange(self._count)
            if slot < self.capacity:
                self.samples[slot] = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._total

    @property
    def mean(self) -> float:
        if not self._count:
            return math.nan
        return self._total / self._count

    @property
    def minimum(self) -> float:
        return self._min

    @property
    def maximum(self) -> float:
        return self._max

    def percentile(self, q: float) -> float:
        """Return the ``q``-th percentile (0 <= q <= 100), nearest-rank.

        Exact while ``count <= capacity``; a reservoir-sample approximation
        beyond that.
        """
        if not 0 <= q <= 100:
            raise ValueError(f"percentile {q!r} out of range [0, 100]")
        if not self.samples:
            return math.nan
        ordered = sorted(self.samples)
        rank = max(0, math.ceil(q / 100 * len(ordered)) - 1)
        return ordered[rank]

    @property
    def stddev(self) -> float:
        if self._count < 2:
            return 0.0
        mean = self.mean
        variance = max(0.0, (self._sumsq - self._count * mean * mean)) / (
            self._count - 1
        )
        return math.sqrt(variance)


class Held(dict):
    """Instruments resolved once each: ``held[key]`` is ``lookup(name)``
    the first time ``key`` is asked for and a plain dict hit after, so a
    per-statement caller holds the instrument itself instead of formatting
    its name and probing the registry again.  ``key`` is the instrument's
    name, or the tuple of its dot-separated parts.  Nothing resolves before
    it is used: a registry's snapshot lists exactly the instruments it
    would have without this, in the order they were first touched.
    """

    def __init__(self, lookup: Callable[[str], Any]) -> None:
        super().__init__()
        self.lookup = lookup

    def __missing__(self, key: "str | tuple[str, ...]") -> Any:
        name = key if isinstance(key, str) else ".".join(key)
        instrument = self[key] = self.lookup(name)
        return instrument


class MetricsRegistry:
    """A namespace of counters, gauges and histograms for one run."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        if name not in self._gauges:
            self._gauges[name] = Gauge(name)
        return self._gauges[name]

    def histogram(self, name: str, capacity: int | None = None) -> Histogram:
        if name not in self._histograms:
            self._histograms[name] = Histogram(
                name,
                capacity if capacity is not None else DEFAULT_RESERVOIR_SIZE,
            )
        return self._histograms[name]

    def snapshot(self) -> dict[str, float]:
        """Return a flat ``{name: value}`` view (histograms report means)."""
        values: dict[str, float] = {}
        for name, counter in self._counters.items():
            values[name] = counter.value
        for name, gauge in self._gauges.items():
            values[name] = gauge.value
        for name, histogram in self._histograms.items():
            values[f"{name}.count"] = float(histogram.count)
            values[f"{name}.mean"] = histogram.mean
        return values
