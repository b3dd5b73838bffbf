"""Process-local metrics registry: counters and histograms.

The counting half of :mod:`repro.obs` (the timing half is
:mod:`repro.obs.trace`).  Instruments are cheap mutable objects
handed out by a :class:`MetricsRegistry`; hot sites cache the handle
at module import and call ``inc()`` / ``observe()`` directly::

    from repro.obs import metrics

    _HITS = metrics.REGISTRY.counter("campaign.store.hits")
    ...
    _HITS.inc()

``REGISTRY.reset()`` zeroes every instrument **in place** rather than
discarding them, so cached handles stay live across resets - a test
or a ``repro trace`` run can reset, run, snapshot without re-wiring
any call site.

Histograms use fixed log-spaced bucket boundaries (decade thirds
from 1 µs to 1000 s) so snapshots from different runs and workers
are mergeable bucket-by-bucket without rebinning.

Stdlib-only by contract; serialization to/from JSON documents lives
in :mod:`repro.obs.export`.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from dataclasses import dataclass, field

__all__ = ["Counter", "Histogram", "HistogramState",
           "MetricsRegistry", "MetricsSnapshot", "REGISTRY",
           "default_bounds"]


def default_bounds() -> tuple[float, ...]:
    """The shared log-spaced bucket boundaries: three per decade from
    1e-6 to 1e3 (wall seconds), 28 edges -> 29 buckets including the
    overflow bucket."""
    return tuple(10.0 ** (exp / 3.0) for exp in range(-18, 10))


_DEFAULT_BOUNDS = default_bounds()


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def reset(self) -> None:
        self.value = 0


class Histogram:
    """Fixed-bucket histogram of non-negative samples.

    ``bounds`` are the upper-inclusive bucket edges; a sample lands in
    the first bucket whose edge is >= the value, or the final
    overflow bucket.  Exact ``total``/``min``/``max``/``count`` are
    kept alongside the bucket counts.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total",
                 "min", "max")

    def __init__(self, name: str,
                 bounds: tuple[float, ...] = _DEFAULT_BOUNDS):
        self.name = name
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def mean(self) -> float | None:
        if not self.count:
            return None
        return self.total / self.count

    def reset(self) -> None:
        for i in range(len(self.counts)):
            self.counts[i] = 0
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def state(self) -> "HistogramState":
        return HistogramState(
            bounds=list(self.bounds),
            counts=list(self.counts),
            count=self.count,
            total=self.total,
            min=self.min if self.count else None,
            max=self.max if self.count else None,
        )


@dataclass
class HistogramState:
    """Serializable snapshot of one :class:`Histogram`."""

    bounds: list[float] = field(default_factory=list)
    counts: list[int] = field(default_factory=list)
    count: int = 0
    total: float = 0.0
    min: float | None = None
    max: float | None = None


@dataclass
class MetricsSnapshot:
    """Point-in-time, serializable view of a registry."""

    counters: dict[str, int] = field(default_factory=dict)
    histograms: dict[str, HistogramState] = field(default_factory=dict)

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Element-wise sum with *other* (histograms require identical
        bounds)."""
        out = MetricsSnapshot(
            counters=dict(self.counters),
            histograms={k: HistogramState(
                bounds=list(v.bounds), counts=list(v.counts),
                count=v.count, total=v.total, min=v.min, max=v.max)
                for k, v in self.histograms.items()},
        )
        for name, value in other.counters.items():
            out.counters[name] = out.counters.get(name, 0) + value
        for name, hist in other.histograms.items():
            mine = out.histograms.get(name)
            if mine is None:
                out.histograms[name] = HistogramState(
                    bounds=list(hist.bounds), counts=list(hist.counts),
                    count=hist.count, total=hist.total,
                    min=hist.min, max=hist.max)
                continue
            if mine.bounds != hist.bounds:
                raise ValueError(
                    f"histogram {name!r}: bucket bounds differ, "
                    "cannot merge")
            mine.counts = [a + b
                           for a, b in zip(mine.counts, hist.counts)]
            mine.count += hist.count
            mine.total += hist.total
            for attr, pick in (("min", min), ("max", max)):
                a, b = getattr(mine, attr), getattr(hist, attr)
                setattr(mine, attr,
                        pick(a, b) if a is not None and b is not None
                        else (a if b is None else b))
        return out


class MetricsRegistry:
    """Get-or-create factory and namespace for instruments.

    Creation is lock-guarded so two threads asking for the same name
    get the same instrument; the instruments themselves are unlocked
    (single-writer or tolerable-race counters, per the GIL).
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        inst = self._counters.get(name)
        if inst is None:
            with self._lock:
                inst = self._counters.setdefault(name, Counter(name))
        return inst

    def histogram(self, name: str,
                  bounds: tuple[float, ...] = _DEFAULT_BOUNDS,
                  ) -> Histogram:
        inst = self._histograms.get(name)
        if inst is None:
            with self._lock:
                inst = self._histograms.setdefault(
                    name, Histogram(name, bounds))
        return inst

    def snapshot(self) -> MetricsSnapshot:
        """Serializable point-in-time copy of every instrument that
        has recorded anything."""
        return MetricsSnapshot(
            counters={name: c.value
                      for name, c in sorted(self._counters.items())
                      if c.value},
            histograms={name: h.state()
                        for name, h in sorted(self._histograms.items())
                        if h.count},
        )

    def reset(self) -> None:
        """Zero every instrument *in place* - cached handles at call
        sites keep working across resets."""
        with self._lock:
            for c in self._counters.values():
                c.reset()
            for h in self._histograms.values():
                h.reset()


#: The process-wide default registry all built-in instrumentation
#: writes to.
REGISTRY = MetricsRegistry()
