"""Process-wide metrics registry: counters, gauges, histograms.

Generalizes the simulator's :class:`~repro.machine.stats.RunStats` to *real*
runs: any code path can bump a named counter, set a gauge or observe a
histogram sample, from any thread, and a snapshot of everything is one
:meth:`MetricsRegistry.to_dict` call away.  Counter names mirror
``RunStats.to_dict()`` semantics (``batches.generated``,
``speculation.discovered``, ...) so simulated and real runs are directly
comparable; :meth:`MetricsRegistry.absorb_run_stats` performs exactly that
mapping.
"""

from __future__ import annotations

import bisect
import threading
from typing import Dict, Optional, Sequence, Union

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "DEFAULT_BUCKETS"]

#: default histogram bucket upper bounds (milliseconds-flavoured, but
#: unit-agnostic); the implicit ``+Inf`` bucket is always appended
DEFAULT_BUCKETS = (
    0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0,
    250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
)


class Counter:
    """Monotonic thread-safe counter."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def add(self, n: Union[int, float] = 1) -> None:
        """Increment by ``n`` (must be >= 0)."""
        if n < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += n

    @property
    def value(self) -> Union[int, float]:
        """Current total."""
        return self._value


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: Union[int, float]) -> None:
        """Record the current level."""
        with self._lock:
            self._value = value

    @property
    def value(self) -> Union[int, float]:
        """Most recently set level."""
        return self._value


class Histogram:
    """Streaming summary (count / sum / min / max) plus fixed buckets.

    Buckets are Prometheus-style upper bounds (an implicit ``+Inf`` bucket
    always catches the tail), stored non-cumulative internally; the
    Prometheus renderer cumulates on export.  Quantiles are estimated from
    the :meth:`to_dict` snapshot by
    :func:`repro.telemetry.slo.quantile_from_summary`.
    """

    __slots__ = ("name", "count", "sum", "min", "max", "buckets",
                 "bucket_counts", "_lock")

    def __init__(self, name: str,
                 buckets: Optional[Sequence[float]] = None) -> None:
        self.name = name
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.buckets = tuple(sorted(buckets if buckets is not None
                                    else DEFAULT_BUCKETS))
        # one slot per finite bound + the +Inf tail
        self.bucket_counts = [0] * (len(self.buckets) + 1)
        self._lock = threading.Lock()

    def observe(self, value: Union[int, float]) -> None:
        """Fold one sample into the summary."""
        v = float(value)
        with self._lock:
            self.count += 1
            self.sum += v
            if v < self.min:
                self.min = v
            if v > self.max:
                self.max = v
            self.bucket_counts[bisect.bisect_left(self.buckets, v)] += 1

    def merge_dict(self, other: dict) -> None:
        """Fold another histogram's :meth:`to_dict` snapshot into this one
        (cross-process metric merging; bucket layouts must match)."""
        if not other.get("count"):
            return
        with self._lock:
            self.count += other["count"]
            self.sum += other["sum"]
            self.min = min(self.min, other["min"])
            self.max = max(self.max, other["max"])
            for le, n in (other.get("buckets") or {}).items():
                bound = float(le)
                idx = (len(self.buckets) if bound == float("inf")
                       else bisect.bisect_left(self.buckets, bound))
                self.bucket_counts[idx] += n

    def to_dict(self) -> dict:
        """Summary snapshot (``mean``/``buckets`` included when non-empty)."""
        if not self.count:
            return {"count": 0, "sum": 0.0}
        bounds = [str(b) for b in self.buckets] + ["inf"]
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.sum / self.count,
            "buckets": {
                le: n for le, n in zip(bounds, self.bucket_counts) if n
            },
        }


class MetricsRegistry:
    """Create-on-first-use registry of named instruments."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """The counter called ``name``, created if missing."""
        with self._lock:
            inst = self._counters.get(name)
            if inst is None:
                inst = self._counters[name] = Counter(name)
            return inst

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name``, created if missing."""
        with self._lock:
            inst = self._gauges.get(name)
            if inst is None:
                inst = self._gauges[name] = Gauge(name)
            return inst

    def histogram(self, name: str,
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        """The histogram called ``name``, created if missing.

        ``buckets`` only takes effect at creation; later callers get the
        existing instrument unchanged.
        """
        with self._lock:
            inst = self._histograms.get(name)
            if inst is None:
                inst = self._histograms[name] = Histogram(name, buckets)
            return inst

    def clear(self) -> None:
        """Drop every instrument."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    def to_dict(self) -> dict:
        """JSON-serializable snapshot of all instruments."""
        with self._lock:
            return {
                "counters": {n: c.value for n, c in sorted(self._counters.items())},
                "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
                "histograms": {
                    n: h.to_dict() for n, h in sorted(self._histograms.items())
                },
            }

    # ------------------------------------------------------------------
    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold a :meth:`to_dict` snapshot from another registry into this
        one: counters add, gauges last-write-win, histograms merge.

        This is the parent side of cross-process telemetry: worker
        processes ship their registry snapshot back with each result and
        the parent accumulates them (see :mod:`repro.telemetry.context`).
        """
        for name, value in (snapshot.get("counters") or {}).items():
            self.counter(name).add(value)
        for name, value in (snapshot.get("gauges") or {}).items():
            self.gauge(name).set(value)
        for name, summary in (snapshot.get("histograms") or {}).items():
            self.histogram(name).merge_dict(summary)

    # ------------------------------------------------------------------
    def absorb_run_stats(self, stats, prefix: str = "sim.") -> None:
        """Fold a simulated :class:`RunStats` into the registry.

        Queue/speculation/overhang/GPU counters become counters under
        ``prefix`` with the same nesting as ``RunStats.to_dict()``
        (``sim.batches.generated``, ``sim.speculation.dropped``, ...);
        makespan and worker count become gauges, stage cycles counters.
        """
        d = stats.to_dict()
        self.gauge(prefix + "n_workers").set(d["n_workers"])
        self.gauge(prefix + "makespan_cycles").set(d["makespan"])
        for stage, cycles in d["stage_cycles"].items():
            self.counter(f"{prefix}stage_cycles.{stage}").add(cycles)
        for group in ("batches", "speculation", "overhangs", "gpu"):
            for key, val in d[group].items():
                self.counter(f"{prefix}{group}.{key}").add(val)
