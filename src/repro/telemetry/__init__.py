"""Unified telemetry for *real* runs: spans, counters, exporters.

The simulated machine measures itself (``machine/stats.py``,
``machine/tracing.py``); this package is the equivalent observability layer
for everything that runs on the actual hardware — the OS-thread backend, the
public API pipeline, the solver and the benchmark drivers.  It bundles:

* :mod:`repro.telemetry.spans` — thread-safe hierarchical wall-clock spans
  (``perf_counter_ns``), near-zero overhead while disabled;
* :mod:`repro.telemetry.metrics` — process-wide counters / gauges /
  histograms generalizing :class:`~repro.machine.stats.RunStats`;
* :mod:`repro.telemetry.events` — structured JSONL sink and reader;
* :mod:`repro.telemetry.export` — renders real spans in the simulator's
  ASCII-Gantt and Chrome-tracing/Perfetto formats;
* :mod:`repro.telemetry.context` — per-request :class:`TraceContext`
  propagated across threads and worker processes, with span/metric
  merging so one request yields one coherent trace;
* :mod:`repro.telemetry.prometheus` — text exposition + embedded
  ``/metrics`` endpoint for ``repro serve --listen``;
* :mod:`repro.telemetry.history` — append-only run-history store and the
  noise-aware trend verdicts behind ``repro telemetry trend``;
* :mod:`repro.telemetry.slo` — declarative service-level objectives
  evaluated live (``/statusz`` health score, ``slo.*`` gauges) and
  offline against the history store.

Usage — everything hangs off one process-wide :class:`Telemetry` instance::

    from repro import telemetry

    telemetry.enable()
    res = repro.reorder(mat, method="threads")
    telemetry.get().write_jsonl("run.jsonl", meta={"matrix": "gupta3"})

Instrumented library code stays cheap when disabled: ``tel.span(...)``
returns a shared no-op context manager and counter lookups are guarded by
``tel.enabled`` checks at batch granularity.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from repro.telemetry.spans import SpanRecord, Tracer, NULL_SPAN
from repro.telemetry.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.telemetry.events import (
    JsonlSink,
    git_sha,
    host_info,
    read_jsonl,
    write_events,
    SCHEMA,
)
from repro.telemetry.context import (
    TraceContext,
    WorkerReport,
    activate,
    current_trace,
    ensure_context,
    merge_worker_report,
    new_trace_context,
)
from repro.telemetry.prometheus import (
    MetricsServer,
    metric_inventory_table,
    render_prometheus,
)
from repro.telemetry.export import (
    lane_assignment,
    phase_totals_ms,
    profile_to_collapsed,
    profile_to_speedscope,
    spans_gantt,
    spans_to_chrome_tracing,
    spans_to_trace_events,
)
from repro.telemetry.profiler import (
    SamplingProfiler,
    get_profiler,
    profiler_stats,
    start_profiler,
    stop_profiler,
)
from repro.telemetry.critical_path import critical_path, format_report

__all__ = [
    "Telemetry",
    "get",
    "enable",
    "disable",
    "enabled",
    "reset",
    "span",
    "counter",
    "Tracer",
    "SpanRecord",
    "NULL_SPAN",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "JsonlSink",
    "git_sha",
    "host_info",
    "read_jsonl",
    "write_events",
    "SCHEMA",
    "TraceContext",
    "WorkerReport",
    "activate",
    "current_trace",
    "ensure_context",
    "merge_worker_report",
    "new_trace_context",
    "MetricsServer",
    "metric_inventory_table",
    "render_prometheus",
    "lane_assignment",
    "phase_totals_ms",
    "profile_to_collapsed",
    "profile_to_speedscope",
    "spans_gantt",
    "spans_to_chrome_tracing",
    "spans_to_trace_events",
    "SamplingProfiler",
    "start_profiler",
    "stop_profiler",
    "get_profiler",
    "profiler_stats",
    "critical_path",
    "format_report",
]


class Telemetry:
    """One tracer + one metrics registry, enabled/disabled as a unit."""

    def __init__(self, enabled: bool = False) -> None:
        self.tracer = Tracer(enabled)
        self.metrics = MetricsRegistry()

    @property
    def enabled(self) -> bool:
        """Whether instrumentation should record anything."""
        return self.tracer.enabled

    def enable(self) -> None:
        """Turn recording on."""
        self.tracer.enabled = True

    def disable(self) -> None:
        """Turn recording off (already-collected data is kept)."""
        self.tracer.enabled = False

    def reset(self) -> None:
        """Drop all spans and metrics; keep the enabled flag."""
        self.tracer.clear()
        self.metrics.clear()

    # -- instrumentation shorthands ------------------------------------
    def span(self, name: str, **kw):
        """Open a span on the bundled tracer (no-op when disabled)."""
        return self.tracer.span(name, **kw)

    def counter(self, name: str) -> Counter:
        """The named counter from the bundled registry."""
        return self.metrics.counter(name)

    def gauge(self, name: str) -> Gauge:
        """The named gauge from the bundled registry."""
        return self.metrics.gauge(name)

    def histogram(self, name: str, buckets=None) -> Histogram:
        """The named histogram from the bundled registry.

        ``buckets`` only takes effect at creation (registry semantics).
        """
        return self.metrics.histogram(name, buckets)

    # -- export ---------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-serializable state: per-phase wall ns + all instruments."""
        return {
            "phases_ns": self.tracer.phase_totals(),
            **self.metrics.to_dict(),
        }

    def write_jsonl(self, path: Union[str, Path],
                    meta: Optional[dict] = None) -> int:
        """Dump the session (meta + spans + metrics) to a JSONL file."""
        return write_events(path, self.tracer, self.metrics, meta=meta)

    def write_chrome_trace(self, path: Union[str, Path]) -> None:
        """Export all spans as Chrome-tracing JSON (Perfetto-loadable)."""
        spans_to_chrome_tracing(self.tracer.records(), path)


_GLOBAL = Telemetry(enabled=False)


def get() -> Telemetry:
    """The process-wide :class:`Telemetry` instance."""
    return _GLOBAL


def enable() -> None:
    """Enable the process-wide telemetry instance."""
    _GLOBAL.enable()


def disable() -> None:
    """Disable the process-wide telemetry instance."""
    _GLOBAL.disable()


def enabled() -> bool:
    """Whether the process-wide instance is recording."""
    return _GLOBAL.enabled


def reset() -> None:
    """Clear all process-wide spans and metrics."""
    _GLOBAL.reset()


def span(name: str, **kw):
    """Module-level shorthand for ``get().span(...)``."""
    return _GLOBAL.span(name, **kw)


def counter(name: str) -> Counter:
    """Module-level shorthand for ``get().counter(...)``."""
    return _GLOBAL.counter(name)
