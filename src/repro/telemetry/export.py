"""Exporters: real wall-clock spans in the simulator's trace formats.

The simulated engine already renders ``(start, worker, stage, cycles)``
traces as ASCII Gantt charts and Chrome-tracing JSON
(:mod:`repro.machine.tracing`).  This module maps :class:`SpanRecord` lists
onto that same representation so *real* thread activity (the OS-thread
backend, API phases, the solver) renders in the identical tooling —
one mental model for both machines.

Lane assignment: spans carrying a ``worker`` id get that lane; anonymous
spans share one lane per OS thread, appended after the worker lanes.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Sequence, Tuple, Union

from repro.machine.tracing import TraceEvent, ascii_gantt
from repro.telemetry.spans import SpanRecord

__all__ = [
    "lane_assignment",
    "spans_to_trace_events",
    "spans_to_chrome_tracing",
    "spans_gantt",
    "phase_totals_ms",
    "profile_to_collapsed",
]


def _lane_key(r: SpanRecord) -> Tuple[str, int]:
    return ("w", r.worker) if r.worker is not None else ("t", r.thread_id)


def _lanes(records: Sequence[SpanRecord]) -> Dict[Tuple[str, int], int]:
    """The one lane map: lane index per :func:`_lane_key`.

    Worker lanes come first, in worker order, then one lane per distinct
    anonymous OS thread, in order of first appearance.
    """
    workers = sorted({r.worker for r in records if r.worker is not None})
    lanes = {("w", w): i for i, w in enumerate(workers)}
    for r in records:
        lanes.setdefault(_lane_key(r), len(lanes))
    return lanes


def lane_assignment(records: Sequence[SpanRecord]) -> Dict[int, str]:
    """Dense ``lane index -> label`` map for a span list: ``worker N``
    lanes, then ``thread K`` lanes (see :func:`_lanes`)."""
    lanes = _lanes(records)
    n_workers = sum(kind == "w" for kind, _ in lanes)
    return {
        i: f"worker {ident}" if kind == "w" else f"thread {i - n_workers}"
        for (kind, ident), i in lanes.items()
    }


def spans_to_trace_events(
    records: Sequence[SpanRecord], *, leaves_only: bool = True
) -> List[TraceEvent]:
    """Convert spans to simulator trace tuples ``(start, lane, name, dur)``.

    Times are microseconds from the tracer epoch.  With ``leaves_only``
    (default) enclosing spans are dropped where a child covers them, keeping
    Gantt columns unambiguous: a parent is kept only if no record names it
    as ``parent_id``.
    """
    if not records:
        return []
    lane = _lanes(records)
    parents = {r.parent_id for r in records if r.parent_id is not None}
    events: List[TraceEvent] = []
    for r in records:
        if leaves_only and r.span_id in parents:
            continue
        events.append(
            (r.start_ns / 1e3, lane[_lane_key(r)], r.name, r.duration_ns / 1e3)
        )
    events.sort(key=lambda e: (e[0], e[1]))
    return events


def spans_to_chrome_tracing(
    records: Sequence[SpanRecord],
    path: Union[str, Path],
    *,
    process_name: str = "repro",
) -> None:
    """Write spans as Chrome-tracing JSON (open in Perfetto).

    Emits ``"ph": "M"`` ``thread_name`` metadata so lanes read
    ``worker N`` / ``thread K`` instead of bare tids, then one complete
    (``"ph": "X"``) event per span with its attributes under ``args``.
    """
    lane = _lanes(records)
    labels = lane_assignment(records)
    events: List[dict] = [{
        "name": "process_name",
        "ph": "M",
        "pid": 0,
        "tid": 0,
        "args": {"name": process_name},
    }]
    for idx in sorted(labels):
        events.append({
            "name": "thread_name",
            "ph": "M",
            "pid": 0,
            "tid": idx,
            "args": {"name": labels[idx]},
        })
    for r in records:
        events.append({
            "name": r.name,
            "cat": r.category,
            "ph": "X",
            "ts": r.start_ns / 1e3,          # ns -> µs
            "dur": r.duration_ns / 1e3,
            "pid": 0,
            "tid": lane[_lane_key(r)],
            "args": dict(r.attrs, dur_ns=r.duration_ns),
        })
    payload = {"traceEvents": events, "displayTimeUnit": "ms"}
    Path(path).write_text(json.dumps(payload))


def spans_gantt(records: Sequence[SpanRecord], *, width: int = 100) -> str:
    """ASCII Gantt of real spans (one lane per worker/thread) plus labels."""
    if not records:
        return "(empty trace)"
    events = spans_to_trace_events(records)
    labels = lane_assignment(records)
    chart = ascii_gantt(events, width=width, n_workers=len(labels))
    # the simulator chart is cycle-denominated; relabel for wall time
    chart = chart.replace("simulated Gantt", "wall-clock Gantt").replace(
        "cycles,", "µs,", 1
    )
    lanes = "  ".join(f"w{i}={name}" for i, name in sorted(labels.items()))
    return f"{chart}\n     lanes: {lanes}"


def phase_totals_ms(records: Sequence[SpanRecord]) -> Dict[str, float]:
    """Total wall milliseconds per span name (all lanes summed)."""
    out: Dict[str, float] = {}
    for r in records:
        out[r.name] = out.get(r.name, 0.0) + r.duration_ns / 1e6
    return out


# ----------------------------------------------------------------------
# sampling-profiler exports (see repro.telemetry.profiler)
# ----------------------------------------------------------------------

def profile_to_collapsed(profile: Dict[str, int]) -> str:
    """Folded counts in Brendan Gregg's collapsed-stack text format.

    One ``seg;seg;seg count`` line per distinct stack, sorted, ready for
    ``flamegraph.pl`` / inferno, and for https://www.speedscope.app,
    which opens the collapsed format directly.
    """
    lines = [f"{stack} {count}" for stack, count in sorted(profile.items())]
    return "\n".join(lines) + ("\n" if lines else "")
