"""Thread-safe hierarchical wall-clock span tracer.

Real runs (the OS-thread backend, the public API pipeline, the solver)
cannot use the simulator's cycle accounting — they need *wall-clock* spans.
:class:`Tracer` records ``perf_counter_ns`` intervals as a tree (each thread
keeps its own open-span stack, so nesting is captured without any global
coordination) and is safe to use from many threads at once.

The disabled path is near-free: :meth:`Tracer.span` returns a shared no-op
context manager without allocating, so instrumentation can stay in hot code
permanently.  A pipeline phase opens its span with ``into=phase_ns``: the
span is then the phase's only timer, and the result's ``phase_ns`` is filled
from the span's own clock reads, traced or not.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = ["SpanRecord", "Tracer", "NULL_SPAN"]

#: thread-local holder of the active :class:`~repro.telemetry.context.TraceContext`
#: (managed by :mod:`repro.telemetry.context`; kept here so the span hot path
#: reads it without an import cycle)
_CONTEXT = threading.local()


def current_trace():
    """The :class:`TraceContext` active on this thread, or ``None``."""
    return getattr(_CONTEXT, "value", None)


@dataclass
class SpanRecord:
    """One finished wall-clock span."""

    span_id: int
    parent_id: Optional[int]
    name: str
    category: str
    start_ns: int
    duration_ns: int
    thread_id: int
    #: logical worker lane (thread backend); ``None`` = main/pipeline code
    worker: Optional[int] = None
    attrs: Dict[str, Any] = field(default_factory=dict)
    #: request trace id stamped from the active :class:`TraceContext`
    trace_id: Optional[str] = None
    #: OS process that recorded the span (cross-process attribution)
    pid: Optional[int] = None

    @property
    def end_ns(self) -> int:
        """Exclusive end timestamp (``start_ns + duration_ns``)."""
        return self.start_ns + self.duration_ns

    def to_event(self) -> dict:
        """JSON-serializable event record (the JSONL ``span`` schema)."""
        return {
            "type": "span",
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "cat": self.category,
            "start_ns": self.start_ns,
            "dur_ns": self.duration_ns,
            "tid": self.thread_id,
            "worker": self.worker,
            "attrs": self.attrs,
            "trace_id": self.trace_id,
            "pid": self.pid,
        }

    @classmethod
    def from_event(cls, event: dict) -> "SpanRecord":
        """Rebuild a record from its :meth:`to_event` dict (merge path)."""
        return cls(
            span_id=event["id"],
            parent_id=event.get("parent"),
            name=event["name"],
            category=event.get("cat", "phase"),
            start_ns=event["start_ns"],
            duration_ns=event["dur_ns"],
            thread_id=event.get("tid", 0),
            worker=event.get("worker"),
            attrs=dict(event.get("attrs") or {}),
            trace_id=event.get("trace_id"),
            pid=event.get("pid"),
        )


class _NullSpan:
    """Shared no-op context manager returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> None:
        """Ignore attributes (disabled mode)."""

    @property
    def span_id(self) -> None:
        """No id while disabled (keeps caller code branch-free)."""
        return None


NULL_SPAN = _NullSpan()


class _PhaseTimer:
    """Adds one phase's wall time to a ``phase_ns`` dict; records nothing.

    What :meth:`Tracer.span` returns for an ``into=`` span while tracing
    is disabled: the same two ``perf_counter_ns`` reads a recorded span
    takes, without a record.
    """

    __slots__ = ("_name", "_into", "_start_ns")

    span_id = None

    def __init__(self, name: str, into: Optional[Dict[str, int]]) -> None:
        self._name = name
        self._into = into

    def set(self, **attrs) -> None:
        """Ignore attributes (nothing is recorded)."""

    def __enter__(self) -> "_PhaseTimer":
        self._start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> bool:
        self._add(time.perf_counter_ns() - self._start_ns)
        return False

    def _add(self, duration_ns: int) -> None:
        into = self._into
        if into is not None:
            into[self._name] = into.get(self._name, 0) + duration_ns


class _ActiveSpan(_PhaseTimer):
    """Context manager measuring one span on the owning thread's stack."""

    __slots__ = ("_tracer", "_category", "_worker", "_attrs",
                 "_span_id", "_parent_id")

    def __init__(self, tracer: "Tracer", name: str, category: str,
                 worker: Optional[int], attrs: Dict[str, Any],
                 into: Optional[Dict[str, int]]) -> None:
        super().__init__(name, into)
        self._tracer = tracer
        self._category = category
        self._worker = worker
        self._attrs = attrs

    def set(self, **attrs) -> None:
        """Attach extra attributes to the span before it closes."""
        self._attrs.update(attrs)

    @property
    def span_id(self) -> int:
        """The id assigned at ``__enter__`` (parent for merged sub-traces)."""
        return self._span_id

    def __enter__(self) -> "_ActiveSpan":
        stacks = self._tracer._stacks
        tid = threading.get_ident()
        stack = stacks.get(tid)
        if stack is None:
            stack = stacks[tid] = []
        self._parent_id = stack[-1]._span_id if stack else None
        self._span_id = next(self._tracer._ids)
        stack.append(self)
        self._start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> bool:
        end = time.perf_counter_ns()
        tr = self._tracer
        tid = threading.get_ident()
        stack = tr._stacks.get(tid)
        if stack and stack[-1] is self:
            stack.pop()
            if not stack:
                tr._stacks.pop(tid, None)
        self._add(end - self._start_ns)
        tr.record(self._name, self._start_ns, end, category=self._category,
                  worker=self._worker, attrs=self._attrs,
                  span_id=self._span_id, parent_id=self._parent_id)
        return False


class Tracer:
    """Collects :class:`SpanRecord` trees from any number of threads.

    Timestamps are stored relative to :attr:`epoch_ns` (the construction or
    last :meth:`clear` time) so exported traces start near zero.  Each
    thread's open spans form a stack keyed by its thread id, so another
    thread (the sampling profiler) can read them.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = bool(enabled)
        self.epoch_ns = time.perf_counter_ns()
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._records: List[SpanRecord] = []
        #: thread id -> that thread's open spans, innermost last; only the
        #: owning thread pushes and pops, and single dict/list operations
        #: are atomic under the GIL, so readers need no lock
        self._stacks: Dict[int, List[_ActiveSpan]] = {}

    def span(self, name: str, *, category: str = "phase",
             worker: Optional[int] = None,
             into: Optional[Dict[str, int]] = None, **attrs):
        """Open a wall-clock span as a context manager.

        With ``into`` (a ``phase_ns`` dict), the span's duration is added
        to ``into[name]`` whether tracing is on or off, from the same two
        ``perf_counter_ns`` reads the recorded span carries, so the dict
        and the span tree agree exactly.  Without ``into``, a disabled
        tracer returns the shared :data:`NULL_SPAN`, so callers can leave
        ``with tracer.span(...)`` in hot paths.
        """
        if not self.enabled:
            return NULL_SPAN if into is None else _PhaseTimer(name, into)
        return _ActiveSpan(self, name, category, worker, attrs, into)

    def record(self, name: str, start_ns: int, end_ns: int, *,
               category: str = "phase", worker: Optional[int] = None,
               attrs: Optional[Dict[str, Any]] = None,
               span_id: Optional[int] = None,
               parent_id: Optional[int] = None) -> None:
        """Record a finished span from two ``perf_counter_ns`` reads; every
        span ends here.  Called directly, it records parentless work named
        only when it ends (an OS-thread step, named by its last event)."""
        ctx = getattr(_CONTEXT, "value", None)
        rec = SpanRecord(
            span_id=next(self._ids) if span_id is None else span_id,
            parent_id=parent_id,
            name=name,
            category=category,
            start_ns=start_ns - self.epoch_ns,
            duration_ns=end_ns - start_ns,
            thread_id=threading.get_ident(),
            worker=worker,
            attrs={} if attrs is None else attrs,
            trace_id=ctx.trace_id if ctx is not None else None,
            pid=os.getpid(),
        )
        with self._lock:
            self._records.append(rec)

    def records(self) -> List[SpanRecord]:
        """Snapshot of all finished spans (copy; safe to iterate)."""
        with self._lock:
            return list(self._records)

    def clear(self) -> None:
        """Drop all records and open-span stacks; restart the epoch.

        Emptying the stacks matters after ``fork``: a worker that clears
        its inherited tracer does not start inside the parent's spans.
        """
        with self._lock:
            self._records.clear()
            self._stacks.clear()
            self.epoch_ns = time.perf_counter_ns()
