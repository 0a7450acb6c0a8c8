"""Continuous sampling profiler with span/phase attribution.

A daemon thread walks :func:`sys._current_frames` at a configurable rate
(default 11 Hz) and aggregates every thread's stack into folded-stack
counts — the collapsed format flamegraph tools eat directly::

    phase:ordering;process:main;cli.py:main;api.py:reorder;... 41

The first segments are *attribution*, not frames: which pipeline phase
the sampled thread was serving when the tick landed (its innermost open
``api`` span).  Attribution reads the global tracer's own open-span
stacks, which are keyed by thread id, so a span costs nothing extra
whether or not a profiler runs.

Fork workers run their own short-lived ``role="worker"`` sampler per
task (started by ``begin_worker_capture``) and ship their folded counts
home inside :class:`~repro.telemetry.context.WorkerReport`, where
``merge_worker_report`` absorbs them into the parent's active profiler —
one ``method="parallel"`` request therefore yields one cross-process
flamegraph.

The profiler measures its own cost (time inside sample ticks vs wall
time) and exports it as the ``telemetry.profiler.overhead_pct`` gauge;
benchmarks/bench_service.py gates the *observed* warm-path degradation
at <= 3%.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from typing import Dict, List, Optional

__all__ = [
    "DEFAULT_HZ",
    "SamplingProfiler",
    "start_profiler",
    "stop_profiler",
    "get_profiler",
    "active_hz",
    "sample_now",
    "profiler_stats",
]

#: default sampling rate: 165 ticks in a 15 s run give the top stacks of
#: a 67 Hz run, and each tick's thread wake-up costs the sampled threads
#: more than the tick's own work (see docs/observability.md, "Rate")
DEFAULT_HZ = 11.0
MAX_STACK_DEPTH = 64

_THIS_FILE = os.path.abspath(__file__)


class SamplingProfiler:
    """Background stack sampler aggregating folded-stack counts.

    ``role`` tags every sample (``process:main`` vs ``process:worker``)
    so a merged cross-process profile stays legible. The sampler thread
    takes one sample immediately on start and the loop samples before it
    waits, so even a profiler stopped within its first period holds at
    least one sample — endpoint and merge tests rely on that.
    """

    def __init__(self, hz: float = DEFAULT_HZ, *, role: str = "main") -> None:
        if hz <= 0:
            raise ValueError(f"hz must be positive, got {hz}")
        from repro import telemetry

        self.hz = float(hz)
        self.role = role
        #: the process-wide telemetry: its tracer's open-span stacks give
        #: the attribution, its registry takes the profiler's gauges
        self._tel = telemetry.get()
        self._interval = 1.0 / self.hz
        self._counts: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._labels: Dict[object, str] = {}  # code object -> "file.py:func"
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._samples = 0  # per-thread stacks captured locally
        self._merged = 0  # samples absorbed from worker reports
        self._sample_ns = 0  # time spent inside sample ticks
        self._started_ns = 0
        self._elapsed_ns = 0  # frozen at stop()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        """Whether the sampler thread is currently alive."""
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "SamplingProfiler":
        """Launch the sampler thread."""
        if self._thread is not None:
            return self
        self._started_ns = time.perf_counter_ns()
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name=f"repro-profiler-{self.role}", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> "SamplingProfiler":
        """Join the sampler, freeze elapsed time, export final gauges."""
        if self._thread is None:
            return self
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None
        self._elapsed_ns = time.perf_counter_ns() - self._started_ns
        if self.role == "main":
            self._export_gauges()
        return self

    def discard(self) -> None:
        """Drop a profiler inherited across ``fork`` without joining.

        The sampler thread does not survive the fork; joining its stale
        :class:`threading.Thread` object in the child is undefined, so a
        forked worker just forgets the parent's profiler.
        """
        self._stop.set()
        self._thread = None

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            try:
                self.sample_now()
                if self.role == "main":
                    self._export_gauges()
            except Exception:  # never let a bad tick kill the sampler
                pass
            if self._stop.wait(self._interval):
                return

    def sample_now(self) -> None:
        """Take one synchronous sample from the calling thread.

        Used by fork workers to guarantee at least one sample attributed
        to their open ``parallel.worker`` span regardless of how a task's
        duration compares to the sampling period (the determinism the
        cross-process merge tests need). Profiler-internal frames are
        filtered, so the folded stack reads as the caller's own.
        """
        t0 = time.perf_counter_ns()
        self._take_sample()
        self._sample_ns += time.perf_counter_ns() - t0

    def _take_sample(self) -> None:
        stacks = self._tel.tracer._stacks
        own = self._thread.ident if self._thread is not None else None
        new: Dict[str, int] = {}
        n = 0
        for tid, frame in sys._current_frames().items():
            if tid == own:
                continue
            key = self._fold(stacks.get(tid), frame)
            new[key] = new.get(key, 0) + 1
            n += 1
        with self._lock:
            for key, count in new.items():
                self._counts[key] = self._counts.get(key, 0) + count
            self._samples += n

    def _fold(self, stack: Optional[list], frame) -> str:
        segs: List[str] = []
        # snapshot: the sampled thread keeps pushing and popping its stack
        spans = list(stack) if stack else ()
        if spans:
            phase = spans[-1]._name  # innermost span of any category...
            for sp in reversed(spans):
                if sp._category == "api":  # ...unless a pipeline phase is open
                    phase = sp._name
                    break
            segs.append(f"phase:{phase}")
        segs.append(f"process:{self.role}")
        labels: List[str] = []
        depth = 0
        while frame is not None and depth < MAX_STACK_DEPTH:
            code = frame.f_code
            if code.co_filename != _THIS_FILE:
                label = self._labels.get(code)
                if label is None:
                    base = os.path.basename(code.co_filename) or "?"
                    label = f"{base}:{code.co_name}"
                    self._labels[code] = label
                labels.append(label)
                depth += 1
            frame = frame.f_back
        labels.reverse()  # folded stacks are root-first
        return ";".join(segs + labels)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def folded(self) -> Dict[str, int]:
        """Snapshot of folded-stack counts (merged workers included)."""
        with self._lock:
            return dict(self._counts)

    def merge_folded(self, profile: Dict[str, int]) -> int:
        """Absorb a worker's folded counts; returns samples absorbed."""
        if not profile:
            return 0
        n = 0
        with self._lock:
            for key, count in profile.items():
                self._counts[key] = self._counts.get(key, 0) + int(count)
                n += int(count)
            self._merged += n
        return n

    @property
    def sample_count(self) -> int:
        """Total samples held: locally captured plus merged-in."""
        with self._lock:
            return self._samples + self._merged

    @property
    def overhead_pct(self) -> float:
        """Self-measured cost: % of wall time spent inside sample ticks."""
        elapsed = self._elapsed_ns
        if elapsed <= 0 and self._started_ns:
            elapsed = time.perf_counter_ns() - self._started_ns
        if elapsed <= 0:
            return 0.0
        return self._sample_ns / elapsed * 100.0

    def stats(self) -> dict:
        """JSON-serializable snapshot (what /statusz embeds)."""
        return {
            "enabled": self.running,
            "role": self.role,
            "hz": self.hz,
            "samples": self.sample_count,
            "overhead_pct": round(self.overhead_pct, 4),
        }

    def _export_gauges(self) -> None:
        try:
            metrics = self._tel.metrics
            metrics.gauge("telemetry.profiler.samples").set(self.sample_count)
            metrics.gauge("telemetry.profiler.overhead_pct").set(
                round(self.overhead_pct, 4)
            )
        except Exception:
            pass


# ----------------------------------------------------------------------
# process-wide singleton (one active profiler per process)
# ----------------------------------------------------------------------

_ACTIVE: Optional[SamplingProfiler] = None
_ACTIVE_LOCK = threading.Lock()


def start_profiler(hz: Optional[float] = None) -> SamplingProfiler:
    """Start (or return) the process-wide ``role="main"`` profiler."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        if _ACTIVE is not None and _ACTIVE.running and _ACTIVE.role == "main":
            return _ACTIVE
        prof = SamplingProfiler(hz=hz if hz is not None else DEFAULT_HZ)
        _ACTIVE = prof
    prof.start()
    return prof


def stop_profiler() -> Optional[SamplingProfiler]:
    """Stop and unregister the active profiler; returns it (or None)."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        prof = _ACTIVE
        _ACTIVE = None
    if prof is not None:
        prof.stop()
    return prof


def get_profiler() -> Optional[SamplingProfiler]:
    """The process-wide profiler last started, or None when off."""
    return _ACTIVE


def active_hz() -> Optional[float]:
    """Sampling rate of the running profiler, or None when off.

    The parallel executor forwards this to fork workers so each task can
    run its own worker-role sampler at the parent's rate.
    """
    prof = _ACTIVE
    return prof.hz if prof is not None and prof.running else None


def sample_now() -> None:
    """Synchronously sample via the active profiler (no-op when off)."""
    prof = _ACTIVE
    if prof is not None:
        prof.sample_now()


def profiler_stats() -> dict:
    """Stats for /statusz: active profiler's, or a disabled stub."""
    prof = _ACTIVE
    if prof is not None:
        return prof.stats()
    return {
        "enabled": False,
        "role": "main",
        "hz": 0.0,
        "samples": 0,
        "overhead_pct": 0.0,
    }


# ----------------------------------------------------------------------
# fork-worker side (called from repro.telemetry.context)
# ----------------------------------------------------------------------

def begin_worker_profile(hz: Optional[float]) -> None:
    """Start a fresh ``role="worker"`` sampler for one fork-pool task.

    Any profiler object inherited across the fork is discarded (its
    thread died with the fork).  The caller has already cleared the
    tracer, so the parent's open spans cannot leak into worker samples.
    """
    global _ACTIVE
    with _ACTIVE_LOCK:
        old = _ACTIVE
        _ACTIVE = None
    if old is not None:
        old.discard()
    if not hz:
        return
    prof = SamplingProfiler(hz=hz, role="worker")
    with _ACTIVE_LOCK:
        _ACTIVE = prof
    prof.start()


def take_worker_profile() -> Dict[str, int]:
    """Stop the worker sampler and hand back its folded counts."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        prof = _ACTIVE
        if prof is None or prof.role != "worker":
            return {}
        _ACTIVE = None
    prof.stop()
    return prof.folded()
