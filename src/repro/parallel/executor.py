"""Process-pool executor with shared-memory transport, pool reuse and
graceful fallback.

The pool is built on ``fork`` and is **persistent**: the first dispatch
creates and warms it, every later dispatch reuses it (counter
``parallel.pool.reused``), so process startup and warm-up are paid once
per executor lifetime instead of once per call.  Matrix payloads travel
through the zero-copy shared-memory transport (:mod:`repro.parallel.shm`):
the parent publishes ``indptr``/``indices`` into a shared segment, workers
attach read-only views, and permutations come back through a shared result
arena — no CSR bytes ever cross the pipe.

There is one worker task, :func:`_component_task`, which orders one
connected component; :func:`rcm_components` (``method="parallel"``)
dispatches one per component.  When ``fork`` or shared memory is not
available, when the pool fails, or when the input is too small to pay for
dispatch, it runs the same kernel in-process instead — the caller always
gets the identical result.  This is the one place a pool or shm failure is
absorbed: the service layer above retries nothing.

Telemetry: span ``parallel.components`` wraps the dispatch, and counters
``parallel.tasks``, ``parallel.pool.reused`` and ``parallel.fallbacks``
record what actually ran where.  When telemetry is enabled every task
carries a ``trace`` tuple: the worker resets its forked-in telemetry,
records spans/counters locally under the request's
:class:`~repro.telemetry.context.TraceContext`, and ships a
:class:`~repro.telemetry.context.WorkerReport` back with its result; the
parent merges every report under the dispatch span with a stable lane per
worker pid, so one request produces one coherent cross-process trace.

:func:`map_matrices`, the retired chunked batch path, is a deprecated
alias of :func:`repro.reorder_many` for one release.
"""

from __future__ import annotations

import atexit
import os
import threading
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.vectorized import rcm_vectorized
from repro.sparse.csr import CSRMatrix
from repro import telemetry
from repro.parallel import shm
from repro.telemetry import profiler as _profiler
from repro.telemetry.spans import current_trace

__all__ = [
    "MIN_PARALLEL_NODES",
    "ParallelConfig",
    "fork_available",
    "rcm_components",
    "record_fallback",
    "map_matrices",
    "reset_pools",
    "resolve_workers",
]

#: inputs with fewer total nodes run in-process: process dispatch costs
#: milliseconds, which a small matrix never wins back
MIN_PARALLEL_NODES = 2048

#: environmental failures of a dispatch; the caller falls back in-process.
#: An exception a task raises is the caller's, never a pool failure.
_POOL_ERRORS = (BrokenProcessPool, OSError)


@dataclass(frozen=True)
class ParallelConfig:
    """Knobs of the process-parallel execution layer.

    ``n_workers=None`` sizes the pool to ``os.cpu_count()``.  Inputs with
    fewer than :data:`MIN_PARALLEL_NODES` total nodes (or a single task)
    run in-process.  ``force_processes`` overrides that heuristic (tests,
    benchmarks).
    """

    n_workers: Optional[int] = None
    force_processes: bool = False


def fork_available() -> bool:
    """Whether the ``fork`` start method exists on this platform."""
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


def resolve_workers(n_workers: Optional[int]) -> int:
    """Effective pool size: requested count, capped at 1 minimum."""
    if n_workers is None:
        n_workers = os.cpu_count() or 1
    return max(int(n_workers), 1)


# ----------------------------------------------------------------------
# persistent pool (one per worker count, warmed once, reused across calls)
# ----------------------------------------------------------------------
_POOLS: Dict[int, ProcessPoolExecutor] = {}
_POOLS_LOCK = threading.Lock()


def _warmup_task(token: int) -> int:
    return token


def _get_pool(workers: int) -> ProcessPoolExecutor:
    """The shared fork pool for ``workers``, created+warmed on first use.

    Reuse is the whole point: repeated ``method="parallel"`` calls hit
    an already-warm pool (``parallel.pool.reused`` counts the hits)
    instead of paying process startup per dispatch.  Warm-up spins every
    worker up once per pool lifetime, before real work is timed.
    """
    with _POOLS_LOCK:
        pool = _POOLS.get(workers)
        if pool is not None:
            tel = telemetry.get()
            if tel.enabled:
                tel.counter("parallel.pool.reused").add(1)
            return pool
        import multiprocessing

        # fork after the resource tracker exists, so workers inherit it
        shm.ensure_tracker()
        ctx = multiprocessing.get_context("fork")
        pool = ProcessPoolExecutor(max_workers=workers, mp_context=ctx)
        for fut in [pool.submit(_warmup_task, i) for i in range(workers)]:
            fut.result()
        _POOLS[workers] = pool
        return pool


def _submit(pool: ProcessPoolExecutor, fn: Callable, *args):
    """``pool.submit``; a pool another thread shut down counts as broken."""
    try:
        return pool.submit(fn, *args)
    except RuntimeError as exc:  # "cannot schedule new futures after shutdown"
        raise BrokenProcessPool(str(exc)) from exc


def _discard_pool(workers: int) -> None:
    """Drop a broken pool so the next dispatch builds a fresh one."""
    with _POOLS_LOCK:
        pool = _POOLS.pop(workers, None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


def reset_pools() -> None:
    """Shut down every persistent pool (test hook + atexit)."""
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=True, cancel_futures=True)


atexit.register(reset_pools)


# ----------------------------------------------------------------------
# worker-side tasks
# ----------------------------------------------------------------------

#: what a traced task carries: ``(TraceContext or None, parent epoch_ns,
#: parent profiler rate or None)``
Trace = Tuple[object, int, Optional[float]]


def _in_worker(trace: Optional[Trace], body: Callable, **attrs):
    """Run ``body()`` in a worker; the WorkerReport, or ``None`` untraced.

    With ``trace`` set, the worker re-bases its (forked) telemetry on the
    parent's epoch, activates the request's trace context and wraps the
    body in a ``parallel.worker`` span, so the parent can merge a
    self-consistent sub-trace (see :mod:`repro.telemetry.context`).  A
    profiler rate in ``trace`` starts a worker sampler, and one synchronous
    sample inside the span lands at least one attributed stack in the
    merged flamegraph no matter how short the task ran.
    """
    if trace is None:
        body()
        return None
    from repro.telemetry import context as tctx

    ctx, epoch_ns, prof_hz = trace
    tctx.begin_worker_capture(epoch_ns, profile_hz=prof_hz)
    with tctx.activate(ctx):
        with telemetry.get().span(
            "parallel.worker", category="parallel", **attrs
        ):
            body()
            _profiler.sample_now()
    return tctx.collect_worker_report()


def _component_task(
    csr: shm.CSRHandle, arena: shm.ArenaHandle, start: int,
    offset: int, length: int, trace: Optional[Trace] = None,
):
    """Order one component into its arena block; the WorkerReport when
    traced, else ``None``."""

    def body() -> None:
        out = shm.attach_arena(arena)
        out[offset:offset + length] = rcm_vectorized(
            shm.attach_csr(csr), start
        )

    return _in_worker(trace, body, start_node=start)


# ----------------------------------------------------------------------
# parent-side dispatch helpers
# ----------------------------------------------------------------------
def _trace_for(tel) -> Optional[Trace]:
    """The trace tuple tasks carry (``None`` when telemetry is off)."""
    if not tel.enabled:
        return None
    return (current_trace(), tel.tracer.epoch_ns, _profiler.active_hz())


def _merge_reports(tel, reports, *, parent_span_id, trace_id) -> None:
    """Fold worker reports into the parent, one stable lane per pid."""
    from repro.telemetry import context as tctx

    lanes: dict = {}
    for report in reports:
        lane = lanes.setdefault(report.pid, len(lanes))
        tctx.merge_worker_report(
            tel, report, parent_span_id=parent_span_id,
            lane=lane, trace_id=trace_id,
        )


def record_fallback(reason: str) -> None:
    """Count one in-process fallback: the ``parallel.fallbacks`` total plus
    one ``parallel.fallbacks.<reason>`` counter per cause."""
    tel = telemetry.get()
    if tel.enabled:
        tel.counter("parallel.fallbacks").add(1)
        tel.counter(f"parallel.fallbacks.{reason}").add(1)


def _offsets(lengths: Sequence[int]) -> np.ndarray:
    """Arena offset of each consecutive block, plus the total at the end."""
    out = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(np.asarray(lengths, dtype=np.int64), out=out[1:])
    return out


# ----------------------------------------------------------------------
# per-component partitioning
# ----------------------------------------------------------------------
def rcm_components(
    mat: CSRMatrix,
    starts: Sequence[int],
    *,
    sizes: Sequence[int],
    config: Optional[ParallelConfig] = None,
) -> List[np.ndarray]:
    """RCM permutation block of each component, computed concurrently.

    ``starts[i]`` is the start node of component ``i`` and ``sizes[i]`` its
    node count; the sizes place each block in the shared result arena and
    drive largest-first scheduling so the pool drains evenly.  Blocks come
    back in input order and are bit-identical to running
    :func:`repro.core.vectorized.rcm_vectorized` per start in sequence.
    """
    cfg = config or ParallelConfig()
    workers = resolve_workers(cfg.n_workers)

    def in_process(reason: str) -> List[np.ndarray]:
        # the kernel the worker tasks run
        record_fallback(reason)
        return [rcm_vectorized(mat, int(s)) for s in starts]

    if not starts:
        return []
    # an explicit method="parallel" request is honored even on few-core
    # hosts (cross-process traces depend on it); method="auto" never runs
    # the pool, so only explicit requests reach it
    if not cfg.force_processes and (
        len(starts) == 1 or workers == 1 or mat.n < MIN_PARALLEL_NODES
    ):
        return in_process("small-input")
    if not fork_available():
        return in_process("no-fork")
    if not shm.shm_available():
        return in_process("no-shm")
    try:
        return _components_shm(mat, starts, sizes, workers)
    except _POOL_ERRORS:
        _discard_pool(workers)
        return in_process("pool-error")


def _components_shm(mat, starts, sizes, workers):
    tel = telemetry.get()
    # pool first, segments second: freshly forked workers then never
    # inherit this dispatch's entries in the shm registry
    pool = _get_pool(workers)
    offsets = _offsets(sizes)
    # largest component first (LPT scheduling) so stragglers don't tail
    order = np.argsort(np.asarray(sizes))[::-1]
    with shm.ShmBatch() as batch:
        csr = batch.publish_csr(mat)
        arena = batch.result_arena(int(offsets[-1]))
        trace = _trace_for(tel)
        with tel.span(
            "parallel.components", category="parallel",
            n_tasks=len(starts), workers=workers,
        ) as sp:
            futures = {
                int(i): _submit(
                    pool, _component_task, csr, arena.handle, int(starts[i]),
                    int(offsets[i]), int(sizes[i]), trace,
                )
                for i in order
            }
            reports = [futures[i].result() for i in range(len(starts))]
            if trace is not None:
                ctx = trace[0]
                _merge_reports(
                    tel, reports, parent_span_id=sp.span_id,
                    trace_id=ctx.trace_id if ctx is not None else None,
                )
        parts = [
            arena.block(int(offsets[i]), int(sizes[i]))
            for i in range(len(starts))
        ]
    if tel.enabled:
        tel.counter("parallel.tasks").add(len(starts))
    return parts


# ----------------------------------------------------------------------
# the retired batch path, kept as an alias for one release
# ----------------------------------------------------------------------
def map_matrices(
    mats: Sequence[CSRMatrix],
    *,
    method: str = "vectorized",
    start="min-valence",
    symmetrize: bool = False,
    config: Optional[ParallelConfig] = None,
) -> list:
    """Deprecated alias of :func:`repro.reorder_many`, for one release.

    The chunked pool path it ran is retired: a batch runs each matrix
    through :func:`repro.reorder`'s own pipeline in-process.  Warns
    ``DeprecationWarning`` and returns ``reorder_many(mats, method=method,
    start=start, symmetrize=symmetrize)``; ``config`` is ignored.
    """
    from repro.facade import reorder_many

    warnings.warn(
        "repro.parallel.map_matrices is deprecated: the chunked pool path "
        "is retired; call repro.reorder_many instead",
        DeprecationWarning, stacklevel=2,
    )
    return reorder_many(
        mats, method=method, start=start, symmetrize=symmetrize
    )
