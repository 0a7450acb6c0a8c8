"""Process-pool executor with shared-memory transport, pool reuse and
graceful fallback.

The pool is built on ``fork`` and is **persistent**: the first dispatch
creates and warms it, every later dispatch reuses it (counter
``parallel.pool.reused``), so process startup and warm-up are paid once
per executor lifetime instead of once per call.  Matrix payloads travel
through the zero-copy shared-memory transport (:mod:`repro.parallel.shm`):
the parent publishes ``indptr``/``indices`` into shared segments, workers
attach read-only views, and permutations come back through a shared result
arena — no CSR bytes ever cross the pipe.

There is one worker task per kind of work: :func:`_component_task` (one
connected component) and :func:`_chunk_task` (a chunk of whole matrices).
When ``fork`` or shared memory is not available, when the pool fails, or
when the input is too small to pay for dispatch, every entry point runs
the same code in-process instead — the caller always gets the identical
result.  The in-process target comes from the backend registry's
degradation chain (:func:`repro.backends.in_process_fallback`), the same
declaration the service layer's fallback chain derives from.

Telemetry: spans ``parallel.components`` / ``parallel.map`` wrap the
dispatch, and counters ``parallel.tasks``, ``parallel.chunks``,
``parallel.pool.reused`` and ``parallel.fallbacks`` record what actually
ran where.  When telemetry is enabled every task carries a ``trace``
tuple: the worker resets its forked-in telemetry, records spans/counters
locally under the request's :class:`~repro.telemetry.context.TraceContext`,
and ships a :class:`~repro.telemetry.context.WorkerReport` back with its
result; the parent merges every report under the dispatch span with a
stable lane per worker pid, so one request produces one coherent
cross-process trace.
"""

from __future__ import annotations

import atexit
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

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

#: environmental failures of a dispatch; the caller falls back in-process
_POOL_ERRORS = (BrokenProcessPool, OSError, RuntimeError)


@dataclass(frozen=True)
class ParallelConfig:
    """Knobs of the process-parallel execution layer.

    ``n_workers=None`` sizes the pool to ``os.cpu_count()``.  Inputs with
    fewer than :data:`MIN_PARALLEL_NODES` total nodes (or a single task)
    run in-process.  ``force_processes`` overrides that heuristic (tests,
    benchmarks).
    """

    n_workers: Optional[int] = None
    chunk_size: Optional[int] = None
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

    Reuse is the whole point: service batches and repeated facade calls
    hit an already-warm pool (``parallel.pool.reused`` counts the hits)
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

#: sentinel standing in for a permutation that lives in the result arena;
#: the parent swaps the real block back in before anyone sees the result
_SHM_RESIDENT = np.zeros(0, dtype=np.int64)

#: what a traced task carries: ``(TraceContext or None, parent epoch_ns,
#: parent profiler rate or None)``
Trace = Tuple[object, int, Optional[float]]


def _in_worker(trace: Optional[Trace], body: Callable, **attrs):
    """Run ``body()`` in a worker; ``(its result, WorkerReport or None)``.

    With ``trace`` set, the worker re-bases its (forked) telemetry on the
    parent's epoch, activates the request's trace context and wraps the
    body in a ``parallel.worker`` span, so the parent can merge a
    self-consistent sub-trace (see :mod:`repro.telemetry.context`).  A
    profiler rate in ``trace`` starts a worker sampler, and one synchronous
    sample inside the span lands at least one attributed stack in the
    merged flamegraph no matter how short the task ran.
    """
    if trace is None:
        return body(), None
    from repro.telemetry import context as tctx

    ctx, epoch_ns, prof_hz = trace
    tctx.begin_worker_capture(epoch_ns, profile_hz=prof_hz)
    with tctx.activate(ctx):
        with telemetry.get().span(
            "parallel.worker", category="parallel", **attrs
        ):
            out = body()
            _profiler.sample_now()
    return out, tctx.collect_worker_report()


def _component_task(
    csr: shm.CSRHandle, arena: shm.ArenaHandle, start: int,
    offset: int, length: int, trace: Optional[Trace] = None,
):
    """Order one component into its arena block; the WorkerReport when
    traced, else ``None``."""
    from repro.core.vectorized import rcm_vectorized

    def body() -> None:
        out = shm.attach_arena(arena)
        out[offset:offset + length] = rcm_vectorized(
            shm.attach_csr(csr), start
        )

    return _in_worker(trace, body, start_node=start)[1]


def _chunk_task(
    items: Sequence[Tuple[shm.CSRHandle, int]],
    arena: shm.ArenaHandle, kwargs: dict, trace: Optional[Trace] = None,
):
    """Run the full pipeline per matrix: ``(results, WorkerReport or None)``.

    Permutations go home via the arena, everything else (bandwidths,
    phases, stats) via the light perm-stripped result.
    """
    from repro.core.api import _reorder_rcm

    def body() -> list:
        out = shm.attach_arena(arena)
        results = []
        for handle, offset in items:
            res = _reorder_rcm(shm.attach_csr(handle), **kwargs)
            out[offset:offset + handle.n] = res.permutation
            res.permutation = _SHM_RESIDENT
            results.append(res)
        return results

    return _in_worker(trace, body, n_matrices=len(items))


# ----------------------------------------------------------------------
# parent-side dispatch helpers
# ----------------------------------------------------------------------
def _trace_for(tel) -> Optional[Trace]:
    """The trace tuple tasks carry (``None`` when telemetry is off)."""
    if not tel.enabled:
        return None
    return (current_trace(), tel.tracer.epoch_ns, _profiler.active_hz())


def _merge_traced(tel, reports, trace: Optional[Trace], span) -> None:
    """Merge a traced dispatch's worker reports under its span."""
    if trace is None:
        return
    ctx = trace[0]
    _merge_reports(
        tel, reports, parent_span_id=span.span_id,
        trace_id=ctx.trace_id if ctx is not None else None,
    )


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


def record_fallback(reason: str, *, prefix: str = "parallel") -> None:
    """Bump the ``<prefix>.fallbacks`` counters for one degradation event.

    The shared convention across execution layers: a total under
    ``<prefix>.fallbacks`` plus one ``<prefix>.fallbacks.<reason>`` counter
    per cause.  The process-pool layer records under ``parallel``; the
    service layer reuses the same shape under ``service``.
    """
    tel = telemetry.get()
    if tel.enabled:
        tel.counter(f"{prefix}.fallbacks").add(1)
        tel.counter(f"{prefix}.fallbacks.{reason}").add(1)


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
    from repro import backends

    cfg = config or ParallelConfig()
    workers = resolve_workers(cfg.n_workers)

    def in_process(reason: str) -> List[np.ndarray]:
        record_fallback(reason)
        target = backends.get(backends.in_process_fallback("parallel"))
        return [
            target.run_component(
                mat, int(s), total=total, n_workers=1, config=None, seed=0,
            )[0]
            for s, total in zip(starts, sizes)
        ]

    if not starts:
        return []
    # an explicit method="parallel" request is honored even on few-core
    # hosts (cross-process traces depend on it); the auto cost model is
    # what steers commodity requests away from the pool
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
                int(i): pool.submit(
                    _component_task, csr, arena.handle, int(starts[i]),
                    int(offsets[i]), int(sizes[i]), trace,
                )
                for i in order
            }
            reports = [futures[i].result() for i in range(len(starts))]
            _merge_traced(tel, reports, trace, sp)
        parts = [
            arena.block(int(offsets[i]), int(sizes[i]))
            for i in range(len(starts))
        ]
    if tel.enabled:
        tel.counter("parallel.tasks").add(len(starts))
    return parts


# ----------------------------------------------------------------------
# chunked multi-matrix throughput
# ----------------------------------------------------------------------
def map_matrices(
    mats: Sequence[CSRMatrix],
    *,
    method: str = "vectorized",
    start="min-valence",
    symmetrize: bool = False,
    config: Optional[ParallelConfig] = None,
) -> list:
    """Reorder many matrices through worker processes, chunked.

    The batch throughput path (CLI benches and the service's batched
    admission): each chunk of matrices runs the full
    :func:`repro.core.api._reorder_rcm` pipeline in one worker, so per-task
    IPC overhead is amortized over ``chunk_size`` matrices.  Returns one
    :class:`~repro.core.api.ReorderResult` per input matrix, in order.

    The whole batch is packed into one shared segment, workers attach
    zero-copy and write permutations into a shared arena; results come
    home perm-stripped and are rehydrated from the arena.
    """
    from repro.core.api import _prevalidate_batch, _reorder_rcm

    cfg = config or ParallelConfig()
    workers = resolve_workers(cfg.n_workers)
    kwargs = dict(method=method, start=start, symmetrize=symmetrize)

    def in_process(reason: str) -> list:
        record_fallback(reason)
        if len(mats) > 1:
            # batch-amortized validate phase: one vectorized pass over the
            # block-diagonal union replaces len(mats) per-matrix passes
            ms = [m.symmetrize() for m in mats] if symmetrize else list(mats)
            bws = _prevalidate_batch(ms)
            kw = dict(kwargs, symmetrize=False)
            return [
                _reorder_rcm(m, _initial_bw=int(b), **kw)
                for m, b in zip(ms, bws)
            ]
        return [_reorder_rcm(m, **kwargs) for m in mats]

    if not mats:
        return []
    total_nodes = sum(m.n for m in mats)
    # effective parallelism is capped by physical cores: a 4-worker pool on
    # a 1-core host only adds dispatch overhead to CPU-bound batch work
    effective = min(workers, os.cpu_count() or workers)
    if not cfg.force_processes and (
        len(mats) == 1 or effective == 1 or total_nodes < MIN_PARALLEL_NODES
    ):
        return in_process("small-input")
    if not fork_available():
        return in_process("no-fork")
    if not shm.shm_available():
        return in_process("no-shm")

    chunk = cfg.chunk_size or max(1, -(-len(mats) // (workers * 4)))
    try:
        return _map_shm(mats, kwargs, chunk, workers)
    except _POOL_ERRORS:
        _discard_pool(workers)
        return in_process("pool-error")


def _map_shm(mats, kwargs, chunk, workers):
    tel = telemetry.get()
    pool = _get_pool(workers)
    offsets = _offsets([m.n for m in mats])
    with shm.ShmBatch() as batch:
        handles = batch.publish_many(mats)
        arena = batch.result_arena(int(offsets[-1]))
        items = [(h, int(offsets[i])) for i, h in enumerate(handles)]
        chunks = [items[i:i + chunk] for i in range(0, len(items), chunk)]
        trace = _trace_for(tel)
        with tel.span(
            "parallel.map", category="parallel",
            n_matrices=len(mats), n_chunks=len(chunks), workers=workers,
        ) as sp:
            futures = [
                pool.submit(_chunk_task, c, arena.handle, kwargs, trace)
                for c in chunks
            ]
            results: list = []
            reports = []
            for fut in futures:
                chunk_results, report = fut.result()
                results.extend(chunk_results)
                reports.append(report)
            _merge_traced(tel, reports, trace, sp)
        # rehydrate: swap each arena block in for the stripped sentinel
        for i, res in enumerate(results):
            res.permutation = arena.block(
                int(offsets[i]), int(offsets[i + 1] - offsets[i])
            )
    if tel.enabled:
        tel.counter("parallel.matrices").add(len(mats))
        tel.counter("parallel.chunks").add(len(chunks))
    return results
