"""The in-process reordering service: cache, coalescing, bounded queue.

:class:`ReorderService` fronts :func:`repro.reorder` with the things a
traffic-serving deployment needs:

* **content-hash caching** — requests key on the CSR pattern digest plus
  the permutation-relevant options (:mod:`repro.service.keys`); a repeated
  pattern is served from :class:`~repro.service.cache.PermutationCache`
  without recomputation;
* **request coalescing** — concurrent submissions of the same key share
  the one in-flight computation instead of stampeding the pool (counter
  ``service.coalesced``);
* **bounded admission** — at most ``max_pending`` computations are queued
  or running; beyond that :meth:`submit` blocks up to ``submit_timeout``
  seconds and then raises :class:`ServiceOverloadedError` (backpressure,
  counter ``service.rejected``).  Each blocking :meth:`reorder` call takes
  a per-request timeout and raises :class:`ServiceTimeoutError` when the
  answer is not ready in time (the computation keeps running and still
  populates the cache);
* **batched admission** (``batch_window_ms > 0``) — admitted misses land
  on a batch queue instead of going straight to a pool thread; an
  admission thread drains up to ``max_batch`` requests per tick (waiting
  at most ``batch_window_ms`` after the first), groups them by requested
  execution options, and runs each group as **one** amortized dispatch
  through :func:`repro.facade.reorder_many` (shared-memory transport,
  persistent pool).  Cache, coalescing and
  backpressure semantics are exactly those of the unbatched path — only
  the dispatch is shared.  Per-batch telemetry: histogram
  ``service.batch.size`` and span ``service.batch``.

The service keeps one :class:`~repro.service.cache.PermutationCache`.
In-process sharding is retired: an explicit ``shards=`` warns
``DeprecationWarning`` and is ignored, and :data:`ShardedService` is
another name for :class:`ReorderService`, both for one release.

Failures degrade gracefully: when an execution method dies with an
environmental error (broken pool, OS failure, memory pressure) the request
falls back along the registry's declarative degradation chain
(:func:`repro.backends.degradation_order`, e.g.
``parallel -> vectorized -> serial``) — the same counter convention as
``parallel.fallbacks.*``, recorded as ``service.fallbacks.<method>``.  A
requested method that is not registered at all (an optional backend absent
from this install) degrades the same way at admission time instead of
erroring.  Validation errors (``ValueError`` / ``TypeError``) always
propagate: a bad request must not burn the chain.

Telemetry: span ``service.request`` per computation, counters
``service.requests`` / ``service.computed`` / ``service.coalesced`` /
``service.rejected`` / ``service.timeouts`` / ``service.fallbacks.*`` and
the ``service.queue.depth`` gauge.  See ``docs/service.md``.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro import backends
from repro.errors import (
    ServiceError,
    ServiceOverloadedError,
    ServiceTimeoutError,
)
from repro.sparse.csr import CSRMatrix
from repro.core.api import ReorderResult
from repro.service.keys import CacheKey, cache_key
from repro.service.cache import PermutationCache
from repro.parallel.executor import record_fallback
from repro import telemetry
from repro.telemetry import context as tctx
from repro.validation import warn_shards

__all__ = [
    "ServiceConfig",
    "ReorderService",
    "ShardedService",
    "ServiceError",
    "ServiceOverloadedError",
    "ServiceTimeoutError",
    "fallback_chain",
]

_UNSET = object()

#: environmental failures that trigger the method fallback chain;
#: ``ValueError``/``TypeError`` (bad requests) always propagate
_FALLBACK_EXCEPTIONS = (RuntimeError, OSError, MemoryError)

#: warm-hit latency buckets (sub-millisecond fidelity; hits are lookups,
#: not computations, so the default ms-flavoured buckets are far too coarse)
_HIT_LATENCY_BUCKETS = (
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
)

#: batch-size histogram buckets (small powers of two; the +Inf tail
#: catches anything beyond max_batch)
_BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

# ServiceError / ServiceOverloadedError / ServiceTimeoutError are defined
# in repro.errors (the unified hierarchy under ReproError) and re-exported
# from here — their historical import home — unchanged: all three remain
# RuntimeError subclasses.


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of :class:`ReorderService`.

    ``n_workers`` serving threads drain the queue; ``max_pending`` bounds
    queued-plus-running computations (admission control, not a result
    limit — cache hits and coalesced requests are always admitted);
    ``submit_timeout`` is how long :meth:`ReorderService.submit` may block
    for a free slot before rejecting; ``request_timeout`` is the default
    deadline of blocking :meth:`ReorderService.reorder` calls (``None`` =
    wait forever).  ``fallback=False`` disables the method degradation
    chain (the first error propagates).  ``cache_capacity`` is the memory
    tier size of the service's one cache.

    ``batch_window_ms > 0`` turns on batched admission: after the first
    queued miss the admission thread waits up to that many milliseconds
    (or until ``max_batch`` requests are queued) and dispatches the drained
    group as one amortized executor call.  ``0.0`` (default) keeps the
    classic one-request-per-dispatch behavior exactly.
    """

    n_workers: int = 2
    max_pending: int = 64
    submit_timeout: float = 0.0
    request_timeout: Optional[float] = None
    cache_capacity: int = 128
    disk_dir: Optional[Union[str, Path]] = None
    fallback: bool = True
    batch_window_ms: float = 0.0
    max_batch: int = 16

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if self.max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if self.batch_window_ms < 0:
            raise ValueError("batch_window_ms must be >= 0")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")


def fallback_chain(algorithm: str, method: str) -> Tuple[str, ...]:
    """Methods tried in order for one request.

    RCM degrades along the registry's declarative chain — the requested
    method, then every backend with a ``fallback_rank``, ascending (today
    ``vectorized`` then ``serial``).  Every method returns the identical
    permutation, so falling back changes latency, never the answer.
    Non-RCM algorithms have one strategy.
    """
    if algorithm != "rcm":
        return (method,)
    return backends.degradation_order(method)


def _call_reorder(mat: CSRMatrix, kwargs: dict) -> ReorderResult:
    """The one seam between the service and the facade (tests patch it)."""
    from repro.facade import reorder

    return reorder(mat, **kwargs)


def _call_reorder_many(
    mats: Sequence[CSRMatrix], kwargs: dict
) -> List[ReorderResult]:
    """Batch seam: one grouped dispatch through the facade batch API.

    Routing through :func:`repro.facade.reorder_many` (not a loop over
    :func:`_call_reorder`) is what makes batched admission amortize — and
    what keeps batched results byte-identical to the facade, because both
    run the same ``_compute_many`` path.
    """
    from repro.facade import reorder_many

    return reorder_many(mats, **kwargs)


def _resolved(result: ReorderResult) -> "Future[ReorderResult]":
    fut: "Future[ReorderResult]" = Future()
    fut.set_result(result)
    return fut


class ReorderService:
    """In-process reordering service over :func:`repro.reorder`.

    ::

        with ReorderService() as svc:
            res = svc.reorder(mat)                  # cold: computes + caches
            res = svc.reorder(mat)                  # warm: cache hit
            futs = [svc.submit(m) for m in mats]    # async fan-out

    Permutations are bit-identical to ``repro.reorder(mat, ...)`` — cold
    and warm — because cache keys are content hashes of the exact pattern
    plus options.

    The service owns one lock, one in-flight coalescing map, one
    backpressure semaphore, one worker thread pool, one
    :class:`~repro.service.cache.PermutationCache` (``cache`` or one built
    from the config) and (when batched) one admission thread.
    ``shards`` is deprecated and ignored.  For an awaitable front end see
    :class:`repro.service.AsyncReorderService`.
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        *,
        cache: Optional[PermutationCache] = None,
        shards: Optional[int] = None,
    ) -> None:
        warn_shards(shards)
        self.config = config if config is not None else ServiceConfig()
        cfg = self.config
        # explicit None check: an empty PermutationCache is falsy (__len__)
        if cache is None:
            cache = PermutationCache(cfg.cache_capacity, disk_dir=cfg.disk_dir)
        self.cache = cache
        self._pool = ThreadPoolExecutor(
            max_workers=cfg.n_workers, thread_name_prefix="repro-service",
        )
        # guards the in-flight map, the pending count and the counters;
        # not reentrant, so _count is never called while it is held
        self._lock = threading.Lock()
        self._inflight: Dict[str, Future] = {}
        self._slots = threading.BoundedSemaphore(cfg.max_pending)
        self._pending = 0
        self._closed = False
        # batched admission: queued misses drain through one admission
        # thread that groups them into amortized dispatches
        self._batch_queue: "queue.SimpleQueue" = queue.SimpleQueue()
        self._admission_thread: Optional[threading.Thread] = None
        if cfg.batch_window_ms > 0:
            self._admission_thread = threading.Thread(
                target=self._admission_loop,
                name="repro-service-admission",
                daemon=True,
            )
            self._admission_thread.start()
        # telemetry-independent mirror of the service counters
        self.counters = {
            "requests": 0,
            "computed": 0,
            "coalesced": 0,
            "rejected": 0,
            "timeouts": 0,
            "fallbacks": 0,
        }

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(
        self,
        mat: CSRMatrix,
        *,
        algorithm: str = "rcm",
        method: str = "auto",
        start: Union[int, str] = "min-valence",
        n_workers: int = 4,
        symmetrize: bool = False,
    ) -> "Future[ReorderResult]":
        """Enqueue one request; returns a future of its ReorderResult.

        The future is already resolved on a cache hit, shared with the
        in-flight leader on a coalesced duplicate, and backed by a fresh
        pool task otherwise.
        """
        if self._closed:
            raise ServiceError("service is closed")
        method = self._admit_method(algorithm, method)
        key = cache_key(
            mat, algorithm=algorithm, method=method, start=start,
            symmetrize=symmetrize,
        )
        self._count("requests")

        hit = self.cache.get(key)
        if hit is not None:
            tel = telemetry.get()
            if tel.enabled:
                # warm-hit latency: the cache lookup *is* the request
                tel.histogram(
                    "service.hit_latency_ms", buckets=_HIT_LATENCY_BUCKETS
                ).observe(hit.phase_ns["cache"] / 1e6)
            return _resolved(hit)

        kwargs = dict(
            algorithm=algorithm, method=method, start=start,
            n_workers=n_workers, symmetrize=symmetrize,
        )
        with self._lock:
            existing = self._inflight.get(key.digest)
        if existing is not None:
            self._count("coalesced")
            return existing
        if not self._slots.acquire(
            blocking=self.config.submit_timeout > 0,
            timeout=self.config.submit_timeout or None,
        ):
            self._count("rejected")
            raise ServiceOverloadedError(
                f"submission queue full ({self.config.max_pending} pending); "
                "retry later or raise ServiceConfig.max_pending"
            )
        fut: "Optional[Future[ReorderResult]]" = None
        with self._lock:
            # a duplicate may have raced past the first check while we
            # waited for a slot, or finished entirely between our cache
            # miss and here (put -> resolve -> settle); without these
            # re-checks we would recompute a key that is already served.
            # The cache re-check counts nothing: the get above counted
            # this request's one hit or miss
            existing = self._inflight.get(key.digest)
            hit = self.cache._peek(key) if existing is None else None
            if existing is None and hit is None:
                # request identity for cross-thread/process tracing:
                # created at admission so the pool thread, the parallel
                # workers and any facade re-entry stamp the same trace_id
                ctx = (
                    tctx.new_trace_context(request_id=key.digest[:12])
                    if telemetry.get().enabled else None
                )
                if self._admission_thread is not None:
                    # batched admission: park the request on the batch
                    # queue behind a plain future; the admission thread
                    # groups and dispatches, then resolves it
                    fut = Future()
                    self._batch_queue.put((key, mat, kwargs, ctx, fut))
                else:
                    fut = self._pool.submit(self._run, key, mat, kwargs, ctx)
                self._inflight[key.digest] = fut
                self._pending += 1
                self._set_depth()
        if fut is None:
            self._slots.release()
            if existing is not None:
                self._count("coalesced")
                return existing
            return _resolved(hit)
        fut.add_done_callback(lambda _f, d=key.digest: self._settle(d))
        return fut

    def reorder(
        self,
        mat: CSRMatrix,
        *,
        timeout=_UNSET,
        **options,
    ) -> ReorderResult:
        """Blocking convenience: :meth:`submit` + wait.

        ``timeout`` (seconds) defaults to ``ServiceConfig.request_timeout``;
        on expiry raises :class:`ServiceTimeoutError` — the computation is
        not cancelled and still lands in the cache for the retry.
        """
        if timeout is _UNSET:
            timeout = self.config.request_timeout
        return self._wait(self.submit(mat, **options), timeout)

    def reorder_many(
        self, mats: Sequence[CSRMatrix], **options
    ) -> List[ReorderResult]:
        """Submit a batch and gather results in input order.

        Every matrix goes through the full admission pipeline (cache,
        coalescing, backpressure).  With batched admission on
        (``batch_window_ms > 0``) the misses coalesce into grouped
        dispatches automatically — a whole list submitted at once
        typically lands in one batch.  Results are byte-identical to
        per-matrix :meth:`reorder` calls; each wait takes the config's
        ``request_timeout``.
        """
        futures = [self.submit(m, **options) for m in mats]
        return [self._wait(f, self.config.request_timeout) for f in futures]

    def _wait(self, fut: Future, timeout: Optional[float]) -> ReorderResult:
        try:
            return fut.result(timeout)
        except FuturesTimeoutError:
            self._count("timeouts")
            raise ServiceTimeoutError(
                f"request did not complete within {timeout}s"
            ) from None

    def _admit_method(self, algorithm: str, method: str) -> str:
        """The method a request is actually admitted on.

        A client may ask for an optional backend that never registered
        here (GPU build, distributed build...).  With fallback enabled
        such a request is admitted on the method's first registered
        degradation target — counted as ``service.fallbacks.<method>`` —
        instead of bouncing with a validation error.  Admission happens
        before keying, because the admitted method is part of the key.
        """
        if (
            not self.config.fallback
            or algorithm != "rcm"
            or method == "auto"
            or backends.is_registered(method)
        ):
            return method
        for m in backends.degradation_order(method)[1:]:
            if backends.is_registered(m):
                self._count("fallbacks")
                record_fallback(method, prefix="service")
                return m
        return method

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _run(self, key: CacheKey, mat: CSRMatrix, kwargs: dict,
             ctx=None) -> ReorderResult:
        tel = telemetry.get()
        with tctx.activate(ctx):
            with tel.span(
                "service.request", category="service",
                algorithm=kwargs["algorithm"], method=kwargs["method"],
                n=mat.n,
                request_id=ctx.request_id if ctx is not None else None,
            ):
                self._count("computed")
                result = self._execute(_call_reorder, mat, kwargs)
                # cache before the future resolves so a waiter that
                # arrives after coalescing cleanup finds the entry, never
                # a stale gap
                self.cache.put(key, result)
                return result

    def _execute(self, call: Callable, payload, kwargs: dict):
        """``call(payload, kwargs)`` down the method degradation chain.

        ``call`` is :func:`_call_reorder` for one request or
        :func:`_call_reorder_many` for an admission group, which falls
        back together.  With ``fallback=False`` the chain is the requested
        method alone.
        """
        chain = (
            fallback_chain(kwargs["algorithm"], kwargs["method"])
            if self.config.fallback else (kwargs["method"],)
        )
        for i, m in enumerate(chain):
            try:
                return call(payload, {**kwargs, "method": m})
            except _FALLBACK_EXCEPTIONS:
                if i + 1 == len(chain):
                    raise
                self._count("fallbacks")
                record_fallback(m, prefix="service")

    # ------------------------------------------------------------------
    # batched admission
    # ------------------------------------------------------------------
    def _admission_loop(self) -> None:
        """Drain the batch queue: collect one admission tick, dispatch.

        The first request of a tick is awaited blocking; once it lands the
        loop keeps draining until ``batch_window_ms`` elapses or
        ``max_batch`` requests are in hand, groups the drained requests by
        their execution options, and hands every group to the worker pool
        as one :meth:`_run_group` dispatch.
        """
        window_s = self.config.batch_window_ms / 1000.0
        while True:
            try:
                item = self._batch_queue.get(timeout=0.1)
            except queue.Empty:
                if self._closed:
                    return
                continue
            if item is None:  # close() sentinel
                self._drain_remaining()
                return
            batch = [item]
            deadline = time.monotonic() + window_s
            stop = False
            while len(batch) < self.config.max_batch:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                try:
                    extra = self._batch_queue.get(timeout=remaining)
                except queue.Empty:
                    break
                if extra is None:
                    stop = True
                    break
                batch.append(extra)
            self._dispatch_groups(batch)
            if stop:
                self._drain_remaining()
                return

    def _drain_remaining(self) -> None:
        """Flush requests still queued at shutdown so no future hangs."""
        leftovers = []
        while True:
            try:
                item = self._batch_queue.get_nowait()
            except queue.Empty:
                break
            if item is not None:
                leftovers.append(item)
        if leftovers:
            self._dispatch_groups(leftovers)

    def _dispatch_groups(self, batch: list) -> None:
        """Group a drained tick by execution options; one dispatch each.

        The group key is every option that changes what the executor runs
        (algorithm, method, start, symmetrize, n_workers) — matrices under
        the same key share one :func:`repro.facade.reorder_many` call.
        """
        groups: Dict[tuple, list] = {}
        for item in batch:
            kwargs = item[2]
            gkey = (
                kwargs["algorithm"], kwargs["method"], kwargs["start"],
                kwargs["symmetrize"], kwargs["n_workers"],
            )
            groups.setdefault(gkey, []).append(item)
        for items in groups.values():
            self._pool.submit(self._run_group, items)

    def _run_group(self, items: list) -> None:
        """Execute one admission group as a single amortized dispatch.

        Each item's future is resolved individually (result or exception),
        and each result is cached under its own key before its future
        resolves — the same ordering guarantee as the unbatched
        :meth:`_run`.
        """
        tel = telemetry.get()
        if tel.enabled:
            tel.histogram(
                "service.batch.size", buckets=_BATCH_SIZE_BUCKETS
            ).observe(float(len(items)))
        if len(items) == 1:
            key, mat, kwargs, ctx, fut = items[0]
            if not fut.set_running_or_notify_cancel():
                return  # pragma: no cover - cancelled before dispatch
            try:
                fut.set_result(self._run(key, mat, kwargs, ctx))
            except BaseException as exc:
                fut.set_exception(exc)
            return

        keys = [it[0] for it in items]
        mats = [it[1] for it in items]
        kwargs = dict(items[0][2])
        futures = [it[4] for it in items]
        live = [f.set_running_or_notify_cancel() for f in futures]
        try:
            with tel.span(
                "service.batch", category="service",
                n_requests=len(items), algorithm=kwargs["algorithm"],
                method=kwargs["method"],
            ):
                for _ in items:
                    self._count("computed")
                results = self._execute(_call_reorder_many, mats, kwargs)
                for key, result, fut, ok in zip(
                    keys, results, futures, live
                ):
                    self.cache.put(key, result)
                    if ok:
                        fut.set_result(result)
        except BaseException as exc:
            for fut, ok in zip(futures, live):
                if ok and not fut.done():
                    fut.set_exception(exc)

    def _settle(self, digest: str) -> None:
        with self._lock:
            self._inflight.pop(digest, None)
            self._pending -= 1
            self._set_depth()
        self._slots.release()

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def _count(self, name: str) -> None:
        with self._lock:
            self.counters[name] += 1
        tel = telemetry.get()
        if tel.enabled:
            tel.counter(f"service.{name}").add(1)

    def _set_depth(self) -> None:
        tel = telemetry.get()
        if tel.enabled:
            tel.gauge("service.queue.depth").set(self._pending)

    @property
    def pending(self) -> int:
        """Computations currently queued or running."""
        with self._lock:
            return self._pending

    @property
    def healthy(self) -> bool:
        """Able to serve: open, with a live admission thread when batched.

        What ``/statusz`` reports — a service whose batched admission
        thread died would otherwise park every miss forever.
        """
        if self._closed:
            return False
        if self.config.batch_window_ms > 0:
            return (
                self._admission_thread is not None
                and self._admission_thread.is_alive()
            )
        return True

    def stats(self) -> dict:
        """JSON-serializable snapshot: service counters + cache state."""
        with self._lock:
            counters = dict(self.counters)
            pending = self._pending
        return {
            "pending": pending,
            "max_pending": self.config.max_pending,
            "n_workers": self.config.n_workers,
            "healthy": self.healthy,
            **{f"service.{k}": v for k, v in counters.items()},
            "cache": self.cache.stats_dict(),
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self, *, wait: bool = True) -> None:
        """Stop accepting requests and shut the worker pool down.

        Requests still queued for batched admission are dispatched before
        the pool stops, so every accepted future resolves.
        """
        self._closed = True
        if self._admission_thread is not None:
            self._batch_queue.put(None)  # wake the admission loop
            if wait:
                self._admission_thread.join(timeout=5.0)
            self._admission_thread = None
        self._pool.shutdown(wait=wait)

    def __enter__(self) -> "ReorderService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


#: the retired sharded service's name, kept for one release
ShardedService = ReorderService
