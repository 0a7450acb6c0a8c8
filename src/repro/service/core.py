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
  execution options, and runs each group as **one** worker-thread task
  that calls :func:`repro.facade.reorder_many`.  Cache, coalescing and
  backpressure semantics are exactly those of the unbatched path — only
  the worker-thread task is shared.  Per-batch telemetry: histogram
  ``service.batch.size`` and span ``service.batch``.

The service keeps one :class:`~repro.service.cache.PermutationCache`.
In-process sharding is retired: an explicit ``shards=`` warns
``DeprecationWarning`` and is ignored, and :data:`ShardedService` is
another name for :class:`ReorderService`, both for one release.

A request fails exactly as :func:`repro.reorder` fails: a bad option
raises :class:`~repro.errors.ValidationError` from :meth:`submit`, and a
malformed pattern or a backend error reaches the caller's future
unchanged, with nothing cached under its key.  The process pool absorbs
its own failures in-process (``parallel.fallbacks.*``); the service
retries nothing.

Telemetry: span ``service.request`` per computation, counters
``service.requests`` / ``service.computed`` / ``service.coalesced`` /
``service.rejected`` / ``service.timeouts`` and the
``service.queue.depth`` gauge.  See ``docs/service.md``.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.errors import (
    ServiceError,
    ServiceOverloadedError,
    ServiceTimeoutError,
)
from repro.sparse.csr import CSRMatrix
from repro.core.api import ReorderResult
from repro.service.keys import CacheKey, cache_key
from repro.service.cache import PermutationCache
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
]

_UNSET = object()

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
    deadline of blocking :meth:`ReorderService.reorder` calls.  Both
    timeouts are seconds, ``>= 0``, and ``None`` waits forever.
    ``cache_capacity`` is the memory tier size of the service's one cache.

    ``batch_window_ms > 0`` turns on batched admission: after the first
    queued miss the admission thread waits up to that many milliseconds
    (or until ``max_batch`` requests are queued) and runs the drained
    group as one :func:`repro.reorder_many` call.  ``0.0`` (default) keeps
    the classic one-request-per-dispatch behavior exactly.
    """

    n_workers: int = 2
    max_pending: int = 64
    submit_timeout: Optional[float] = 0.0
    request_timeout: Optional[float] = None
    cache_capacity: int = 128
    disk_dir: Optional[Union[str, Path]] = None
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
        for name in ("submit_timeout", "request_timeout"):
            value = getattr(self, name)
            # `not value >= 0` also rejects NaN, which no wait accepts
            if value is not None and not value >= 0:
                raise ValueError(f"{name} must be >= 0 or None")


def _call_reorder(mat: CSRMatrix, kwargs: dict) -> ReorderResult:
    """The one seam between the service and the facade (tests patch it)."""
    from repro.facade import reorder

    return reorder(mat, **kwargs)


def _call_reorder_many(
    mats: Sequence[CSRMatrix], kwargs: dict
) -> List[ReorderResult]:
    """Batch seam: one admission group through the facade batch API.

    :func:`repro.facade.reorder_many` runs every matrix through the
    pipeline :func:`repro.reorder` runs, so batched results are
    byte-identical to the facade's.
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
        # thread that groups them into reorder_many calls
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
        wait_s = self.config.submit_timeout
        if not self._slots.acquire(
            blocking=wait_s is None or wait_s > 0, timeout=wait_s or None,
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
            # close() sets _closed under this lock, so a request queued
            # here is ahead of close()'s sentinel and its pool shutdown
            if existing is None and hit is None and not self._closed:
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
            if hit is None:
                raise ServiceError("service is closed")
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
                result = _call_reorder(mat, kwargs)
                # cache before the future resolves so a waiter that
                # arrives after coalescing cleanup finds the entry, never
                # a stale gap
                self.cache.put(key, result)
                return result

    # ------------------------------------------------------------------
    # batched admission
    # ------------------------------------------------------------------
    def _admission_loop(self) -> None:
        """Drain the batch queue: collect one admission tick, dispatch.

        The first request of a tick is awaited blocking; once it lands the
        loop keeps draining until ``batch_window_ms`` elapses or
        ``max_batch`` requests are in hand, groups the drained requests by
        their execution options, and hands every group to the worker pool
        as one :meth:`_run_group` task.  :meth:`close`'s ``None`` sentinel
        is the last item ever queued: the loop dispatches what it holds,
        then shuts the worker pool down, so every accepted request reaches
        the pool before the pool stops taking work.
        """
        window_s = self.config.batch_window_ms / 1000.0
        closing = False
        while not closing:
            item = self._batch_queue.get()
            if item is None:  # close() sentinel
                break
            batch = [item]
            deadline = time.monotonic() + window_s
            while len(batch) < self.config.max_batch:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                try:
                    item = self._batch_queue.get(timeout=remaining)
                except queue.Empty:
                    break
                if item is None:
                    closing = True
                    break
                batch.append(item)
            self._dispatch_groups(batch)
        self._pool.shutdown(wait=False)

    def _dispatch_groups(self, batch: list) -> None:
        """Group a drained tick by execution options; one pool task each.

        The group key is every option of the request (algorithm, method,
        start, symmetrize, n_workers) — matrices under the same key share
        one :func:`repro.facade.reorder_many` call.
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
        """Execute one admission group as one ``reorder_many`` call.

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
                results = _call_reorder_many(mats, kwargs)
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
            # under the lock, so a submitter that reads ``pending`` below
            # ``max_pending`` always finds a free slot
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

        Every accepted future resolves, ``wait=False`` included: requests
        still queued for batched admission reach the pool before it stops
        taking work.  ``wait=True`` also waits for them to finish.
        """
        with self._lock:
            self._closed = True
        if self._admission_thread is not None:
            # the admission thread dispatches every request queued ahead
            # of the sentinel, then shuts the pool down itself
            self._batch_queue.put(None)
            if not wait:
                return
            self._admission_thread.join()
        self._pool.shutdown(wait=wait)

    def __enter__(self) -> "ReorderService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


#: the retired sharded service's name, kept for one release
ShardedService = ReorderService
