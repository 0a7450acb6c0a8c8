"""Asyncio front door over the reordering service.

:class:`AsyncReorderService` lets one event-loop process hold thousands
of in-flight reorder requests while the service's thread pool (and the
fork-pool workers under it) do the computing.  The bridge is thin by
design:

* ``submit`` may *block* — backpressure (``submit_timeout > 0``) waits on
  a semaphore — so admission runs in the loop's default executor via
  ``loop.run_in_executor``; the event loop never stalls on a full queue.
* The service's ``concurrent.futures.Future`` is adapted with
  :func:`asyncio.wrap_future`, so awaiting a result costs no polling and
  no extra thread: the pool thread that resolves the future wakes the
  loop directly.
* Results, errors and semantics are exactly the synchronous service's —
  same cache keys, same coalescing, same errors, byte-identical
  permutations — because the same service runs them.

The wrapper owns its backing service only when it created one; wrapping
an existing :class:`~repro.service.core.ReorderService` leaves lifecycle
with the caller unless ``aclose`` is asked to take it.
"""

from __future__ import annotations

import asyncio
from typing import List, Optional, Sequence

from repro.core.api import ReorderResult
from repro.errors import ServiceTimeoutError
from repro.service.core import ReorderService, ServiceConfig
from repro.sparse.csr import CSRMatrix
from repro.validation import warn_shards

__all__ = ["AsyncReorderService"]


class AsyncReorderService:
    """Awaitable ``reorder``/``reorder_many`` over a :class:`ReorderService`.

    ::

        async with AsyncReorderService() as svc:
            res = await svc.reorder(mat)
            many = await svc.reorder_many(mats)

    ``config`` builds the backing service.  An existing service instance
    can be passed as ``service=`` instead (it is not closed by ``aclose``
    by default).  ``shards`` is deprecated and ignored.
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        *,
        shards: Optional[int] = None,
        service: Optional[ReorderService] = None,
    ) -> None:
        warn_shards(shards)
        if service is not None:
            if config is not None:
                raise ValueError("pass config or service, not both")
            self.service = service
            self._owns_service = False
        else:
            self.service = ReorderService(config)
            self._owns_service = True

    # ------------------------------------------------------------------
    # awaitable surface
    # ------------------------------------------------------------------
    async def submit(self, mat: CSRMatrix, **options) -> ReorderResult:
        """Admit (off-loop) and await the result future.

        Admission — keying, cache probe, backpressure wait — runs in the
        default executor because it may block; the returned coroutine
        then awaits the service future without burning a thread.
        """
        loop = asyncio.get_running_loop()
        fut = await loop.run_in_executor(
            None, lambda: self.service.submit(mat, **options)
        )
        return await asyncio.wrap_future(fut, loop=loop)

    async def reorder(
        self,
        mat: CSRMatrix,
        *,
        timeout: Optional[float] = None,
        **options,
    ) -> ReorderResult:
        """Awaitable analogue of :meth:`ReorderService.reorder`.

        ``timeout`` (seconds; default the config's ``request_timeout``)
        bounds the wait and raises :class:`ServiceTimeoutError` on
        expiry — the computation is not cancelled and still lands in the
        cache for the retry, matching the synchronous semantics.
        """
        if timeout is None:
            timeout = self.service.config.request_timeout
        try:
            return await asyncio.wait_for(
                self.submit(mat, **options), timeout
            )
        except asyncio.TimeoutError:
            raise ServiceTimeoutError(
                f"request did not complete within {timeout}s"
            ) from None

    async def reorder_many(
        self, mats: Sequence[CSRMatrix], **options
    ) -> List[ReorderResult]:
        """Submit a batch concurrently; gather results in input order."""
        return list(
            await asyncio.gather(
                *(self.submit(m, **options) for m in mats)
            )
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Total queued-plus-running computations on the backing service."""
        return self.service.pending

    def stats(self) -> dict:
        """The backing service's :meth:`stats` snapshot, unchanged."""
        return self.service.stats()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def aclose(self, *, force: bool = False) -> None:
        """Close the backing service off-loop.

        Owned services (constructor-created) always close; a wrapped
        caller-provided service closes only with ``force=True``.
        """
        if not (self._owns_service or force):
            return
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            None, lambda: self.service.close(wait=True)
        )

    async def __aenter__(self) -> "AsyncReorderService":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.aclose()
