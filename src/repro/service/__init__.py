"""Reordering-as-a-service: caching, coalescing, bounded admission.

The layer that turns :func:`repro.reorder` into something that can absorb
traffic: a content-hash permutation cache (one reordering amortized over
many downstream uses — the paper's whole premise), request coalescing so
identical concurrent requests share one computation, and a bounded queue
with backpressure.  A failed request raises what :func:`repro.reorder`
raises.

::

    from repro.service import ReorderService

    with ReorderService() as svc:
        first = svc.reorder(mat)     # computes and caches
        again = svc.reorder(mat)     # served from the cache, bit-identical

The service keeps one :class:`PermutationCache`; size it with
``ServiceConfig.cache_capacity``.  :class:`AsyncReorderService` puts an
awaitable front door on it.

See ``docs/service.md`` for cache semantics, coalescing guarantees and the
telemetry taxonomy.
"""

from repro.service.keys import CacheKey, cache_key, pattern_digest
from repro.service.cache import CacheStats, PermutationCache
from repro.service.core import (
    ReorderService,
    ServiceConfig,
    ServiceError,
    ServiceOverloadedError,
    ServiceTimeoutError,
    ShardedService,
)
from repro.service.aio import AsyncReorderService

__all__ = [
    "CacheKey",
    "cache_key",
    "pattern_digest",
    "CacheStats",
    "PermutationCache",
    "ReorderService",
    "ShardedService",
    "AsyncReorderService",
    "ServiceConfig",
    "ServiceError",
    "ServiceOverloadedError",
    "ServiceTimeoutError",
]
