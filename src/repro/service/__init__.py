"""Reordering-as-a-service: caching, coalescing, bounded admission.

The layer that turns :func:`repro.reorder` into something that can absorb
traffic: a content-hash permutation cache (one reordering amortized over
many downstream uses — the paper's whole premise), request coalescing so
identical concurrent requests share one computation, and a bounded queue
with backpressure and a graceful method-degradation chain.

::

    from repro.service import ReorderService

    with ReorderService() as svc:
        first = svc.reorder(mat)     # computes and caches
        again = svc.reorder(mat)     # served from the cache, bit-identical

``ReorderService(shards=N)`` splits the cache into N tiers on a
consistent-hash :class:`HashRing` (:class:`ShardedCache`, per-shard
``shard-<i>/`` disk directories that survive resharding) behind the same
single admission queue; ``ShardedService`` is another name for
:class:`ReorderService`.  :class:`AsyncReorderService` puts an awaitable
front door on it.

See ``docs/service.md`` for cache semantics, coalescing guarantees and the
telemetry taxonomy.
"""

from repro.service.keys import CacheKey, cache_key, pattern_digest
from repro.service.cache import CacheStats, PermutationCache
from repro.service.router import HashRing, ShardedCache
from repro.service.core import (
    ReorderService,
    ServiceConfig,
    ServiceError,
    ServiceOverloadedError,
    ServiceTimeoutError,
    ShardedService,
    fallback_chain,
)
from repro.service.aio import AsyncReorderService

__all__ = [
    "CacheKey",
    "cache_key",
    "pattern_digest",
    "CacheStats",
    "PermutationCache",
    "ReorderService",
    "ShardedCache",
    "ShardedService",
    "AsyncReorderService",
    "HashRing",
    "ServiceConfig",
    "ServiceError",
    "ServiceOverloadedError",
    "ServiceTimeoutError",
    "fallback_chain",
]
