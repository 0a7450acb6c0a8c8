"""Process-parallel execution: per-component RCM on a process pool.

Every RCM variant in :mod:`repro.core` is bounded by one interpreter; this
subsystem sidesteps the GIL with a :class:`concurrent.futures`
process pool.  It covers one work shape, **per-component partitioning**:
the independent connected components of one matrix are ordered
concurrently (:func:`rcm_components`, the ``method="parallel"``
backend), largest first so the pool drains evenly.

Matrix payloads travel through the zero-copy shared-memory transport
(:mod:`repro.parallel.shm`): published once into
``multiprocessing.shared_memory`` segments, attached by workers as
read-only views, permutations written in place into a shared result arena
— no CSR bytes cross the pipe.  The fork pool is persistent and warmed
once per lifetime (``parallel.pool.reused`` counts reuse).
:func:`rcm_components` degrades gracefully to in-process execution when
shared memory or ``fork`` is unavailable, the pool cannot start, or the
input is too small to amortize dispatch.  Results are **bit-identical**
to the serial path in all cases.

Batches of matrices do not use the pool: :func:`repro.reorder_many` runs
each matrix through :func:`repro.reorder`'s own pipeline.
:func:`map_matrices` is a deprecated alias of it for one release.
"""

from repro.parallel import shm
from repro.parallel.executor import (
    ParallelConfig,
    fork_available,
    map_matrices,
    rcm_components,
    record_fallback,
    reset_pools,
    resolve_workers,
)

__all__ = [
    "ParallelConfig",
    "fork_available",
    "map_matrices",
    "rcm_components",
    "record_fallback",
    "reset_pools",
    "resolve_workers",
    "shm",
]
