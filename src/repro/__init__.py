"""repro — Speculative Parallel Reverse Cuthill-McKee Reordering.

A faithful, self-contained reproduction of Mlakar et al., *"Speculative
Parallel Reverse Cuthill-McKee Reordering on Multi- and Many-core
Architectures"* (IPDPS 2021): batch-based RCM with speculative discovery,
chained signals, overhang work aggregation and early termination, executing
on a deterministic simulated multicore CPU / many-core GPU (plus a
real-thread backend), together with the paper's baselines, test-set
analogues and the complete experiment harness — behind one unified entry
point, :func:`repro.reorder`, whose fast path is a level-synchronous NumPy
kernel with optional per-component process parallelism.  Batches go
through :func:`repro.reorder_many`: one amortized dispatch over the
zero-copy shared-memory transport and the persistent process pool.

Quickstart::

    import repro
    from repro.matrices import grid2d

    mat = grid2d(100, 100)
    result = repro.reorder(mat)          # algorithm="rcm", method="auto"
    reordered = mat.permute_symmetric(result.permutation)
    print(result.initial_bandwidth, "->", result.reordered_bandwidth)

    results = repro.reorder_many([mat1, mat2, mat3])   # one dispatch

Every intentional failure derives from :class:`repro.errors.ReproError`
(see :mod:`repro.errors` for the hierarchy).  The pre-facade entry points
(``reverse_cuthill_mckee``, ``orderings.api.order``) finished their
deprecation cycle in 1.2 and now raise
:class:`repro.errors.RemovedAPIError`; see ``docs/api.md`` for the
migration guide.
"""

from repro import backends, errors
from repro.sparse import CSRMatrix, coo_to_csr, bandwidth
from repro.core.api import reverse_cuthill_mckee, ReorderResult, METHODS
from repro.facade import reorder, reorder_many, ALGORITHMS
from repro.service import (
    AsyncReorderService,
    PermutationCache,
    ReorderService,
    ServiceConfig,
    ShardedService,
)
from repro.core import (
    cuthill_mckee,
    rcm_serial,
    rcm_vectorized,
    BatchConfig,
    BatchResult,
    run_batch_rcm,
    run_batch_rcm_gpu,
)
from repro.machine.costmodel import CPUCostModel, GPUCostModel

__version__ = "1.2.0"

__all__ = [
    "backends",
    "errors",
    "CSRMatrix",
    "coo_to_csr",
    "bandwidth",
    "reorder",
    "reorder_many",
    "ALGORITHMS",
    "ReorderService",
    "ShardedService",
    "AsyncReorderService",
    "ServiceConfig",
    "PermutationCache",
    "reverse_cuthill_mckee",
    "ReorderResult",
    "METHODS",
    "cuthill_mckee",
    "rcm_serial",
    "rcm_vectorized",
    "BatchConfig",
    "BatchResult",
    "run_batch_rcm",
    "run_batch_rcm_gpu",
    "CPUCostModel",
    "GPUCostModel",
    "__version__",
]
