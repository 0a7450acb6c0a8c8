"""``repro.reorder()`` — the single public entry point for every ordering.

One facade unifies what used to be two APIs (``core.api.reverse_cuthill_mckee``
for RCM, ``orderings.api.order`` for everything else): every algorithm —
{algorithms} —
goes through the same validated, telemetry-instrumented pipeline and returns
a full :class:`~repro.core.api.ReorderResult` (permutation, bandwidth
before/after, wall-clock phase breakdown).  The RCM execution methods are
{methods}.

All parameters are keyword-only and validated centrally
(:mod:`repro.validation`): unknown ``algorithm``/``method``/``start`` values
raise one uniform ``ValueError`` listing the valid choices.  The choice
lists above are substituted from :data:`ALGORITHMS` and the execution-backend
registry (:mod:`repro.backends`) at import time — each method name is
spelled exactly once, at its ``register()`` call, and
``tests/test_doc_drift.py`` holds this file to it.

For RCM, ``method="auto"`` (the default) runs
:data:`repro.backends.AUTO_METHOD`, the level-synchronous NumPy kernel, on
every pattern and batch size.  Every RCM method returns the identical
permutation, so the rule only decides speed.

Passing ``cache=`` (a :class:`repro.service.PermutationCache`, a
:class:`repro.service.ShardedCache`, or a disk-tier directory path) makes
the call content-addressed: a pattern + options seen before is served from
the cache without recomputation.  With ``shards=N`` a path spec
materializes as an N-way :class:`~repro.service.ShardedCache` (per-shard
``shard-<i>`` disk directories behind a consistent-hash ring — the same
layout ``ReorderService(shards=N)`` serves from).
:class:`repro.service.ReorderService` builds coalescing and admission
control on top of the same path.

Batches are first-class: :func:`reorder_many` reorders a whole list of
matrices as **one dispatch**, shipped through the zero-copy shared-memory
transport to the persistent process pool
(:func:`repro.parallel.map_matrices`).  Results are byte-identical to
calling :func:`reorder` per matrix.

Errors: everything either entry point raises on purpose derives from
:class:`repro.errors.ReproError` — :class:`repro.errors.ValidationError`
(a ``ValueError``) for bad arguments and malformed patterns (the message
names the failed check: duplicate, unsorted or asymmetric; in a batch,
also the matrix's index), :class:`repro.errors.BackendUnavailableError`
for unknown methods; the service layer adds
:class:`repro.errors.ServiceOverloadedError` /
:class:`repro.errors.ServiceTimeoutError`.  See :mod:`repro.errors` for
the full hierarchy.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.sparse.csr import CSRMatrix
from repro.sparse.bandwidth import bandwidth_after
from repro import backends
from repro.core.api import (
    METHODS, PHASES, ReorderResult, _reorder_rcm, _validate,
)
from repro.core.batches import BatchConfig
from repro.errors import ValidationError
from repro.validation import check_choice, check_min, check_start, choices_text
from repro import telemetry
from repro.telemetry import context as tctx

__all__ = ["reorder", "reorder_many", "ALGORITHMS", "METHODS"]

#: every ordering heuristic the facade dispatches to
ALGORITHMS = ("rcm", "sloan", "gps", "king", "minimum-degree", "spectral")

#: methods valid for algorithms other than ``"rcm"`` (they have exactly one
#: execution strategy, so only the default resolution is accepted)
_DIRECT_METHODS = ("auto", "direct")

# single source of truth: the module docstring enumerates the choice lists
# from ALGORITHMS and the backend registry, never by hand (guarded by
# tests/test_doc_drift)
if __doc__ is not None:  # pragma: no branch - absent only under -OO
    __doc__ = __doc__.format(
        algorithms=choices_text(ALGORITHMS),
        methods=choices_text(backends.names()),
    )


def _resolve_cache(cache, shards: int):
    """Materialize the ``cache=``/``shards=`` spec into a cache object.

    A cache *object* (``PermutationCache``/``ShardedCache`` — anything
    with ``get``/``put``) passes through unchanged; a ``str``/``Path``
    names a disk-tier root and builds a :class:`PermutationCache` at
    ``shards=1`` or an N-way :class:`ShardedCache` (``shard-<i>``
    subdirectories) above that.  ``shards`` only shapes how a path spec
    materializes — with ``cache=None`` there is nothing to shard.
    """
    check_min("shards", shards, 1)
    if cache is None or not isinstance(cache, (str, Path)):
        return cache
    if shards > 1:
        from repro.service.router import ShardedCache

        return ShardedCache(cache, shards)
    from repro.service.cache import PermutationCache

    return PermutationCache(disk_dir=cache)


def _algorithm_fn(algorithm: str):
    """Resolve a non-RCM ordering heuristic lazily (import cost on use)."""
    if algorithm == "sloan":
        from repro.orderings.sloan import sloan

        return sloan
    if algorithm == "gps":
        from repro.orderings.gps import gibbs_poole_stockmeyer

        return gibbs_poole_stockmeyer
    if algorithm == "king":
        from repro.orderings.king import king

        return king
    if algorithm == "minimum-degree":
        from repro.orderings.mindeg import minimum_degree

        return minimum_degree
    if algorithm == "spectral":
        from repro.orderings.spectral import spectral_ordering

        return spectral_ordering
    raise AssertionError(algorithm)  # pragma: no cover - validated upstream


def reorder(
    mat: CSRMatrix,
    *,
    algorithm: str = "rcm",
    method: str = "auto",
    start: Union[int, str] = "min-valence",
    n_workers: int = 4,
    config: Optional[BatchConfig] = None,
    symmetrize: bool = False,
    seed: int = 0,
    transform: Optional[str] = None,
    cache=None,
    shards: int = 1,
) -> ReorderResult:
    """Reorder a symmetric sparse pattern to reduce its bandwidth.

    Parameters
    ----------
    mat:
        square :class:`CSRMatrix`; must be structurally symmetric unless
        ``symmetrize`` is set (then ``A | A^T`` is reordered).
    algorithm:
        one of :data:`ALGORITHMS`.  ``"rcm"`` runs the paper's pipeline
        (components, start selection, any execution method); the classical
        heuristics (``sloan``, ``gps``, ``king``, ``minimum-degree``,
        ``spectral``) run directly on the whole matrix.
    method:
        RCM execution strategy, one of
        :func:`repro.backends.method_choices`.  ``"auto"`` (default) runs
        :data:`repro.backends.AUTO_METHOD`.  All methods
        return the **identical** permutation (the paper's headline
        invariant); they differ in execution strategy and in the
        statistics attached — see the capability table in
        ``docs/api.md``.  For non-RCM algorithms only ``"auto"``/
        ``"direct"`` are accepted.
    start:
        an explicit node id (single-component matrices only), or a strategy:
        ``"min-valence"`` (default — deterministic and cheap) or
        ``"peripheral"`` (the paper's pseudo-peripheral search).  RCM only.
    n_workers:
        worker count for the parallel methods — simulated workers for the
        ``batch-*`` methods, OS threads for ``"threads"``, worker
        *processes* for ``"parallel"``.
    config:
        optional :class:`BatchConfig` override for the batch methods.
    seed:
        interleaving jitter seed for the simulated methods (0 = canonical
        deterministic schedule).
    transform:
        optional pre-pass in front of the BFS kernels (RCM only).
        ``"powerlaw"`` applies the Jiang-style hub extraction: hub
        vertices are relabeled to the front and the traversal starts
        from them, keeping the level structure shallow on heavy-tailed
        patterns (the returned permutation still indexes the original
        matrix).  ``"auto"`` applies it exactly when the scenario
        classifier calls the pattern heavy-tailed (see
        :mod:`repro.matrices.scenarios`), and ``None`` (default)
        preserves the classical pipeline — only the untransformed path
        carries the byte-identical-across-methods invariant.
        Incompatible with an explicit integer ``start``.
    cache:
        optional :class:`repro.service.PermutationCache`, N-way
        :class:`repro.service.ShardedCache`, or a ``str``/``Path`` naming
        a disk-tier directory (materialized per ``shards``).  When given,
        the request is keyed on the content hash of the pattern plus the
        permutation-relevant options; a hit returns the cached result
        (permutation bit-identical to recomputation) with
        ``phase_ns={"cache": <lookup ns>}``, a miss computes and
        populates the cache.
    shards:
        how a ``str``/``Path`` ``cache`` spec materializes: ``1``
        (default) builds one :class:`~repro.service.PermutationCache`,
        ``N > 1`` an N-way consistent-hash
        :class:`~repro.service.ShardedCache` with per-shard ``shard-<i>``
        disk directories.  Ignored for a cache object (it already knows
        its sharding) and meaningless without ``cache``.

    Returns
    -------
    ReorderResult
        permutation, bandwidth before/after, wall-clock phase timings and
        (for simulated methods) per-component run statistics.
    """
    check_choice("algorithm", algorithm, ALGORITHMS)
    check_min("n_workers", n_workers, 1)
    cache = _resolve_cache(cache, shards)

    def compute() -> ReorderResult:
        if algorithm == "rcm":
            return _reorder_rcm(
                mat, method=method, start=start, n_workers=n_workers,
                config=config, symmetrize=symmetrize, seed=seed,
                transform=transform,
            )
        check_choice("method", method, _DIRECT_METHODS)
        check_start(start, max(mat.n, 1))
        if transform is not None:
            raise ValidationError(
                "transform is an RCM-only option; "
                f"algorithm {algorithm!r} does not support it"
            )
        return _reorder_direct(mat, algorithm, symmetrize=symmetrize)

    # every spontaneous call gets a trace identity (service requests
    # arrive with one already active and inherit it unchanged)
    trace_scope = (
        tctx.ensure_context() if telemetry.get().enabled
        else tctx.activate(None)
    )
    with trace_scope:
        if cache is None:
            return compute()

        from repro.service.keys import cache_key

        key = cache_key(
            mat, algorithm=algorithm, method=method, start=start,
            symmetrize=symmetrize, transform=transform,
        )
        t0 = time.perf_counter_ns()
        hit = cache.get(key)
        if hit is not None:
            hit.phase_ns = {"cache": time.perf_counter_ns() - t0}
            return hit
        res = compute()
        cache.put(key, res)
        return res


def reorder_many(
    mats: Sequence[CSRMatrix],
    *,
    algorithm: str = "rcm",
    method: str = "auto",
    start: Union[int, str] = "min-valence",
    n_workers: int = 4,
    config: Optional[BatchConfig] = None,
    symmetrize: bool = False,
    seed: int = 0,
    transform: Optional[str] = None,
    cache=None,
    shards: int = 1,
) -> List[ReorderResult]:
    """Reorder a batch of patterns as one amortized dispatch.

    The batch counterpart of :func:`reorder`: same keyword surface, one
    :class:`~repro.core.api.ReorderResult` per input matrix, in order, each
    **byte-identical** to the corresponding single :func:`reorder` call.
    What changes is the execution economics:

    * the whole batch runs as **one** executor dispatch
      (:func:`repro.parallel.map_matrices`) on the resolved backend
      (``"auto"`` is :data:`repro.backends.AUTO_METHOD`, as for
      :func:`reorder`): CSR payloads travel via the zero-copy
      shared-memory transport, the persistent pool is warmed once and
      reused;
    * with ``cache=`` given (cache object or disk-tier path, sharded per
      ``shards`` exactly as in :func:`reorder`), hits are served per
      matrix up front (``phase_ns={"cache": <ns>}``) and only the misses
      are dispatched; every computed result is cached on the way out;
    * a malformed pattern fails the call with a
      :class:`~repro.errors.ValidationError` whose message starts with
      ``matrix <i>:``, its index in ``mats``.

    Requests that need per-call machinery a grouped dispatch cannot carry
    (non-RCM algorithms, an explicit simulated-machine ``config``, a
    nonzero ``seed``, a ``transform`` pass, or ``method="parallel"``,
    which manages its own pool) fall back to a per-matrix loop over the
    same pipeline — results are identical either way.
    """
    check_choice("algorithm", algorithm, ALGORITHMS)
    check_min("n_workers", n_workers, 1)
    if algorithm == "rcm":
        check_choice("method", method, backends.method_choices())
    cache = _resolve_cache(cache, shards)
    mats = list(mats)
    results: List[Optional[ReorderResult]] = [None] * len(mats)
    if not mats:
        return []

    trace_scope = (
        tctx.ensure_context() if telemetry.get().enabled
        else tctx.activate(None)
    )
    with trace_scope:
        # cache tier first: serve hits, dispatch only the misses
        keys: List[Optional[object]] = [None] * len(mats)
        pend: List[int] = []
        if cache is not None:
            from repro.service.keys import cache_key

            for i, m in enumerate(mats):
                keys[i] = cache_key(
                    m, algorithm=algorithm, method=method, start=start,
                    symmetrize=symmetrize, transform=transform,
                )
                t0 = time.perf_counter_ns()
                hit = cache.get(keys[i])
                if hit is not None:
                    hit.phase_ns = {"cache": time.perf_counter_ns() - t0}
                    results[i] = hit
                else:
                    pend.append(i)
        else:
            pend = list(range(len(mats)))

        if pend:
            computed = _compute_many(
                [mats[i] for i in pend], pend, algorithm=algorithm,
                method=method, start=start, n_workers=n_workers,
                config=config, symmetrize=symmetrize, seed=seed,
                transform=transform,
            )
            for i, res in zip(pend, computed):
                results[i] = res
                if cache is not None:
                    cache.put(keys[i], res)
    return results  # type: ignore[return-value]


def _compute_many(
    mats: List[CSRMatrix], positions: List[int], *, algorithm: str,
    method: str, start: Union[int, str], n_workers: int, config,
    symmetrize: bool, seed: int, transform: Optional[str] = None,
) -> List[ReorderResult]:
    """Batch execution (no cache tier) — the one code path behind both
    :func:`reorder_many` and the service's batched admission, so the two
    surfaces cannot drift apart.

    Every matrix is validated where it runs; a malformed one fails the
    call with an error naming its ``positions`` entry (its index in the
    caller's list).
    """
    from repro.parallel import ParallelConfig, map_matrices

    one_by_one = (
        algorithm != "rcm" or config is not None or seed != 0
        or transform is not None
    )
    if one_by_one:
        # validated here as well as inside each call, so the error names
        # the matrix's index
        mats, _ = _validate(mats, symmetrize=symmetrize, positions=positions)
        return [
            reorder(
                m, algorithm=algorithm, method=method, start=start,
                n_workers=n_workers, config=config, seed=seed,
                transform=transform,
            )
            for m in mats
        ]

    resolved = backends.AUTO_METHOD if method == "auto" else method
    # the whole batch runs on one backend, so n_groups is always 1; the
    # attribute stays because the benchmark's batch_groups probe reads it
    with telemetry.get().span(
        "reorder_many", category="api", n_matrices=len(mats), n_groups=1,
    ):
        if resolved == "parallel" or len(mats) == 1:
            # the process backend schedules components itself (and a pool
            # inside a pool worker cannot fork) — run per matrix
            return [
                _reorder_rcm(
                    m, method=resolved, start=start, n_workers=n_workers,
                    symmetrize=symmetrize, _position=pos,
                )
                for m, pos in zip(mats, positions)
            ]
        return map_matrices(
            mats, method=resolved, start=start, symmetrize=symmetrize,
            config=ParallelConfig(n_workers=n_workers),
            _positions=positions,
        )


def _reorder_direct(
    mat: CSRMatrix, algorithm: str, *, symmetrize: bool
) -> ReorderResult:
    """Run a whole-matrix heuristic through the same result pipeline."""
    tel = telemetry.get()
    phase_ns = {p: 0 for p in PHASES}

    t_phase = time.perf_counter_ns()
    (mat,), bws = _validate([mat], symmetrize=symmetrize)
    phase_ns["validate"] = time.perf_counter_ns() - t_phase

    t_phase = time.perf_counter_ns()
    with tel.span("ordering", category="api", method=algorithm, size=mat.n):
        perm = np.asarray(_algorithm_fn(algorithm)(mat), dtype=np.int64)
    phase_ns["ordering"] = time.perf_counter_ns() - t_phase

    t_phase = time.perf_counter_ns()
    with tel.span("assembly", category="api"):
        reord_bw = bandwidth_after(mat, perm)
    phase_ns["assembly"] = time.perf_counter_ns() - t_phase

    return ReorderResult(
        permutation=perm,
        method="direct",
        start_nodes=[],
        component_sizes=[],
        initial_bandwidth=int(bws[0]),
        reordered_bandwidth=reord_bw,
        stats=[],
        phase_ns=phase_ns,
        algorithm=algorithm,
    )
