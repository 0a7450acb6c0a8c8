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
:data:`repro.backends.AUTO_METHOD`, SciPy's compiled RCM forced onto the
pipeline's starts, on every request and batch size.  Every RCM method
returns the identical permutation, so the rule only decides speed.

Passing ``cache=`` (a :class:`repro.service.PermutationCache` or a
disk-tier directory path) makes the call content-addressed: a pattern +
options seen before is served from the cache without recomputation.
:class:`repro.service.ReorderService` builds coalescing and admission
control on top of the same path.  ``shards=`` is deprecated and ignored.

Batches are first-class: :func:`reorder_many` reorders a whole list of
matrices behind one cache tier, running each miss through the pipeline
:func:`reorder` runs, so results are byte-identical to calling
:func:`reorder` per matrix.

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
from repro.validation import (
    check_choice, check_min, check_start, choices_text, warn_shards,
)
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


def _resolve_cache(cache):
    """Materialize the ``cache=`` spec: a ``str``/``Path`` names a disk
    tier and builds its :class:`PermutationCache`; a cache object (or
    ``None``) passes through unchanged."""
    if not isinstance(cache, (str, Path)):
        return cache
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
    shards: Optional[int] = None,
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
        optional :class:`repro.service.PermutationCache`, or a
        ``str``/``Path`` naming a disk-tier directory.  When given, the
        request is keyed on the content hash of the pattern plus the
        permutation-relevant options; a hit returns the cached result
        (permutation bit-identical to recomputation) with
        ``phase_ns={"cache": <lookup ns>}``, a miss computes and
        populates the cache.
    shards:
        deprecated and ignored: the cache is one tier.  An explicit value
        warns ``DeprecationWarning`` for one release.

    Returns
    -------
    ReorderResult
        permutation, bandwidth before/after, wall-clock phase timings and
        (for simulated methods) per-component run statistics.
    """
    check_choice("algorithm", algorithm, ALGORITHMS)
    check_min("n_workers", n_workers, 1)
    warn_shards(shards)
    cache = _resolve_cache(cache)
    options = dict(
        algorithm=algorithm, method=method, start=start, n_workers=n_workers,
        config=config, symmetrize=symmetrize, seed=seed, transform=transform,
    )

    # every spontaneous call gets a trace identity (service requests
    # arrive with one already active and inherit it unchanged)
    trace_scope = (
        tctx.ensure_context() if telemetry.get().enabled
        else tctx.activate(None)
    )
    with trace_scope:
        if cache is None:
            return _compute_one(mat, **options)

        from repro.service.keys import cache_key

        key = cache_key(
            mat, algorithm=algorithm, method=method, start=start,
            symmetrize=symmetrize, transform=transform,
        )
        hit = cache.get(key)
        if hit is not None:
            return hit
        res = _compute_one(mat, **options)
        cache.put(key, res)
        return res


def _compute_one(
    mat: CSRMatrix, *, algorithm: str, method: str, start: Union[int, str],
    n_workers: int, config: Optional[BatchConfig], symmetrize: bool,
    seed: int, transform: Optional[str], position: Optional[int] = None,
) -> ReorderResult:
    """One uncached call of either pipeline; ``position`` is the
    matrix's index in a caller's batch, which a validation error names."""
    if algorithm == "rcm":
        return _reorder_rcm(
            mat, method=method, start=start, n_workers=n_workers,
            config=config, symmetrize=symmetrize, seed=seed,
            transform=transform, _position=position,
        )
    check_choice("method", method, _DIRECT_METHODS)
    check_start(start, max(mat.n, 1))
    if transform is not None:
        raise ValidationError(
            "transform is an RCM-only option; "
            f"algorithm {algorithm!r} does not support it"
        )
    return _reorder_direct(
        mat, algorithm, symmetrize=symmetrize, _position=position
    )


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
    shards: Optional[int] = None,
) -> List[ReorderResult]:
    """Reorder a batch of patterns behind one cache tier.

    The batch counterpart of :func:`reorder`: same keyword surface, one
    :class:`~repro.core.api.ReorderResult` per input matrix, in order, each
    **byte-identical** to the corresponding single :func:`reorder` call.

    * with ``cache=`` given (cache object or disk-tier path, as in
      :func:`reorder`), hits are served per matrix up front
      (``phase_ns={"cache": <ns>}``); every computed result is cached on
      the way out;
    * each miss runs the pipeline :func:`reorder` runs, in-process and in
      input order, under one ``reorder_many`` span;
    * a malformed pattern fails the call with a
      :class:`~repro.errors.ValidationError` whose message starts with
      ``matrix <i>:``, its index in ``mats``.
    """
    check_choice("algorithm", algorithm, ALGORITHMS)
    check_min("n_workers", n_workers, 1)
    if algorithm == "rcm":
        check_choice("method", method, backends.method_choices())
    warn_shards(shards)
    cache = _resolve_cache(cache)
    mats = list(mats)
    results: List[Optional[ReorderResult]] = [None] * len(mats)
    if not mats:
        return []

    trace_scope = (
        tctx.ensure_context() if telemetry.get().enabled
        else tctx.activate(None)
    )
    with trace_scope:
        # cache tier first: serve hits, compute only the misses
        keys: List[Optional[object]] = [None] * len(mats)
        pend: List[int] = []
        if cache is not None:
            from repro.service.keys import cache_key

            for i, m in enumerate(mats):
                keys[i] = cache_key(
                    m, algorithm=algorithm, method=method, start=start,
                    symmetrize=symmetrize, transform=transform,
                )
                results[i] = cache.get(keys[i])
                if results[i] is None:
                    pend.append(i)
        else:
            pend = list(range(len(mats)))

        if pend:
            # n_groups stays 1: the benchmark's batch_groups probe reads it
            with telemetry.get().span(
                "reorder_many", category="api", n_matrices=len(pend),
                n_groups=1,
            ):
                computed = [
                    _compute_one(
                        mats[i], algorithm=algorithm, method=method,
                        start=start, n_workers=n_workers, config=config,
                        symmetrize=symmetrize, seed=seed,
                        transform=transform, position=i,
                    )
                    for i in pend
                ]
            for i, res in zip(pend, computed):
                results[i] = res
                if cache is not None:
                    cache.put(keys[i], res)
    return results  # type: ignore[return-value]


def _reorder_direct(
    mat: CSRMatrix, algorithm: str, *, symmetrize: bool,
    _position: Optional[int] = None,
) -> ReorderResult:
    """Run a whole-matrix heuristic through the same result pipeline.

    ``_position`` is the private batch index that
    :func:`repro.core.api._reorder_rcm` takes too: a validation error
    names it.
    """
    tel = telemetry.get()
    phase_ns = {p: 0 for p in PHASES}

    mat, init_bw, _ = _validate(
        mat, symmetrize=symmetrize, position=_position, phase_ns=phase_ns
    )
    with tel.span(
        "ordering", category="api", into=phase_ns, method=algorithm,
        size=mat.n,
    ):
        perm = np.asarray(_algorithm_fn(algorithm)(mat), dtype=np.int64)
    with tel.span("assembly", category="api", into=phase_ns):
        reord_bw = bandwidth_after(mat, perm)

    return ReorderResult(
        permutation=perm,
        method="direct",
        start_nodes=[],
        component_sizes=[],
        initial_bandwidth=init_bw,
        reordered_bandwidth=reord_bw,
        stats=[],
        phase_ns=phase_ns,
        algorithm=algorithm,
    )
