"""RCM pipeline internals: component handling, method/start selection, results.

The single public entry point of the library is :func:`repro.reorder`
(see :mod:`repro.facade`); this module implements the RCM execution pipeline
behind it.  The pre-facade entry point :func:`reverse_cuthill_mckee`
finished its deprecation cycle in 1.2 and now raises
:class:`repro.errors.RemovedAPIError`.

:func:`_reorder_rcm` validates the matrix, decomposes it into connected
components, picks a start node per component (explicitly, by minimum
valence, or pseudo-peripherally) and runs the chosen execution backend,
assembling one global permutation.  Which backends exist, what each one
honors, and what ``method="auto"`` resolves to
(:data:`repro.backends.AUTO_METHOD`) all live in :mod:`repro.backends` —
this module only walks the pipeline and hands each component (or, for
whole-matrix backends, the component list) to the registered run callable.

Component convention (matches SciPy's ``csgraph.reverse_cuthill_mckee``
structure): components are ordered by their smallest node id; within the
global permutation each component's RCM block is reversed *within itself*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro import backends
from repro.sparse.csr import CSRMatrix
from repro.sparse.graph import connected_components, symmetric_components
from repro.sparse.bandwidth import bandwidth_after
from repro.sparse.validate import View, check_pattern, int32_view
from repro.core.batches import BatchConfig
from repro.core.peripheral import find_pseudo_peripheral
from repro.core.transform import check_transform, plan_powerlaw, resolve_transform
from repro.errors import ValidationError
from repro.machine.stats import RunStats
from repro.validation import check_choice, check_start
from repro import telemetry

__all__ = [
    "ReorderResult",
    "reverse_cuthill_mckee",
    "METHODS",
    "PHASES",
]

#: wall-clock phase names of the reorder pipeline, in execution order
#: (also the telemetry span names)
PHASES = (
    "validate",
    "transform",
    "components",
    "start-selection",
    "ordering",
    "assembly",
)

#: registered RCM execution methods, snapshotted at import for backward
#: compatibility — new code should call :func:`repro.backends.names`
METHODS = backends.names()

#: relative-reduction histogram buckets (reductions live in [0, 1]; a
#: scramble-regression can go negative, caught by the implicit +Inf tail)
_REDUCTION_BUCKETS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


@dataclass
class ReorderResult:
    """Outcome of a reordering call.

    ``permutation[k]`` is the old index placed at new position ``k`` —
    apply with :meth:`CSRMatrix.permute_symmetric`.
    """

    permutation: np.ndarray
    method: str
    start_nodes: List[int]
    component_sizes: List[int]
    initial_bandwidth: int
    reordered_bandwidth: int
    #: simulated run stats per component (batch methods only)
    stats: List[RunStats] = field(default_factory=list)
    #: wall-clock nanoseconds per pipeline phase (see :data:`PHASES`)
    phase_ns: Dict[str, int] = field(default_factory=dict)
    #: the ordering algorithm that ran (``"rcm"`` for every RCM method)
    algorithm: str = "rcm"
    #: the transformation pass that was applied (``None`` on the
    #: untransformed path — including ``transform="auto"`` resolving away)
    transform: Optional[str] = None

    @property
    def n_components(self) -> int:
        return len(self.component_sizes)

    @property
    def wall_ms(self) -> float:
        """Total measured wall milliseconds across all pipeline phases."""
        return sum(self.phase_ns.values()) / 1e6

    def to_dict(self) -> dict:
        """JSON-serializable summary (bandwidths, phases, per-component
        simulated stats)."""
        return {
            "algorithm": self.algorithm,
            "method": self.method,
            "transform": self.transform,
            "n": int(self.permutation.size),
            "n_components": self.n_components,
            "start_nodes": [int(s) for s in self.start_nodes],
            "component_sizes": [int(s) for s in self.component_sizes],
            "initial_bandwidth": int(self.initial_bandwidth),
            "reordered_bandwidth": int(self.reordered_bandwidth),
            "phase_ns": dict(self.phase_ns),
            "wall_ms": self.wall_ms,
            "stats": [st.to_dict() for st in self.stats],
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ReorderResult(method={self.method!r}, n={self.permutation.size}, "
            f"bw {self.initial_bandwidth} -> {self.reordered_bandwidth})"
        )


def _validate(
    mat: CSRMatrix, *, symmetrize: bool, position: Optional[int],
    phase_ns: Dict[str, int],
) -> Tuple[CSRMatrix, int, Optional[View]]:
    """The validate phase of one call, timed into ``phase_ns``.

    Symmetrizes when asked, then runs
    :func:`~repro.sparse.validate.check_pattern`, which raises
    :class:`ValidationError` for a malformed pattern, prefixed with
    ``matrix <position>:`` when the matrix belongs to a caller's batch.
    Returns the matrix to reorder, its initial bandwidth and its int32
    view (``None`` when the view would overflow int32).
    """
    with telemetry.get().span(
        "validate", category="api", into=phase_ns, nnz=mat.nnz
    ):
        if symmetrize:
            mat = mat.symmetrize()
        bw, view = check_pattern(mat, position)
        return mat, bw, view


def _pick_starts(
    mat: CSRMatrix, labels: np.ndarray, n_comps: int, start: str,
    *, prefer_hub: bool = False,
) -> List[int]:
    """Every component's start node, in component order.

    One pass over the whole pattern: the key ``valence * n + node`` is
    minimized per component label, which picks the minimum-valence node
    and the lowest id among ties (``argmin``'s tie-break).  The
    transformed path negates the valence and starts from each component's
    hub: a hub-first BFS keeps the level structure shallow, which is the
    entire point of the power-law pass.  ``"peripheral"`` seeds the
    pseudo-peripheral search with the minimum-valence node.
    """
    n = mat.n
    if n_comps == 0:
        return []
    valence = np.diff(mat.indptr)
    key = (-valence if prefer_hub else valence) * n + np.arange(n)
    best = np.full(n_comps, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(best, labels, key)
    starts = (best % n).tolist()
    if start == "peripheral" and not prefer_hub:
        return [find_pseudo_peripheral(mat, s).node for s in starts]
    return starts


def _reorder_rcm(
    mat: CSRMatrix,
    *,
    method: str = "serial",
    start: Union[int, str] = "min-valence",
    n_workers: int = 4,
    config: Optional[BatchConfig] = None,
    symmetrize: bool = False,
    seed: int = 0,
    transform: Optional[str] = None,
    _position: Optional[int] = None,
) -> "ReorderResult":
    """RCM pipeline implementation (no deprecation warning; see
    :func:`repro.reorder` for the public facade and parameter docs).

    ``n_workers`` is validated at the facade boundary
    (:func:`repro.facade.reorder`); this layer trusts it.  ``_position``
    is the batch path's private contract: the matrix's index in the
    caller's batch, which a validation error names.
    """
    check_choice("method", method, backends.method_choices())
    if method == "auto":
        method = backends.AUTO_METHOD
    backend = backends.get(method)
    check_start(start, mat.n)
    check_transform(transform)
    if transform is not None and isinstance(start, (int, np.integer)):
        raise ValidationError(
            "explicit start node cannot be combined with transform="
            f"{transform!r}: the transformation relabels the pattern, so "
            "node ids no longer mean what the caller intended; use a start "
            "strategy or transform=None"
        )
    tel = telemetry.get()
    phase_ns: Dict[str, int] = {p: 0 for p in PHASES}

    mat, init_bw, view = _validate(
        mat, symmetrize=symmetrize, position=_position, phase_ns=phase_ns
    )

    # transform phase: resolve the power-law pass and, when it applies,
    # reorder the hub-first *relabeled* pattern instead — the relabeling
    # is composed back into the final permutation at assembly
    plan = None
    work = mat
    with tel.span(
        "transform", category="api", into=phase_ns,
        requested=transform or "none",
    ) as sp:
        if transform is not None:
            if resolve_transform(transform, mat) == "powerlaw":
                plan = plan_powerlaw(mat)
            if plan is not None:
                work = mat.permute_symmetric(plan.relabel)
        sp.set(
            applied=plan.kind if plan is not None else "none",
            n_hubs=plan.n_hubs if plan is not None else 0,
        )

    with tel.span("components", category="api", into=phase_ns) as sp:
        # validate proved the pattern symmetric, and so is its relabeling
        if plan is not None:
            view = int32_view(work)
        n_comps, labels = (
            connected_components(work) if view is None
            else symmetric_components(*view)
        )
        sizes = np.bincount(labels, minlength=n_comps).tolist()
        sp.set(n_components=n_comps)
    if isinstance(start, (int, np.integer)) and n_comps != 1:
        raise ValidationError(
            "explicit start node requires a connected matrix; "
            f"found {n_comps} components"
        )

    with tel.span("start-selection", category="api", into=phase_ns):
        if isinstance(start, (int, np.integer)):
            starts = [int(start)]
        else:
            starts = _pick_starts(
                work, labels, n_comps, start, prefer_hub=plan is not None
            )

    perm_parts: List[np.ndarray] = []
    stats: List[RunStats] = []

    if backend.run_matrix is not None:
        with tel.span(
            "ordering", category="api", into=phase_ns, method=method,
            size=sum(sizes),
        ):
            perm_parts = list(backend.run_matrix(
                work, starts, sizes=sizes, n_workers=n_workers,
                config=config, seed=seed,
            ))
    else:
        for s, total in zip(starts, sizes):
            with tel.span(
                "ordering", category="api", into=phase_ns, method=method,
                size=total,
            ):
                part, comp_stats = backend.run_component(
                    work, s, total=total, n_workers=n_workers,
                    config=config, seed=seed,
                )
            perm_parts.append(part)
            if comp_stats is not None:
                stats.append(comp_stats)

    with tel.span("assembly", category="api", into=phase_ns):
        perm = (
            np.concatenate(perm_parts) if perm_parts
            else np.zeros(0, dtype=np.int64)
        )
        if plan is not None:
            # compose the hub-first relabeling back: the permutation the
            # caller receives indexes the original matrix
            perm = plan.relabel[perm]
        reord_bw = bandwidth_after(mat, perm)
        if tel.enabled and init_bw > 0:
            # per-request quality delta, exported on /metrics; it reuses
            # the two bandwidths this phase already has
            tel.histogram(
                "request.bandwidth_reduction", buckets=_REDUCTION_BUCKETS
            ).observe(1.0 - reord_bw / init_bw)

    return ReorderResult(
        permutation=perm,
        method=method,
        start_nodes=starts,
        component_sizes=sizes,
        initial_bandwidth=init_bw,
        reordered_bandwidth=reord_bw,
        stats=stats,
        phase_ns=phase_ns,
        transform=plan.kind if plan is not None else None,
    )


def reverse_cuthill_mckee(*args, **kwargs):
    """Removed pre-facade entry point — use :func:`repro.reorder`.

    Deprecated in 1.1 (with a working shim), removed in 1.2.  The facade
    call with identical semantics is
    ``repro.reorder(mat, algorithm="rcm", method="serial", ...)`` — note
    the facade's ``method`` defaults to ``"auto"`` where this entry point
    defaulted to ``"serial"``.

    .. deprecated:: 1.1
    .. versionremoved:: 1.2
       raises :class:`repro.errors.RemovedAPIError`.
    """
    from repro.errors import RemovedAPIError

    raise RemovedAPIError(
        "reverse_cuthill_mckee() was removed in 1.2; call "
        "repro.reorder(mat, algorithm='rcm', method='serial', ...) instead "
        "(method='auto' for the default backend)"
    )
