"""Content-addressed cache keys for reordering requests.

An RCM permutation is a pure function of the matrix *pattern* —
``indptr``/``indices`` plus the shape, never ``data`` — and of the request
options that can change the answer: ``algorithm``, the resolved execution
``method``, the ``start`` choice and ``symmetrize``.  Options that provably
do **not** alter the permutation stay out of the key on purpose:

* ``n_workers`` and ``seed`` — the paper's headline invariant is that every
  execution schedule returns the serial permutation, so worker count and
  interleaving jitter cannot change the cached answer;
* batch ``config`` — same invariant; configs only move simulated cycles.

``method`` *is* part of the key even though all RCM methods agree on the
permutation: a cached :class:`~repro.core.api.ReorderResult` records which
method produced it, and serving a ``"serial"`` result for a ``"parallel"``
request would misreport that.  ``"auto"`` keys as
:data:`repro.backends.AUTO_METHOD`, the method it runs, so ``"auto"`` and
its resolution share one entry; non-RCM algorithms always key as
``"direct"``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro import backends
from repro.sparse.csr import CSRMatrix
from repro.validation import check_choice, check_start

__all__ = ["CacheKey", "cache_key", "pattern_digest", "canonical_method"]


def pattern_digest(mat: CSRMatrix) -> str:
    """SHA-256 over the CSR *pattern*: shape + ``indptr`` + ``indices``.

    ``data`` is deliberately excluded — two matrices with the same sparsity
    pattern but different values share a permutation, so they must share a
    digest.  Arrays are hashed as little-endian int64 so the digest is
    stable across platforms.
    """
    h = hashlib.sha256()
    h.update(f"csr:{mat.n}:{mat.nnz}:".encode())
    h.update(np.ascontiguousarray(mat.indptr, dtype="<i8").tobytes())
    h.update(b"|")
    h.update(np.ascontiguousarray(mat.indices, dtype="<i8").tobytes())
    return h.hexdigest()


def canonical_method(algorithm: str, method: str) -> str:
    """The concrete method a request runs (what the key records)."""
    if algorithm != "rcm":
        return "direct"
    if method == "auto":
        return backends.AUTO_METHOD
    return method


@dataclass(frozen=True)
class CacheKey:
    """One content-addressed cache slot.

    ``digest`` combines the pattern digest with every permutation-relevant
    option; it is the cache's dictionary key and the disk tier's file stem.
    The remaining fields are kept readable for inspection (``repro cache``).
    """

    digest: str
    pattern: str
    n: int
    nnz: int
    algorithm: str
    method: str
    start: str
    symmetrize: bool
    transform: Optional[str] = None

    def describe(self) -> dict:
        """JSON-serializable summary (what ``repro cache`` prints)."""
        return {
            "digest": self.digest,
            "pattern": self.pattern,
            "n": self.n,
            "nnz": self.nnz,
            "algorithm": self.algorithm,
            "method": self.method,
            "start": self.start,
            "symmetrize": self.symmetrize,
            "transform": self.transform,
        }


def cache_key(
    mat: CSRMatrix,
    *,
    algorithm: str = "rcm",
    method: str = "auto",
    start: Union[int, str] = "min-valence",
    symmetrize: bool = False,
    transform: Optional[str] = None,
) -> CacheKey:
    """Derive the :class:`CacheKey` for one reordering request.

    Validates the options with the same checks (and error messages) as
    :func:`repro.reorder`, so a request that would fail never produces a
    key.  ``transform`` is canonicalized the same way ``method`` is:
    ``"auto"`` resolves through the scenario classifier's probe-free
    heavy-tail test (:func:`repro.core.transform.resolve_transform` — a
    degree-distribution check, never a BFS), so ``transform="auto"`` on a
    mesh shares its entry with ``transform=None``, and the token is only
    mixed into the digest when a pass actually applies — keys for the
    classical path are unchanged.
    """
    from repro.core.transform import resolve_transform
    from repro.facade import ALGORITHMS, _DIRECT_METHODS

    check_choice("algorithm", algorithm, ALGORITHMS)
    if algorithm == "rcm":
        check_choice("method", method, backends.method_choices())
    else:
        check_choice("method", method, _DIRECT_METHODS)
    check_start(start, max(mat.n, 1))
    if transform is not None:
        from repro.errors import ValidationError

        if algorithm != "rcm":
            raise ValidationError(
                "transform is an RCM-only option; "
                f"algorithm {algorithm!r} does not support it"
            )
        if isinstance(start, (int, np.integer)):
            raise ValidationError(
                "explicit start node cannot be combined with transform="
                f"{transform!r}: the transformation relabels the pattern, "
                "so node ids no longer mean what the caller intended; use "
                "a start strategy or transform=None"
            )
    # the pipeline resolves "auto" on the pattern it reorders, A | A^T
    # when symmetrize is set; so must the key
    resolved_tf = resolve_transform(
        transform,
        mat.symmetrize() if symmetrize and transform == "auto" else mat,
    )

    pattern = pattern_digest(mat)
    resolved = canonical_method(algorithm, method)
    start_token = f"node:{int(start)}" if isinstance(
        start, (int, np.integer)
    ) else f"strategy:{start}"
    h = hashlib.sha256()
    h.update(pattern.encode())
    h.update(
        f"|alg:{algorithm}|method:{resolved}|start:{start_token}"
        f"|sym:{int(bool(symmetrize))}".encode()
    )
    if resolved_tf is not None:
        h.update(f"|tf:{resolved_tf}".encode())
    return CacheKey(
        digest=h.hexdigest(),
        pattern=pattern,
        n=mat.n,
        nnz=mat.nnz,
        algorithm=algorithm,
        method=resolved,
        start=start_token,
        symmetrize=bool(symmetrize),
        transform=resolved_tf,
    )
