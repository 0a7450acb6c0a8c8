"""Structural validation of CSR patterns and permutations.

RCM requires a structurally symmetric pattern (undirected graph) whose rows
list their columns in strictly increasing order.  :func:`check_pattern` is
the one validate pass of a pattern, run by :func:`check_batch` on every
pattern of a batch and by the reorder pipeline on each call's matrix.  It
accepts a pattern in O(nnz) on an int32 view, or else runs the key pass
over *entry keys* ``row * n + col`` (one int64 per stored entry, ordering
the entries row-major), which fails with a
:class:`~repro.errors.ValidationError` naming the check that failed.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.sparse.bandwidth import _row_of
from repro.sparse.csr import CSRMatrix

__all__ = [
    "check_pattern",
    "check_batch",
    "int32_view",
    "is_structurally_symmetric",
    "assert_permutation",
    "DUPLICATE",
    "UNSORTED",
    "ASYMMETRIC",
]

#: what :func:`check_batch` raises with, by failed check
DUPLICATE = "CSR contains duplicate entries; rebuild via coo_to_csr"
UNSORTED = "CSR indices must be sorted within each row; call sort_indices()"
ASYMMETRIC = (
    "matrix pattern is not symmetric; pass symmetrize=True or call "
    "CSRMatrix.symmetrize() first"
)

#: largest node count ``n`` whose entry keys ``row * n + col`` fit in int64
MAX_KEYED_N = math.isqrt(np.iinfo(np.int64).max)

#: largest ``n`` and ``nnz`` the int32 view holds
INT32_MAX = int(np.iinfo(np.int32).max)

#: an int32 ``(indptr, indices)`` pair
View = Tuple[np.ndarray, np.ndarray]


def int32_view(mat: CSRMatrix) -> Optional[View]:
    """``mat``'s ``(indptr, indices)`` cast to int32; ``None`` when ``n``
    or ``nnz`` would overflow it."""
    if max(mat.n, mat.nnz) > INT32_MAX:
        return None
    return mat.indptr.astype(np.int32), mat.indices.astype(np.int32)


def _accepted_bandwidth(
    indptr: np.ndarray, indices: np.ndarray
) -> Optional[int]:
    """The bandwidth of a view whose rows strictly increase and which
    equals its transpose; ``None`` for any other view."""
    n, nnz = indptr.size - 1, indices.size
    if nnz == 0:
        return 0
    # step[k] = indices[k] - indices[k - 1], overwritten at every row start;
    # the extra slot takes the starts of trailing empty rows
    step = np.empty(nnz + 1, dtype=np.int32)
    np.subtract(indices[1:], indices[:-1], out=step[1:nnz])
    step[indptr[:-1]] = 1
    if step[:nnz].min() <= 0:
        return None
    from scipy.sparse import csc_matrix

    # the view read as CSC is the transpose, and tocsr() lays it out with
    # ascending columns per row
    mirror = csc_matrix(
        (np.ones(nnz, dtype=np.int8), indices, indptr), shape=(n, n)
    ).tocsr()
    if not (
        np.array_equal(mirror.indptr, indptr)
        and np.array_equal(mirror.indices, indices)
    ):
        return None
    # an entry right of the diagonal is mirrored left of it, so the
    # bandwidth is the furthest a row's first column lies left of it
    rows = np.flatnonzero(indptr[1:] != indptr[:-1])
    return int((rows - indices[indptr[rows]]).max())


def _entry_keys(rows: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    if n > MAX_KEYED_N:
        raise ValidationError(
            f"{n} nodes overflow the int64 entry keys (at most {MAX_KEYED_N})"
        )
    return rows * n + cols


def _keyed_bandwidth(mat: CSRMatrix) -> int:
    """The key pass of one pattern; its bandwidth when it passes."""
    if mat.nnz == 0:
        return 0
    rows = _row_of(mat)
    keys = _entry_keys(rows, mat.indices, mat.n)
    if np.any(keys[1:] <= keys[:-1]):
        raise ValidationError(
            DUPLICATE if np.unique(keys).size < keys.size else UNSORTED
        )
    mirrored = _entry_keys(mat.indices, rows, mat.n)
    mirrored.sort()
    if not np.array_equal(mirrored, keys):
        raise ValidationError(ASYMMETRIC)
    return int(np.abs(rows - mat.indices).max())


def check_pattern(
    mat: CSRMatrix, where: Optional[int] = None
) -> Tuple[int, Optional[View]]:
    """The validate pass of one pattern: its bandwidth and int32 view.

    Accepts the pattern in O(nnz) on its :func:`int32_view`:

    * every row strictly increases (sorted, no duplicates) iff the
      view's ``indices`` increase everywhere but at row starts;
    * the pattern is symmetric iff SciPy's compiled transpose of the
      view, columns ascending, equals the view array for array;
    * the bandwidth ``max |i - j|`` is then the largest
      ``i - indices[indptr[i]]`` over non-empty rows.

    A pattern this rejects, or one without a view, goes through the key
    pass: every row strictly increases iff the entry keys do, and the
    pattern is symmetric iff ``np.sort(col * n + row)`` equals them.  It
    raises :class:`~repro.errors.ValidationError` with :data:`DUPLICATE`,
    :data:`UNSORTED` or :data:`ASYMMETRIC`, prefixed with
    ``matrix <where>:`` when ``where`` is given; rows that are both
    unsorted and duplicated report the duplicate.  The view is ``None``
    when the key pass accepted the pattern.
    """
    view = int32_view(mat)
    bw = None if view is None else _accepted_bandwidth(*view)
    if bw is not None:
        return bw, view
    try:
        return _keyed_bandwidth(mat), None
    except ValidationError as exc:
        if where is None:
            raise
        raise ValidationError(f"matrix {where}: {exc}") from None


def check_batch(
    mats: Sequence[CSRMatrix], positions: Optional[Sequence[int]] = None
) -> np.ndarray:
    """Validate patterns in order; return their initial bandwidths.

    Runs :func:`check_pattern` on each pattern and returns the
    bandwidths as an int64 array.  A single matrix is a batch of one.
    The first malformed pattern raises; for a batch of more than one
    matrix, or when ``positions`` is given, the message starts with
    ``matrix <i>:``, the offending matrix's ``positions`` entry
    (default: its index).
    """
    named = positions is not None or len(mats) > 1
    bws = np.zeros(len(mats), dtype=np.int64)
    for i, mat in enumerate(mats):
        where = (i if positions is None else positions[i]) if named else None
        bws[i] = check_pattern(mat, where)[0]
    return bws


def is_structurally_symmetric(mat: CSRMatrix) -> bool:
    """True when the pattern equals its transpose, rows in any order.

    Compares the sorted entry keys with the sorted transposed keys, so a
    duplicated entry must be duplicated on both sides.
    """
    rows = _row_of(mat)
    return np.array_equal(
        np.sort(_entry_keys(rows, mat.indices, mat.n)),
        np.sort(_entry_keys(mat.indices, rows, mat.n)),
    )


def assert_permutation(perm: np.ndarray, n: Optional[int] = None) -> None:
    """Raise ``AssertionError`` unless ``perm`` is a bijection on [0, n)."""
    perm = np.asarray(perm)
    if n is None:
        n = perm.size
    assert perm.size == n, f"permutation length {perm.size} != {n}"
    seen = np.zeros(n, dtype=bool)
    assert perm.min() >= 0 and perm.max() < n, "permutation value out of range"
    seen[perm] = True
    assert seen.all(), "permutation is not a bijection"
