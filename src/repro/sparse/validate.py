"""Structural validation of CSR patterns and permutations.

RCM requires a structurally symmetric pattern (undirected graph) whose rows
list their columns in strictly increasing order.  :func:`check_batch` is the
one validate pass of every pipeline entry point — a single matrix is a batch
of one — and fails with a :class:`~repro.errors.ValidationError` naming the
check that failed.  Both checks compare *entry keys* ``row * n + col``: one
int64 per stored entry that orders the entries row-major.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.errors import ValidationError
from repro.sparse.bandwidth import _row_of
from repro.sparse.csr import CSRMatrix

__all__ = [
    "check_batch",
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


def _entry_keys(rows: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    if n > MAX_KEYED_N:
        raise ValidationError(
            f"{n} nodes overflow the int64 entry keys (at most {MAX_KEYED_N})"
        )
    return rows * n + cols


def _bandwidth_if_valid(mat: CSRMatrix) -> int:
    """The validate pass of one pattern; its bandwidth when it passes."""
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


def check_batch(
    mats: Sequence[CSRMatrix], positions: Optional[Sequence[int]] = None
) -> np.ndarray:
    """Validate patterns in order; return their initial bandwidths.

    One pass per pattern over its entry keys ``row * n + col``:

    * every row's columns strictly increase (sorted, no duplicates) iff
      the keys strictly increase;
    * the pattern is symmetric iff ``np.sort(col * n + row)`` equals
      those already ascending keys.

    The same pass yields the initial bandwidth ``max |i - j|``, returned
    per pattern as an int64 array.  A single matrix is a batch of one.

    Raises :class:`~repro.errors.ValidationError` with :data:`DUPLICATE`,
    :data:`UNSORTED` or :data:`ASYMMETRIC` for the first malformed
    pattern; rows that are both unsorted and duplicated report the
    duplicate.  For a batch of more than one matrix, or when ``positions``
    is given, the message starts with ``matrix <i>:``, the offending
    matrix's ``positions`` entry (default: its index).
    """
    bws = np.zeros(len(mats), dtype=np.int64)
    for i, mat in enumerate(mats):
        try:
            bws[i] = _bandwidth_if_valid(mat)
        except ValidationError as exc:
            if positions is None and len(mats) == 1:
                raise
            where = i if positions is None else positions[i]
            raise ValidationError(f"matrix {where}: {exc}") from None
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
