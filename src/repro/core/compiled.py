"""Compiled RCM: SciPy's ``reverse_cuthill_mckee`` forced onto our starts.

SciPy's compiled RCM runs the loop of :func:`repro.core.serial.rcm_serial`
— children gathered in adjacency order, unvisited ones only, then a stable
insertion sort on degree — and differs from it in two places:

* it seeds every component with a node of minimum *degree*, ties broken by
  an unstable ``argsort``, and visits the components in that order;
* its degree counts a row's diagonal entry once more.

One self-loop appended to the end of every row except the starts settles
both.  Every non-start node's SciPy degree becomes exactly its valence + 2
(a row that had a diagonal gains the appended entry and counts the diagonal
once more, one that had none gains the entry and its count), while a start
keeps its valence, + 1 with a diagonal.  So each component's
minimum-valence start becomes the unique node SciPy seeds it from, and
every child comparison keeps its outcome.  One call orders every
component; cutting the output at the starts' positions restores
component order.

Any start works the same way when its valence, + 1 with a diagonal, is
at most one above every other node's valence in its component (at two
above SciPy's tie-break decides): a minimum-valence start always
qualifies, an explicit or ``peripheral`` start often does.  The cut
checks it after the call, since the blocks tile the output only when
every seed is our start; a start with a neighbour three or more below its
valence (a hub, as the power-law pass picks) cannot qualify, so the call
is skipped for it.

The identity rests on SciPy behaviour that is not documented, so the
kernel orders the call with :func:`repro.core.vectorized.rcm_vectorized`
per start instead when the installed SciPy fails a one-time check on a
fixture, when the self-loop view would overflow int32, or when a start
does not qualify.  Either way every block is byte-identical to
:func:`rcm_serial`.
"""

from __future__ import annotations

import functools
from typing import List, Optional, Sequence

import numpy as np

from repro.core.vectorized import rcm_vectorized
from repro.sparse.csr import CSRMatrix

__all__ = ["rcm_compiled"]

#: entries plus self-loops the int32 view can index
_INT32_MAX = int(np.iinfo(np.int32).max)


def rcm_compiled(
    mat: CSRMatrix, starts: Sequence[int], *, sizes: Sequence[int]
) -> List[np.ndarray]:
    """RCM block of every component, in component order.

    ``starts[i]`` is component ``i``'s start node and ``sizes[i]`` its node
    count.  Each block is int64 and byte-identical to
    ``rcm_serial(mat, starts[i])``.
    """
    if not len(starts):
        return []
    blocks = _scipy_blocks(mat, starts, sizes) if _scipy_agrees() else None
    return blocks if blocks is not None else [
        rcm_vectorized(mat, int(s)) for s in starts
    ]


def _scipy_blocks(
    mat: CSRMatrix, starts: Sequence[int], sizes: Sequence[int]
) -> Optional[List[np.ndarray]]:
    """One forced SciPy call cut into per-component blocks; ``None`` when
    the view would overflow int32 or SciPy would seed, or did seed, a
    component elsewhere."""
    n = mat.n
    if mat.nnz + n > _INT32_MAX:
        return None
    starts = np.asarray(starts, dtype=np.int64)
    # a neighbour 3+ below a start's valence has a lower SciPy degree, so
    # SciPy cannot seed the component at the start; this reads only the
    # starts' rows
    ptr = mat.indptr
    lens = ptr[starts + 1] - ptr[starts]
    heads = np.repeat(ptr[starts] - np.cumsum(lens) + lens, lens)
    nbrs = mat.indices[heads + np.arange(heads.size)]
    if np.any(ptr[nbrs + 1] - ptr[nbrs] + 2 < np.repeat(lens, lens)):
        return None
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    looped = np.ones(n, dtype=np.int32)
    looped[starts] = 0
    rows = np.flatnonzero(looped).astype(np.int32)
    indices = np.insert(
        mat.indices.astype(np.int32), mat.indptr[1:][rows], rows
    )
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(looped, out=indptr[1:])
    indptr += mat.indptr.astype(np.int32)
    graph = csr_matrix(
        (np.ones(indices.size, dtype=np.int8), indices, indptr), shape=(n, n)
    )
    order = reverse_cuthill_mckee(graph, symmetric_mode=True)

    # the output is reversed, so a component's block ends at its seed; the
    # blocks tile the output exactly when every seed is our start
    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(n, dtype=np.int64)
    ends = position[starts]
    sizes = np.asarray(sizes, dtype=np.int64)
    by_end = np.argsort(ends)
    if not np.array_equal(np.diff(ends[by_end], prepend=-1), sizes[by_end]):
        return None
    order = order.astype(np.int64)
    return [
        order[end - size + 1 : end + 1]
        for end, size in zip(ends.tolist(), sizes.tolist())
    ]


def _fixture():
    """``(mat, starts, sizes)`` of a pattern that tells the forced SciPy
    call apart from nearby behaviours.

    Both components hold a diagonal entry on a non-start row and a start
    whose valence ties another node's (start 2 with a diagonal against 3,
    start 6 against 8), and component 1 has children tied on valence, 4
    with a diagonal against 7.  An unforced call gets both components
    wrong; a SciPy degree that ignored diagonal entries, or self-loops
    skipped on diagonal rows, gets component 0 wrong.
    """
    rows = [[1, 2, 3], [0, 1, 3], [0, 2], [0, 1],
            [4, 5], [4, 6, 7], [5], [5, 8], [7]]
    indptr = np.cumsum([0] + [len(r) for r in rows])
    indices = np.concatenate(rows)
    return CSRMatrix(indptr=indptr, indices=indices), [2, 6], [4, 5]


@functools.lru_cache(maxsize=None)
def _scipy_agrees() -> bool:
    """Whether the installed SciPy reproduces :func:`rcm_serial` on the
    fixture once forced — checked once per process."""
    from repro.core.serial import rcm_serial

    mat, starts, sizes = _fixture()
    try:
        blocks = _scipy_blocks(mat, starts, sizes)
    except (TypeError, ValueError):  # a SciPy that rejects the view
        return False
    return blocks is not None and all(
        np.array_equal(b, rcm_serial(mat, s)) for b, s in zip(blocks, starts)
    )
