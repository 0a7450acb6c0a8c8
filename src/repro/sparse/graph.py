"""Graph-view helpers: BFS, levels, components, BFS-front statistics.

RCM is a BFS with per-parent sorting, so every parallelization in the paper
is reasoned about through the BFS *level structure* rooted at the start node.
Table I reports the **average BFS front width** per matrix — the paper's best
predictor of available parallelism — which :func:`front_statistics` computes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.sparse.csr import CSRMatrix

__all__ = [
    "bfs_levels",
    "bfs_order",
    "level_structure",
    "connected_components",
    "symmetric_components",
    "component_of",
    "front_statistics",
    "FrontStats",
    "eccentricity_lower_bound",
]


def bfs_levels(mat: CSRMatrix, start: int) -> np.ndarray:
    """BFS level (hop distance) of every node from ``start``.

    Unreachable nodes get ``-1``.  Vectorized frontier expansion: each
    iteration gathers all neighbours of the current frontier at once.
    """
    n = mat.n
    if not 0 <= start < n:
        raise ValueError("start node out of range")
    levels = np.full(n, -1, dtype=np.int64)
    levels[start] = 0
    frontier = np.array([start], dtype=np.int64)
    depth = 0
    indptr, indices = mat.indptr, mat.indices
    while frontier.size:
        depth += 1
        starts = indptr[frontier]
        ends = indptr[frontier + 1]
        total = int((ends - starts).sum())
        if total == 0:
            break
        # gather neighbour lists of the whole frontier in one shot
        offsets = np.concatenate([[0], np.cumsum(ends - starts)])
        gathered = np.empty(total, dtype=np.int64)
        pos = np.arange(total, dtype=np.int64)
        seg = np.searchsorted(offsets, pos, side="right") - 1
        gathered = indices[starts[seg] + (pos - offsets[seg])]
        fresh = gathered[levels[gathered] < 0]
        if fresh.size == 0:
            break
        fresh = np.unique(fresh)
        levels[fresh] = depth
        frontier = fresh
    return levels


def bfs_order(mat: CSRMatrix, start: int) -> np.ndarray:
    """Plain FIFO BFS visitation order (no valence sorting) from ``start``.

    Children are visited in adjacency-list order.  Returns only reached
    nodes.  This is the "RCM with sorting disabled" the paper uses as its
    parallel pseudo-peripheral BFS.
    """
    n = mat.n
    indptr, indices = mat.indptr, mat.indices
    visited = np.zeros(n, dtype=bool)
    order = np.empty(n, dtype=np.int64)
    order[0] = start
    visited[start] = True
    head, tail = 0, 1
    while head < tail:
        p = order[head]
        head += 1
        for nb in indices[indptr[p] : indptr[p + 1]]:
            if not visited[nb]:
                visited[nb] = True
                order[tail] = nb
                tail += 1
    return order[:tail].copy()


def level_structure(mat: CSRMatrix, start: int) -> List[np.ndarray]:
    """Rooted level structure: list of node arrays, one per BFS level."""
    levels = bfs_levels(mat, start)
    depth = int(levels.max())
    if depth < 0:
        return []
    out: List[np.ndarray] = []
    for d in range(depth + 1):
        out.append(np.flatnonzero(levels == d).astype(np.int64))
    return out


def connected_components(mat: CSRMatrix) -> Tuple[int, np.ndarray]:
    """Connected components of the undirected graph view.

    Returns ``(count, labels)``, the labels ranked by each component's
    smallest node: component 0 contains node 0, component 1 the smallest
    node outside it, and so on.  An entry in either direction connects
    its two nodes.  One compiled labeling
    (``scipy.sparse.csgraph.connected_components``); ``scipy.sparse`` is
    imported on the first call, so ``import repro`` does not load it.
    """
    if mat.n == 0:
        return 0, np.zeros(0, dtype=np.int64)
    return _ranked(*_public_labels(mat.indptr, mat.indices))


def symmetric_components(
    indptr: np.ndarray, indices: np.ndarray
) -> Tuple[int, np.ndarray]:
    """:func:`connected_components` of a symmetric pattern, from its int32
    ``(indptr, indices)``.

    The pattern is its own transpose, so SciPy's private undirected
    labeling takes the arrays twice, where the public call builds the
    transpose and a float64 copy first.  The private name is not
    documented: it is imported on first use and checked once per process
    against the public call (:func:`_private_agrees`), which labels
    instead when the check fails.
    """
    n = indptr.size - 1
    if n == 0:
        return 0, np.zeros(0, dtype=np.int64)
    label = _private_labels if _private_agrees() else _public_labels
    return _ranked(*label(indptr, indices))


def _public_labels(indptr: np.ndarray, indices: np.ndarray):
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components as label

    n = indptr.size - 1
    graph = csr_matrix(
        (np.ones(indices.size), indices, indptr), shape=(n, n)
    )
    return label(graph, directed=False)


def _private_labels(indptr: np.ndarray, indices: np.ndarray):
    from scipy.sparse.csgraph._traversal import (
        _connected_components_undirected as label,
    )

    found = np.empty(indptr.size - 1, dtype=np.int32)
    return label(indices, indptr, indices, indptr, found), found


def _ranked(count: int, found: np.ndarray) -> Tuple[int, np.ndarray]:
    """Component labels renumbered by each component's smallest node."""
    n = found.size
    smallest = np.full(count, n, dtype=np.int64)
    np.minimum.at(smallest, found, np.arange(n, dtype=np.int64))
    rank = np.empty(count, dtype=np.int64)
    rank[np.argsort(smallest)] = np.arange(count, dtype=np.int64)
    return int(count), rank[found]


def _fixture():
    """int32 ``(indptr, indices)`` of a symmetric pattern whose components
    {0, 3, 5} and {1, 4, 6} interleave around the isolated node 2; node 3
    holds a diagonal entry."""
    rows = [[5], [4, 6], [], [3, 5], [1, 6], [0, 3], [1, 4]]
    indptr = np.cumsum([0] + [len(r) for r in rows]).astype(np.int32)
    indices = np.array([c for r in rows for c in r], dtype=np.int32)
    return indptr, indices


@functools.lru_cache(maxsize=None)
def _private_agrees() -> bool:
    """Whether SciPy's private undirected labeling imports and ranks the
    fixture's components as the public call does — checked once per
    process."""
    indptr, indices = _fixture()
    try:
        private = _ranked(*_private_labels(indptr, indices))
    except (ImportError, TypeError, ValueError):  # renamed or re-typed
        return False
    public = _ranked(*_public_labels(indptr, indices))
    return private[0] == public[0] and np.array_equal(private[1], public[1])


def component_of(mat: CSRMatrix, node: int) -> np.ndarray:
    """Sorted node ids of the component containing ``node``."""
    levels = bfs_levels(mat, node)
    return np.flatnonzero(levels >= 0).astype(np.int64)


@dataclass(frozen=True)
class FrontStats:
    """BFS front-width statistics from a given start node."""

    depth: int
    avg_front: float
    max_front: int
    reached: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FrontStats(depth={self.depth}, avg={self.avg_front:.1f}, "
            f"max={self.max_front}, reached={self.reached})"
        )


def front_statistics(mat: CSRMatrix, start: int) -> FrontStats:
    """Average/maximum BFS front width — the paper's parallelism predictor.

    The average front is ``reached_nodes / number_of_levels``; Table I
    reports this per matrix ("avg BFS front").
    """
    levels = bfs_levels(mat, start)
    reached = levels >= 0
    count = int(reached.sum())
    if count == 0:
        return FrontStats(depth=0, avg_front=0.0, max_front=0, reached=0)
    depth = int(levels.max())
    widths = np.bincount(levels[reached], minlength=depth + 1)
    return FrontStats(
        depth=depth,
        avg_front=float(count / (depth + 1)),
        max_front=int(widths.max()),
        reached=count,
    )


def eccentricity_lower_bound(mat: CSRMatrix, start: int) -> int:
    """Depth of the BFS tree from ``start`` — a lower bound on eccentricity,
    used by pseudo-peripheral node finding."""
    return int(bfs_levels(mat, start).max())
