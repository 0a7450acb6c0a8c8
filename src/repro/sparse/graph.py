"""Graph-view helpers: BFS, levels, components, BFS-front statistics.

RCM is a BFS with per-parent sorting, so every parallelization in the paper
is reasoned about through the BFS *level structure* rooted at the start node.
Table I reports the **average BFS front width** per matrix — the paper's best
predictor of available parallelism — which :func:`front_statistics` computes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.sparse.csr import CSRMatrix

__all__ = [
    "bfs_levels",
    "bfs_order",
    "level_structure",
    "connected_components",
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
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components as label

    n = mat.n
    if n == 0:
        return 0, np.zeros(0, dtype=np.int64)
    graph = csr_matrix(
        (np.ones(mat.nnz), mat.indices, mat.indptr), shape=(n, n)
    )
    count, found = label(graph, directed=False)
    smallest = np.full(count, n, dtype=np.int64)
    np.minimum.at(smallest, found, np.arange(n, dtype=np.int64))
    rank = np.empty(count, dtype=np.int64)
    rank[np.argsort(smallest)] = np.arange(count, dtype=np.int64)
    return int(count), rank[found]


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
