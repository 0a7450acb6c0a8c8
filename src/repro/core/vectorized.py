"""Level-synchronous vectorized RCM — the NumPy frontier kernel.

Distributed-memory RCM (Azad et al. [14]) observes that Cuthill-McKee is a
level-synchronous BFS plus a *stable* per-level sort: a FIFO queue dequeues
all of level ``d`` before any node of level ``d+1``, so the serial loop can
be replaced by whole-frontier array operations without changing a single
tie-break.  This module does exactly that:

* **frontier expansion** gathers the adjacency lists of the whole frontier
  in one shot through ``indptr``/``indices`` (no per-node Python loop);
* **child dedup** resolves the "earliest parent wins" rule with a mark
  array: positions are written back-to-front so the first occurrence in the
  concatenated (parent-major, adjacency-ordered) gather is the one that
  sticks;
* **within-level ordering** is a single stable lexicographic ``argsort`` on
  ``(parent position, valence)`` — stability supplies the adjacency-order
  tie-break, so the result is provably the serial order.

The permutation is **bit-identical** to :func:`repro.core.serial.rcm_serial`
(asserted across the whole generator suite in ``tests/test_vectorized.py``);
only the constant factor changes — interpreter-speed to NumPy-speed.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.sparse.csr import CSRMatrix
from repro import telemetry

__all__ = ["cuthill_mckee_vectorized", "rcm_vectorized"]

#: power-of-two frontier-width buckets (frontiers span 1 .. ~1e5 nodes)
_FRONTIER_BUCKETS = tuple(float(2 ** k) for k in range(18))


def cuthill_mckee_vectorized(mat: CSRMatrix, start: int) -> np.ndarray:
    """Cuthill-McKee order of the component reachable from ``start``.

    Level-synchronous NumPy implementation of Alg. 1; returns the visited
    nodes in CM order exactly as :func:`repro.core.serial.cuthill_mckee`
    would.  Reverse for RCM — see :func:`rcm_vectorized`.
    """
    n = mat.n
    if not 0 <= start < n:
        raise ValueError(f"start node {start} out of range [0, {n})")
    indptr, indices = mat.indptr, mat.indices
    valence = np.diff(indptr)

    visited = np.zeros(n, dtype=bool)
    # mark array for first-occurrence dedup; never needs resetting because a
    # node is claimed in exactly one level's expansion (then it is visited)
    claim = np.empty(n, dtype=np.int64)
    order = np.empty(n, dtype=np.int64)
    order[0] = start
    visited[start] = True
    tail = 1
    frontier = np.array([start], dtype=np.int64)

    n_levels = 0
    n_gathered = 0
    widths = []

    while frontier.size:
        row_start = indptr[frontier]
        counts = indptr[frontier + 1] - row_start
        total = int(counts.sum())
        if total == 0:
            break
        # gather the adjacency lists of the whole frontier at once; ``seg``
        # is each edge's parent *position* within the frontier (= CM rank
        # order, because the frontier is stored in CM order)
        offsets = np.concatenate(([0], np.cumsum(counts)))
        pos = np.arange(total, dtype=np.int64)
        seg = np.repeat(np.arange(frontier.size, dtype=np.int64), counts)
        gathered = indices[row_start[seg] + pos - offsets[seg]]

        fresh_mask = ~visited[gathered]
        fresh = gathered[fresh_mask]
        if fresh.size == 0:
            break
        parents = seg[fresh_mask]
        k = fresh.size
        # earliest-parent dedup: write positions back-to-front so that for a
        # node discovered by several parents the *first* occurrence (lowest
        # parent rank, then adjacency order) is the assignment that survives
        claim[fresh[::-1]] = np.arange(k - 1, -1, -1)
        is_first = claim[fresh] == np.arange(k, dtype=np.int64)
        children = fresh[is_first]
        child_parent = parents[is_first]
        # one stable lexsort: primary key parent position, secondary key
        # valence; ``children`` is already in gather (adjacency) order, so
        # stability delivers the serial tie-break for free
        take = np.lexsort((valence[children], child_parent))
        nxt = children[take]
        visited[children] = True
        order[tail : tail + nxt.size] = nxt
        tail += nxt.size
        frontier = nxt
        n_levels += 1
        n_gathered += total
        widths.append(int(nxt.size))

    tel = telemetry.get()
    if tel.enabled:
        tel.counter("vectorized.levels").add(n_levels)
        tel.counter("vectorized.edges_gathered").add(n_gathered)
        tel.counter("vectorized.nodes_ordered").add(tail)
        # per-level frontier widths: the level-structure shape is what
        # decides whether a level-synchronous kernel amortizes dispatch
        hist = tel.histogram("vectorized.frontier", buckets=_FRONTIER_BUCKETS)
        for w in widths:
            hist.observe(w)
    return order[:tail].copy()


def rcm_vectorized(mat: CSRMatrix, start: int) -> np.ndarray:
    """Reverse Cuthill-McKee order of the component reachable from
    ``start`` — bit-identical to :func:`repro.core.serial.rcm_serial`."""
    return cuthill_mckee_vectorized(mat, start)[::-1].copy()
