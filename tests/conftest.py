"""Shared fixtures: small deterministic graphs and test-set samples."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sparse.csr import CSRMatrix, coo_to_csr
from repro.matrices import generators as g
from repro.matrices.mycielski import mycielskian


@pytest.fixture
def path5() -> CSRMatrix:
    """Path graph 0-1-2-3-4."""
    return CSRMatrix.from_edges(5, [(i, i + 1) for i in range(4)])


@pytest.fixture
def star() -> CSRMatrix:
    """Star with centre 0 and leaves 1..5."""
    return CSRMatrix.from_edges(6, [(0, i) for i in range(1, 6)])


@pytest.fixture
def two_triangles() -> CSRMatrix:
    """Two disconnected triangles {0,1,2} and {3,4,5}."""
    return CSRMatrix.from_edges(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    )


@pytest.fixture
def small_grid() -> CSRMatrix:
    return g.grid2d(8, 8)


@pytest.fixture
def medium_grid() -> CSRMatrix:
    return g.grid2d(20, 20)


@pytest.fixture
def small_mesh() -> CSRMatrix:
    return g.delaunay_mesh(300, seed=7)


@pytest.fixture
def small_mycielski() -> CSRMatrix:
    return mycielskian(7)


@pytest.fixture
def hub() -> CSRMatrix:
    return g.hub_matrix(400, n_hubs=2, hub_degree_frac=0.7, seed=3)


def random_symmetric(n: int, density: float, seed: int) -> CSRMatrix:
    """Random symmetric pattern used by fuzz tests."""
    rng = np.random.default_rng(seed)
    m = max(int(n * n * density / 2), n)
    rows = rng.integers(0, n, size=m)
    cols = rng.integers(0, n, size=m)
    keep = rows != cols
    rows, cols = rows[keep], cols[keep]
    return coo_to_csr(
        n, np.concatenate([rows, cols]), np.concatenate([cols, rows])
    )


def block_union(blocks) -> CSRMatrix:
    """Block-diagonal union of patterns: one component per connected block."""
    offsets = np.cumsum([0] + [b.n for b in blocks])
    nnz = np.cumsum([0] + [b.nnz for b in blocks])
    indptr = np.concatenate(
        [[0]] + [b.indptr[1:] + k for b, k in zip(blocks, nnz)]
    )
    indices = np.concatenate(
        [b.indices + off for b, off in zip(blocks, offsets)]
    )
    return CSRMatrix(indptr, indices, n=int(offsets[-1]))


@pytest.fixture
def random_graphs():
    """A family of random symmetric graphs across sizes and densities."""
    return [
        random_symmetric(12, 0.3, 0),
        random_symmetric(40, 0.1, 1),
        random_symmetric(100, 0.05, 2),
        random_symmetric(250, 0.02, 3),
    ]
