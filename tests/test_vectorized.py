"""Equivalence suite: the vectorized frontier kernel vs the serial reference.

The whole point of ``"vectorized"`` is that it is *bit-identical* to
``rcm_serial`` — same tie-breaks, same order — so every test here compares
full permutations, not just bandwidth.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.serial import cuthill_mckee, rcm_serial
from repro.core.vectorized import cuthill_mckee_vectorized, rcm_vectorized
from repro.matrices import generators as g
from repro.matrices.mycielski import mycielskian
from repro.sparse.csr import CSRMatrix
from repro.sparse.validate import assert_permutation

from tests.conftest import random_symmetric


def both(mat: CSRMatrix, start: int):
    ref = rcm_serial(mat, start)
    got = rcm_vectorized(mat, start)
    return ref, got


class TestStructuredGraphs:
    def test_path(self, path5):
        ref, got = both(path5, 0)
        assert np.array_equal(ref, got)

    def test_star(self, star):
        ref, got = both(star, 0)
        assert np.array_equal(ref, got)

    def test_star_from_leaf(self, star):
        ref, got = both(star, 3)
        assert np.array_equal(ref, got)

    def test_grid(self, medium_grid):
        ref, got = both(medium_grid, 0)
        assert np.array_equal(ref, got)

    def test_mesh(self, small_mesh):
        ref, got = both(small_mesh, 5)
        assert np.array_equal(ref, got)

    def test_mycielski(self, small_mycielski):
        ref, got = both(small_mycielski, 0)
        assert np.array_equal(ref, got)

    def test_hub(self, hub):
        ref, got = both(hub, 0)
        assert np.array_equal(ref, got)

    def test_single_node(self):
        mat = CSRMatrix.from_edges(1, [])
        assert np.array_equal(rcm_vectorized(mat, 0), [0])


class TestGeneratorFamilies:
    """Every generator family, multiple start nodes each."""

    @pytest.mark.parametrize("maker", [
        lambda: g.grid2d(17, 23),
        lambda: g.delaunay_mesh(500, seed=11),
        lambda: g.random_geometric(400, k=5, seed=2),
        lambda: g.hub_matrix(300, n_hubs=3, hub_degree_frac=0.5, seed=9),
        lambda: mycielskian(8),
    ])
    @pytest.mark.parametrize("start_frac", [0.0, 0.37, 0.93])
    def test_families(self, maker, start_frac):
        mat = maker()
        start = int(start_frac * (mat.n - 1))
        ref, got = both(mat, start)
        assert_permutation(got, mat.n)
        assert np.array_equal(ref, got)

    def test_random_fuzz(self, random_graphs):
        for mat in random_graphs:
            ref = cuthill_mckee(mat, 0)
            got = cuthill_mckee_vectorized(mat, 0)
            assert np.array_equal(ref, got)


class TestOrientation:
    def test_cm_is_reverse_of_rcm(self, small_grid):
        cm = cuthill_mckee_vectorized(small_grid, 0)
        rcm = rcm_vectorized(small_grid, 0)
        assert np.array_equal(rcm, cm[::-1])

    def test_returns_own_buffer(self, small_grid):
        a = rcm_vectorized(small_grid, 0)
        b = rcm_vectorized(small_grid, 0)
        a[0] = -1
        assert b[0] != -1


def test_large_sparse_fuzz():
    """Bigger random graphs than the fixture family, exact match required."""
    for seed in range(4):
        mat = random_symmetric(600, 0.01, seed + 100)
        assert np.array_equal(cuthill_mckee(mat, 0),
                              cuthill_mckee_vectorized(mat, 0))
