"""Tests for the public API (component handling, methods, validation)."""

import numpy as np
import pytest

from repro.core.api import METHODS

from repro.facade import reorder
from repro.sparse.csr import CSRMatrix, coo_to_csr
from repro.sparse.validate import assert_permutation
from repro.matrices import generators as g

# Cross-method permutation equivalence lives in test_equivalence_matrix.py:
# one golden battery over every matrix x every execution method.


class TestComponents:
    def test_permutation_is_bijection(self, two_triangles):
        res = reorder(two_triangles, method="serial")
        assert_permutation(res.permutation, two_triangles.n)

    def test_isolated_nodes_kept(self):
        mat = CSRMatrix.from_edges(5, [(1, 2)])
        res = reorder(mat, method="serial")
        assert_permutation(res.permutation, 5)
        assert res.n_components == 4

    def test_component_sizes(self, two_triangles):
        res = reorder(two_triangles, method="serial")
        assert res.component_sizes == [3, 3]

    def test_each_component_reversed_within_itself(self, two_triangles):
        res = reorder(two_triangles, method="serial")
        # first block must contain component of node 0
        first = set(res.permutation[:3].tolist())
        assert first == {0, 1, 2}


class TestStartSelection:
    def test_explicit_start(self, medium_grid):
        res = reorder(medium_grid, method="serial", start=5)
        assert res.start_nodes == [5]
        assert res.permutation[-1] == 5  # RCM: start node ends up last

    def test_explicit_start_needs_connected(self, two_triangles):
        with pytest.raises(ValueError, match="connected"):
            reorder(two_triangles, method="serial", start=0)

    def test_min_valence_default(self, star):
        res = reorder(star, method="serial")
        assert res.start_nodes[0] != 0  # centre has max valence

    def test_peripheral_strategy(self, medium_grid):
        res = reorder(medium_grid, method="serial", start="peripheral")
        assert_permutation(res.permutation, medium_grid.n)

    def test_unknown_strategy(self, medium_grid):
        with pytest.raises(ValueError, match="strategy"):
            reorder(medium_grid, method="serial", start="magic")


class TestValidation:
    def test_unknown_method(self, small_grid):
        with pytest.raises(ValueError, match="method"):
            reorder(small_grid, method="quantum")

    def test_asymmetric_rejected(self):
        mat = coo_to_csr(3, [0], [1])
        with pytest.raises(ValueError, match="symmetric"):
            reorder(mat, method="serial")

    def test_symmetrize_flag(self):
        mat = coo_to_csr(3, [0, 1], [1, 2])
        res = reorder(mat, method="serial", symmetrize=True)
        assert_permutation(res.permutation, 3)


class TestResult:
    def test_bandwidths_recorded(self, medium_grid):
        rng = np.random.default_rng(2)
        shuffled = medium_grid.permute_symmetric(rng.permutation(medium_grid.n))
        res = reorder(shuffled, method="serial")
        assert res.initial_bandwidth > res.reordered_bandwidth

    def test_bandwidth_matches_applied_permutation(self, medium_grid):
        from repro.sparse.bandwidth import bandwidth

        res = reorder(medium_grid, method="serial")
        applied = medium_grid.permute_symmetric(res.permutation)
        assert bandwidth(applied) == res.reordered_bandwidth

    def test_methods_constant_lists_all(self):
        assert set(METHODS) == {
            "serial", "vectorized", "compiled", "parallel", "leveled",
            "unordered", "algebraic", "batch-basic", "batch-cpu",
            "batch-gpu", "threads",
        }

    def test_batch_methods_attach_stats(self, small_grid):
        res = reorder(small_grid, method="batch-cpu")
        assert len(res.stats) == 1
        assert res.stats[0].batches_executed > 0
