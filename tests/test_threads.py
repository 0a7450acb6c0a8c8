"""Stress tests for the real-thread backend.

True OS-thread nondeterminism must never change the permutation — the
protocol's correctness cannot depend on the scheduler.
"""

import sys

import numpy as np
import pytest

from repro.core.serial import rcm_serial
from repro.core.threads import rcm_threads
from repro.core.batches import BatchConfig
from repro.matrices import generators as g
from repro.matrices.mycielski import mycielskian
from tests.conftest import random_symmetric


class TestEquivalence:
    @pytest.mark.parametrize("threads", [1, 2, 4, 8])
    def test_thread_counts(self, small_mesh, threads):
        ref = rcm_serial(small_mesh, 0)
        got = rcm_threads(small_mesh, 0, n_threads=threads)
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("trial", range(5))
    def test_repeated_runs_grid(self, medium_grid, trial):
        ref = rcm_serial(medium_grid, 0)
        got = rcm_threads(medium_grid, 0, n_threads=4)
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_graphs(self, seed):
        mat = random_symmetric(150, 0.04, seed)
        ref = rcm_serial(mat, 0)
        got = rcm_threads(mat, 0, n_threads=3)
        assert np.array_equal(got, ref)

    def test_mycielskian_early_termination(self):
        mat = mycielskian(8)
        ref = rcm_serial(mat, 0)
        got = rcm_threads(mat, 0, n_threads=4)
        assert np.array_equal(got, ref)

    def test_hub_matrix(self):
        mat = g.hub_matrix(300, n_hubs=2, seed=1)
        ref = rcm_serial(mat, 0)
        got = rcm_threads(mat, 0, n_threads=4)
        assert np.array_equal(got, ref)

    def test_tight_batches(self, small_mesh):
        cfg = BatchConfig(batch_size=8, temp_limit=64, multibatch=1)
        ref = rcm_serial(small_mesh, 0)
        got = rcm_threads(small_mesh, 0, n_threads=4, config=cfg)
        assert np.array_equal(got, ref)

    def test_no_overhang_config(self, small_mesh):
        cfg = BatchConfig(overhang=False, multibatch=1)
        ref = rcm_serial(small_mesh, 0)
        got = rcm_threads(small_mesh, 0, n_threads=3, config=cfg)
        assert np.array_equal(got, ref)

    def test_component_only(self, two_triangles):
        ref = rcm_serial(two_triangles, 3)
        got = rcm_threads(two_triangles, 3, n_threads=2)
        assert np.array_equal(got, ref)

    def test_gil_switches_inside_steps(self, medium_grid):
        """The lock, not the GIL's switch interval, keeps each step whole:
        forcing thread switches mid-step must not change the result."""
        cfg = BatchConfig(batch_size=4, multibatch=3)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = rcm_threads(medium_grid, 0, n_threads=8, config=cfg)
        finally:
            sys.setswitchinterval(old)
        assert np.array_equal(got, rcm_serial(medium_grid, 0))

    def test_single_node(self):
        from repro.sparse.csr import CSRMatrix

        mat = CSRMatrix.from_edges(2, [(0, 1)])
        got = rcm_threads(mat, 0, n_threads=2)
        assert np.array_equal(got, rcm_serial(mat, 0))
