"""Schedule-sweep stress suite for the OS-thread backend.

``rcm_threads`` must return the exact serial permutation for *every*
interleaving the OS scheduler produces.  One run per configuration cannot
probe that, so this suite sweeps worker counts x seeds x batch
configurations — including overhang-heavy shapes (tiny batches, deep
multibatch, hub-skewed degree distributions) that maximize speculative
mis-sorting and signal-chain contention.  It takes a few seconds and runs
with every ``pytest tests/``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batches import BatchConfig
from repro.core.serial import rcm_serial
from repro.core.threads import rcm_threads
from repro.matrices import generators as g
from repro.sparse.csr import coo_to_csr


def _random_symmetric(n, density, seed):
    rng = np.random.default_rng(seed)
    m = max(int(n * n * density / 2), n)
    rows = rng.integers(0, n, size=m)
    cols = rng.integers(0, n, size=m)
    keep = rows != cols
    rows, cols = rows[keep], cols[keep]
    return coo_to_csr(
        n, np.concatenate([rows, cols]), np.concatenate([cols, rows])
    )


#: batch shapes chosen to stress distinct scheduler paths: tiny batches
#: produce long signal chains; deep multibatch maximizes speculation;
#: blocking (multibatch=1) serializes waits; no-early-signaling forces
#: whole-batch completion before successors start.
CONFIGS = {
    "overhang-heavy": BatchConfig(batch_size=4, multibatch=3),
    "tiny-blocking": BatchConfig(batch_size=2, multibatch=1),
    "no-early-signal": BatchConfig(
        batch_size=8, multibatch=2, early_signaling=False
    ),
    "no-overhang": BatchConfig(batch_size=8, multibatch=2, overhang=False),
}


def _component_of_zero(mat):
    """Serial golden for the component reachable from node 0."""
    return rcm_serial(mat, 0)


class TestRandomSweep:
    @pytest.mark.parametrize("cfg_name", sorted(CONFIGS))
    @pytest.mark.parametrize("n_threads", [2, 3, 4, 8])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_graphs(self, cfg_name, n_threads, seed):
        mat = _random_symmetric(150 + 23 * seed, 0.04, seed)
        ref = _component_of_zero(mat)
        got = rcm_threads(
            mat, 0, n_threads=n_threads, config=CONFIGS[cfg_name]
        )
        assert np.array_equal(got, ref)


class TestStructuredSweep:
    """Wide-front and hub-skewed graphs: worst cases for overhang handling."""

    @pytest.mark.parametrize("cfg_name", sorted(CONFIGS))
    @pytest.mark.parametrize("n_threads", [2, 4, 8])
    def test_grid(self, cfg_name, n_threads):
        mat = g.grid2d(24, 24)
        ref = _component_of_zero(mat)
        got = rcm_threads(
            mat, 0, n_threads=n_threads, config=CONFIGS[cfg_name]
        )
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("cfg_name", sorted(CONFIGS))
    @pytest.mark.parametrize("n_threads", [2, 4, 8])
    def test_hub(self, cfg_name, n_threads):
        # hubs concentrate almost all children in a few parents, so batches
        # overflow constantly — the overhang path dominates
        mat = g.hub_matrix(300, n_hubs=3, hub_degree_frac=0.6, seed=11)
        ref = _component_of_zero(mat)
        got = rcm_threads(
            mat, 0, n_threads=n_threads, config=CONFIGS[cfg_name]
        )
        assert np.array_equal(got, ref)


class TestRepeatedRuns:
    """Same input, many runs: schedule nondeterminism must never leak."""

    @pytest.mark.parametrize("attempt", range(10))
    def test_mesh_is_stable_across_runs(self, attempt):
        mat = g.delaunay_mesh(250, seed=5)
        ref = _component_of_zero(mat)
        got = rcm_threads(
            mat, 0, n_threads=4, config=CONFIGS["overhang-heavy"]
        )
        assert np.array_equal(got, ref), f"diverged on attempt {attempt}"
