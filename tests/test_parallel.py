"""Process-parallel executor: correctness, fallback paths, configuration."""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import pytest

from repro import backends, telemetry
from repro.core.api import _reorder_rcm
from repro.core.serial import rcm_serial
from repro.matrices import generators as g
from repro.parallel import (
    ParallelConfig,
    executor,
    fork_available,
    map_matrices,
    rcm_components,
    reset_pools,
    resolve_workers,
    shm,
)
from repro.sparse.csr import CSRMatrix

from tests.conftest import block_union


def _die(*args, **kwargs):
    """A worker task that kills its worker process, breaking the pool."""
    os._exit(1)


@pytest.fixture
def many_components() -> CSRMatrix:
    """Five grid components of very different sizes in one matrix."""
    blocks = [g.grid2d(k, k) for k in (3, 5, 8, 12, 2)]
    n = sum(b.n for b in blocks)
    edges, base = [], 0
    for b in blocks:
        for u in range(b.n):
            for v in b.indices[b.indptr[u]:b.indptr[u + 1]]:
                if u < v:
                    edges.append((base + u, base + int(v)))
        base += b.n
    return CSRMatrix.from_edges(n, edges)


class TestComponentPool:
    def test_matches_serial_multi_component(self, many_components):
        ref = _reorder_rcm(many_components, method="serial")
        got = _reorder_rcm(many_components, method="parallel", n_workers=3)
        assert np.array_equal(got.permutation, ref.permutation)
        assert got.method == "parallel"
        assert got.n_components == 5

    def test_forced_pool_matches(self, many_components):
        starts = _reorder_rcm(many_components, method="serial").start_nodes
        sizes = _reorder_rcm(many_components, method="serial").component_sizes
        cfg = ParallelConfig(n_workers=2, force_processes=True)
        ref = [o for o in rcm_components(
            many_components, starts, sizes=sizes,
            config=ParallelConfig(n_workers=0),
        )]
        got = rcm_components(many_components, starts, sizes=sizes, config=cfg)
        for a, b in zip(ref, got):
            assert np.array_equal(a, b)

    def test_small_input_runs_in_process(self, two_triangles):
        tel = telemetry.get()
        tel.reset()
        tel.enable()
        try:
            res = _reorder_rcm(two_triangles, method="parallel")
            counters = tel.snapshot()["counters"]
        finally:
            tel.disable()
            tel.reset()
        assert res.n_components == 2
        assert counters.get("parallel.fallbacks.small-input", 0) >= 1

    def test_fallback_blocks_cover_matrix(self, two_triangles):
        ref = _reorder_rcm(two_triangles, method="serial")
        parts = rcm_components(
            two_triangles, ref.start_nodes, sizes=ref.component_sizes
        )
        assert sum(len(p) for p in parts) == two_triangles.n


class TestMapMatrices:
    def test_matches_in_process_loop(self):
        mats = [g.grid2d(6, 6), g.delaunay_mesh(80, seed=1),
                g.random_geometric(50, k=3, seed=2)]
        seq = [_reorder_rcm(m, method="vectorized") for m in mats]
        cfg = ParallelConfig(n_workers=2, force_processes=True)
        par = map_matrices(mats, method="vectorized", config=cfg)
        assert len(par) == len(seq)
        for a, b in zip(seq, par):
            assert np.array_equal(a.permutation, b.permutation)

    def test_empty_batch(self):
        assert map_matrices([]) == []

    def test_chunking_covers_all(self):
        mats = [g.grid2d(4, 4) for _ in range(7)]
        cfg = ParallelConfig(n_workers=2, chunk_size=2, force_processes=True)
        out = map_matrices(mats, config=cfg)
        assert len(out) == 7
        ref = _reorder_rcm(mats[0], method="serial").permutation
        for res in out:
            assert np.array_equal(res.permutation, ref)


class TestConfig:
    def test_resolve_workers_default_positive(self):
        assert resolve_workers(None) >= 1

    def test_resolve_workers_explicit(self):
        assert resolve_workers(3) == 3

    def test_zero_workers_means_in_process(self, many_components):
        ref = _reorder_rcm(many_components, method="serial")
        got = _reorder_rcm(
            many_components, method="parallel",
            config=ParallelConfig(n_workers=0),
        )
        assert np.array_equal(got.permutation, ref.permutation)

    def test_fork_available_is_bool(self):
        assert isinstance(fork_available(), bool)


@pytest.mark.skipif(
    not (fork_available() and shm.shm_available()),
    reason="the process pool needs fork and shared memory",
)
class TestPoolError:
    """A broken pool or a failed shm publish is absorbed in-process once,
    leaves no segment and no pool behind, and the next call builds a fresh
    pool."""

    CFG = ParallelConfig(n_workers=2, force_processes=True)

    @pytest.fixture(autouse=True)
    def tel(self):
        reset_pools()
        tel = telemetry.get()
        tel.reset()
        tel.enable()
        yield tel
        tel.disable()
        tel.reset()
        reset_pools()

    @pytest.fixture
    def four_grids(self):
        mat = block_union([g.grid2d(40, 26) for _ in range(4)])
        ref = _reorder_rcm(mat, method="serial")
        return mat, ref.start_nodes, ref.component_sizes

    def _components(self, mat, starts, sizes):
        blocks = rcm_components(mat, starts, sizes=sizes, config=self.CFG)
        for block, start in zip(blocks, starts):
            assert block.tobytes() == rcm_serial(mat, start).tobytes()

    def _map(self, mats):
        results = map_matrices(mats, config=self.CFG)
        for res, mat in zip(results, mats):
            ref = _reorder_rcm(mat, method="serial")
            assert res.permutation.tobytes() == ref.permutation.tobytes()

    def _assert_absorbed(self, tel):
        counters = tel.snapshot()["counters"]
        assert counters["parallel.fallbacks.pool-error"] == 1
        assert counters["parallel.fallbacks"] == 1
        assert shm.active_segments() == ()
        assert executor._POOLS == {}

    def _assert_fresh_pool(self, tel):
        assert len(executor._POOLS) == 1
        assert tel.snapshot()["counters"]["parallel.fallbacks"] == 1
        assert shm.active_segments() == ()

    def test_worker_death_in_component_task(
        self, tel, monkeypatch, four_grids
    ):
        monkeypatch.setattr(executor, "_component_task", _die)
        self._components(*four_grids)
        self._assert_absorbed(tel)
        monkeypatch.undo()
        self._components(*four_grids)
        self._assert_fresh_pool(tel)

    def test_worker_death_in_chunk_task(self, tel, monkeypatch):
        mats = [g.grid2d(14 + i, 14) for i in range(6)]
        monkeypatch.setattr(executor, "_chunk_task", _die)
        self._map(mats)
        self._assert_absorbed(tel)
        monkeypatch.undo()
        self._map(mats)
        self._assert_fresh_pool(tel)

    def test_task_error_reaches_caller_once(self, tel):
        """A backend's own exception inside a worker is not a pool
        failure: it reaches the caller once, unchanged, and the pool
        stays."""
        real = backends.get("vectorized")
        calls = []

        def broken(mat, start, **kwargs):
            calls.append(os.getpid())
            raise RuntimeError("vectorized kernel bug")

        mats = [g.grid2d(14 + i, 14) for i in range(6)]
        # registered before the pool forks, so its workers run the clone
        backends.register(
            dataclasses.replace(real, run_component=broken), replace=True
        )
        try:
            with pytest.raises(RuntimeError, match="^vectorized kernel bug$"):
                map_matrices(mats, method="vectorized", config=self.CFG)
        finally:
            backends.register(real, replace=True)
        assert calls == []  # never rerun in this process
        assert "parallel.fallbacks" not in tel.snapshot()["counters"]
        pool = executor._POOLS[self.CFG.n_workers]
        results = map_matrices(mats, method="serial", config=self.CFG)
        for res, mat in zip(results, mats):
            ref = _reorder_rcm(mat, method="serial")
            assert res.permutation.tobytes() == ref.permutation.tobytes()
        assert executor._POOLS == {self.CFG.n_workers: pool}
        assert shm.active_segments() == ()

    def test_shm_publish_failure(self, tel, monkeypatch, four_grids):
        real = shm.ShmBatch.publish_csr

        def publish_then_fail(batch, mat):
            real(batch, mat)  # a segment exists when the error hits
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(shm.ShmBatch, "publish_csr", publish_then_fail)
        self._components(*four_grids)
        self._assert_absorbed(tel)
        monkeypatch.undo()
        self._components(*four_grids)
        self._assert_fresh_pool(tel)
