"""Shared-memory transport lifecycle: publish/attach round trips,
guaranteed unlink on every exit path, the no-pickle guarantee, pool reuse
and the in-process fallback where shared memory is unavailable.

The dispatch tests run :func:`repro.parallel.rcm_components` on a
multi-component union and force the process-pool path
(``force_processes=True``) so they exercise the real transport even on
single-core CI hosts.  Tests that re-register pickle reducers or break the
pool call ``reset_pools()`` on both sides so no other test inherits a
poisoned pool.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import telemetry
from repro.core.vectorized import rcm_vectorized
from repro.matrices import generators as g
from repro.parallel import (
    ParallelConfig,
    fork_available,
    rcm_components,
    reset_pools,
    shm,
)
from repro.core.api import _reorder_rcm

from tests.conftest import block_union

needs_shm = pytest.mark.skipif(
    not shm.shm_available(), reason="shared memory unavailable on platform"
)
needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)


@pytest.fixture(autouse=True)
def _clean_telemetry():
    telemetry.reset()
    yield
    telemetry.reset()


def _workload(count: int = 6, size: int = 14) -> list:
    return [g.grid2d(size + i, size) for i in range(count)]


def _union():
    """The workload as one matrix: ``(union, starts, sizes)``."""
    mat = block_union(_workload())
    ref = _reorder_rcm(mat, method="serial")
    return mat, ref.start_nodes, ref.component_sizes


def _dispatch(mat, starts, sizes) -> list:
    """One component task per start on a forced 2-worker pool."""
    cfg = ParallelConfig(n_workers=2, force_processes=True)
    return rcm_components(mat, starts, sizes=sizes, config=cfg)


def _assert_blocks(blocks, mat, starts) -> None:
    assert len(blocks) == len(starts)
    for block, start in zip(blocks, starts):
        assert block.tobytes() == rcm_vectorized(mat, start).tobytes()


# ----------------------------------------------------------------------
# publish / attach round trips
# ----------------------------------------------------------------------
@needs_shm
class TestPublishAttach:
    def test_publish_csr_round_trip(self, medium_grid):
        with shm.ShmBatch() as batch:
            handle = batch.publish_csr(medium_grid)
            view = shm.attach_csr(handle)
            assert view.n == medium_grid.n
            assert np.array_equal(view.indptr, medium_grid.indptr)
            assert np.array_equal(view.indices, medium_grid.indices)

    def test_attached_view_is_read_only(self, medium_grid):
        with shm.ShmBatch() as batch:
            view = shm.attach_csr(batch.publish_csr(medium_grid))
            with pytest.raises(ValueError):
                view.indices[0] = 99

    def test_publish_many_packs_one_segment(self):
        mats = _workload(4)
        with shm.ShmBatch() as batch:
            handles = batch.publish_many(mats)
            assert len({h.name for h in handles}) == 1  # one segment
            for mat, handle in zip(mats, handles):
                view = shm.attach_csr(handle)
                assert np.array_equal(view.indptr, mat.indptr)
                assert np.array_equal(view.indices, mat.indices)

    def test_arena_blocks_survive_unlink(self):
        with shm.ShmBatch() as batch:
            arena = batch.result_arena(8)
            worker_view = shm.attach_arena(arena.handle)
            worker_view[:] = np.arange(8)
            block = arena.block(2, 4)
        # the batch is closed and the segment unlinked; the copy lives on
        assert np.array_equal(block, [2, 3, 4, 5])


# ----------------------------------------------------------------------
# guaranteed-unlink lifecycle
# ----------------------------------------------------------------------
@needs_shm
class TestLifecycle:
    def test_unlink_on_success(self, medium_grid):
        with shm.ShmBatch() as batch:
            batch.publish_csr(medium_grid)
            batch.result_arena(medium_grid.n)
            assert len(shm.active_segments()) == 2
        assert shm.active_segments() == ()

    def test_unlink_on_error_path(self, medium_grid):
        with pytest.raises(RuntimeError, match="mid-batch"):
            with shm.ShmBatch() as batch:
                batch.publish_csr(medium_grid)
                raise RuntimeError("simulated failure mid-batch")
        assert shm.active_segments() == ()

    def test_close_is_idempotent(self, medium_grid):
        batch = shm.ShmBatch()
        batch.publish_csr(medium_grid)
        batch.close()
        batch.close()
        assert shm.active_segments() == ()

    def test_sweep_counts_leaks(self, medium_grid):
        telemetry.enable()
        leaked = shm.ShmBatch()
        leaked.publish_csr(medium_grid)
        assert len(shm.active_segments()) == 1
        assert shm.sweep_leaked() == 1
        assert shm.active_segments() == ()
        counters = telemetry.get().snapshot()["counters"]
        assert counters["parallel.shm.leaked"] == 1

    def test_publish_counters(self, medium_grid):
        telemetry.enable()
        with shm.ShmBatch() as batch:
            batch.publish_csr(medium_grid)
        counters = telemetry.get().snapshot()["counters"]
        assert counters["parallel.shm.published"] == 1
        assert counters["parallel.shm.bytes"] > 0

    @needs_fork
    def test_dispatch_leaves_no_segments(self):
        _dispatch(*_union())
        assert shm.active_segments() == ()

    @needs_fork
    def test_broken_pool_leaves_no_segments_and_recovers(self):
        """A dispatch that hits a dead pool must unlink its segments,
        fall back in-process and still return correct results."""
        from repro.parallel import executor

        reset_pools()
        pool = executor._get_pool(2)
        fut = pool.submit(os._exit, 13)  # kill a worker mid-task
        with pytest.raises(Exception):
            fut.result(timeout=30)

        mat, starts, sizes = _union()
        try:
            blocks = _dispatch(mat, starts, sizes)
        finally:
            reset_pools()
        assert shm.active_segments() == ()
        _assert_blocks(blocks, mat, starts)


# ----------------------------------------------------------------------
# the no-pickle guarantee
# ----------------------------------------------------------------------
def _rebuild_empty(dtype_str: str) -> np.ndarray:
    return np.zeros(0, dtype=dtype_str)


def _forbid_ndarray_pickle(arr: np.ndarray):
    if arr.size:
        raise AssertionError(
            f"{arr.size}-element ndarray crossed the process pipe"
        )
    return (_rebuild_empty, (arr.dtype.str,))


@needs_shm
@needs_fork
class TestNoPickle:
    def test_no_matrix_bytes_cross_the_pipe(self):
        """With the reducer below registered in parent and workers, any
        non-empty ndarray going through ForkingPickler raises — proving
        the matrix and the permutation blocks travel via shared memory
        only."""
        from multiprocessing.reduction import ForkingPickler

        mat, starts, sizes = _union()
        reset_pools()  # workers must fork *after* the reducer registers
        ForkingPickler.register(np.ndarray, _forbid_ndarray_pickle)
        try:
            blocks = _dispatch(mat, starts, sizes)
        finally:
            ForkingPickler._extra_reducers.pop(np.ndarray, None)
            reset_pools()
        _assert_blocks(blocks, mat, starts)

    def test_guard_reducer_fires_on_ndarray(self):
        """Sanity check of the guard itself: a non-empty ndarray pushed
        through ForkingPickler must trip the reducer (so the test above
        is actually probing something)."""
        import io

        from multiprocessing.reduction import ForkingPickler

        ForkingPickler.register(np.ndarray, _forbid_ndarray_pickle)
        try:
            with pytest.raises(AssertionError, match="crossed the process"):
                ForkingPickler(io.BytesIO()).dump(np.arange(4))
        finally:
            ForkingPickler._extra_reducers.pop(np.ndarray, None)


# ----------------------------------------------------------------------
# no-shm fallback + pool reuse
# ----------------------------------------------------------------------
class TestOptOutAndPool:
    @needs_fork
    def test_no_shm_runs_in_process_identical(self, monkeypatch):
        mat, starts, sizes = _union()
        fresh = _dispatch(mat, starts, sizes)
        telemetry.enable()
        monkeypatch.setattr(shm, "shm_available", lambda: False)
        fallback = _dispatch(mat, starts, sizes)
        assert [b.tobytes() for b in fallback] == [b.tobytes() for b in fresh]
        _assert_blocks(fallback, mat, starts)
        counters = telemetry.get().snapshot()["counters"]
        assert counters["parallel.fallbacks.no-shm"] == 1

    @needs_shm
    @needs_fork
    def test_pool_reused_across_dispatches(self):
        reset_pools()
        telemetry.enable()
        union = _union()
        _dispatch(*union)
        _dispatch(*union)
        counters = telemetry.get().snapshot()["counters"]
        assert counters.get("parallel.pool.reused", 0) >= 1
