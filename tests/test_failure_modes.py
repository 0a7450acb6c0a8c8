"""Defensive-behaviour tests: wrong inputs fail loudly, never silently.

A reproduction whose parallel runtime can silently truncate or hang on bad
inputs would be worse than useless; these tests pin the failure modes."""

import numpy as np
import pytest

from repro.core.batch import run_batch_rcm
from repro.core.batches import BatchConfig
from repro.core.state import make_state
from repro.machine.costmodel import CPUCostModel
from repro.machine.engine import DeadlockError, SimulationError, Engine
from repro.machine.stats import RunStats, Stage
from repro.matrices import generators as g
from repro.sparse.csr import CSRMatrix, coo_to_csr

MODEL = CPUCostModel()


class TestWrongTotals:
    def test_total_too_small_raises_on_overflow(self, small_grid):
        """An understated component size must fail loudly when the output
        outgrows it, never silently truncate."""
        state = make_state(small_grid, 0, n_workers=1, total=11)
        from repro.core.batch import worker_loop

        engine = Engine(1, state.stats)
        with pytest.raises(RuntimeError, match="output overflow"):
            engine.run([worker_loop(state, BatchConfig(), MODEL, engine)])

    def test_total_too_large_deadlocks_detected(self, two_triangles):
        """Claiming more reachable nodes than exist can never complete; the
        engine must report a deadlock instead of spinning forever."""
        with pytest.raises(DeadlockError):
            run_batch_rcm(
                two_triangles, 0, model=MODEL, n_workers=2, total=6
            )


class TestBadMatrices:
    def test_asymmetric_pattern_is_callers_problem_but_terminates(self):
        """Core algorithms assume symmetry; an asymmetric pattern still
        terminates (it is just a directed BFS) — no hang, valid output for
        the reachable set."""
        mat = coo_to_csr(4, [0, 1, 2], [1, 2, 3])
        res = run_batch_rcm(mat, 0, model=MODEL, n_workers=2)
        assert sorted(res.permutation.tolist()) == [0, 1, 2, 3]

    def test_empty_adjacency_rows(self):
        mat = CSRMatrix.from_edges(5, [(0, 1)])
        res = run_batch_rcm(mat, 0, model=MODEL, n_workers=2)
        assert sorted(res.permutation.tolist()) == [0, 1]

    def test_self_loop_only_matrix(self):
        mat = coo_to_csr(3, [0, 1, 2], [0, 1, 2])
        res = run_batch_rcm(mat, 1, model=MODEL, n_workers=1)
        assert res.permutation.tolist() == [1]


class TestExtremeConfigs:
    def test_temp_limit_one(self, small_grid):
        """Scratchpad of a single element: every node overflows and gets a
        single-node batch; the run must still be exact."""
        from repro.core.serial import rcm_serial

        cfg = BatchConfig(batch_size=4, temp_limit=1)
        res = run_batch_rcm(small_grid, 0, model=MODEL, n_workers=3, config=cfg)
        assert np.array_equal(res.permutation, rcm_serial(small_grid, 0))

    def test_gpu_temp_limit_one(self, small_grid):
        from repro.core.serial import rcm_serial
        from repro.core.batch_gpu import run_batch_rcm_gpu
        from repro.machine.costmodel import GPUCostModel

        res = run_batch_rcm_gpu(
            small_grid, 0, model=GPUCostModel(temp_limit=1), n_workers=4,
            batch_size=2,
        )
        assert np.array_equal(res.permutation, rcm_serial(small_grid, 0))

    def test_many_more_workers_than_batches(self):
        from repro.core.serial import rcm_serial

        mat = g.caterpillar(5, 1)
        res = run_batch_rcm(mat, 0, model=MODEL, n_workers=32)
        assert np.array_equal(res.permutation, rcm_serial(mat, 0))


class TestEngineDefensive:
    def test_runaway_worker_stopped(self):
        engine = Engine(1, RunStats(n_workers=1), max_steps=50)

        def runaway():
            while True:
                yield ("cost", Stage.OTHER, 1.0)

        with pytest.raises(SimulationError, match="steps"):
            engine.run([runaway()])

    def test_unknown_event_rejected(self):
        engine = Engine(1, RunStats(n_workers=1))

        def bad():
            yield ("teleport", None)

        with pytest.raises(SimulationError, match="unknown event"):
            engine.run([bad()])

    def test_active_counter_tracks_waiters(self):
        engine = Engine(2, RunStats(n_workers=2))
        seen = []

        def watcher():
            yield ("cost", Stage.OTHER, 5.0)
            seen.append(engine.active)
            yield ("cost", Stage.OTHER, 100.0)

        def sleeper():
            yield ("wait", lambda: bool(seen))

        engine.run([watcher(), sleeper()])
        # while the sleeper waited, only the watcher was runnable
        assert seen == [1]


class TestThreadsDefensive:
    def test_worker_exception_propagates(self, monkeypatch, small_grid):
        """A crash inside one thread must surface to the caller, not hang."""
        from repro.core import batch
        from repro.core.threads import rcm_threads

        def boom(*a, **k):
            raise RuntimeError("injected fault")

        monkeypatch.setattr(batch, "plan_ranges", boom)
        with pytest.raises(RuntimeError):
            rcm_threads(small_grid, 0, n_threads=2)
