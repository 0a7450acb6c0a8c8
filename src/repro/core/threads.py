"""Real-thread backend for batch RCM.

Each OS thread drives one :func:`repro.core.batch.worker_loop` coroutine,
the Alg. 4/5 code behind every simulated figure, over one shared
:func:`~repro.core.state.make_state` state.  A worker advances its
coroutine one step (the code up to its next ``("cost", stage, _)`` event)
at a time under one :class:`threading.Condition`, blocks on that condition
at a ``wait`` event, and yields the CPU between steps, so the OS
scheduler, not simulated time, picks which worker takes the next step.  A
step runs whole under the lock, as atomic as an engine stage.  On CPython
this cannot show speedups (the GIL); it checks the *protocol* under
schedules no engine chose: whatever the OS does, the returned permutation
must equal serial RCM.  The test-suite sweeps it as a stress test.

Telemetry: each step is one span on its worker's lane, named by the Fig. 6
stage of the cost event that ends it, and a blocking wait is a ``Stall``
span.  The ``threads.*`` counters are the run's
:class:`~repro.machine.stats.RunStats`, set when the run ends.
"""

from __future__ import annotations

import os
import threading
import time
from types import SimpleNamespace
from typing import List, Optional

import numpy as np

from repro import telemetry
from repro.core.batch import worker_loop
from repro.core.batches import BatchConfig
from repro.core.state import make_state
from repro.machine.costmodel import CPUCostModel
from repro.machine.stats import Stage
from repro.sparse.csr import CSRMatrix

__all__ = ["rcm_threads"]


def rcm_threads(
    mat: CSRMatrix,
    start: int,
    *,
    n_threads: int = 4,
    config: Optional[BatchConfig] = None,
    total: Optional[int] = None,
) -> np.ndarray:
    """Batch RCM on real OS threads; returns the RCM permutation.

    Raises ``RuntimeError`` if any worker failed and ``TimeoutError`` if one
    hangs; the result always equals :func:`repro.core.serial.rcm_serial` for
    the same start node.
    """
    cfg = config or BatchConfig(multibatch=1)
    n_workers = max(n_threads, 1)
    state = make_state(mat, start, n_workers=n_workers, total=total)
    stats = state.stats
    # the engine's clock and worker count only feed the phase log and the
    # cycle costs, which this driver discards
    engine = SimpleNamespace(now=0.0, active=n_workers)
    model = CPUCostModel()
    cond = threading.Condition()
    failure: List[BaseException] = []
    tel = telemetry.get()
    tracer = tel.tracer if tel.enabled else None

    def counts() -> tuple:
        return (stats.nodes_discovered_speculatively,
                stats.nodes_dropped_by_rediscovery)

    def step_done(stage: Stage, t0: int, before: tuple, wid: int) -> None:
        """Record one step's span, and the discovery or rediscovery pass
        it ran as one histogram observation."""
        tracer.record(stage.value, t0, time.perf_counter_ns(),
                      category="threads", worker=wid)
        found, dropped = (a - b for a, b in zip(counts(), before))
        if found:
            tel.histogram("threads.batch.discovered").observe(found)
        if stage is Stage.REDISCOVER:
            tel.histogram("threads.batch.dropped").observe(dropped)

    def work(wid: int) -> None:
        gen = worker_loop(state, cfg, model, engine)
        try:
            with cond:
                t0, before = time.perf_counter_ns(), counts()
                for ev in gen:
                    if ev[0] == "wait":
                        pred = ev[1]
                        if pred():
                            continue
                        blocked = time.perf_counter_ns()
                        cond.wait_for(lambda: failure or pred())
                        if failure:
                            return
                        if tracer is not None:
                            tracer.record("Stall", blocked,
                                          time.perf_counter_ns(),
                                          category="threads", worker=wid)
                    else:
                        if tracer is not None:
                            step_done(ev[1], t0, before, wid)
                        # let the OS, not this thread, pick the next step
                        cond.notify_all()
                        cond.release()
                        os.sched_yield()
                        cond.acquire()
                    t0, before = time.perf_counter_ns(), counts()
                cond.notify_all()
        except BaseException as exc:  # propagate to peers and the caller
            with cond:
                failure.append(exc)
                cond.notify_all()

    threads = [
        threading.Thread(target=work, args=(wid,), daemon=True)
        for wid in range(n_workers)
    ]
    with tel.span("rcm_threads", category="threads", n=mat.n,
                  total=state.total, n_threads=n_workers):
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
            if t.is_alive():
                with cond:
                    failure.append(TimeoutError("worker hung"))
                    cond.notify_all()
                raise TimeoutError("threaded RCM worker did not finish")
    if failure:
        raise RuntimeError("threaded RCM failed") from failure[0]
    state.sync_queue_stats()
    if tel.enabled:
        tel.gauge("threads.n_workers").set(n_workers)
        run = stats.to_dict()
        for group in ("batches", "speculation", "overhangs"):
            for key, value in run[group].items():
                tel.counter(f"threads.{group}.{key}").add(value)
        disc = stats.nodes_discovered_speculatively
        if disc > 0:  # the kept fraction of all speculative discovery
            tel.gauge("threads.speculation.efficiency").set(
                (disc - stats.nodes_dropped_by_rediscovery) / disc
            )
    return state.permutation()
