"""Registration of the built-in RCM execution backends.

One :func:`~repro.backends.base.register` call per method — the whole
definition of a backend (run adapter, capability flags) lives here, so
adding a twelfth method is a matter of appending one more block to this
file (or calling ``register()`` from the new backend's own module).

Adapters normalize every kernel to one of two shapes:

* ``run_component(mat, start, *, total, n_workers, config, seed)`` →
  ``(permutation_block, RunStats | None)``
* ``run_matrix(mat, starts, *, sizes, n_workers, config, seed)`` →
  ``[permutation_block, ...]``

Heavyweight or optional dependencies (the process pool, the OS-thread
machine, the semiring kernel) are imported inside their adapters, exactly
as the old dispatch chain did, so ``import repro`` stays cheap.
"""

from __future__ import annotations

from repro.backends.base import (
    KIND_OS_THREADS,
    KIND_PROCESS,
    KIND_SERIAL,
    KIND_SIMULATED,
    KIND_VECTORIZED,
    Backend,
    register,
)
from repro.core.batch import run_batch_rcm
from repro.core.batch_gpu import run_batch_rcm_gpu
from repro.core.batches import BatchConfig
from repro.core.compiled import rcm_compiled
from repro.core.leveled import rcm_leveled
from repro.core.serial import rcm_serial
from repro.core.unordered import rcm_unordered
from repro.core.vectorized import rcm_vectorized
from repro.machine.costmodel import CPUCostModel


# ---------------------------------------------------------------------------
# run adapters (all normalized to the two Backend callable shapes)
# ---------------------------------------------------------------------------

def _run_serial(mat, start, *, total, n_workers, config, seed):
    return rcm_serial(mat, start), None


def _run_vectorized(mat, start, *, total, n_workers, config, seed):
    return rcm_vectorized(mat, start), None


def _run_compiled(mat, starts, *, sizes, n_workers, config, seed):
    return rcm_compiled(mat, starts, sizes=sizes)


def _run_parallel(mat, starts, *, sizes, n_workers, config, seed):
    from repro.parallel import ParallelConfig, rcm_components

    return rcm_components(
        mat, starts, sizes=sizes, config=ParallelConfig(n_workers=n_workers)
    )


def _run_leveled(mat, start, *, total, n_workers, config, seed):
    return rcm_leveled(mat, start).permutation, None


def _run_unordered(mat, start, *, total, n_workers, config, seed):
    return rcm_unordered(mat, start).permutation, None


def _run_algebraic(mat, start, *, total, n_workers, config, seed):
    from repro.core.algebraic import rcm_algebraic

    return rcm_algebraic(mat, start).permutation, None


def _run_batch_basic(mat, start, *, total, n_workers, config, seed):
    # the basic machine (Alg. 4): Alg. 5's refinements forced off unless
    # the caller configured them explicitly
    cfg = config or BatchConfig(
        early_signaling=False, overhang=False, multibatch=1
    )
    res = run_batch_rcm(
        mat, start, model=CPUCostModel(), n_workers=n_workers,
        config=cfg, total=total, seed=seed,
    )
    return res.permutation, res.stats


def _run_batch_cpu(mat, start, *, total, n_workers, config, seed):
    res = run_batch_rcm(
        mat, start, model=CPUCostModel(), n_workers=n_workers,
        config=config, total=total, seed=seed,
    )
    return res.permutation, res.stats


def _run_batch_gpu(mat, start, *, total, n_workers, config, seed):
    res = run_batch_rcm_gpu(mat, start, total=total, seed=seed)
    return res.permutation, res.stats


def _run_threads(mat, start, *, total, n_workers, config, seed):
    from repro.core.threads import rcm_threads

    return rcm_threads(mat, start, n_threads=n_workers, total=total), None


# ---------------------------------------------------------------------------
# registrations — order here is presentation order everywhere
# ---------------------------------------------------------------------------

register(Backend(
    name="serial",
    kind=KIND_SERIAL,
    summary="Alg. 1 — the pure-Python single-threaded ground truth",
    run_component=_run_serial,
))

register(Backend(
    name="vectorized",
    kind=KIND_VECTORIZED,
    summary="level-synchronous NumPy frontier kernel",
    run_component=_run_vectorized,
))

register(Backend(
    name="compiled",
    kind=KIND_SERIAL,
    summary="SciPy's compiled RCM forced onto the pipeline's starts",
    run_matrix=_run_compiled,
))

register(Backend(
    name="parallel",
    kind=KIND_PROCESS,
    summary="per-component process pool over the vectorized kernel",
    run_matrix=_run_parallel,
    honors_n_workers=True,
))

register(Backend(
    name="leveled",
    kind=KIND_SIMULATED,
    summary="Alg. 2 — level-synchronous simulated baseline",
    run_component=_run_leveled,
))

register(Backend(
    name="unordered",
    kind=KIND_SIMULATED,
    summary="Alg. 3 — BFS + per-level producer/consumer",
    run_component=_run_unordered,
))

register(Backend(
    name="algebraic",
    kind=KIND_VECTORIZED,
    summary="semiring-SpMV RCM",
    run_component=_run_algebraic,
))

register(Backend(
    name="batch-basic",
    kind=KIND_SIMULATED,
    summary="Alg. 4 on the simulated machine",
    run_component=_run_batch_basic,
    honors_n_workers=True,
    honors_config=True,
    honors_seed=True,
    emits_stats=True,
))

register(Backend(
    name="batch-cpu",
    kind=KIND_SIMULATED,
    summary="Alg. 5 on the simulated multicore CPU",
    run_component=_run_batch_cpu,
    honors_n_workers=True,
    honors_config=True,
    honors_seed=True,
    emits_stats=True,
))

register(Backend(
    name="batch-gpu",
    kind=KIND_SIMULATED,
    summary="Alg. 5 + Sec. V on the simulated GPU",
    run_component=_run_batch_gpu,
    honors_seed=True,
    emits_stats=True,
))

register(Backend(
    name="threads",
    kind=KIND_OS_THREADS,
    summary="Alg. 5 on real OS threads",
    run_component=_run_threads,
    honors_n_workers=True,
))
