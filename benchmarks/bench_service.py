"""Service-layer throughput: cold compute, warm cache serving, batching.

Measures, and asserts, three ratios taken back to back on one host:

* the cold computation time against the per-request warm cache-hit time —
  serving a warm hit must be at least **10x** faster than the cold compute
  (content-hash caching's acceptance bar);
* the batched-admission rate against the per-request dispatch rate over
  the same concurrent workload of distinct patterns — batching must win
  by ``MIN_BATCH_SPEEDUP``, because each admission tick runs its group as
  one ``reorder_many`` call (one executor dispatch over the shared-memory
  transport) instead of one ``reorder`` call per request;
* the warm-path cost of the continuous sampling profiler at its default
  rate: profiler-off and profiler-on blocks of warm hits alternate in
  pairs, the first block of each pair flipped every pair, and the median
  of the per-pair on/off ratios is held to ``MAX_PROFILER_OVERHEAD_PCT``.
  Every block runs warm hits for a whole number of sampling periods, so a
  profiled block holds that many ticks at any phase and the ratio prices
  the ticks along with the running profiler between them.
"""

from __future__ import annotations

import statistics
import time

from repro.matrices import get_matrix
from repro.matrices.generators import delaunay_mesh
from repro.service import ReorderService, ServiceConfig
from repro.telemetry import profiler

MATRIX = "bcspwr10"
MIN_HIT_SPEEDUP = 10.0
#: off/on block pairs of the profiler comparison; adjacent blocks see the
#: same host load, so drift over the run cancels out of each pair's ratio
PROFILER_PAIRS = 15
#: untimed warm hits before every block, profiled or not, so neither side
#: is timed straight after a thread start
BLOCK_WARMUP = 5
#: sampling periods at the profiler's default rate that every block's warm
#: hits span, so a profiled block holds this many ticks
BLOCK_PERIODS = 4
#: warm-path budget for the sampling profiler, in percent
MAX_PROFILER_OVERHEAD_PCT = 3.0

#: batched-admission workload: distinct small patterns (no cache hits, no
#: coalescing — every request really computes)
BATCH_N = 96
BATCH_WINDOW_MS = 10.0
BATCH_ROUNDS = 3
#: batched admission over per-request dispatch, same concurrent workload
MIN_BATCH_SPEEDUP = 1.3


def _batch_workload():
    return [delaunay_mesh(20, seed=i) for i in range(BATCH_N)]


def _warm_block_ms(svc, mat, *, profiled: bool) -> float:
    """Per-request ms of warm hits run for ``BLOCK_PERIODS`` sampling
    periods, optionally with the sampling profiler running at its default
    rate."""
    if profiled:
        profiler.start_profiler()
    try:
        for _ in range(BLOCK_WARMUP):
            svc.reorder(mat)
        hits, t0 = 0, time.perf_counter_ns()
        deadline = t0 + BLOCK_PERIODS * 1e9 / profiler.DEFAULT_HZ
        while True:
            svc.reorder(mat)
            hits += 1
            t1 = time.perf_counter_ns()
            if t1 >= deadline:
                return (t1 - t0) / 1e6 / hits
    finally:
        if profiled:
            profiler.stop_profiler()


def _concurrent_requests_per_s(mats, window_ms, max_batch):
    """Best-of-rounds rate for the same concurrent submit-all workload,
    per-request dispatch (``window_ms=0``) or batched admission."""
    best = 0.0
    for _ in range(BATCH_ROUNDS):
        cfg = ServiceConfig(
            n_workers=2, max_pending=2 * len(mats),
            batch_window_ms=window_ms, max_batch=max_batch,
        )
        with ReorderService(cfg) as svc:
            t0 = time.perf_counter()
            futs = [svc.submit(m) for m in mats]
            for f in futs:
                f.result(timeout=60)
            best = max(best, len(mats) / (time.perf_counter() - t0))
    return best


def test_service_cache_serving(benchmark):
    mat = get_matrix(MATRIX)
    with ReorderService(ServiceConfig(n_workers=2)) as svc:
        t0 = time.perf_counter_ns()
        cold = svc.reorder(mat)
        cold_ms = (time.perf_counter_ns() - t0) / 1e6

        warm = svc.reorder(mat)
        # manual warm timing (pedantic reports separately), profiler off
        # and on in alternating pairs: the median per-pair ratio gates the
        # profiler, the fastest off block is the warm-hit time
        off_ms, ratios = [], []
        for i in range(PROFILER_PAIRS):
            pair = {}
            for on in (False, True) if i % 2 == 0 else (True, False):
                pair[on] = _warm_block_ms(svc, mat, profiled=on)
            off_ms.append(pair[False])
            ratios.append(pair[True] / pair[False])
        warm_ms = min(off_ms)
        profiler_overhead_pct = max(0.0, (statistics.median(ratios) - 1) * 100)

        benchmark.pedantic(svc.reorder, args=(mat,), rounds=5, iterations=3)

    assert warm.permutation.tobytes() == cold.permutation.tobytes()
    hit_speedup = cold_ms / warm_ms if warm_ms > 0 else float("inf")

    # batched admission vs per-request dispatch, same concurrent workload
    batch_mats = _batch_workload()
    single_rps = _concurrent_requests_per_s(batch_mats, 0.0, 16)
    batched_rps = _concurrent_requests_per_s(
        batch_mats, BATCH_WINDOW_MS, BATCH_N
    )
    batch_speedup = batched_rps / single_rps if single_rps > 0 else None

    assert hit_speedup >= MIN_HIT_SPEEDUP, (
        f"warm cache hit only {hit_speedup:.1f}x faster than cold compute "
        f"(cold {cold_ms:.2f}ms, warm {warm_ms:.4f}ms)"
    )
    assert batch_speedup is not None and batch_speedup >= MIN_BATCH_SPEEDUP, (
        f"batched admission only {batch_speedup:.2f}x the per-request "
        f"dispatch rate (batched {batched_rps:.0f}/s, single "
        f"{single_rps:.0f}/s over {BATCH_N} distinct patterns)"
    )
    assert profiler_overhead_pct <= MAX_PROFILER_OVERHEAD_PCT, (
        f"sampling profiler degrades the warm path by "
        f"{profiler_overhead_pct:.2f}% (median of {PROFILER_PAIRS} "
        f"on/off pairs, off {warm_ms:.4f}ms per request at best; budget "
        f"{MAX_PROFILER_OVERHEAD_PCT}%)"
    )


def test_service_coalesced_fanout(benchmark):
    """Concurrent duplicate fan-out: N submissions, one computation."""
    mat = get_matrix(MATRIX)

    def fanout():
        with ReorderService(ServiceConfig(n_workers=2)) as svc:
            futs = [svc.submit(mat) for _ in range(8)]
            for f in futs:
                f.result(timeout=60)
            return svc
    svc = benchmark.pedantic(fanout, rounds=3, iterations=1)
    assert svc.counters["computed"] == 1
    assert svc.counters["coalesced"] == 7
