"""Per-layer metrics of a traced run.

Phase medians come from the public ``ReorderResult.phase_ns``.  Every
other timing is a direct timed call into one layer's public function on
the workload's own inputs (its probe sample), so every workload reports
the same metric set.  Counts and ratios that describe traffic a workload
does not generate (service hit ratios outside ``service-zipf``, the
``even``/``uneven`` pool speed-ups outside ``parallel-components``) read 0.
Each probe call runs inside a ``bench.probe.*`` span.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter
from typing import Callable, Dict, List

import numpy as np
from scipy.sparse.csgraph import reverse_cuthill_mckee

import repro
from repro import telemetry
from repro.parallel import ParallelConfig, map_matrices, rcm_components
from repro.parallel.shm import ShmBatch
from repro.service import (
    PermutationCache, ReorderService, ServiceConfig, ShardedService,
)
from repro.service.keys import cache_key
from repro.sparse.validate import check_batch

from workloads import (
    WORKERS, FacadeSuite, ServiceZipf, Workload, close_service,
)

#: repetitions of each probe; the median is reported
REPS = 3

#: the auto candidates whose picks are counted
AUTO_CANDIDATES = ("serial", "vectorized", "parallel")

#: ``ReorderResult.phase_ns`` key -> per-layer metric
PHASE_METRICS = {
    "validate": "sparse.validate_ms",
    "components": "core.components_ms",
    "start-selection": "core.start_selection_ms",
    "ordering": "core.ordering_ms",
    "assembly": "core.assembly_ms",
}


class ProbeMismatch(RuntimeError):
    """A probe call returned a permutation that differs from its golden."""


def timed(label: str, fn: Callable, *args, **kwargs):
    """``(result, seconds)`` of one call, inside a ``bench.probe`` span."""
    with telemetry.span(f"bench.probe.{label}", category="bench"):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        return out, time.perf_counter() - t0


def median_ms(samples_s: List[float]) -> float:
    return statistics.median(samples_s) * 1e3


class Prober:
    """Runs every layer probe on one workload's sample."""

    def __init__(self, wl: Workload, check: Callable[[int, np.ndarray], bool]):
        self.wl = wl
        self.idxs = wl.sample()
        self.mats = [wl.inputs[i].mat for i in self.idxs]
        self.check = check
        self.metrics: Dict[str, float] = {}
        #: one facade cycle over the sample (median call time per input)
        self.cycle_s = 0.0

    def verify(self, idxs, perms) -> None:
        for i, perm in zip(idxs, perms):
            if not self.check(i, np.asarray(perm)):
                raise ProbeMismatch(f"{self.wl.inputs[i].name}")

    def run(self) -> Dict[str, float]:
        results = self.pipeline()
        self.auto_picks()
        self.reference()
        self.executor(results)
        self.service()
        self.matrix_latencies()
        self.pool_speedups()
        return self.metrics

    # -- core pipeline phases of the workload's own single-matrix call
    def pipeline(self) -> list:
        phases: Dict[str, List[float]] = {k: [] for k in PHASE_METRICS}
        walls, overhead = [], []
        per_input: Dict[int, List[float]] = {i: [] for i in self.idxs}
        results = []
        for _ in range(REPS):
            results = []
            for i, m in zip(self.idxs, self.mats):
                res, wall = timed(
                    "reorder", repro.reorder, m, **self.wl.probe_kwargs
                )
                results.append(res)
                per_input[i].append(wall)
                for k in PHASE_METRICS:
                    phases[k].append(res.phase_ns.get(k, 0) / 1e9)
                walls.append(wall)
                overhead.append(wall - phases["ordering"][-1])
            self.verify(self.idxs, [r.permutation for r in results])
        for k, name in PHASE_METRICS.items():
            self.metrics[name] = median_ms(phases[k])
        self.metrics["core.ordering_share"] = (
            sum(phases["ordering"]) / sum(walls)
        )
        self.metrics["core.pipeline_overhead_ms"] = median_ms(overhead)
        self.cycle_s = sum(statistics.median(v) for v in per_input.values())
        return results

    # -- auto's pick per input vs the fastest candidate, each run once
    def auto_picks(self) -> None:
        picks: Counter = Counter()
        auto_s = best_s = 0.0
        for i, m in zip(self.idxs, self.mats):
            res, t_auto = timed("auto", repro.reorder, m, n_workers=WORKERS)
            picks[res.method] += 1
            auto_s += t_auto
            best_s += min(
                timed(f"candidate.{c}", repro.reorder, m, method=c,
                      n_workers=WORKERS)[1]
                for c in AUTO_CANDIDATES
            )
        for c in AUTO_CANDIDATES:
            self.metrics[f"backends.auto_pick.{c}"] = picks[c]
        self.metrics["backends.auto_regret_pct"] = (auto_s / best_s - 1) * 100

    # -- scipy's compiled RCM over one cycle of the sample
    def reference(self) -> None:
        sp = [m.to_scipy() for m in self.mats]
        cycles = [
            sum(
                timed("scipy_rcm", reverse_cuthill_mckee, a,
                      symmetric_mode=True)[1]
                for a in sp
            )
            for _ in range(REPS)
        ]
        scipy_s = statistics.median(cycles)
        self.metrics["reference.scipy_rcm_ms"] = scipy_s * 1e3
        self.metrics["reference.gap_x"] = self.cycle_s / scipy_s

    # -- batch validate, the pool, shm transport and the batch facade
    def executor(self, results) -> None:
        cfg = ParallelConfig(n_workers=WORKERS)
        check_s, map_s, publish_s, loop_s, many_s, comp_s = ([] for _ in range(6))
        for _ in range(REPS):
            check_s.append(timed("check_batch", check_batch, self.mats)[1])
            out, t = timed(
                "map_matrices", map_matrices, self.mats,
                method="vectorized", config=cfg,
            )
            self.verify(self.idxs, [r.permutation for r in out])
            map_s.append(t)
            publish_s.append(timed("shm_publish", _publish, self.mats)[1])
            loop_s.append(sum(
                timed("loop", repro.reorder, m, n_workers=WORKERS)[1]
                for m in self.mats
            ))
            out, t = timed(
                "reorder_many", repro.reorder_many, self.mats,
                n_workers=WORKERS,
            )
            self.verify(self.idxs, [r.permutation for r in out])
            many_s.append(t)
            for i, m, res in zip(self.idxs, self.mats, results):
                parts, t = timed(
                    "rcm_components", rcm_components, m, res.start_nodes,
                    sizes=res.component_sizes, config=cfg,
                )
                self.verify([i], [np.concatenate(parts)])
                comp_s.append(t)
        self.metrics["sparse.check_batch_ms"] = median_ms(check_s)
        self.metrics["parallel.map_matrices_ms"] = median_ms(map_s)
        self.metrics["parallel.shm_publish_ms"] = median_ms(publish_s)
        self.metrics["facade.loop_ms"] = median_ms(loop_s)
        self.metrics["facade.batch_gain_x"] = (
            statistics.median(loop_s) / statistics.median(many_s)
        )
        self.metrics["parallel.rcm_components_ms"] = median_ms(comp_s)

    # -- cache keys, both cache tiers and a recompute through the service
    def service(self) -> None:
        keys, key_s, hit_s, disk_s, cold_s = [], [], [], [], []
        for m in self.mats:
            key, t = timed("cache_key", cache_key, m)
            keys.append(key)
            key_s.append(t)
        mem = PermutationCache(capacity=len(self.mats))
        disk = PermutationCache(capacity=1, disk_dir=self.wl.scratch / "probe-disk")
        svc = ReorderService(ServiceConfig(
            n_workers=WORKERS, disk_dir=self.wl.scratch / "probe-svc",
        ))
        try:
            for i, m, k in zip(self.idxs, self.mats, keys):
                res = svc.reorder(m)
                mem.put(k, res)
                disk.put(k, res)
                svc.cache.invalidate(k)
                res, t = timed("service_cold", svc.reorder, m)
                self.verify([i], [res.permutation])
                cold_s.append(t)
            # the last key is the one entry the 1-slot tier keeps in memory
            for i, k in list(zip(self.idxs, keys))[:-1]:
                res, t = timed("cache_get_disk", disk.get, k)
                self.verify([i], [res.permutation])
                disk_s.append(t)
            for i, k in zip(self.idxs, keys):
                res, t = timed("cache_get_hit", mem.get, k)
                self.verify([i], [res.permutation])
                hit_s.append(t)
        finally:
            close_service(svc)
            disk.clear(purge_disk=True)
        self.metrics["service.cache_key_ms"] = median_ms(key_s)
        self.metrics["service.cache_get_hit_ms"] = median_ms(hit_s)
        self.metrics["service.cache_get_disk_ms"] = median_ms(disk_s)
        self.metrics["service.cold_ms"] = median_ms(cold_s)

    # -- the facade latency of each Table I analogue
    def matrix_latencies(self) -> None:
        if isinstance(self.wl, FacadeSuite):
            inputs = self.wl.inputs
        else:
            inputs = FacadeSuite(self.wl.seed, self.wl.scratch).inputs
        for inp in inputs:
            samples = [
                timed(f"matrix.{inp.name}", repro.reorder, inp.mat,
                      n_workers=WORKERS)[1]
                for _ in range(REPS)
            ]
            self.metrics[f"matrix.{inp.name}.latency_p50_ms"] = median_ms(
                samples
            )

    # -- pool vs vectorized kernel on the two parallel-components inputs
    def pool_speedups(self) -> None:
        for inp in self.wl.inputs:
            if inp.name not in ("even", "uneven"):
                continue
            par = [
                timed("parallel", repro.reorder, inp.mat, method="parallel",
                      n_workers=WORKERS)[1]
                for _ in range(REPS)
            ]
            vec = [
                timed("vectorized", repro.reorder, inp.mat,
                      method="vectorized")[1]
                for _ in range(REPS)
            ]
            self.metrics[f"parallel.vs_vectorized_x.{inp.name}"] = (
                statistics.median(vec) / statistics.median(par)
            )


def _publish(mats) -> None:
    with ShmBatch() as batch:
        batch.publish_many(mats)


def round_metrics(traced_ops: int, counters: dict, svc_delta: dict,
                  batch_groups: List[int]) -> Dict[str, float]:
    """Per-layer metrics read off the workload's own traced rounds."""
    per_call = 1 / max(traced_ops, 1)
    requests = max(svc_delta.get("requests", 0), 1)
    return {
        "backends.batch_groups": (
            statistics.median(batch_groups) if batch_groups else 0
        ),
        # pool work items: component tasks plus multi-matrix chunks
        "parallel.tasks_per_call": (
            counters.get("parallel.tasks", 0)
            + counters.get("parallel.chunks", 0)
        ) * per_call,
        "parallel.shm_bytes_per_call": (
            counters.get("parallel.shm.bytes", 0) * per_call
        ),
        "parallel.fallbacks": counters.get("parallel.fallbacks", 0),
        "service.hit_ratio": (
            svc_delta.get("hits", 0) - svc_delta.get("disk_hits", 0)
        ) / requests,
        "service.disk_hit_ratio": svc_delta.get("disk_hits", 0) / requests,
        "service.computed_per_kop": svc_delta.get("computed", 0) * 1e3 / requests,
        "service.coalesced_per_kop": (
            svc_delta.get("coalesced", 0) * 1e3 / requests
        ),
        "service.evictions_per_kop": (
            svc_delta.get("evictions", 0) * 1e3 / requests
        ),
    }


def shard_speedup(wl: ServiceZipf, check, ops_per_client: int) -> float:
    """Wall time of one op sequence through one service vs four shards."""
    walls = {}
    for label, factory, kw in (
        ("single", ReorderService, {}),
        ("sharded", ShardedService, {"shards": 4}),
    ):
        svc = wl.new_service(factory, **kw)
        try:
            start = list(wl.cursor)
            with telemetry.span(f"bench.probe.router.{label}", category="bench"):
                rnd = wl.run_round(
                    float("inf"), check, svc=svc, max_ops=ops_per_client,
                )
            wl.cursor = start
            if rnd.failed:
                raise ProbeMismatch(f"router probe ({label})")
            walls[label] = rnd.wall_s
        finally:
            close_service(svc)
    return walls["single"] / walls["sharded"]
