"""The four workloads of the end-to-end benchmark.

Each workload owns its inputs (generated from the seed before any timing),
its set-up pass and one closed loop: a caller sends its next request only
after the previous one returned.  The harness in ``run.py`` times set-up,
drives the rounds and checks every returned permutation; this module only
calls the program through its public entry points.
"""

from __future__ import annotations

import hashlib
import shutil
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro
from repro import telemetry
from repro.matrices import generators as g
from repro.matrices import get_matrix, shuffled
from repro.parallel import reset_pools
from repro.service import ReorderService, ServiceConfig
from repro.service.keys import cache_key
from repro.sparse.csr import CSRMatrix

#: the six Table I analogues of ``facade-suite``: mesh, road, Delaunay,
#: KKT, power-law and grid structure
FACADE_MATRICES = (
    "hugebubbles-00020",
    "great-britain_osm",
    "delaunay_n23",
    "nlpkkt240",
    "coPapersDBLP",
    "ecology1",
)

#: structural families of the small generated patterns
SMALL_FAMILIES = (
    "delaunay", "grid", "road", "rmat", "smallworld", "hub", "banded",
)

#: pool workers and client threads never exceed the 2 cores the
#: benchmark was calibrated on
WORKERS = 2


@dataclass
class Input:
    """One generated matrix and the name its golden is filed under."""

    name: str
    family: str
    mat: CSRMatrix


@dataclass
class Round:
    """What one timed round did."""

    ops: int = 0
    matrices: int = 0
    failed: int = 0
    wall_s: float = 0.0
    latencies_s: List[float] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    #: matrices requested per input index
    per_input: Counter = field(default_factory=Counter)


#: ``check(input_index, permutation) -> bool``, supplied by the harness
Check = Callable[[int, np.ndarray], bool]


def pattern_sha(mat: CSRMatrix) -> str:
    """Identity of a pattern, used to keep generated inputs distinct."""
    h = hashlib.sha256(np.ascontiguousarray(mat.indptr, "<i8").tobytes())
    h.update(np.ascontiguousarray(mat.indices, "<i8").tobytes())
    return h.hexdigest()


def block_union(mats: Sequence[CSRMatrix]) -> CSRMatrix:
    """Block-diagonal union: one matrix whose components are ``mats``."""
    node_off = np.cumsum([0] + [m.n for m in mats])
    nnz_off = np.cumsum([0] + [m.nnz for m in mats])
    indptr = np.concatenate(
        [m.indptr[:-1] + nnz_off[i] for i, m in enumerate(mats)]
        + [nnz_off[-1:]]
    )
    indices = np.concatenate(
        [m.indices + node_off[i] for i, m in enumerate(mats)]
    )
    return CSRMatrix(indptr=indptr, indices=indices)


def small_pattern(family: str, n: int, rng: np.random.Generator) -> CSRMatrix:
    """One small pattern of ``family`` with about ``n`` nodes."""
    seed = int(rng.integers(2**31))
    if family == "delaunay":
        return g.delaunay_mesh(n, seed=seed)
    if family == "grid":
        nx = int(rng.integers(6, 31))
        return g.grid2d(nx, max(2, n // nx))
    if family == "road":
        return g.road_network(n, seed=seed)
    if family == "rmat":
        return g.rmat(max(5, int(round(np.log2(n)))), edge_factor=6, seed=seed)
    if family == "smallworld":
        return g.watts_strogatz(n, 6, 0.1, seed=seed)
    if family == "hub":
        return g.hub_matrix(n, n_hubs=3, hub_degree_frac=0.5, seed=seed)
    return g.banded(n, 6, density=0.9, seed=seed)


def distinct_patterns(
    rng: np.random.Generator, count: int, n_lo: int, n_hi: int,
    prefix: str, seen: set,
) -> List[Input]:
    """``count`` pairwise-distinct small patterns.

    Family and size follow from the position alone (families cycle, sizes
    step through ``[n_lo, n_hi]``), so every seed yields the same mix of
    work and only the random structure changes.  A draw that repeats a
    pattern already in ``seen`` (two grids of the same shape) is redrawn,
    so no two inputs share a golden or a cache key.
    """
    out: List[Input] = []
    while len(out) < count:
        j = len(out)
        family = SMALL_FAMILIES[j % len(SMALL_FAMILIES)]
        n = n_lo + (j * 7919) % (n_hi - n_lo + 1)
        mat = small_pattern(family, n, rng)
        sha = pattern_sha(mat)
        if sha in seen:
            continue
        seen.add(sha)
        out.append(Input(f"{prefix}{j}-{family}", family, mat))
    return out


class Workload:
    """Inputs, set-up and the closed loop of one named workload.

    Single-caller workloads list their requests in ``self.calls`` as
    ``(label, fn, input_indices)`` and cycle through them.  A round ends
    on a boundary of ``unit`` consecutive calls (default: the whole list),
    so rounds of workloads whose calls differ in cost run the same mix.
    """

    name = ""
    unit: Optional[int] = None
    #: keyword arguments of the single-matrix facade call the layer probes
    #: time on this workload's inputs
    probe_kwargs: Dict[str, object] = {"n_workers": WORKERS}

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch
        self.inputs: List[Input] = []
        self.calls: List[Tuple[str, Callable[[], list], List[int]]] = []
        self._next_call = 0

    # -- the layer probes run on this subset of the inputs
    def sample(self) -> List[int]:
        return list(range(len(self.inputs)))

    def setup(self) -> None:
        """Construct what the workload serves from and warm it once."""
        for _, fn, _ in self.calls:
            fn()

    def teardown(self) -> None:
        """Undo :meth:`setup` (untimed) so the next set-up starts cold."""

    def close(self) -> None:
        self.teardown()

    def run_round(self, budget_s: float, check: Check) -> Round:
        """Whole units of calls, ending as close to the budget as whole
        units allow."""
        rnd = Round()
        unit = self.unit or len(self.calls)
        t_start = time.perf_counter()
        while True:
            t_unit = time.perf_counter()
            for _ in range(unit):
                label, fn, idxs = self.calls[self._next_call]
                self._next_call = (self._next_call + 1) % len(self.calls)
                with telemetry.span(
                    "bench.request", category="bench",
                    workload=self.name, input=label,
                ):
                    t0 = time.perf_counter()
                    try:
                        results = fn()
                    except Exception as exc:  # counted as a failed op
                        results = None
                        rnd.errors.append(f"{label}: {exc!r}")
                    rnd.latencies_s.append(time.perf_counter() - t0)
                ok = results is not None and len(results) == len(idxs)
                if ok:
                    ok = all([
                        check(i, r.permutation) for i, r in zip(idxs, results)
                    ])
                rnd.failed += not ok
                rnd.ops += 1
                rnd.matrices += len(idxs)
                rnd.per_input.update(idxs)
            now = time.perf_counter()
            elapsed, last_unit = now - t_start, now - t_unit
            if elapsed + last_unit / 2 > budget_s:
                break
        rnd.wall_s = time.perf_counter() - t_start
        return rnd


class FacadeSuite(Workload):
    name = "facade-suite"

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        for name in FACADE_MATRICES:
            mat = get_matrix(name, cache=False)
            if seed:
                mat = shuffled(mat, seed=seed)
            self.inputs.append(Input(name, "table1", mat))
        self.calls = [
            (inp.name, (lambda m=inp.mat: [
                repro.reorder(m, n_workers=WORKERS)
            ]), [i])
            for i, inp in enumerate(self.inputs)
        ]


class BatchSmall(Workload):
    name = "batch-small"
    n_batches = 8
    batch_size = 48
    #: every batch has the same families and sizes, so a round may end
    #: after any call
    unit = 1

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        seen: set = set()
        for b in range(self.n_batches):
            rng = np.random.default_rng([seed, 2, b])
            first = len(self.inputs)
            self.inputs += distinct_patterns(
                rng, self.batch_size, 100, 900, f"b{b}-", seen,
            )
            idxs = list(range(first, len(self.inputs)))
            mats = [self.inputs[i].mat for i in idxs]
            self.calls.append((
                f"batch{b}",
                (lambda ms=mats: repro.reorder_many(ms, n_workers=WORKERS)),
                idxs,
            ))

    def sample(self) -> List[int]:
        return self.calls[0][2]

    def teardown(self) -> None:
        reset_pools()


class ParallelComponents(Workload):
    name = "parallel-components"
    probe_kwargs = {"method": "parallel", "n_workers": WORKERS}

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        road_seeds = np.random.default_rng([seed, 4]).integers(2**31, size=4)
        self.inputs = [
            Input("even", "grid-union", block_union([g.grid2d(400, 26)] * 4)),
            Input("uneven", "road-union", block_union([
                g.road_network(5000, seed=int(s)) for s in road_seeds
            ])),
        ]
        self.calls = [
            (inp.name, (lambda m=inp.mat: [
                repro.reorder(m, method="parallel", n_workers=WORKERS)
            ]), [i])
            for i, inp in enumerate(self.inputs)
        ]

    def teardown(self) -> None:
        reset_pools()


class ServiceZipf(Workload):
    name = "service-zipf"
    n_patterns = 512
    zipf_s = 1.1
    invalidate_frac = 0.02
    #: pre-drawn requests per client; a client that exhausts them wraps
    ops_per_client = 100_000

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        rng = np.random.default_rng([seed, 3])
        self.inputs = distinct_patterns(
            rng, self.n_patterns, 200, 1000, "p", set(),
        )
        self.keys = [cache_key(inp.mat) for inp in self.inputs]
        # input j has popularity rank j, so the hot set has the same
        # families and sizes for every seed
        weights = 1.0 / np.arange(1, self.n_patterns + 1) ** self.zipf_s
        # client 0 issues every invalidation: two concurrent invalidations
        # of one key can both pass PermutationCache.invalidate's exists()
        # check, and the second unlink then raises FileNotFoundError
        write_frac = [self.invalidate_frac * WORKERS] + [0.0] * (WORKERS - 1)
        self.streams = [
            (
                rng.choice(
                    self.n_patterns, size=self.ops_per_client,
                    p=weights / weights.sum(),
                ),
                rng.random(self.ops_per_client) < write_frac[c],
            )
            for c in range(WORKERS)
        ]
        self.cursor = [0] * WORKERS
        self.svc: Optional[ReorderService] = None
        self._setups = 0

    def sample(self) -> List[int]:
        return list(range(64))

    def new_service(self, factory=ReorderService, **kw):
        """A service over a fresh disk tier, cold-filled with every input."""
        disk = self.scratch / f"svc-{self._setups}"
        self._setups += 1
        svc = factory(ServiceConfig(n_workers=WORKERS, disk_dir=disk), **kw)
        for inp in self.inputs:
            svc.reorder(inp.mat)
        return svc

    def setup(self) -> None:
        self.svc = self.new_service()

    def teardown(self) -> None:
        if self.svc is not None:
            close_service(self.svc)
            self.svc = None

    def run_round(self, budget_s: float, check: Check,
                  svc=None, max_ops: Optional[int] = None) -> Round:
        """Both clients until the budget is spent (or ``max_ops`` each)."""
        svc = svc if svc is not None else self.svc
        deadline = time.perf_counter() + budget_s
        parts = [Round() for _ in range(WORKERS)]

        def client(c: int) -> None:
            idxs, writes = self.streams[c]
            rnd = parts[c]
            while time.perf_counter() < deadline and (
                max_ops is None or rnd.ops < max_ops
            ):
                pos = self.cursor[c] % self.ops_per_client
                self.cursor[c] += 1
                i = int(idxs[pos])
                with telemetry.span(
                    "bench.request", category="bench",
                    workload=self.name, input=self.inputs[i].name,
                    invalidate=bool(writes[pos]),
                ):
                    t0 = time.perf_counter()
                    try:
                        if writes[pos]:
                            svc.cache.invalidate(self.keys[i])
                        res = svc.reorder(self.inputs[i].mat)
                    except Exception as exc:  # counted as a failed op
                        res = None
                        rnd.errors.append(f"{self.inputs[i].name}: {exc!r}")
                    rnd.latencies_s.append(time.perf_counter() - t0)
                rnd.failed += res is None or not check(i, res.permutation)
                rnd.ops += 1
                rnd.matrices += 1
                rnd.per_input[i] += 1

        t_start = time.perf_counter()
        threads = [
            threading.Thread(target=client, args=(c,), name=f"client-{c}")
            for c in range(WORKERS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        out = Round(wall_s=time.perf_counter() - t_start)
        for rnd in parts:
            out.ops += rnd.ops
            out.matrices += rnd.matrices
            out.failed += rnd.failed
            out.latencies_s += rnd.latencies_s
            out.errors += rnd.errors
            out.per_input.update(rnd.per_input)
        return out


def close_service(svc) -> None:
    """Stop a service's threads and delete its disk tier."""
    disk = svc.config.disk_dir
    svc.close()
    if disk is not None:
        shutil.rmtree(disk, ignore_errors=True)


WORKLOADS = {
    w.name: w for w in (FacadeSuite, BatchSmall, ServiceZipf, ParallelComponents)
}
