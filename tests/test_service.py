"""Behavioural tests for the reordering service layer.

Covers the tentpole guarantees of :mod:`repro.service`: cold/warm
bit-identity with ``method="serial"``, request coalescing (exactly one
underlying computation for concurrent duplicates, observable through the
``service.coalesced`` counter), bounded-queue backpressure, per-request
timeouts, the graceful-degradation chain, the disk cache tier, explicit
invalidation, one cache outcome per request, the asyncio front door, the
``repro cache`` CLI and the deprecated ``shards=`` keyword.  The
cross-method value battery lives in ``test_equivalence_matrix.py``;
cache-key properties in ``test_service_properties.py``.
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading

import numpy as np
import pytest

import repro.service.core as service_core
from repro import telemetry
from repro.backends import AUTO_METHOD
from repro.cli import main as cli_main
from repro.errors import ReproError, ValidationError
from repro.facade import reorder, reorder_many
from repro.matrices.generators import delaunay_mesh, grid2d, hub_matrix
from repro.service import (
    AsyncReorderService,
    PermutationCache,
    ReorderService,
    ServiceConfig,
    ServiceError,
    ServiceOverloadedError,
    ServiceTimeoutError,
    ShardedService,
    cache_key,
    fallback_chain,
    pattern_digest,
)
from repro.sparse.csr import CSRMatrix, coo_to_csr

from tests.conftest import block_union


def random_symmetric(n, density, seed):
    """Random symmetric pattern (same recipe as conftest.random_symmetric)."""
    rng = np.random.default_rng(seed)
    m = max(int(n * n * density / 2), n)
    rows = rng.integers(0, n, size=m)
    cols = rng.integers(0, n, size=m)
    keep = rows != cols
    rows, cols = rows[keep], cols[keep]
    return coo_to_csr(
        n, np.concatenate([rows, cols]), np.concatenate([cols, rows])
    )


@pytest.fixture
def tel():
    """Enabled, clean process-wide telemetry; restored afterwards."""
    t = telemetry.get()
    was_enabled = t.enabled
    t.reset()
    t.enable()
    yield t
    t.reset()
    if not was_enabled:
        t.disable()


@pytest.fixture
def gated(monkeypatch):
    """Replace the facade seam with a gate the test opens explicitly.

    Workers block inside the computation until ``release()`` — that is the
    window in which duplicate submissions must coalesce.  ``calls`` records
    every underlying computation that actually ran.
    """
    gate = threading.Event()
    entered = threading.Event()
    calls = []
    real = service_core._call_reorder

    def gated_call(mat, kwargs):
        calls.append(dict(kwargs))
        entered.set()
        if not gate.wait(timeout=10):
            raise RuntimeError("test gate was never opened")
        return real(mat, kwargs)

    monkeypatch.setattr(service_core, "_call_reorder", gated_call)

    class Gate:
        def release(self):
            gate.set()

        def wait_entered(self):
            assert entered.wait(timeout=10), "computation never started"

    g = Gate()
    g.calls = calls
    yield g
    gate.set()  # never leave workers stuck if the test failed early


class TestKeyNamesTheMethodThatRuns:
    """A cache key's ``method`` is the method that runs, on every surface,
    so the service never files a result under a key naming another
    method."""

    @pytest.mark.parametrize("mat", [
        grid2d(40, 40),
        block_union([grid2d(40, 40), grid2d(40, 40)]),
        block_union([grid2d(3 + i % 5, 20) for i in range(37)]),
    ], ids=["connected", "two-components", "37-components"])
    def test_key_and_results_agree(self, mat):
        with ReorderService() as svc:
            served = svc.reorder(mat).method
        assert {
            cache_key(mat).method,
            reorder(mat).method,
            reorder_many([mat])[0].method,
            served,
        } == {cache_key(mat).method}

    @pytest.mark.parametrize("transform", [None, "auto", "powerlaw"])
    @pytest.mark.parametrize("start", ["min-valence", "peripheral", 0])
    def test_rule_edges(self, start, transform):
        # "auto" runs on a mesh, where it resolves to no pass; "powerlaw"
        # on a hub pattern, where its hub-first starts apply
        if transform == "powerlaw":
            mats = [hub_matrix(300, n_hubs=3, hub_degree_frac=0.5, seed=s)
                    for s in (1, 2)]
        else:
            mats = [delaunay_mesh(300, seed=s) for s in (1, 2)]
        mat, opts = mats[0], dict(start=start, transform=transform)
        if transform is not None and start == 0:
            for call in (cache_key, reorder,
                         lambda m, **kw: reorder_many([m], **kw)):
                with pytest.raises(ValidationError, match="explicit start"):
                    call(mat, **opts)
            return
        named = {
            cache_key(mat, **opts).method,
            reorder(mat, **opts).method,
            *(r.method for r in reorder_many(mats, **opts)),
        }
        if transform is None:  # the service takes no transform
            with ReorderService() as svc:
                named.add(svc.reorder(mat, start=start).method)
            batched = ServiceConfig(batch_window_ms=50)
            with ReorderService(batched) as svc:
                named |= {r.method for r in svc.reorder_many(
                    mats, start=start
                )}
        assert named == {AUTO_METHOD}
        if transform == "auto":
            assert cache_key(mat, **opts) == cache_key(mat, start=start)

    def test_symmetrized_auto_transform_keys_what_runs(self):
        # a hub stored one-sided: only A | A^T is heavy-tailed, so
        # transform="auto" applies the power-law pass when symmetrizing
        n = 400
        ring = [(i, i % (n - 1) + 1) for i in range(1, n)]
        rows = [a for a, b in ring] + [b for a, b in ring] + list(range(1, n))
        cols = [b for a, b in ring] + [a for a, b in ring] + [0] * (n - 1)
        mat = coo_to_csr(n, rows, cols)
        opts = dict(symmetrize=True, transform="auto")
        key, res = cache_key(mat, **opts), reorder(mat, **opts)
        assert res.transform == "powerlaw"
        assert (key.method, key.transform) == (res.method, res.transform)

        cache = PermutationCache()
        reorder(mat, cache=cache, **opts)
        plain = reorder(mat, symmetrize=True, cache=cache)
        ref = reorder(mat, symmetrize=True, method="serial")
        assert plain.permutation.tobytes() == ref.permutation.tobytes()


class TestColdWarm:
    def test_cold_matches_serial_bit_identical(self, medium_grid):
        ref = reorder(medium_grid, method="serial")
        with ReorderService() as svc:
            got = svc.reorder(medium_grid, method="serial")
        assert got.permutation.tobytes() == ref.permutation.tobytes()

    def test_warm_hit_matches_cold(self, medium_grid):
        with ReorderService() as svc:
            cold = svc.reorder(medium_grid)
            warm = svc.reorder(medium_grid)
            assert warm.permutation.tobytes() == cold.permutation.tobytes()
            assert svc.counters["computed"] == 1
            assert svc.cache.stats.hits == 1

    def test_pattern_identical_data_shares_entry(self, medium_grid):
        # same pattern, different values -> one computation serves both
        twin = CSRMatrix(
            medium_grid.indptr.copy(),
            medium_grid.indices.copy(),
            data=np.full(medium_grid.nnz, 7.5),
        )
        assert pattern_digest(twin) == pattern_digest(medium_grid)
        with ReorderService() as svc:
            svc.reorder(medium_grid)
            svc.reorder(twin)
            assert svc.counters["computed"] == 1

    def test_stats_snapshot_shape(self, small_grid):
        with ReorderService() as svc:
            svc.reorder(small_grid)
            stats = svc.stats()
            assert stats["healthy"] and svc.healthy
        assert not svc.healthy  # closed
        assert stats["service.requests"] == 1
        assert stats["service.computed"] == 1
        assert stats["pending"] == 0
        assert stats["cache"]["size"] == 1


class TestCoalescing:
    def test_concurrent_duplicates_compute_once(self, tel, gated, medium_grid):
        """ISSUE acceptance: N concurrent same-key submissions, exactly one
        underlying computation, observable via ``service.coalesced``."""
        with ReorderService(ServiceConfig(n_workers=2)) as svc:
            futs = [svc.submit(medium_grid) for _ in range(5)]
            gated.wait_entered()
            gated.release()
            results = [f.result(timeout=10) for f in futs]

        assert len(gated.calls) == 1  # exactly one computation ran
        assert svc.counters["computed"] == 1
        assert svc.counters["coalesced"] == 4
        assert tel.counter("service.coalesced").value == 4
        ref = results[0].permutation.tobytes()
        assert all(r.permutation.tobytes() == ref for r in results)

    def test_distinct_keys_do_not_coalesce(self, gated):
        a = random_symmetric(60, 0.1, 0)
        b = random_symmetric(60, 0.1, 1)
        with ReorderService(ServiceConfig(n_workers=2)) as svc:
            fa, fb = svc.submit(a), svc.submit(b)
            gated.release()
            fa.result(timeout=10)
            fb.result(timeout=10)
            assert svc.counters["coalesced"] == 0
            assert len(gated.calls) == 2

    def test_same_matrix_different_start_not_coalesced(self, gated, small_grid):
        with ReorderService(ServiceConfig(n_workers=2)) as svc:
            f0 = svc.submit(small_grid, start=0)
            f1 = svc.submit(small_grid, start=1)
            gated.release()
            f0.result(timeout=10)
            f1.result(timeout=10)
            assert svc.counters["coalesced"] == 0
            assert len(gated.calls) == 2

    def test_hammer_exactly_one_computation_per_key(
        self, tmp_path, monkeypatch
    ):
        """16 threads race the same 24 keys: each key computes once, and
        every thread gets the bytes a fresh service computes."""
        n_threads = 16
        cfg = ServiceConfig(
            n_workers=2, max_pending=256, disk_dir=tmp_path / "cache"
        )
        computed = {}  # digest -> count of underlying computations
        lock = threading.Lock()
        real = service_core._call_reorder

        def counting_call(mat, kwargs):
            d = pattern_digest(mat)
            with lock:
                computed[d] = computed.get(d, 0) + 1
            return real(mat, kwargs)

        monkeypatch.setattr(service_core, "_call_reorder", counting_call)
        mats = [random_symmetric(60, 0.05, seed=100 + i) for i in range(24)]
        barrier = threading.Barrier(n_threads)
        results = [None] * n_threads
        errors = []

        with ReorderService(cfg) as svc:
            def worker(slot):
                try:
                    barrier.wait(timeout=10)
                    futs = [svc.submit(m) for m in mats]
                    results[slot] = [
                        f.result(timeout=60).permutation.tobytes()
                        for f in futs
                    ]
                except Exception as exc:  # pragma: no cover - diagnostics
                    errors.append(exc)

            threads = [
                threading.Thread(target=worker, args=(s,))
                for s in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            assert not errors, errors

        assert computed == {pattern_digest(m): 1 for m in mats}
        assert all(r == results[0] for r in results[1:])
        with ReorderService() as fresh:
            expect = [fresh.reorder(m).permutation.tobytes() for m in mats]
        assert results[0] == expect


class TestBackpressure:
    def test_full_queue_rejects(self, gated, small_grid):
        cfg = ServiceConfig(n_workers=1, max_pending=1, submit_timeout=0.0)
        other = random_symmetric(40, 0.1, 5)
        with ReorderService(cfg) as svc:
            first = svc.submit(small_grid)  # occupies the only slot
            gated.wait_entered()
            with pytest.raises(ServiceOverloadedError, match="queue full"):
                svc.submit(other)
            assert svc.counters["rejected"] == 1
            gated.release()
            first.result(timeout=10)
        # slot was released on completion
        assert svc.pending == 0

    def test_duplicates_admitted_past_full_queue(self, gated, small_grid):
        # coalesced requests must not consume queue slots
        cfg = ServiceConfig(n_workers=1, max_pending=1)
        with ReorderService(cfg) as svc:
            first = svc.submit(small_grid)
            dup = svc.submit(small_grid)  # same key: coalesces, no slot
            assert dup is first
            gated.release()
            first.result(timeout=10)

    def test_queue_depth_gauge(self, tel, gated, small_grid):
        with ReorderService(ServiceConfig(n_workers=1)) as svc:
            svc.submit(small_grid)
            gated.wait_entered()
            assert tel.gauge("service.queue.depth").value == 1
            gated.release()
        assert tel.gauge("service.queue.depth").value == 0


class TestTimeouts:
    def test_request_timeout_raises(self, gated, small_grid):
        with ReorderService(ServiceConfig(n_workers=1)) as svc:
            with pytest.raises(ServiceTimeoutError, match="0.05"):
                svc.reorder(small_grid, timeout=0.05)
            assert svc.counters["timeouts"] == 1
            # computation was not cancelled: it finishes and lands in cache
            gated.release()
            res = svc.reorder(small_grid, timeout=10)
        ref = reorder(small_grid, method="serial")
        assert res.permutation.tobytes() == ref.permutation.tobytes()

    def test_config_default_timeout(self, gated, small_grid):
        cfg = ServiceConfig(n_workers=1, request_timeout=0.05)
        with ReorderService(cfg) as svc:
            with pytest.raises(ServiceTimeoutError):
                svc.reorder(small_grid)
            gated.release()


class TestFallback:
    def test_environment_error_degrades_to_next_method(
        self, tel, monkeypatch, medium_grid
    ):
        real = service_core._call_reorder
        failed = []

        def flaky(mat, kwargs):
            if kwargs["method"] == "parallel":
                failed.append(kwargs["method"])
                raise RuntimeError("worker pool died")
            return real(mat, kwargs)

        monkeypatch.setattr(service_core, "_call_reorder", flaky)
        ref = reorder(medium_grid, method="serial")
        with ReorderService() as svc:
            res = svc.reorder(medium_grid, method="parallel")
        assert failed == ["parallel"]
        assert res.permutation.tobytes() == ref.permutation.tobytes()
        assert res.method == "vectorized"  # first surviving chain entry
        assert svc.counters["fallbacks"] == 1
        assert tel.counter("service.fallbacks.parallel").value == 1

    def test_chain_shape(self):
        assert fallback_chain("rcm", "parallel") == (
            "parallel", "vectorized", "serial",
        )
        assert fallback_chain("rcm", "serial") == ("serial", "vectorized")
        assert fallback_chain("rcm", "vectorized") == ("vectorized", "serial")
        assert fallback_chain("sloan", "direct") == ("direct",)

    def test_chain_derives_from_the_registry(self):
        from repro import backends

        for method in backends.names():
            assert fallback_chain("rcm", method) == backends.degradation_order(
                method
            )

    def test_unregistered_method_degrades_at_admission(self, tel, small_grid):
        # a client asking for an optional backend this install lacks is
        # served by the first registered degradation target, not bounced
        ref = reorder(small_grid, method="vectorized")
        with ReorderService() as svc:
            res = svc.reorder(small_grid, method="gpu-distributed")
        assert res.method == "vectorized"
        assert res.permutation.tobytes() == ref.permutation.tobytes()
        assert svc.counters["fallbacks"] == 1
        assert tel.counter("service.fallbacks.gpu-distributed").value == 1

    def test_unregistered_method_rejected_when_fallback_disabled(
        self, small_grid
    ):
        cfg = ServiceConfig(fallback=False)
        with ReorderService(cfg) as svc:
            with pytest.raises(ValueError, match="method must be one of"):
                svc.submit(small_grid, method="gpu-distributed")
        assert svc.counters["fallbacks"] == 0

    def test_validation_error_propagates_without_fallback(self, monkeypatch):
        calls = []
        real = service_core._call_reorder

        def counting(mat, kwargs):
            calls.append(kwargs["method"])
            return real(mat, kwargs)

        monkeypatch.setattr(service_core, "_call_reorder", counting)
        asym = coo_to_csr(3, [0], [1])  # not symmetric -> ValueError
        with ReorderService() as svc:
            with pytest.raises(ValueError, match="symmetric"):
                svc.reorder(asym)
        assert calls == [calls[0]]  # one attempt, no chain walk

    def test_fallback_disabled_propagates_first_error(
        self, monkeypatch, small_grid
    ):
        def broken(mat, kwargs):
            raise RuntimeError("no fallback expected")

        monkeypatch.setattr(service_core, "_call_reorder", broken)
        cfg = ServiceConfig(fallback=False)
        with ReorderService(cfg) as svc:
            with pytest.raises(RuntimeError, match="no fallback expected"):
                svc.reorder(small_grid)
        assert svc.counters["fallbacks"] == 0

    def test_exhausted_chain_raises_last_error(self, monkeypatch, small_grid):
        def always_broken(mat, kwargs):
            raise RuntimeError(f"{kwargs['method']} down")

        monkeypatch.setattr(service_core, "_call_reorder", always_broken)
        with ReorderService() as svc:
            with pytest.raises(RuntimeError, match="serial down"):
                svc.reorder(small_grid, method="parallel")
        assert svc.counters["fallbacks"] == 2  # parallel and vectorized


class TestDiskTier:
    def test_restart_serves_from_disk(self, tmp_path, medium_grid):
        ref = reorder(medium_grid, method="serial")
        cfg = ServiceConfig(disk_dir=tmp_path)
        with ReorderService(cfg) as svc:
            svc.reorder(medium_grid)
        assert list(tmp_path.glob("*.npz"))

        # fresh service, empty memory tier, same disk dir
        with ReorderService(ServiceConfig(disk_dir=tmp_path)) as svc2:
            res = svc2.reorder(medium_grid)
            assert svc2.counters["computed"] == 0
            assert svc2.cache.stats.disk_hits == 1
        assert res.permutation.tobytes() == ref.permutation.tobytes()

    def test_torn_disk_entry_is_a_miss(self, tmp_path, small_grid):
        with ReorderService(ServiceConfig(disk_dir=tmp_path)) as svc:
            svc.reorder(small_grid)
        (entry,) = tmp_path.glob("*.npz")
        entry.write_bytes(b"not an npz")
        with ReorderService(ServiceConfig(disk_dir=tmp_path)) as svc2:
            res = svc2.reorder(small_grid)
            assert svc2.counters["computed"] == 1  # recomputed, no crash
        ref = reorder(small_grid, method="serial")
        assert res.permutation.tobytes() == ref.permutation.tobytes()

    @pytest.mark.parametrize(
        "corruption", ["half-truncated", "tail-truncated", "byte-flip", "empty"]
    )
    def test_corrupt_disk_entry_is_a_miss(self, tmp_path, corruption):
        mat = grid2d(30, 30)
        ref = reorder(mat, method="serial")
        with ReorderService(ServiceConfig(disk_dir=tmp_path)) as svc:
            svc.reorder(mat)
        (entry,) = tmp_path.glob("*.npz")
        data = entry.read_bytes()
        if corruption == "half-truncated":
            data = data[: len(data) // 2]
        elif corruption == "tail-truncated":
            data = data[:-16]  # the zip central directory's end
        elif corruption == "byte-flip":
            flipped = bytearray(data)
            flipped[len(data) // 4] ^= 0xFF  # inside permutation.npy
            data = bytes(flipped)
        else:
            data = b""
        entry.write_bytes(data)

        key = cache_key(mat)
        assert PermutationCache(disk_dir=tmp_path).get(key) is None
        assert PermutationCache.disk_entries(tmp_path) == [
            {"digest": entry.stem, "error": "unreadable"}
        ]

        with ReorderService(ServiceConfig(disk_dir=tmp_path)) as svc2:
            res = svc2.reorder(mat)
            assert svc2.counters["computed"] == 1  # recomputed, no error
        assert res.permutation.tobytes() == ref.permutation.tobytes()
        # the recompute rewrote the entry whole: it reads back again
        healed = PermutationCache(disk_dir=tmp_path).get(key)
        assert healed.permutation.tobytes() == ref.permutation.tobytes()

    @pytest.mark.parametrize(
        "meta", [{}, {"method": "serial"}, [1], "x"],
        ids=["empty-dict", "method-only", "list", "string"],
    )
    def test_foreign_schema_disk_entry_is_a_miss(self, tmp_path, meta):
        # a well-formed NPZ whose meta is not this cache's entry schema,
        # e.g. left in a reused disk_dir by another layout
        mat = grid2d(30, 30)
        ref = reorder(mat, method="serial")
        key = cache_key(mat)
        entry = tmp_path / f"{key.digest}.npz"
        np.savez(
            entry, permutation=ref.permutation,
            meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        )

        assert PermutationCache(disk_dir=tmp_path).get(key) is None
        assert PermutationCache.disk_entries(tmp_path) == [
            {"digest": entry.stem, "error": "unreadable"}
        ]
        with ReorderService(ServiceConfig(disk_dir=tmp_path)) as svc:
            res = svc.reorder(mat)
            assert svc.counters["computed"] == 1  # recomputed, no error
        assert res.permutation.tobytes() == ref.permutation.tobytes()
        healed = PermutationCache(disk_dir=tmp_path).get(key)
        assert healed.permutation.tobytes() == ref.permutation.tobytes()


    @pytest.mark.parametrize("field, value", [
        ("start_nodes", 5),
        ("component_sizes", ["900"]),
        ("initial_bandwidth", "29"),
        ("reordered_bandwidth", True),
        ("method", 7),
        ("algorithm", None),
        ("key", [1]),
        ("permutation", "2-D"),
    ], ids=[
        "start_nodes-int", "component_sizes-str-list",
        "initial_bandwidth-str", "reordered_bandwidth-bool", "method-int",
        "algorithm-null", "key-list", "permutation-2d",
    ])
    def test_mistyped_disk_entry_is_a_miss(self, tmp_path, field, value):
        # a well-formed NPZ with every field present, one of the wrong type
        mat = grid2d(30, 30)
        ref = reorder(mat, method="serial")
        with ReorderService(ServiceConfig(disk_dir=tmp_path)) as svc:
            svc.reorder(mat)
        (entry,) = tmp_path.glob("*.npz")
        with np.load(entry) as npz:
            perm = npz["permutation"]
            meta = json.loads(npz["meta"].tobytes().decode())
        if field == "permutation":
            perm = perm.reshape(-1, 1)
        else:
            meta[field] = value
        np.savez(
            entry, permutation=perm,
            meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        )

        key = cache_key(mat)
        assert PermutationCache(disk_dir=tmp_path).get(key) is None
        assert PermutationCache.disk_entries(tmp_path) == [
            {"digest": entry.stem, "error": "unreadable"}
        ]
        with ReorderService(ServiceConfig(disk_dir=tmp_path)) as svc2:
            res = svc2.reorder(mat)
            assert svc2.counters["computed"] == 1  # recomputed, no error
        assert res.permutation.tobytes() == ref.permutation.tobytes()
        healed = PermutationCache(disk_dir=tmp_path).get(key)
        assert healed.permutation.tobytes() == ref.permutation.tobytes()


class TestCacheHitTiming:
    """A hit is timed once, inside ``PermutationCache.get``: every caller
    gets ``phase_ns == {"cache": <ns>}``."""

    def test_service_warm_hit_carries_cache_phase(self, tel, medium_grid):
        with ReorderService() as svc:
            cold = svc.reorder(medium_grid)
            warm = svc.reorder(medium_grid)
        assert "cache" not in cold.phase_ns
        assert set(warm.phase_ns) == {"cache"}
        assert warm.phase_ns["cache"] > 0
        # the warm-hit histogram observes that same measurement
        hist = tel.metrics.to_dict()["histograms"]["service.hit_latency_ms"]
        assert hist["count"] == 1
        assert hist["sum"] == warm.phase_ns["cache"] / 1e6

    def test_service_disk_hit_carries_cache_phase(
        self, tmp_path, medium_grid
    ):
        cfg = ServiceConfig(disk_dir=tmp_path)
        with ReorderService(cfg) as svc:
            svc.reorder(medium_grid)
        with ReorderService(cfg) as svc:
            warm = svc.reorder(medium_grid)
            assert svc.cache.stats_dict()["disk_hits"] == 1
        assert warm.phase_ns["cache"] > 0

    def test_facade_warm_hits_carry_cache_phase(
        self, tmp_path, small_grid, medium_grid
    ):
        cache = PermutationCache()
        reorder(medium_grid, cache=cache)
        assert reorder(medium_grid, cache=cache).phase_ns["cache"] > 0
        hits = reorder_many([medium_grid, small_grid], cache=cache)
        assert set(hits[0].phase_ns) == {"cache"}
        assert "cache" not in hits[1].phase_ns  # computed
        # a path spec builds a fresh cache per call: the second is a disk hit
        reorder(small_grid, cache=str(tmp_path))
        disk = reorder(small_grid, cache=str(tmp_path))
        assert disk.phase_ns["cache"] > 0


class TestInvalidation:
    def test_invalidate_forces_recompute(self, small_grid):
        with ReorderService() as svc:
            svc.reorder(small_grid)
            key = cache_key(small_grid)
            assert svc.cache.invalidate(key) == 1
            svc.reorder(small_grid)
            assert svc.counters["computed"] == 2
            assert svc.cache.stats.invalidations == 1

    def test_invalidate_by_digest_prefix_object(self, small_grid, tmp_path):
        cache = PermutationCache(8, disk_dir=tmp_path)
        with ReorderService(cache=cache) as svc:
            svc.reorder(small_grid)
            digest = cache_key(small_grid).digest
            # both tiers held the entry: memory + disk -> 2
            assert cache.invalidate(digest) == 2
            assert len(cache) == 0
            assert not list(tmp_path.glob("*.npz"))

    def test_invalidate_drops_both_tiers_and_recomputes(
        self, small_grid, tmp_path
    ):
        # the service's own disk-backed cache: once invalidated, the next
        # request recomputes instead of hitting the disk tier, and persists
        # the entry again
        cfg = ServiceConfig(disk_dir=tmp_path / "cache")
        with ReorderService(cfg) as svc:
            cold = svc.reorder(small_grid).permutation.tobytes()
            key = cache_key(small_grid)
            assert svc.cache.invalidate(key) == 2  # memory + disk
            assert svc.cache.invalidate(key) == 0
            again = svc.reorder(small_grid).permutation.tobytes()
            assert svc.stats()["service.computed"] == 2
        assert again == cold
        assert len(list((tmp_path / "cache").glob("*.npz"))) == 1

    def test_invalidate_treats_vanished_file_as_not_held(
        self, small_grid, tmp_path, monkeypatch
    ):
        # the check-then-unlink window of two concurrent invalidations:
        # the file looks present, but another caller already removed it
        cache = PermutationCache(8, disk_dir=tmp_path)
        with ReorderService(cache=cache) as svc:
            svc.reorder(small_grid)
        key = cache_key(small_grid)
        assert cache.invalidate(key) == 2
        monkeypatch.setattr(type(tmp_path), "exists", lambda self: True)
        assert cache.invalidate(key) == 0
        assert cache.stats.invalidations == 1

    def test_concurrent_invalidations_drop_each_tier_once(
        self, small_grid, tmp_path
    ):
        cache = PermutationCache(8, disk_dir=tmp_path)
        key = cache_key(small_grid)
        result = reorder(small_grid, method="serial")
        n_threads = 8
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                cache.put(key, result)
                barrier = threading.Barrier(n_threads)
                counts, errors = [], []

                def hammer():
                    barrier.wait(timeout=10)
                    try:
                        counts.append(cache.invalidate(key))
                    except Exception as exc:  # pragma: no cover - the bug
                        errors.append(exc)

                threads = [
                    threading.Thread(target=hammer)
                    for _ in range(n_threads)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                assert not errors, errors
                assert len(counts) == n_threads
                assert sum(counts) == 2  # memory once, disk once
        finally:
            sys.setswitchinterval(old_interval)

    def test_clear(self, small_grid, medium_grid):
        with ReorderService() as svc:
            svc.reorder(small_grid)
            svc.reorder(medium_grid)
            assert len(svc.cache) == 2
            svc.cache.clear()
            assert len(svc.cache) == 0


class TestEviction:
    def test_lru_capacity_bound(self):
        mats = [random_symmetric(30 + i, 0.2, i) for i in range(5)]
        cache = PermutationCache(capacity=2)
        with ReorderService(cache=cache) as svc:
            for m in mats:
                svc.reorder(m)
        assert len(cache) == 2
        assert cache.stats.evictions == 3

    def test_evicted_key_recomputes_correctly(self):
        a = random_symmetric(40, 0.1, 0)
        b = random_symmetric(40, 0.1, 1)
        c = random_symmetric(40, 0.1, 2)
        cache = PermutationCache(capacity=1)
        with ReorderService(cache=cache) as svc:
            pa = svc.reorder(a).permutation.tobytes()
            svc.reorder(b)
            svc.reorder(c)
            # "a" was evicted; a fresh request must recompute, not serve b/c
            again = svc.reorder(a).permutation.tobytes()
        assert again == pa


class TestLifecycle:
    def test_closed_service_rejects(self, small_grid):
        svc = ReorderService()
        svc.close()
        with pytest.raises(ServiceError, match="closed"):
            svc.submit(small_grid)

    def test_map_preserves_order(self):
        mats = [random_symmetric(30 + 7 * i, 0.15, i) for i in range(4)]
        refs = [reorder(m, method="serial").permutation.tobytes() for m in mats]
        with ReorderService(ServiceConfig(n_workers=3)) as svc:
            out = svc.reorder_many(mats)
        assert [r.permutation.tobytes() for r in out] == refs

    def test_close_mid_batch_resolves_every_future(self):
        mats = [random_symmetric(40 + i, 0.1, 300 + i) for i in range(16)]
        refs = [reorder(m, method="serial").permutation.tobytes() for m in mats]
        before = set(threading.enumerate())
        svc = ReorderService(ServiceConfig(batch_window_ms=50))
        futs = [svc.submit(m) for m in mats]
        svc.close()
        for fut, ref in zip(futs, refs):
            try:
                got = fut.result(timeout=0)
            except ReproError:
                continue
            assert got.permutation.tobytes() == ref
        assert not [
            t.name for t in set(threading.enumerate()) - before
            if t.name.startswith("repro-service")
        ]
        assert svc.pending == 0

    def test_request_span_recorded(self, tel, small_grid):
        with ReorderService() as svc:
            svc.reorder(small_grid)
        names = [s.name for s in tel.tracer.records()]
        assert "service.request" in names


class TestCacheOutcomeCounts:
    """Each request counts one cache outcome: for a cache only the service
    uses, ``hits + misses == service.requests``."""

    @pytest.mark.parametrize(
        "window_ms", [0.0, 25.0], ids=["per-request", "batched"]
    )
    def test_hits_plus_misses_equal_requests(
        self, gated, window_ms, medium_grid
    ):
        mats = [random_symmetric(40, 0.1, 900 + i) for i in range(4)]
        cfg = ServiceConfig(
            n_workers=2, batch_window_ms=window_ms, max_batch=8
        )
        with ReorderService(cfg) as svc:
            # cold, with four duplicates coalescing while it is in flight
            futs = [svc.submit(medium_grid) for _ in range(5)]
            gated.wait_entered()
            gated.release()
            for f in futs:
                f.result(timeout=30)
            svc.reorder(medium_grid)  # warm
            svc.cache.invalidate(cache_key(medium_grid))
            svc.reorder(medium_grid)  # invalidated: computes again
            svc.reorder_many(mats)  # cold, grouped when batched
            svc.reorder_many(mats)  # warm
            st = svc.stats()
        assert st["service.requests"] == 5 + 1 + 1 + 4 + 4
        assert st["service.computed"] == 1 + 1 + 4
        assert st["service.coalesced"] == 4
        assert st["cache"]["hits"] == 1 + 4
        assert (
            st["cache"]["hits"] + st["cache"]["misses"]
            == st["service.requests"]
        )


class TestAsyncReorderService:
    def test_reorder_matches_sync_cold_and_warm(self, medium_grid):
        ref = reorder(medium_grid, method="serial")

        async def run():
            async with AsyncReorderService() as svc:
                cold = await svc.reorder(medium_grid, method="serial")
                warm = await svc.reorder(medium_grid, method="serial")
                assert svc.pending == 0
                assert svc.stats()["service.computed"] == 1
                return cold, warm

        cold, warm = asyncio.run(run())
        assert cold.permutation.tobytes() == ref.permutation.tobytes()
        assert warm.permutation.tobytes() == ref.permutation.tobytes()

    def test_reorder_many_gathers_in_order(self):
        mats = [random_symmetric(40, 0.1, seed=20 + i) for i in range(6)]
        expect = [reorder(m).permutation.tobytes() for m in mats]

        async def run():
            async with AsyncReorderService() as svc:
                got = await svc.reorder_many(mats)
                return [r.permutation.tobytes() for r in got]

        assert asyncio.run(run()) == expect

    def test_timeout_raises_service_timeout(self, gated, small_grid):
        svc = ReorderService(ServiceConfig(n_workers=1))

        async def run():
            front = AsyncReorderService(service=svc)
            with pytest.raises(ServiceTimeoutError):
                await front.reorder(small_grid, timeout=0.2)
            await front.aclose()  # not owned: must leave svc open
            assert not svc._closed

        try:
            asyncio.run(run())
        finally:
            gated.release()
            svc.close()

    def test_config_and_service_are_exclusive(self):
        svc = ReorderService()
        try:
            with pytest.raises(ValueError):
                AsyncReorderService(ServiceConfig(), service=svc)
        finally:
            svc.close()


class TestCacheCLI:
    @pytest.fixture
    def populated(self, tmp_path):
        """A disk tier holding four entries; their digests."""
        root = tmp_path / "cache"
        mats = [random_symmetric(60, 0.05, seed=500 + i) for i in range(4)]
        with ReorderService(ServiceConfig(disk_dir=root)) as svc:
            for m in mats:
                svc.reorder(m)
        return root, sorted(cache_key(m).digest for m in mats)

    def test_listing(self, populated, capsys):
        root, digests = populated
        assert cli_main(["cache", str(root)]) == 0
        out = capsys.readouterr().out
        assert f"4 entries in {root}" in out
        assert all(d[:12] in out for d in digests)

    def test_json_listing(self, populated, capsys):
        root, digests = populated
        assert cli_main(["cache", str(root), "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert sorted(e["digest"] for e in entries) == digests

    def test_invalidate_by_prefix(self, populated, capsys):
        root, digests = populated
        assert cli_main(["cache", str(root), "--invalidate", digests[0][:12]]) == 0
        assert f"removed {digests[0]}" in capsys.readouterr().out
        assert cli_main(["cache", str(root), "--invalidate", digests[0]]) == 1
        assert len(list(root.glob("*.npz"))) == 3

    def test_invalidate_ambiguous_prefix_fails(self, populated, capsys):
        root, _digests = populated
        (root / "ffff00.npz").touch()
        (root / "ffff11.npz").touch()
        assert cli_main(["cache", str(root), "--invalidate", "ffff"]) == 1
        assert "ambiguous" in capsys.readouterr().err

    def test_clear(self, populated, capsys):
        root, _digests = populated
        assert cli_main(["cache", str(root), "--clear"]) == 0
        assert f"cleared 4 entries from {root}" in capsys.readouterr().out
        assert not list(root.glob("*.npz"))

    @pytest.mark.parametrize("argv", [
        ["serve", "--matrix", "bcspwr10", "--shards", "4"],
        ["cache", ".", "--shard", "0"],
    ], ids=["serve-shards", "cache-shard"])
    def test_removed_shard_flags_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestDeprecatedShards:
    """``shards=`` warns once on each of its four surfaces, naming
    ``cache_capacity``, and changes nothing else."""

    @staticmethod
    def _warned_once(record):
        (w,) = [w for w in record if w.category is DeprecationWarning]
        assert "cache_capacity" in str(w.message)
        assert w.filename == __file__  # points at the caller

    def test_reorder(self, tmp_path, small_grid):
        ref = reorder(small_grid, cache=str(tmp_path / "one"))
        with pytest.warns(DeprecationWarning) as record:
            got = reorder(small_grid, cache=str(tmp_path / "old"), shards=4)
        self._warned_once(record)
        assert got.permutation.tobytes() == ref.permutation.tobytes()
        # one tier: the entry lands in the directory itself
        assert len(list((tmp_path / "old").glob("*.npz"))) == 1
        assert not list((tmp_path / "old").glob("shard-*"))

    def test_reorder_many(self, small_grid, medium_grid):
        ref = reorder_many([small_grid, medium_grid])
        with pytest.warns(DeprecationWarning) as record:
            got = reorder_many([small_grid, medium_grid], shards=2)
        self._warned_once(record)
        assert [r.permutation.tobytes() for r in got] == [
            r.permutation.tobytes() for r in ref
        ]

    def test_service(self, small_grid):
        cfg = ServiceConfig(cache_capacity=8)
        with ReorderService(cfg) as svc:
            ref = svc.reorder(small_grid).permutation.tobytes()
        assert ShardedService is ReorderService  # alias for one release
        with pytest.warns(DeprecationWarning) as record:
            svc = ShardedService(cfg, shards=4)
        self._warned_once(record)
        with svc:
            assert svc.reorder(small_grid).permutation.tobytes() == ref
            assert isinstance(svc.cache, PermutationCache)
            assert svc.stats()["cache"]["capacity"] == 8

    def test_async_service(self, small_grid):
        async def run(**kw):
            async with AsyncReorderService(**kw) as svc:
                return (await svc.reorder(small_grid)).permutation.tobytes()

        ref = asyncio.run(run())
        with pytest.warns(DeprecationWarning) as record:
            got = asyncio.run(run(shards=2))
        self._warned_once(record)
        assert got == ref
