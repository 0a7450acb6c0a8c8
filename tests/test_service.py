"""Behavioural tests for the reordering service layer.

Covers the tentpole guarantees of :mod:`repro.service`: cold/warm
bit-identity with ``method="serial"``, request coalescing (exactly one
underlying computation for concurrent duplicates, observable through the
``service.coalesced`` counter), bounded-queue backpressure, per-request
timeouts, the graceful-degradation chain, the disk cache tier and explicit
invalidation.  The cross-method value battery lives in
``test_equivalence_matrix.py``; cache-key properties in
``test_service_properties.py``.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

import repro.service.core as service_core
from repro import telemetry
from repro.errors import ReproError
from repro.facade import reorder, reorder_many
from repro.matrices.generators import grid2d
from repro.service import (
    PermutationCache,
    ReorderService,
    ServiceConfig,
    ServiceError,
    ServiceOverloadedError,
    ServiceTimeoutError,
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
        svc = ReorderService(ServiceConfig(batch_window_ms=50), shards=4)
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
