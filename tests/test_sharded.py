"""Tests for the sharded cache layout (``repro.service.router``) and the
asyncio front door (``repro.service.aio``).

Covers the consistent-hash ring (remap bounds under shard add/remove,
insertion-order independence), disk-tier survival across resharding
(remapped keys warm-hit through the fallback probe and promote into the
new owner's directory only), ``ReorderService(shards=N)`` under >=16
concurrent threads (exactly-one-computation per key, no cross-shard
disk-tier writes, byte-identity with the unsharded service), the asyncio
front door, the shard-aware ``repro cache`` CLI, the ``shards=`` facade
knob, and the ``transform_ms`` flight-recorder field.
"""

from __future__ import annotations

import asyncio
import hashlib
import threading

import numpy as np
import pytest

import repro.service.core as service_core
from repro.cli import main as cli_main
from repro.facade import reorder
from repro.service import (
    AsyncReorderService,
    HashRing,
    ReorderService,
    ServiceConfig,
    ServiceTimeoutError,
    ShardedCache,
    ShardedService,
    cache_key,
    pattern_digest,
)
from repro.service.router import discover_shard_dirs, shard_dir
from repro.sparse.csr import coo_to_csr
from repro.telemetry import flight


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


def _digests(count):
    """A fixed, reproducible population of cache-key-shaped digests."""
    return [
        hashlib.sha256(f"key-{i}".encode()).hexdigest() for i in range(count)
    ]


def _owner(svc, key):
    """The shard slot of ``key`` in a sharded service's cache."""
    return svc.cache.shard_index(key)


def _spanning_mats(svc, n_mats=24):
    """Matrices whose keys cover every shard of ``svc`` (asserted)."""
    mats = [random_symmetric(60, 0.05, seed=100 + i) for i in range(n_mats)]
    owners = {_owner(svc, cache_key(m)) for m in mats}
    assert owners == set(range(svc.cache.n_shards)), (
        "key set must span all shards"
    )
    return mats


class TestHashRing:
    def test_add_remaps_bounded_fraction_to_new_shard(self):
        ring = HashRing(range(4))
        digests = _digests(2000)
        before = {d: ring.route(d) for d in digests}

        ring.add(4)
        after = {d: ring.route(d) for d in digests}
        moved = [d for d in digests if before[d] != after[d]]

        # ~1/5 of the keys should move; 128 virtual nodes per shard keeps
        # the spread tight, but leave slack for hash variance.
        frac = len(moved) / len(digests)
        assert 0.08 <= frac <= 0.35, f"moved {frac:.1%}, expected ~20%"
        # consistent hashing: every moved key moves TO the new shard
        assert all(after[d] == 4 for d in moved)

    def test_remove_moves_only_the_dead_shards_keys(self):
        ring = HashRing(range(5))
        digests = _digests(2000)
        before = {d: ring.route(d) for d in digests}

        ring.remove(4)
        after = {d: ring.route(d) for d in digests}
        for d in digests:
            if before[d] == 4:
                assert after[d] != 4
            else:
                # keys not owned by the removed shard never move
                assert after[d] == before[d]

    def test_add_then_remove_restores_routing_exactly(self):
        ring = HashRing(range(4))
        digests = _digests(500)
        before = [ring.route(d) for d in digests]
        ring.add(4)
        ring.remove(4)
        assert [ring.route(d) for d in digests] == before

    def test_routing_is_insertion_order_independent(self):
        a = HashRing([0, 1, 2, 3])
        b = HashRing([3, 1, 0, 2])
        for d in _digests(300):
            assert a.route(d) == b.route(d)

    def test_duplicate_add_and_missing_remove_raise(self):
        ring = HashRing([0, 1])
        with pytest.raises(ValueError):
            ring.add(1)
        with pytest.raises(ValueError):
            ring.remove(7)
        assert ring.shards == (0, 1)
        assert len(ring) == 2

    def test_empty_ring_rejects_routing(self):
        with pytest.raises(ValueError):
            HashRing().route(_digests(1)[0])


class TestReshardingDiskSurvival:
    def test_remapped_keys_warm_hit_from_disk_after_resharding(
        self, tmp_path
    ):
        root = tmp_path / "cache"
        mats = [random_symmetric(60, 0.05, seed=500 + i) for i in range(12)]
        cfg = ServiceConfig(disk_dir=root)

        with ReorderService(cfg, shards=2) as svc:
            cold = [svc.reorder(m) for m in mats]
        golden = [r.permutation.tobytes() for r in cold]
        files_before = {
            i: set(p.name for p in d.glob("*.npz"))
            for i, d in discover_shard_dirs(root)
        }
        assert sum(len(v) for v in files_before.values()) == len(mats)

        # reopen over the same root with a different shard count: remapped
        # keys must warm-hit through the sibling-directory fallback probe
        with ReorderService(cfg, shards=3) as svc:
            keys = [cache_key(m) for m in mats]
            moved = [
                k for k in keys
                if k.digest + ".npz" not in files_before.get(
                    _owner(svc, k), set()
                )
            ]
            assert moved, "resharding 2 -> 3 must remap some keys"
            warm = [svc.reorder(m) for m in mats]
            agg = svc.stats()
            assert agg["service.computed"] == 0, "every key must warm-hit"
            new_owner = {k.digest: _owner(svc, k) for k in keys}

        assert [r.permutation.tobytes() for r in warm] == golden

        # fallback promotion writes into the key's OWN new shard directory
        # only: any file that appeared after resharding belongs there.
        for i, d in discover_shard_dirs(root):
            grown = set(p.name for p in d.glob("*.npz")) - files_before.get(
                i, set()
            )
            for name in grown:
                assert new_owner[name[: -len(".npz")]] == i, (
                    f"shard {i} gained {name} it does not own"
                )


class TestConcurrentRouter:
    N_THREADS = 16

    def test_hammer_exactly_one_computation_per_key(
        self, tmp_path, monkeypatch
    ):
        root = tmp_path / "cache"
        cfg = ServiceConfig(n_workers=2, max_pending=256, disk_dir=root)

        computed = {}  # digest -> count of underlying computations
        lock = threading.Lock()
        real = service_core._call_reorder

        def counting_call(mat, kwargs):
            d = pattern_digest(mat)
            with lock:
                computed[d] = computed.get(d, 0) + 1
            return real(mat, kwargs)

        monkeypatch.setattr(service_core, "_call_reorder", counting_call)

        with ReorderService(cfg, shards=4) as svc:
            mats = _spanning_mats(svc)
            # disk files are named by the full cache-key digest
            owner = {
                cache_key(m).digest: _owner(svc, cache_key(m)) for m in mats
            }

            barrier = threading.Barrier(self.N_THREADS)
            results = [None] * self.N_THREADS
            errors = []

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
                for s in range(self.N_THREADS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not errors, errors

        # exactly one underlying computation per key, despite 16 threads
        # racing the same key set spread over every shard
        assert computed == {pattern_digest(m): 1 for m in mats}

        # all threads agree, and the sharded answer is byte-identical to
        # the unsharded service's
        assert all(r == results[0] for r in results[1:])
        with ReorderService() as flat:
            expect = [flat.reorder(m).permutation.tobytes() for m in mats]
        assert results[0] == expect

        # no cross-shard disk-tier writes: each key's .npz lives only in
        # its owning shard's directory
        placed = {
            i: set(p.stem for p in d.glob("*.npz"))
            for i, d in discover_shard_dirs(root)
        }
        assert set().union(*placed.values()) == set(owner)
        for i, stems in placed.items():
            for digest in stems:
                assert owner[digest] == i, (
                    f"{digest} written under shard {i}, owner {owner[digest]}"
                )

    def test_coalescing_holds_per_shard_while_in_flight(self, gated):
        with ReorderService(ServiceConfig(n_workers=1), shards=2) as svc:
            mat = random_symmetric(40, 0.1, seed=3)
            futs = [svc.submit(mat) for _ in range(6)]
            gated.wait_entered()
            gated.release()
            perms = {f.result(timeout=30).permutation.tobytes() for f in futs}
            assert len(perms) == 1
        assert len(gated.calls) == 1


# the ``gated`` fixture mirrors tests/test_service.py: workers block in the
# computation until released, which is the coalescing window
@pytest.fixture
def gated(monkeypatch):
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
    gate.set()


class TestShardedServiceSurface:
    def test_stats_shape_and_health(self):
        with ReorderService(shards=3) as svc:
            mat = random_symmetric(50, 0.08, seed=11)
            svc.reorder(mat)
            st = svc.stats()
            assert st["healthy"] and svc.healthy
            assert st["cache"]["n_shards"] == 3
            assert len(st["cache"]["shards"]) == 3
            assert st["service.requests"] == 1
            assert st["cache"]["puts"] == sum(
                s["puts"] for s in st["cache"]["shards"]
            ) == 1
        assert not svc.healthy  # closed

    def test_invalidate_sweeps_all_shards_and_reports_tiers(self, tmp_path):
        cfg = ServiceConfig(disk_dir=tmp_path / "cache")
        with ReorderService(cfg, shards=2) as svc:
            mat = random_symmetric(50, 0.08, seed=12)
            svc.reorder(mat)
            key = cache_key(mat)
            assert svc.cache.invalidate(key) == 2  # memory + disk
            assert svc.cache.invalidate(key) == 0
            svc.reorder(mat)
            assert svc.stats()["service.computed"] == 2

    def test_mismatched_external_cache_rejected(self, tmp_path):
        cache = ShardedCache(tmp_path / "c", 2)
        with pytest.raises(ValueError):
            ReorderService(shards=4, cache=cache)

    def test_unsharded_service_api_unchanged(self):
        # one service class: the historical sharded name is an alias, and
        # the default is one unsharded cache
        assert ShardedService is ReorderService
        svc = ReorderService()
        try:
            assert "n_shards" not in svc.stats()["cache"]
        finally:
            svc.close()


class TestAsyncReorderService:
    def test_reorder_matches_sync_cold_and_warm(self, medium_grid):
        ref = reorder(medium_grid, method="serial")

        async def run():
            async with AsyncReorderService(shards=2) as svc:
                cold = await svc.reorder(medium_grid, method="serial")
                warm = await svc.reorder(medium_grid, method="serial")
                assert svc.pending == 0
                assert svc.stats()["cache"]["n_shards"] == 2
                return cold, warm

        cold, warm = asyncio.run(run())
        assert cold.permutation.tobytes() == ref.permutation.tobytes()
        assert warm.permutation.tobytes() == ref.permutation.tobytes()

    def test_reorder_many_gathers_in_order(self):
        mats = [random_symmetric(40, 0.1, seed=20 + i) for i in range(6)]
        expect = [reorder(m).permutation.tobytes() for m in mats]

        async def run():
            async with AsyncReorderService(shards=3) as svc:
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


class TestShardAwareCacheCLI:
    @pytest.fixture
    def populated(self, tmp_path):
        """A sharded disk root with entries spanning >=2 shards."""
        root = tmp_path / "cache"
        cfg = ServiceConfig(disk_dir=root)
        with ReorderService(cfg, shards=4) as svc:
            mats = _spanning_mats(svc, n_mats=12)
            for m in mats:
                svc.reorder(m)
            digests = {
                cache_key(m).digest: _owner(svc, cache_key(m)) for m in mats
            }
        return root, digests

    def test_listing_sweeps_all_shards(self, populated, capsys):
        root, digests = populated
        assert cli_main(["cache", str(root)]) == 0
        out = capsys.readouterr().out
        assert "shard" in out
        assert f"{len(digests)} entries in {root}" in out
        assert "shard tier(s)" in out

    def test_json_listing_stamps_shard_index(self, populated, capsys):
        import json

        root, digests = populated
        assert cli_main(["cache", str(root), "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert len(entries) == len(digests)
        for e in entries:
            assert digests[e["digest"]] == e["shard"]

    def test_shard_flag_narrows_listing(self, populated, capsys):
        root, digests = populated
        target = next(iter(digests.values()))
        assert cli_main(["cache", str(root), "--shard", str(target)]) == 0
        out = capsys.readouterr().out
        expect = sum(1 for s in digests.values() if s == target)
        assert f"{expect} entries in {root}" in out

    def test_shard_flag_rejected_on_unsharded_layout(self, tmp_path, capsys):
        flat = tmp_path / "flat"
        flat.mkdir()
        assert cli_main(["cache", str(flat), "--shard", "0"]) == 1
        assert "unsharded layout" in capsys.readouterr().err

    def test_invalidate_reports_tier_and_shard(self, populated, capsys):
        root, digests = populated
        digest, shard = next(iter(digests.items()))
        rc = cli_main(["cache", str(root), "--invalidate", digest[:12]])
        assert rc == 0
        out = capsys.readouterr().out
        assert f"removed {digest} from 1 tier(s): shard {shard} disk" in out
        # already gone now
        assert cli_main(["cache", str(root), "--invalidate", digest]) == 1

    def test_invalidate_ambiguous_prefix_fails(self, populated, capsys):
        root, _digests = populated
        d = shard_dir(root, 0)
        d.mkdir(parents=True, exist_ok=True)
        (d / "ffff00.npz").touch()
        (d / "ffff11.npz").touch()
        assert cli_main(["cache", str(root), "--invalidate", "ffff"]) == 1
        assert "ambiguous" in capsys.readouterr().err

    def test_clear_reports_per_shard_breakdown(self, populated, capsys):
        root, digests = populated
        assert cli_main(["cache", str(root), "--clear"]) == 0
        out = capsys.readouterr().out
        assert f"cleared {len(digests)} entries" in out
        assert "shard 0:" in out
        for _i, d in discover_shard_dirs(root):
            assert not list(d.glob("*.npz"))


class TestFacadeSharding:
    def test_facade_shards_knob_builds_sharded_disk_tier(self, tmp_path):
        root = tmp_path / "cache"
        mats = [random_symmetric(60, 0.05, seed=700 + i) for i in range(8)]
        cold = [
            reorder(m, cache=str(root), shards=4).permutation.tobytes()
            for m in mats
        ]
        layout = discover_shard_dirs(root)
        assert layout, "shards=4 must persist the shard-<i> layout"
        assert {i for i, _d in layout} <= set(range(4))
        warm = [
            reorder(m, cache=str(root), shards=4).permutation.tobytes()
            for m in mats
        ]
        assert warm == cold

    def test_facade_rejects_bad_shard_count(self, small_grid):
        with pytest.raises(ValueError):
            reorder(small_grid, shards=0)


class TestTransformFlightRecord:
    def test_record_auto_accepts_transform_ms(self, tmp_path, monkeypatch):
        monkeypatch.delenv(flight.FLIGHT_ENV_VAR, raising=False)
        flight.configure(tmp_path / "f.jsonl")
        try:
            flight.record_auto(
                n=10, nnz=40, n_components=1,
                estimates={"serial": 1.0}, chosen="serial",
                actual_wall_ms=0.5, transform_ms=3.25,
            )
            flight.record_auto(
                n=10, nnz=40, n_components=1,
                estimates={"serial": 1.0}, chosen="serial",
                actual_wall_ms=0.5,
            )
            with_t, without_t = flight.read_records(tmp_path / "f.jsonl")
            assert with_t["transform_ms"] == pytest.approx(3.25)
            assert "transform_ms" not in without_t
        finally:
            flight.disable_recording()

    def test_auto_pipeline_records_transform_phase(
        self, tmp_path, monkeypatch, medium_grid
    ):
        from repro.core.api import _reorder_rcm

        monkeypatch.delenv(flight.FLIGHT_ENV_VAR, raising=False)
        flight.configure(tmp_path / "auto.jsonl")
        try:
            _reorder_rcm(medium_grid, method="auto")
            (rec,) = flight.read_records(tmp_path / "auto.jsonl")
            assert "transform_ms" in rec
            assert rec["transform_ms"] >= 0.0
        finally:
            flight.disable_recording()
