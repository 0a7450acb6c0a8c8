"""Two-tier permutation cache: in-memory LRU over an optional disk tier.

The memory tier is a bounded LRU of reconstructed-on-hit
:class:`~repro.core.api.ReorderResult` payloads; the disk tier (one
``<digest>.npz`` per entry under ``disk_dir``) survives process restarts and
keeps entries the LRU evicted.  Everything a result needs except wall-clock
timings and simulated stats is cached, so a hit is a dictionary lookup plus
one array copy — no BFS, no sorting, no bandwidth recomputation.

Consistency rule: an entry is only ever written *whole* (atomic
``os.replace`` on the disk tier) under the content-hash key of the exact
pattern + options that produced it, so eviction and invalidation can never
surface a stale permutation — a key either maps to the right answer or to a
miss.

Telemetry (when enabled): counters ``service.cache.hits`` /
``service.cache.misses`` / ``service.cache.evictions`` /
``service.cache.disk_hits``; gauge ``service.cache.size``.
"""

from __future__ import annotations

import json
import os
import threading
import time
import zipfile
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Union

import numpy as np

from repro.core.api import ReorderResult
from repro.service.keys import CacheKey
from repro import telemetry

__all__ = ["CacheStats", "PermutationCache"]


@dataclass
class CacheStats:
    """Monotonic per-cache counters (telemetry-independent)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    puts: int = 0
    disk_hits: int = 0
    invalidations: int = 0

    def to_dict(self) -> dict:
        """All counters as one JSON-serializable dict."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "puts": self.puts,
            "disk_hits": self.disk_hits,
            "invalidations": self.invalidations,
        }


def _entry_from_result(key: CacheKey, result: ReorderResult) -> dict:
    """The cached payload: permutation + everything cheap to freeze."""
    return {
        "permutation": np.ascontiguousarray(
            result.permutation, dtype=np.int64
        ).copy(),
        "algorithm": result.algorithm,
        "method": result.method,
        "start_nodes": [int(s) for s in result.start_nodes],
        "component_sizes": [int(s) for s in result.component_sizes],
        "initial_bandwidth": int(result.initial_bandwidth),
        "reordered_bandwidth": int(result.reordered_bandwidth),
        "key": key.describe(),
        "created": time.time(),
    }


def _is_int(value) -> bool:
    return type(value) is int  # JSON true/false load as bool, not int


def _is_int_list(value) -> bool:
    return type(value) is list and all(_is_int(v) for v in value)


#: the metadata fields :func:`_result_from_entry` and
#: :meth:`PermutationCache.disk_entries` read, with their types; a disk
#: entry lacking one, or holding another type, was written by another
#: schema and is a miss
_FIELD_CHECKS = {
    "algorithm": lambda v: type(v) is str,
    "method": lambda v: type(v) is str,
    "start_nodes": _is_int_list,
    "component_sizes": _is_int_list,
    "initial_bandwidth": _is_int,
    "reordered_bandwidth": _is_int,
    "key": lambda v: type(v) is dict,
}


def _result_from_entry(entry: dict, t0: int) -> ReorderResult:
    """Reconstruct a fresh result (caller owns the permutation copy),
    its ``phase_ns`` the one ``cache`` phase: wall ns since ``t0``."""
    return ReorderResult(
        permutation=entry["permutation"].copy(),
        method=entry["method"],
        start_nodes=list(entry["start_nodes"]),
        component_sizes=list(entry["component_sizes"]),
        initial_bandwidth=entry["initial_bandwidth"],
        reordered_bandwidth=entry["reordered_bandwidth"],
        stats=[],
        algorithm=entry["algorithm"],
        # evaluated last, so the lookup's time includes the copy
        phase_ns={"cache": time.perf_counter_ns() - t0},
    )


class PermutationCache:
    """Thread-safe LRU permutation cache with an optional disk tier.

    Parameters
    ----------
    capacity:
        max entries held in memory; the least-recently-used entry is
        evicted first (evicted entries remain on disk when a tier is
        configured).
    disk_dir:
        optional directory for the persistent tier; created on first use.
    """

    def __init__(
        self,
        capacity: int = 128,
        *,
        disk_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        self.stats = CacheStats()
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, dict]" = OrderedDict()

    # ------------------------------------------------------------------
    # tier plumbing
    # ------------------------------------------------------------------
    def _tel_count(self, name: str) -> None:
        tel = telemetry.get()
        if tel.enabled:
            tel.counter(name).add(1)
            tel.gauge("service.cache.size").set(len(self._entries))

    def _disk_path(self, digest: str) -> Optional[Path]:
        if self.disk_dir is None:
            return None
        return self.disk_dir / f"{digest}.npz"

    def _disk_write(self, digest: str, entry: dict) -> None:
        path = self._disk_path(digest)
        if path is None:
            return
        self.disk_dir.mkdir(parents=True, exist_ok=True)
        meta = {k: v for k, v in entry.items() if k != "permutation"}
        tmp = path.with_suffix(".npz.tmp")
        with open(tmp, "wb") as fh:
            np.savez(
                fh,
                permutation=entry["permutation"],
                meta=np.frombuffer(
                    json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8
                ),
            )
        os.replace(tmp, path)

    @staticmethod
    def _read_npz(path: Path) -> Optional[dict]:
        """The entry stored at ``path``; ``None`` when absent or unreadable."""
        try:
            # our own handle: np.load(path) leaves the file open when
            # zipfile rejects a truncated archive
            with open(path, "rb") as fh, np.load(fh) as npz:
                entry = json.loads(bytes(npz["meta"].tobytes()).decode())
                perm = npz["permutation"]
                if not isinstance(entry, dict) or not all(
                    k in entry and check(entry[k])
                    for k, check in _FIELD_CHECKS.items()
                ) or perm.ndim != 1 or perm.dtype.kind not in "iu":
                    return None  # another schema's well-formed file
                entry["permutation"] = np.ascontiguousarray(
                    perm, dtype=np.int64
                )
            return entry
        except (OSError, KeyError, ValueError, EOFError, zipfile.BadZipFile):
            # an absent, torn or foreign file is a miss, never an error:
            # truncation and bit flips raise BadZipFile, an empty file
            # EOFError
            return None

    def _disk_read(self, digest: str) -> Optional[dict]:
        path = self._disk_path(digest)
        if path is None:
            return None
        return self._read_npz(path)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def get(self, key: CacheKey) -> Optional[ReorderResult]:
        """The cached result for ``key``, or ``None`` on a miss.

        A hit carries ``phase_ns={"cache": <ns>}``: the wall time of this
        lookup, disk read included, timed here once for every caller.
        """
        t0 = time.perf_counter_ns()
        with self._lock:
            entry = self._entries.get(key.digest)
            if entry is not None:
                self._entries.move_to_end(key.digest)
                self.stats.hits += 1
                self._tel_count("service.cache.hits")
                return _result_from_entry(entry, t0)
        # slow tier outside the lock: the read is idempotent
        entry = self._disk_read(key.digest)
        if entry is not None:
            with self._lock:
                self.stats.hits += 1
                self.stats.disk_hits += 1
                self._install(key.digest, entry)
                self._tel_count("service.cache.hits")
                self._tel_count("service.cache.disk_hits")
            return _result_from_entry(entry, t0)
        with self._lock:
            self.stats.misses += 1
            self._tel_count("service.cache.misses")
        return None

    def _peek(self, key: CacheKey) -> Optional[ReorderResult]:
        """The memory tier's result for ``key``, counting nothing.

        The service's re-check under its own lock: the request already
        counted its one outcome in :meth:`get`, and a key computed since
        then is in memory (:meth:`put` installs it before the computing
        future resolves), so no disk read runs under that lock.
        """
        t0 = time.perf_counter_ns()
        with self._lock:
            entry = self._entries.get(key.digest)
            if entry is None:
                return None
            self._entries.move_to_end(key.digest)
            return _result_from_entry(entry, t0)

    def put(self, key: CacheKey, result: ReorderResult) -> None:
        """Insert (or refresh) the entry for ``key``."""
        entry = _entry_from_result(key, result)
        with self._lock:
            self.stats.puts += 1
            self._install(key.digest, entry)
        self._disk_write(key.digest, entry)

    def _install(self, digest: str, entry: dict) -> None:
        """Insert under the held lock, evicting LRU entries over capacity."""
        self._entries[digest] = entry
        self._entries.move_to_end(digest)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
            self._tel_count("service.cache.evictions")

    def invalidate(self, key_or_digest: Union[CacheKey, str]) -> int:
        """Drop one entry from both tiers.

        Returns how many tiers actually held (and dropped) the key — 0
        when it was cached nowhere, 1 for memory *or* disk, 2 for both —
        so callers (``repro cache --invalidate``) can report exactly what
        an invalidation removed.  The count is truthy exactly when
        anything was removed, preserving the historical boolean reading.
        Safe under concurrent calls on one key: a disk file another caller
        unlinked first counts as not held.
        """
        digest = (
            key_or_digest.digest
            if isinstance(key_or_digest, CacheKey)
            else str(key_or_digest)
        )
        tiers = 0
        with self._lock:
            if self._entries.pop(digest, None) is not None:
                tiers += 1
        path = self._disk_path(digest)
        if path is not None:
            try:
                path.unlink()
                tiers += 1
            except FileNotFoundError:
                pass
        if tiers:
            with self._lock:
                self.stats.invalidations += 1
        return tiers

    def clear(self, *, purge_disk: bool = False) -> None:
        """Drop every in-memory entry (and the disk tier when asked)."""
        with self._lock:
            self._entries.clear()
        if purge_disk and self.disk_dir is not None and self.disk_dir.exists():
            for path in self.disk_dir.glob("*.npz"):
                path.unlink()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        with self._lock:
            return key.digest in self._entries

    def entries(self) -> List[dict]:
        """Inspection snapshot: key metadata of every in-memory entry,
        most-recently-used last (what ``repro cache`` lists)."""
        with self._lock:
            return [
                {
                    **entry["key"],
                    "created": entry["created"],
                    "perm_bytes": int(entry["permutation"].nbytes),
                }
                for entry in self._entries.values()
            ]

    @staticmethod
    def disk_entries(disk_dir: Union[str, Path]) -> List[dict]:
        """Inspection snapshot of a disk tier directory (no cache needed)."""
        out: List[dict] = []
        for path in sorted(Path(disk_dir).glob("*.npz")):
            entry = PermutationCache._read_npz(path)
            if entry is None:
                out.append({"digest": path.stem, "error": "unreadable"})
                continue
            out.append(
                {
                    **entry["key"],
                    "created": entry.get("created"),
                    "perm_bytes": int(entry["permutation"].nbytes),
                    "file": path.name,
                }
            )
        return out

    def stats_dict(self) -> dict:
        """Counters + occupancy as one JSON-serializable dict."""
        with self._lock:
            size = len(self._entries)
        return {"size": size, "capacity": self.capacity, **self.stats.to_dict()}
