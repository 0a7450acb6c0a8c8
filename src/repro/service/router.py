"""The sharded disk-tier layout: a consistent-hash ring over cache tiers.

With ``ReorderService(shards=N)`` the permutation cache is split into N
tiers; this module holds the pieces that decide where an entry lives:

* :class:`HashRing` — consistent hashing of the content-hash ``CacheKey``
  digest onto shard slots.  Each shard owns :data:`REPLICAS` pseudo-random
  points on a 64-bit ring; a key routes to the first point at or after
  its own position (wrapping).  Adding or removing one shard therefore
  remaps only ~1/N of the key population, and every remapped key moves
  *to the new shard* (on add) or *off the dead shard* (on remove) — no
  key ever shuffles between two surviving shards, which is what lets
  per-shard disk tiers survive resharding.
* :class:`ShardedCache` — N :class:`~repro.service.cache.PermutationCache`
  tiers, one per slot, each with a private disk directory
  ``<disk_dir>/shard-<i>`` and read-only fallback probes into its
  siblings' directories (so a key remapped by a resharding still
  warm-hits from disk and is promoted into its new owner's tier).  It
  duck-types ``get``/``put``, so the service and
  :func:`repro.reorder(cache=..., shards=N) <repro.facade.reorder>` use it
  exactly like a plain cache.

See ``docs/service.md`` ("Sharded deployment").
"""

from __future__ import annotations

import bisect
import hashlib
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.core.api import ReorderResult
from repro.service.cache import PermutationCache
from repro.service.keys import CacheKey

__all__ = ["HashRing", "ShardedCache"]

#: virtual nodes per shard — enough that every slot owns a near-equal
#: share of the ring for small N
REPLICAS = 128


class HashRing:
    """Consistent-hash ring mapping hex digests onto integer shard ids.

    Each shard id owns :data:`REPLICAS` points at
    ``sha256("<id>:<r>")[:8]`` on a 64-bit ring; :meth:`route` walks a
    key (the leading 64 bits of its hex digest) clockwise to the next
    point.  Membership changes move only the arcs adjacent to the added
    or removed shard's points: ~1/N of keys on a change, each moved key
    involving the changed shard.
    """

    def __init__(self, shards: Iterable[int] = ()) -> None:
        # parallel sorted arrays: _points for bisect, _owners for lookup
        self._points: List[int] = []
        self._owners: List[int] = []
        self._shards: set = set()
        for sid in shards:
            self.add(sid)

    @staticmethod
    def _point(sid: int, replica: int) -> int:
        digest = hashlib.sha256(f"{sid}:{replica}".encode()).digest()
        return int.from_bytes(digest[:8], "big")

    def add(self, sid: int) -> None:
        """Insert a shard's virtual nodes (idempotent add is an error)."""
        sid = int(sid)
        if sid in self._shards:
            raise ValueError(f"shard {sid} already on the ring")
        self._shards.add(sid)
        for r in range(REPLICAS):
            point = self._point(sid, r)
            i = bisect.bisect_left(self._points, point)
            # ties (astronomically unlikely) resolve to the lower sid so
            # routing stays deterministic regardless of insertion order
            while (
                i < len(self._points)
                and self._points[i] == point
                and self._owners[i] < sid
            ):  # pragma: no cover - needs a sha256 point collision
                i += 1
            self._points.insert(i, point)
            self._owners.insert(i, sid)

    def remove(self, sid: int) -> None:
        """Drop a shard's virtual nodes; its arcs fall to the successors."""
        sid = int(sid)
        if sid not in self._shards:
            raise ValueError(f"shard {sid} not on the ring")
        self._shards.discard(sid)
        keep = [
            (p, o)
            for p, o in zip(self._points, self._owners)
            if o != sid
        ]
        self._points = [p for p, _ in keep]
        self._owners = [o for _, o in keep]

    def route(self, digest: str) -> int:
        """The shard id owning ``digest`` (a hex string, >= 16 chars)."""
        if not self._points:
            raise ValueError("empty hash ring")
        point = int(digest[:16], 16)
        i = bisect.bisect_right(self._points, point)
        if i == len(self._points):
            i = 0  # wrap: keys past the last point belong to the first
        return self._owners[i]

    @property
    def shards(self) -> Tuple[int, ...]:
        """Current members, ascending."""
        return tuple(sorted(self._shards))

    def __len__(self) -> int:
        return len(self._shards)


def shard_dir(root: Union[str, Path], index: int) -> Path:
    """The private disk-tier directory of shard ``index`` under ``root``."""
    return Path(root) / f"shard-{index}"


def discover_shard_dirs(root: Union[str, Path]) -> List[Tuple[int, Path]]:
    """Existing ``shard-<i>`` tiers under ``root``, ascending by index.

    What the shard-aware ``repro cache`` CLI iterates; a root without any
    ``shard-*`` subdirectory is an unsharded (single-tier) layout and
    returns ``[]``.
    """
    out: List[Tuple[int, Path]] = []
    root = Path(root)
    if not root.is_dir():
        return out
    for path in root.glob("shard-*"):
        if not path.is_dir():
            continue
        try:
            index = int(path.name.split("-", 1)[1])
        except ValueError:
            continue
        out.append((index, path))
    out.sort()
    return out


class ShardedCache:
    """N per-shard :class:`PermutationCache` tiers behind one hash ring.

    Shard ``i`` persists under ``<disk_dir>/shard-<i>`` and probes its
    siblings' directories read-only on a disk miss (promotion writes land
    only in its own directory) — so resharding never loses warm disk
    entries and never lets one shard write another's tier.  With
    ``disk_dir=None`` the tiers are memory-only.

    Duck-types the single-cache protocol (``get``/``put``/``invalidate``/
    ``clear``/``stats_dict``/``__len__``), routing each key to its owning
    tier.
    """

    def __init__(
        self,
        disk_dir: Optional[Union[str, Path]] = None,
        n_shards: int = 1,
        *,
        capacity: int = 128,
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.n_shards = int(n_shards)
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        self.ring = HashRing(range(self.n_shards))
        dirs = (
            [shard_dir(self.disk_dir, i) for i in range(self.n_shards)]
            if self.disk_dir is not None
            else [None] * self.n_shards
        )
        self.caches: List[PermutationCache] = [
            PermutationCache(
                capacity,
                disk_dir=dirs[i],
                fallback_dirs=(
                    [d for j, d in enumerate(dirs) if j != i]
                    if self.disk_dir is not None
                    else ()
                ),
            )
            for i in range(self.n_shards)
        ]

    def shard_index(self, key_or_digest: Union[CacheKey, str]) -> int:
        """The owning shard slot of a key."""
        digest = (
            key_or_digest.digest
            if isinstance(key_or_digest, CacheKey)
            else str(key_or_digest)
        )
        return self.ring.route(digest)

    def get(self, key: CacheKey) -> Optional[ReorderResult]:
        """Look up the key on its owning shard's cache."""
        return self.caches[self.shard_index(key)].get(key)

    def put(self, key: CacheKey, result: ReorderResult) -> None:
        """Store the result on the key's owning shard's cache."""
        self.caches[self.shard_index(key)].put(key, result)

    def invalidate(self, key_or_digest: Union[CacheKey, str]) -> int:
        """Drop a key from *every* shard tier; total tiers that held it.

        Swept across all shards (not just the current owner) because a
        resharded key may have stale copies under previous owners' disk
        directories.
        """
        return sum(c.invalidate(key_or_digest) for c in self.caches)

    def clear(self, *, purge_disk: bool = False) -> None:
        """Empty every shard's memory tier (and disk with ``purge_disk``)."""
        for c in self.caches:
            c.clear(purge_disk=purge_disk)

    def stats_dict(self) -> dict:
        """Aggregate counters plus the per-shard breakdown."""
        per_shard = [c.stats_dict() for c in self.caches]
        total: Dict[str, int] = {}
        for snap in per_shard:
            for k, v in snap.items():
                total[k] = total.get(k, 0) + int(v)
        total["n_shards"] = self.n_shards
        total["shards"] = per_shard
        return total

    def __len__(self) -> int:
        return sum(len(c) for c in self.caches)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self.caches[self.shard_index(key)]
