"""Property-based tests (hypothesis) for content-hash cache keying.

The cache is only sound if the key captures *exactly* what determines the
permutation.  Three families of properties pin that down:

* **data-blindness** — matrices with identical patterns but different
  stored values share a key (a cached permutation serves both);
* **sensitivity** — any single-edge perturbation of the pattern, or a
  change of ``start`` / ``algorithm`` / ``method`` / ``symmetrize``,
  produces a different key (no false sharing);
* **staleness-freedom** — under arbitrary request sequences against a
  tiny-capacity LRU, a (possibly evicted and recomputed) cached answer is
  always byte-identical to a fresh serial computation.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.backends import AUTO_METHOD
from repro.facade import reorder
from repro.service import PermutationCache, cache_key, pattern_digest
from repro.sparse.csr import CSRMatrix, coo_to_csr

SETTINGS = dict(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _build(n, edges, data_value=None):
    """Symmetric CSR from an undirected edge set (optionally with values)."""
    rows, cols = [], []
    for a, b in sorted(edges):
        rows += [a, b]
        cols += [b, a]
    mat = coo_to_csr(
        n, np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    )
    if data_value is not None:
        return CSRMatrix(
            mat.indptr, mat.indices, data=np.full(mat.nnz, data_value), n=n
        )
    return mat


@st.composite
def edge_graphs(draw, max_n=20):
    """(n, frozenset of undirected edges) with at least one edge."""
    n = draw(st.integers(min_value=3, max_value=max_n))
    pair = (
        st.tuples(
            st.integers(min_value=0, max_value=n - 1),
            st.integers(min_value=0, max_value=n - 1),
        )
        .filter(lambda t: t[0] != t[1])
        .map(lambda t: (min(t), max(t)))
    )
    edges = draw(st.sets(pair, min_size=1, max_size=3 * n))
    return n, frozenset(edges)


class TestDataBlindness:
    @given(
        g=edge_graphs(),
        v1=st.floats(allow_nan=False, allow_infinity=False, width=32),
        v2=st.floats(allow_nan=False, allow_infinity=False, width=32),
    )
    @settings(**SETTINGS)
    def test_same_pattern_different_data_same_key(self, g, v1, v2):
        n, edges = g
        a = _build(n, edges, data_value=v1)
        b = _build(n, edges, data_value=v2)
        assert pattern_digest(a) == pattern_digest(b)
        assert cache_key(a).digest == cache_key(b).digest

    @given(g=edge_graphs(max_n=14))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_pattern_twin_is_served_from_cache(self, g):
        n, edges = g
        pattern_only = _build(n, edges)
        with_values = _build(n, edges, data_value=3.25)
        cache = PermutationCache(capacity=4)
        cold = reorder(pattern_only, method="serial", cache=cache)
        warm = reorder(with_values, method="serial", cache=cache)
        assert warm.permutation.tobytes() == cold.permutation.tobytes()
        assert cache.stats.hits == 1  # the twin hit, not recomputed


class TestSensitivity:
    @given(g=edge_graphs(), data=st.data())
    @settings(**SETTINGS)
    def test_single_edge_toggle_changes_key(self, g, data):
        n, edges = g
        i = data.draw(st.integers(min_value=0, max_value=n - 2), label="i")
        j = data.draw(st.integers(min_value=i + 1, max_value=n - 1), label="j")
        toggled = set(edges) ^ {(i, j)}
        assume(toggled)  # removing the only edge leaves nothing to compare
        a = _build(n, edges)
        b = _build(n, toggled)
        assert pattern_digest(a) != pattern_digest(b)
        assert cache_key(a).digest != cache_key(b).digest

    @given(g=edge_graphs(), data=st.data())
    @settings(**SETTINGS)
    def test_start_change_changes_key(self, g, data):
        n, edges = g
        mat = _build(n, edges)
        s1 = data.draw(st.integers(min_value=0, max_value=n - 1), label="s1")
        s2 = data.draw(st.integers(min_value=0, max_value=n - 1), label="s2")
        assume(s1 != s2)
        assert cache_key(mat, start=s1).digest != cache_key(mat, start=s2).digest
        assert (
            cache_key(mat, start=s1).digest
            != cache_key(mat, start="min-valence").digest
        )

    @given(g=edge_graphs())
    @settings(**SETTINGS)
    def test_option_changes_change_key(self, g):
        n, edges = g
        mat = _build(n, edges)
        base = cache_key(mat, method="serial")
        assert cache_key(mat, method="vectorized").digest != base.digest
        assert cache_key(mat, algorithm="sloan").digest != base.digest
        assert (
            cache_key(mat, method="serial", symmetrize=True).digest
            != base.digest
        )

    @given(g=edge_graphs())
    @settings(**SETTINGS)
    def test_auto_shares_key_with_its_resolution(self, g):
        n, edges = g
        mat = _build(n, edges)
        assert (
            cache_key(mat, method="auto").digest
            == cache_key(mat, method=AUTO_METHOD).digest
        )


# fixed pool for the staleness property: distinct patterns, precomputed golden
_POOL = [
    _build(
        n,
        {
            (a % n, b % n)
            for a, b in zip(range(0, 3 * n, 2), range(1, 3 * n, 3))
            if a % n != b % n
        }
        | {(i, (i + 1) % n) for i in range(n - 1)},
    )
    for n in (7, 9, 11, 13, 16, 19)
]
_GOLDEN = [
    reorder(m, method="serial").permutation.tobytes() for m in _POOL
]


class TestStalenessFreedom:
    @given(
        seq=st.lists(
            st.integers(min_value=0, max_value=len(_POOL) - 1),
            min_size=1,
            max_size=15,
        )
    )
    @settings(**SETTINGS)
    def test_eviction_never_returns_stale(self, seq):
        cache = PermutationCache(capacity=2)
        for idx in seq:
            res = reorder(_POOL[idx], method="serial", cache=cache)
            assert res.permutation.tobytes() == _GOLDEN[idx]
        assert len(cache) <= 2

    @given(
        seq=st.lists(
            st.integers(min_value=0, max_value=len(_POOL) - 1),
            min_size=1,
            max_size=15,
        )
    )
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_eviction_never_stale_with_disk_tier(self, seq, tmp_path_factory):
        disk = tmp_path_factory.mktemp("tier")
        cache = PermutationCache(capacity=1, disk_dir=disk)
        for idx in seq:
            res = reorder(_POOL[idx], method="serial", cache=cache)
            assert res.permutation.tobytes() == _GOLDEN[idx]
