"""The compiled kernel: SciPy's RCM forced onto the pipeline's starts.

``compiled`` must return :func:`rcm_serial`'s bytes for every start.  For
minimum-valence starts it must get them from SciPy itself: the property
test below checks SciPy's undocumented seeding, degree and tie-break
behaviour on whatever SciPy is installed, so it stays unmarked and runs on
every CI leg.  A start SciPy cannot seed from, a failed fixture check and
an int32 overflow take the vectorized fallback, byte-identically.
"""

from __future__ import annotations

from typing import List

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csgraph

import repro
from repro.core import compiled
from repro.core.api import _pick_starts
from repro.core.compiled import rcm_compiled
from repro.core.serial import rcm_serial
from repro.matrices import generators as g
from repro.sparse.csr import CSRMatrix
from repro.sparse.graph import connected_components

from tests.conftest import block_union


@st.composite
def multi_component(draw) -> CSRMatrix:
    """A symmetric pattern of 1–4 random components (isolated nodes
    included), diagonal entries on random rows and node ids interleaved
    across components; small valences make ties common."""
    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 9))
        node = st.integers(0, n - 1)
        pairs = draw(st.sets(st.tuples(node, node), max_size=2 * n))
        edges = {(a, b) for a, b in pairs if a != b}
        edges |= {(b, a) for a, b in edges}
        loops = draw(st.sets(node, max_size=n))
        edges |= {(i, i) for i in loops}
        rows: List[List[int]] = [
            sorted(b for a, b in edges if a == i) for i in range(n)
        ]
        blocks.append(CSRMatrix(
            indptr=np.cumsum([0] + [len(r) for r in rows]),
            indices=np.array([c for r in rows for c in r], dtype=np.int64),
        ))
    mat = block_union(blocks)
    relabel = np.array(draw(st.permutations(range(mat.n))), dtype=np.int64)
    return mat.permute_symmetric(relabel)


def starts_of(mat: CSRMatrix, start: str):
    n_comps, labels = connected_components(mat)
    sizes = np.bincount(labels, minlength=n_comps).tolist()
    return _pick_starts(mat, labels, n_comps, start), sizes


class TestByteIdentity:
    @given(mat=multi_component(), start=st.sampled_from(
        ["min-valence", "peripheral"]
    ))
    @settings(max_examples=300, deadline=None)
    def test_blocks_match_serial(self, mat, start):
        starts, sizes = starts_of(mat, start)
        blocks = rcm_compiled(mat, starts, sizes=sizes)
        assert len(blocks) == len(starts)
        for block, s in zip(blocks, starts):
            assert block.dtype == np.int64
            assert block.tobytes() == rcm_serial(mat, s).tobytes()
        if start == "min-valence":
            # SciPy itself seeded every component at our start
            forced = compiled._scipy_blocks(mat, starts, sizes)
            assert forced is not None
            assert [b.tobytes() for b in forced] == [
                b.tobytes() for b in blocks
            ]

    def test_pipeline_matches_serial(self):
        mat = block_union([g.grid2d(7, 5), g.delaunay_mesh(60, seed=2),
                           g.grid2d(1, 1), g.road_network(80, seed=4)])
        got = repro.reorder(mat, method="compiled")
        ref = repro.reorder(mat, method="serial")
        assert got.method == "compiled"
        assert got.permutation.tobytes() == ref.permutation.tobytes()

    def test_empty_matrix(self):
        mat = CSRMatrix(indptr=np.zeros(1, dtype=np.int64),
                        indices=np.zeros(0, dtype=np.int64))
        assert rcm_compiled(mat, [], sizes=[]) == []


class TestFixtureCheck:
    def test_installed_scipy_agrees(self):
        assert compiled._scipy_agrees()

    def test_fixture_needs_the_forcing(self):
        # unforced, SciPy seeds component 0 away from its start and orders
        # component 1's valence-tied children by its diagonal-counting
        # degree
        from scipy.sparse.csgraph import reverse_cuthill_mckee

        mat, starts, sizes = compiled._fixture()
        assert starts_of(mat, "min-valence") == (starts, sizes)
        unforced = reverse_cuthill_mckee(mat.to_scipy(), symmetric_mode=True)
        for s, size in zip(starts, sizes):
            ref = rcm_serial(mat, s)
            assert not any(
                np.array_equal(unforced[i:i + size], ref)
                for i in range(mat.n - size + 1)
            )


def _no_scipy(*args, **kwargs):
    raise AssertionError("the SciPy path must not run")


class TestFallback:
    """Each fallback returns ``rcm_serial``'s bytes through the vectorized
    kernel."""

    @pytest.fixture()
    def mesh(self):
        return block_union([g.delaunay_mesh(120, seed=5), g.grid2d(6, 9)])

    def test_failed_fixture_check(self, mesh, monkeypatch):
        monkeypatch.setattr(compiled, "_scipy_agrees", lambda: False)
        monkeypatch.setattr(compiled, "_scipy_blocks", _no_scipy)
        got = repro.reorder(mesh, method="compiled")
        ref = repro.reorder(mesh, method="serial")
        assert got.permutation.tobytes() == ref.permutation.tobytes()

    def test_hub_start_skips_the_call(self, monkeypatch):
        # the hub's neighbours sit far below its valence: no SciPy call
        mat = g.hub_matrix(300, n_hubs=2, hub_degree_frac=0.6, seed=8)
        hub = int(np.argmax(np.diff(mat.indptr)))
        assert compiled._scipy_agrees()
        monkeypatch.setattr(csgraph, "reverse_cuthill_mckee", _no_scipy)
        assert compiled._scipy_blocks(mat, [hub], [mat.n]) is None
        for kw in (dict(start=hub), dict(transform="powerlaw")):
            got = repro.reorder(mat, method="compiled", **kw)
            ref = repro.reorder(mat, method="serial", **kw)
            assert got.permutation.tobytes() == ref.permutation.tobytes()

    def test_start_scipy_seeds_elsewhere(self, monkeypatch):
        # a spider: centre 0 (valence 4), legs 1-4 (valence 2), feet 5-8
        # (valence 1).  No neighbour of 0 is 3 below it, so SciPy runs,
        # but a foot's degree is lower and SciPy seeds there
        legs = [(0, i) for i in range(1, 5)]
        mat = CSRMatrix.from_edges(9, legs + [(i, i + 4) for i in range(1, 5)])
        calls = []
        real = csgraph.reverse_cuthill_mckee
        monkeypatch.setattr(
            csgraph, "reverse_cuthill_mckee",
            lambda *a, **kw: calls.append(1) or real(*a, **kw),
        )
        assert compiled._scipy_blocks(mat, [0], [9]) is None
        assert calls == [1]
        got = repro.reorder(mat, method="compiled", start=0)
        ref = repro.reorder(mat, method="serial", start=0)
        assert got.permutation.tobytes() == ref.permutation.tobytes()

    def test_int32_overflow(self, mesh, monkeypatch):
        monkeypatch.setattr(compiled, "_INT32_MAX", mesh.nnz)
        starts, sizes = starts_of(mesh, "min-valence")
        assert compiled._scipy_blocks(mesh, starts, sizes) is None
        blocks = rcm_compiled(mesh, starts, sizes=sizes)
        for block, s in zip(blocks, starts):
            assert block.tobytes() == rcm_serial(mesh, s).tobytes()
