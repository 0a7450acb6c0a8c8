"""Unit tests for the synthetic matrix generators."""

import numpy as np
import pytest

from repro.sparse.validate import check_batch, is_structurally_symmetric
from repro.sparse.graph import connected_components, front_statistics
from repro.matrices import generators as g
from repro.matrices.kkt import kkt_system, nlpkkt_like
from repro.matrices.suite import TESTSET, get_matrix, matrix_names


def check_clean(mat):
    """All generators promise: symmetric pattern, sorted rows, no self loops,
    no duplicates."""
    assert is_structurally_symmetric(mat)
    assert mat.has_sorted_indices()
    check_batch([mat])  # raises on duplicates
    row_of = np.repeat(np.arange(mat.n), np.diff(mat.indptr))
    assert not np.any(row_of == mat.indices), "self loop found"


class TestGrid2d:
    def test_clean(self):
        check_clean(g.grid2d(7, 5))

    def test_node_count(self):
        assert g.grid2d(7, 5).n == 35

    def test_5pt_edge_count(self):
        m = g.grid2d(4, 3)
        # horizontal: 3*3, vertical: 4*2 -> 17 edges, 34 stored entries
        assert m.nnz == 2 * (3 * 3 + 4 * 2)

    def test_9pt_has_diagonals(self):
        m5 = g.grid2d(6, 6, stencil=5)
        m9 = g.grid2d(6, 6, stencil=9)
        assert m9.nnz > m5.nnz
        assert int(m9.degrees().max()) == 8

    def test_interior_degree_is_four(self):
        m = g.grid2d(5, 5)
        assert int(m.degrees().max()) == 4

    def test_invalid_stencil(self):
        with pytest.raises(ValueError):
            g.grid2d(3, 3, stencil=7)


class TestGrid3d:
    def test_clean(self):
        check_clean(g.grid3d(4, 4, 4))

    def test_7pt_interior_degree(self):
        m = g.grid3d(5, 5, 5, stencil=7)
        assert int(m.degrees().max()) == 6

    def test_27pt_interior_degree(self):
        m = g.grid3d(5, 5, 5, stencil=27)
        assert int(m.degrees().max()) == 26

    def test_connected(self):
        count, _ = connected_components(g.grid3d(4, 4, 4))
        assert count == 1


class TestBanded:
    def test_clean(self):
        check_clean(g.banded(30, 3))

    def test_bandwidth_matches(self):
        from repro.sparse.bandwidth import bandwidth

        assert bandwidth(g.banded(30, 4)) == 4

    def test_density_thins(self):
        full = g.banded(100, 5, density=1.0)
        thin = g.banded(100, 5, density=0.4, seed=1)
        assert thin.nnz < full.nnz

    def test_invalid_bandwidth(self):
        with pytest.raises(ValueError):
            g.banded(10, 0)


class TestGeometric:
    def test_clean(self):
        check_clean(g.random_geometric(200, k=4, seed=1))

    def test_deterministic(self):
        a = g.random_geometric(150, k=4, seed=9)
        b = g.random_geometric(150, k=4, seed=9)
        assert np.array_equal(a.indices, b.indices)

    def test_min_degree_k(self):
        m = g.random_geometric(200, k=4, seed=2)
        assert int(m.degrees().min()) >= 4  # symmetrized kNN

    def test_aspect_narrows_front(self):
        wide = g.random_geometric(600, k=5, aspect=1.0, seed=3)
        skinny = g.random_geometric(600, k=5, aspect=30.0, seed=3)
        fw = front_statistics(wide, 0)
        fs = front_statistics(skinny, 0)
        assert fs.depth > fw.depth


class TestDelaunay:
    def test_clean(self):
        check_clean(g.delaunay_mesh(250, seed=4))

    def test_connected_and_planar_degree(self):
        m = g.delaunay_mesh(250, seed=4)
        count, _ = connected_components(m)
        assert count == 1
        # planar triangulation: average degree < 6
        assert m.nnz / m.n < 6.0


class TestRmat:
    def test_clean(self):
        check_clean(g.rmat(8, edge_factor=6, seed=5))

    def test_skewed_valences(self):
        m = g.rmat(10, edge_factor=8, seed=6)
        degs = m.degrees()
        assert degs.max() > 8 * np.median(degs[degs > 0])


class TestPowerlaw:
    def test_clean(self):
        check_clean(g.powerlaw_cluster(300, m=4, seed=7))

    def test_hub_emerges(self):
        m = g.powerlaw_cluster(500, m=5, seed=8)
        assert int(m.degrees().max()) > 30

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            g.powerlaw_cluster(5, m=5)


class TestHubMatrix:
    def test_clean(self):
        check_clean(g.hub_matrix(300, n_hubs=2, seed=9))

    def test_hub_degree_dominates(self):
        m = g.hub_matrix(400, n_hubs=2, hub_degree_frac=0.8, seed=10)
        assert int(m.degrees().max()) >= 0.7 * 400


class TestBlockDense:
    def test_clean(self):
        check_clean(g.block_dense(4, 10, seed=11))

    def test_blocks_are_dense(self):
        m = g.block_dense(3, 8, seed=12)
        # first block fully connected: degree >= block_size - 1
        assert int(m.degrees()[:8].min()) >= 7

    def test_chain_connected(self):
        count, _ = connected_components(g.block_dense(5, 6, seed=13))
        assert count == 1


class TestRoadAndBundle:
    def test_road_clean_and_deep(self):
        m = g.road_network(800, seed=14)
        check_clean(m)
        fs = front_statistics(m, 0)
        assert fs.depth > 20  # long skinny domain

    def test_bundle_clean(self):
        check_clean(g.bundle_adjustment(50, 400, seed=15))

    def test_bundle_bipartite_plus_band(self):
        m = g.bundle_adjustment(50, 400, seed=16)
        # points (ids >= 50) connect only to cameras
        for p in range(50, 60):
            assert all(m.row(p) < 50)


class TestCaterpillar:
    def test_structure(self):
        m = g.caterpillar(10, 3)
        assert m.n == 40
        # legs have degree 1
        assert int(m.degrees()[10:].max()) == 1

    def test_clean(self):
        check_clean(g.caterpillar(6, 2))


class TestKKT:
    def test_clean(self):
        check_clean(nlpkkt_like(5, seed=17))

    def test_block_structure(self):
        h = g.grid2d(6, 6)
        m = kkt_system(h, 10, seed=18)
        assert m.n == 36 + 10
        # zero block: constraint rows never couple to each other
        for r in range(36, 46):
            assert all(m.row(r) < 36)

    def test_h_block_preserved(self):
        h = g.grid2d(6, 6)
        m = kkt_system(h, 10, seed=19)
        # every H edge survives in the KKT pattern
        for i in range(36):
            hi = set(int(x) for x in h.row(i))
            ki = set(int(x) for x in m.row(i) if x < 36)
            assert hi <= ki


class TestSuite:
    def test_all_names_unique(self):
        names = matrix_names()
        assert len(names) == len(set(names)) == 26

    def test_get_matrix_caches(self):
        a = get_matrix("ecology1")
        b = get_matrix("ecology1")
        assert a is b

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_matrix("not-a-matrix")

    @pytest.mark.parametrize("entry", TESTSET, ids=lambda e: e.name)
    def test_every_entry_clean(self, entry):
        check_clean(get_matrix(entry.name))

    def test_ordering_is_nnz_ascending_in_paper(self):
        paper_nnz = [e.paper.nnz for e in TESTSET]
        assert paper_nnz == sorted(paper_nnz)


class TestSuiteSparseBridge:
    def test_every_table1_matrix_has_a_group(self):
        from repro.matrices.suite import matrix_names
        from repro.matrices.suitesparse import SUITESPARSE_GROUPS

        assert set(SUITESPARSE_GROUPS) == set(matrix_names())

    def test_url_shape(self):
        from repro.matrices.suitesparse import suitesparse_url

        url = suitesparse_url("gupta3")
        assert url.endswith("/Gupta/gupta3.tar.gz")
        assert url.startswith("https://")

    def test_unknown_name(self):
        from repro.matrices.suitesparse import suitesparse_url

        with pytest.raises(KeyError):
            suitesparse_url("not-a-matrix")

    def test_load_mtx(self, tmp_path):
        from repro.matrices.suitesparse import load_suitesparse
        from repro.sparse.io import write_matrix_market

        mat = g.grid2d(5, 5)
        p = tmp_path / "m.mtx"
        write_matrix_market(mat, p)
        loaded = load_suitesparse(p)
        assert loaded.nnz == mat.nnz

    def test_load_symmetrizes(self, tmp_path):
        from repro.matrices.suitesparse import load_suitesparse
        from repro.sparse.io import write_matrix_market
        from repro.sparse.csr import coo_to_csr
        from repro.sparse.validate import is_structurally_symmetric

        asym = coo_to_csr(3, [0, 1], [1, 2])
        p = tmp_path / "a.mtx"
        write_matrix_market(asym, p)
        loaded = load_suitesparse(p)
        assert is_structurally_symmetric(loaded)
