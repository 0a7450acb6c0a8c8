"""Unit tests for the graph-view helpers (BFS, components, fronts)."""

import sys

import numpy as np
import pytest

import repro
from repro.sparse import graph
from repro.sparse.csr import CSRMatrix
from repro.sparse.graph import (
    bfs_levels,
    bfs_order,
    level_structure,
    connected_components,
    component_of,
    front_statistics,
    eccentricity_lower_bound,
)
from repro.matrices import generators as g

from tests.test_equivalence_matrix import MATRICES, matrix


class TestBfsLevels:
    def test_path_levels(self, path5):
        assert list(bfs_levels(path5, 0)) == [0, 1, 2, 3, 4]
        assert list(bfs_levels(path5, 2)) == [2, 1, 0, 1, 2]

    def test_star_levels(self, star):
        levels = bfs_levels(star, 0)
        assert levels[0] == 0
        assert all(levels[1:] == 1)

    def test_unreachable_marked(self, two_triangles):
        levels = bfs_levels(two_triangles, 0)
        assert all(levels[3:] == -1)
        assert all(levels[:3] >= 0)

    def test_matches_networkx(self, small_mesh):
        nx = pytest.importorskip("networkx")
        gx = nx.Graph()
        gx.add_nodes_from(range(small_mesh.n))
        for i in range(small_mesh.n):
            for j in small_mesh.row(i):
                gx.add_edge(i, int(j))
        dist = nx.single_source_shortest_path_length(gx, 0)
        ours = bfs_levels(small_mesh, 0)
        for node, d in dist.items():
            assert ours[node] == d

    def test_start_out_of_range(self, path5):
        with pytest.raises(ValueError):
            bfs_levels(path5, 99)


class TestBfsOrder:
    def test_starts_at_start(self, small_grid):
        order = bfs_order(small_grid, 5)
        assert order[0] == 5

    def test_visits_component_exactly_once(self, two_triangles):
        order = bfs_order(two_triangles, 0)
        assert sorted(order) == [0, 1, 2]

    def test_levels_nondecreasing_along_order(self, small_mesh):
        levels = bfs_levels(small_mesh, 0)
        order = bfs_order(small_mesh, 0)
        seq = levels[order]
        assert np.all(np.diff(seq) >= 0)


class TestLevelStructure:
    def test_partition(self, small_grid):
        ls = level_structure(small_grid, 0)
        allnodes = np.concatenate(ls)
        assert sorted(allnodes) == list(range(small_grid.n))

    def test_level_sets_match_levels(self, path5):
        ls = level_structure(path5, 0)
        assert [list(l) for l in ls] == [[0], [1], [2], [3], [4]]


class TestComponents:
    def test_connected(self, small_grid):
        count, labels = connected_components(small_grid)
        assert count == 1
        assert all(labels == 0)

    def test_two_components(self, two_triangles):
        count, labels = connected_components(two_triangles)
        assert count == 2
        assert list(labels) == [0, 0, 0, 1, 1, 1]

    def test_isolated_nodes(self):
        m = CSRMatrix.from_edges(4, [(0, 1)])
        count, labels = connected_components(m)
        assert count == 3

    def test_component_of(self, two_triangles):
        assert list(component_of(two_triangles, 4)) == [3, 4, 5]


def _outcomes():
    """Permutation bytes, starts and sizes of every equivalence-battery
    matrix through the pipeline, untransformed and power-law."""
    out = {}
    for name in MATRICES:
        for transform in (None, "powerlaw"):
            res = repro.reorder(matrix(name), transform=transform)
            out[name, transform] = (
                res.permutation.tobytes(), res.start_nodes,
                res.component_sizes,
            )
    return out


def _no_private(*args, **kwargs):
    raise AssertionError("the private labeling must not run")


class TestLabelingGuard:
    """The pipeline labels validate's int32 view with SciPy's private
    undirected labeling, checked once per process.  The check reads the
    installed SciPy, so it runs on every CI leg."""

    def test_installed_scipy_agrees(self):
        assert graph._private_agrees()

    def test_fixture_ranks_interleaved_components(self):
        count, labels = graph.symmetric_components(*graph._fixture())
        assert count == 3
        assert labels.tolist() == [0, 1, 2, 0, 1, 0, 1]

    def test_pipeline_takes_the_private_labeling(self, monkeypatch):
        calls = []
        real = graph._private_labels
        monkeypatch.setattr(
            graph, "_private_labels",
            lambda *view: calls.append(1) or real(*view),
        )
        repro.reorder(matrix("two-triangles"))
        assert calls == [1]


class TestLabelingFallback:
    """With the check failed, the public call labels the view, and the
    equivalence battery's matrices come out byte-identical."""

    @pytest.fixture(scope="class")
    def guarded(self):
        assert graph._private_agrees()
        return _outcomes()

    def test_failed_fixture_check(self, guarded, monkeypatch):
        monkeypatch.setattr(graph, "_private_agrees", lambda: False)
        monkeypatch.setattr(graph, "_private_labels", _no_private)
        assert _outcomes() == guarded

    def test_private_name_missing(self, guarded, monkeypatch):
        graph._private_agrees.cache_clear()
        try:
            with monkeypatch.context() as mp:
                mp.setitem(
                    sys.modules, "scipy.sparse.csgraph._traversal", None
                )
                assert not graph._private_agrees()
                assert _outcomes() == guarded
        finally:
            graph._private_agrees.cache_clear()


class TestFrontStatistics:
    def test_path_front(self, path5):
        fs = front_statistics(path5, 0)
        assert fs.depth == 4
        assert fs.max_front == 1
        assert fs.avg_front == pytest.approx(1.0)
        assert fs.reached == 5

    def test_star_front(self, star):
        fs = front_statistics(star, 0)
        assert fs.depth == 1
        assert fs.max_front == 5
        assert fs.reached == 6

    def test_reached_counts_component_only(self, two_triangles):
        fs = front_statistics(two_triangles, 0)
        assert fs.reached == 3

    def test_grid_front_scales_with_side(self):
        fs = front_statistics(g.grid2d(16, 16), 0)
        # corner BFS front is the anti-diagonal, max width = side length
        assert fs.max_front == 16


class TestEccentricity:
    def test_path_end_is_eccentric(self, path5):
        assert eccentricity_lower_bound(path5, 0) == 4
        assert eccentricity_lower_bound(path5, 2) == 2
