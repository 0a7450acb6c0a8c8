"""The unified ``repro.reorder()`` facade, shims and central validation."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.backends import AUTO_METHOD
from repro.core.batches import BatchConfig
from repro.facade import ALGORITHMS, reorder
from repro.matrices import generators as g
from repro.sparse.csr import coo_to_csr
from repro.sparse.validate import assert_permutation


class TestFacade:
    def test_exported_at_top_level(self):
        assert repro.reorder is reorder
        assert set(ALGORITHMS) == {
            "rcm", "sloan", "gps", "king", "minimum-degree", "spectral",
        }

    def test_default_is_rcm_auto(self, medium_grid):
        res = reorder(medium_grid)
        assert res.algorithm == "rcm"
        assert res.method == AUTO_METHOD == "compiled"
        assert_permutation(res.permutation, medium_grid.n)

    # method equivalence is covered by the golden battery in
    # test_equivalence_matrix.py

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_every_algorithm_returns_full_result(self, algorithm, small_grid):
        res = reorder(small_grid, algorithm=algorithm)
        assert res.algorithm == algorithm
        assert_permutation(res.permutation, small_grid.n)
        assert res.initial_bandwidth >= 0
        assert res.reordered_bandwidth >= 0
        assert "ordering" in res.phase_ns
        assert res.to_dict()["algorithm"] == algorithm

    def test_symmetrized_asymmetric_input(self):
        # upper-triangle-only pattern: symmetrize=True makes it reorderable
        rows = np.array([0, 0, 1, 2, 3])
        cols = np.array([1, 2, 3, 4, 4])
        mat = coo_to_csr(5, rows, cols)
        ref = reorder(mat, method="serial", symmetrize=True)
        got = reorder(mat, method="vectorized", symmetrize=True)
        assert np.array_equal(got.permutation, ref.permutation)

    def test_kwargs_are_keyword_only(self, small_grid):
        with pytest.raises(TypeError):
            reorder(small_grid, "rcm")  # noqa: the whole point


class TestValidation:
    def test_bad_algorithm(self, small_grid):
        with pytest.raises(ValueError, match="algorithm must be one of"):
            reorder(small_grid, algorithm="voodoo")

    def test_bad_method(self, small_grid):
        with pytest.raises(ValueError, match="method must be one of"):
            reorder(small_grid, method="quantum")

    def test_bad_method_for_direct_algorithm(self, small_grid):
        with pytest.raises(ValueError, match="method must be one of"):
            reorder(small_grid, algorithm="sloan", method="parallel")

    def test_bad_start_strategy(self, small_grid):
        with pytest.raises(ValueError, match="strategy"):
            reorder(small_grid, start="median")

    def test_start_out_of_range(self, small_grid):
        with pytest.raises(ValueError):
            reorder(small_grid, start=small_grid.n)

    def test_bad_workers(self, small_grid):
        with pytest.raises(ValueError, match="n_workers"):
            reorder(small_grid, n_workers=-1)

    def test_explicit_start_needs_connected(self, two_triangles):
        with pytest.raises(ValueError, match="connected"):
            reorder(two_triangles, start=0)


class TestRemovedEntryPoints:
    """The 1.1 deprecation shims finished their cycle in 1.2: the old
    entry points now raise RemovedAPIError naming the facade call."""

    def test_reverse_cuthill_mckee_is_removed(self, medium_grid):
        from repro.core.api import reverse_cuthill_mckee
        from repro.errors import RemovedAPIError

        with pytest.raises(RemovedAPIError, match="repro.reorder"):
            reverse_cuthill_mckee(medium_grid, method="serial")

    def test_order_is_removed(self, small_grid):
        from repro.errors import RemovedAPIError
        from repro.orderings.api import order

        with pytest.raises(RemovedAPIError, match="repro.reorder"):
            order(small_grid, "rcm")

    def test_removed_error_is_runtime_error(self, small_grid):
        # old `except RuntimeError` handlers still see the failure
        from repro.core.api import reverse_cuthill_mckee

        with pytest.raises(RuntimeError):
            reverse_cuthill_mckee(small_grid)

    def test_facade_does_not_warn(self, small_grid, recwarn):
        reorder(small_grid)
        assert not [
            w for w in recwarn.list if issubclass(w.category, DeprecationWarning)
        ]


class TestQualityPermutation:
    def test_quality_accepts_precomputed_permutation(self, small_grid):
        from repro.orderings.api import quality

        res = reorder(small_grid, algorithm="sloan")
        q = quality(small_grid, "sloan", permutation=res.permutation)
        applied = small_grid.permute_symmetric(res.permutation)
        from repro.sparse.bandwidth import bandwidth

        assert q.bandwidth == bandwidth(applied)

    def test_quality_rejects_bad_permutation(self, small_grid):
        from repro.orderings.api import quality

        with pytest.raises(ValueError):
            quality(small_grid, "rcm", permutation=np.zeros(3, dtype=np.int64))


class TestReorderManyPerMatrixPath:
    """``reorder_many``'s per-matrix loop (non-RCM algorithms, ``config``,
    a nonzero ``seed``, ``transform``) validates each matrix once, inside
    its own pipeline run, and still names a bad matrix by its index."""

    OPTIONS = {
        "transform": {"transform": "powerlaw"},
        "config": {"config": BatchConfig()},
        "seed": {"seed": 1},
        "non-rcm": {"algorithm": "sloan"},
    }

    @pytest.mark.parametrize("name", sorted(OPTIONS))
    def test_one_validate_span_per_matrix(self, name, small_grid, hub, star):
        from repro import telemetry

        opts = self.OPTIONS[name]
        mats = [small_grid, hub, star]
        telemetry.reset()
        telemetry.enable()
        try:
            results = repro.reorder_many(mats, **opts)
            spans = [
                r for r in telemetry.get().tracer.records()
                if r.name == "validate"
            ]
        finally:
            telemetry.disable()
            telemetry.reset()
        assert [r.attrs["nnz"] for r in spans] == [m.nnz for m in mats]
        for mat, res in zip(mats, results):
            ref = reorder(mat, **opts)
            assert res.permutation.tobytes() == ref.permutation.tobytes()

    @pytest.mark.parametrize("name", sorted(OPTIONS))
    def test_error_names_the_matrix_index(self, name, path5):
        from repro.errors import ValidationError
        from repro.sparse.csr import CSRMatrix
        from repro.sparse.validate import ASYMMETRIC

        rows = [[1, 3], [0, 2], [1, 3], [2]]  # 0 -> 3 without 3 -> 0
        bad = CSRMatrix(
            indptr=np.cumsum([0] + [len(r) for r in rows]),
            indices=np.concatenate(rows), n=4,
        )
        with pytest.raises(ValidationError) as info:
            repro.reorder_many([path5, bad], **self.OPTIONS[name])
        assert str(info.value) == f"matrix 1: {ASYMMETRIC}"
