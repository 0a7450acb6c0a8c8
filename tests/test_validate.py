"""Unit tests for structural validation helpers."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.sparse.csr import CSRMatrix, coo_to_csr
from repro.sparse.validate import (
    ASYMMETRIC,
    check_batch,
    is_structurally_symmetric,
    assert_permutation,
)


class TestSymmetryCheck:
    def test_symmetric(self, small_grid):
        assert is_structurally_symmetric(small_grid)

    def test_asymmetric(self):
        m = coo_to_csr(3, [0], [1])
        assert not is_structurally_symmetric(m)

    def test_diagonal_only_is_symmetric(self):
        m = coo_to_csr(3, [0, 1], [0, 1])
        assert is_structurally_symmetric(m)

    def test_any_row_order(self):
        m = CSRMatrix(
            indptr=np.array([0, 2, 3, 4]), indices=np.array([2, 1, 0, 0]), n=3
        )
        assert is_structurally_symmetric(m)

    def test_duplicates_count(self):
        m = CSRMatrix(
            indptr=np.array([0, 2, 3]), indices=np.array([1, 1, 0]), n=2
        )
        assert not is_structurally_symmetric(m)


class TestDuplicates:
    def test_clean(self, small_grid):
        check_batch([small_grid])

    def test_detects_duplicate(self, small_grid):
        m = CSRMatrix(indptr=np.array([0, 2]), indices=np.array([0, 0]), n=1)
        with pytest.raises(ValidationError, match=r"^matrix 1: .*duplicate"):
            check_batch([small_grid, m])

    def test_duplicate_wins_over_disorder(self):
        m = CSRMatrix(
            indptr=np.array([0, 3, 3]), indices=np.array([0, 1, 0]), n=2
        )
        with pytest.raises(ValidationError, match="duplicate"):
            check_batch([m])


class TestValidateCsr:
    """The one validate pass, :func:`check_batch`."""

    def test_passes_on_clean(self, small_grid):
        from repro.sparse.bandwidth import bandwidth

        assert list(check_batch([small_grid])) == [bandwidth(small_grid)]

    def test_unsorted_rejected(self):
        m = CSRMatrix(indptr=np.array([0, 2, 2]), indices=np.array([1, 0]), n=2)
        with pytest.raises(ValidationError, match="sorted"):
            check_batch([m])

    def test_duplicates_rejected(self):
        m = CSRMatrix(indptr=np.array([0, 2]), indices=np.array([0, 0]), n=1)
        with pytest.raises(ValidationError, match="duplicate"):
            check_batch([m])

    def test_asymmetric_rejected_when_required(self):
        with pytest.raises(ValidationError) as info:
            check_batch([coo_to_csr(3, [0], [1])])
        assert str(info.value) == ASYMMETRIC

    def test_asymmetric_ok_when_not_required(self):
        import repro

        m = coo_to_csr(3, [0], [1])
        assert list(check_batch([m.symmetrize()])) == [1]
        assert repro.reorder(m, symmetrize=True).initial_bandwidth == 1

    def test_batch_names_the_offending_matrix(self, small_grid):
        bad = coo_to_csr(3, [0], [1])
        with pytest.raises(ValidationError, match=r"^matrix 2: .*symmetric"):
            check_batch([small_grid, small_grid, bad])
        with pytest.raises(ValidationError, match=r"^matrix 7: "):
            check_batch([small_grid, bad], positions=[3, 7])

    def test_empty_batch_and_empty_matrices(self):
        empty = CSRMatrix(indptr=np.zeros(3, dtype=np.int64),
                          indices=np.zeros(0, dtype=np.int64), n=2)
        assert check_batch([]).size == 0
        assert list(check_batch([empty, empty])) == [0, 0]

    def test_key_overflow_guard(self, small_grid, monkeypatch):
        import repro.sparse.validate as v

        # past the key limit a pattern is past the int32 view's limit too,
        # so only the key pass sees it
        monkeypatch.setattr(v, "INT32_MAX", small_grid.n - 1)
        monkeypatch.setattr(v, "MAX_KEYED_N", small_grid.n - 1)
        with pytest.raises(ValidationError, match="overflow"):
            check_batch([small_grid])


class TestAssertPermutation:
    def test_valid(self):
        assert_permutation(np.array([2, 0, 1]))

    def test_repeats_rejected(self):
        with pytest.raises(AssertionError):
            assert_permutation(np.array([0, 0, 1]))

    def test_out_of_range_rejected(self):
        with pytest.raises(AssertionError):
            assert_permutation(np.array([0, 1, 3]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(AssertionError):
            assert_permutation(np.array([0, 1]), n=3)
