"""The unified error surface: hierarchy, stdlib compatibility and the
historical import paths that must keep resolving."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro import errors


class TestHierarchy:
    def test_everything_derives_from_repro_error(self):
        for name in errors.__all__:
            exc = getattr(errors, name)
            assert issubclass(exc, errors.ReproError), name
            assert issubclass(exc, Exception), name

    def test_validation_error_is_value_error(self):
        assert issubclass(errors.ValidationError, ValueError)

    def test_backend_unavailable_is_value_error(self):
        assert issubclass(errors.BackendUnavailableError, ValueError)

    def test_service_errors_are_runtime_errors(self):
        assert issubclass(errors.ServiceError, RuntimeError)
        assert issubclass(errors.ServiceOverloadedError, errors.ServiceError)
        assert issubclass(errors.ServiceTimeoutError, errors.ServiceError)

    def test_removed_api_error_is_runtime_error(self):
        assert issubclass(errors.RemovedAPIError, RuntimeError)


class TestRaisedAtBoundaries:
    def test_facade_rejects_bad_algorithm_with_validation_error(
        self, small_grid
    ):
        with pytest.raises(errors.ValidationError):
            repro.reorder(small_grid, algorithm="voodoo")
        # pre-1.2 call sites catch ValueError — still true
        with pytest.raises(ValueError):
            repro.reorder(small_grid, algorithm="voodoo")

    def test_unknown_method_is_backend_unavailable(self, small_grid):
        from repro import backends

        with pytest.raises(errors.BackendUnavailableError, match="quantum"):
            backends.get("quantum")

    def test_one_except_catches_the_whole_surface(self, small_grid):
        caught = []
        for bad_call in (
            lambda: repro.reorder(small_grid, algorithm="nope"),
            lambda: repro.reorder(small_grid, method="nope"),
        ):
            try:
                bad_call()
            except errors.ReproError as exc:
                caught.append(type(exc).__name__)
        assert len(caught) == 2

    def test_removed_entry_points_raise(self, small_grid):
        from repro.core.api import reverse_cuthill_mckee
        from repro.orderings.api import order

        with pytest.raises(errors.RemovedAPIError):
            reverse_cuthill_mckee(small_grid)
        with pytest.raises(errors.RemovedAPIError):
            order(small_grid, "rcm")


def _defective(defect: str):
    """The path 0-1-2-3 with one defect in its pattern."""
    from repro.sparse.csr import CSRMatrix

    rows = {
        "duplicate": [[1], [0, 0, 2], [1, 3], [2]],
        "unsorted": [[1], [2, 0], [1, 3], [2]],
        "asymmetric": [[1, 3], [0, 2], [1, 3], [2]],
    }[defect]
    return CSRMatrix(
        indptr=np.cumsum([0] + [len(r) for r in rows]),
        indices=np.concatenate(rows), n=4,
    )


def _service_reorder(mat):
    from repro.service import ReorderService

    with ReorderService() as svc:
        return svc.reorder(mat)


class TestMalformedPatterns:
    """Every entry point rejects a malformed pattern with one typed error
    whose message names the failed check (and, in a batch, the index)."""

    @pytest.mark.parametrize("defect", ["duplicate", "unsorted", "asymmetric"])
    @pytest.mark.parametrize("entry", ["reorder", "reorder_many", "service"])
    def test_defect_raises_validation_error(self, defect, entry, path5):
        from repro.sparse import validate

        expected = {
            "duplicate": validate.DUPLICATE,
            "unsorted": validate.UNSORTED,
            "asymmetric": validate.ASYMMETRIC,
        }[defect]
        bad = _defective(defect)
        call = {
            "reorder": lambda: repro.reorder(bad),
            "reorder_many": lambda: repro.reorder_many([path5, path5, bad]),
            "service": lambda: _service_reorder(bad),
        }[entry]
        with pytest.raises(errors.ValidationError) as info:
            call()
        if entry == "reorder_many":
            expected = f"matrix 2: {expected}"
        assert str(info.value) == expected

    def test_csr_constructor_raises_validation_error(self):
        from repro.sparse.csr import CSRMatrix

        with pytest.raises(errors.ValidationError, match="out of range"):
            CSRMatrix(indptr=np.array([0, 1]), indices=np.array([5]), n=1)
        with pytest.raises(errors.ValidationError, match="indptr"):
            CSRMatrix(indptr=np.array([0, 2]), indices=np.array([0]), n=1)

    def test_explicit_start_needs_a_connected_matrix(self, two_triangles):
        with pytest.raises(errors.ValidationError, match="connected"):
            repro.reorder(two_triangles, start=0)


class TestHistoricalImportPaths:
    def test_service_package_reexports(self):
        from repro.service import (
            ServiceError,
            ServiceOverloadedError,
            ServiceTimeoutError,
        )

        assert ServiceError is errors.ServiceError
        assert ServiceOverloadedError is errors.ServiceOverloadedError
        assert ServiceTimeoutError is errors.ServiceTimeoutError

    def test_service_core_reexports(self):
        from repro.service import core

        assert core.ServiceError is errors.ServiceError
        assert core.ServiceOverloadedError is errors.ServiceOverloadedError
        assert core.ServiceTimeoutError is errors.ServiceTimeoutError

    def test_errors_module_on_package_root(self):
        assert repro.errors is errors
