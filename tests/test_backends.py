"""The execution-backend registry: model, the ``auto`` rule, extension."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro import backends
from repro.backends import AUTO_METHOD, Backend
from repro.core.serial import rcm_serial
from repro.matrices import generators as g
from repro.service import ReorderService, ServiceConfig, cache_key

from tests.conftest import block_union


EXPECTED_NAMES = (
    "serial", "vectorized", "compiled", "parallel", "leveled", "unordered",
    "algebraic", "batch-basic", "batch-cpu", "batch-gpu", "threads",
)


class TestRegistry:
    def test_names_and_order(self):
        assert backends.names() == EXPECTED_NAMES

    def test_method_choices_prepends_auto(self):
        assert backends.method_choices() == ("auto",) + EXPECTED_NAMES

    def test_methods_constant_is_registry_snapshot(self):
        assert repro.METHODS == backends.names()

    def test_get_returns_backend(self):
        b = backends.get("serial")
        assert isinstance(b, Backend)
        assert b.name == "serial"

    def test_get_unknown_raises_uniform_error(self):
        with pytest.raises(ValueError, match="method must be one of") as exc:
            backends.get("quantum")
        for name in backends.method_choices():
            assert repr(name) in str(exc.value)

    def test_is_registered(self):
        assert backends.is_registered("vectorized")
        assert not backends.is_registered("quantum")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            backends.register(backends.get("serial"))

    def test_replace_reinstalls(self):
        original = backends.get("serial")
        assert backends.register(original, replace=True) is original
        assert backends.get("serial") is original

    def test_unregister_unknown_raises(self):
        with pytest.raises(ValueError, match="not registered"):
            backends.unregister("quantum")


class TestBackendModel:
    def test_exactly_one_run_callable_required(self):
        run = lambda *a, **k: None  # noqa: E731
        with pytest.raises(ValueError, match="exactly one"):
            Backend(name="x", kind="serial", summary="s")
        with pytest.raises(ValueError, match="exactly one"):
            Backend(name="x", kind="serial", summary="s",
                    run_component=run, run_matrix=run)

    def test_kind_must_be_known(self):
        with pytest.raises(ValueError, match="kind must be one of"):
            Backend(name="x", kind="quantum", summary="s",
                    run_component=lambda *a, **k: None)

    def test_capability_flags_match_what_kernels_read(self):
        caps = {b.name: b for b in backends.backends()}
        assert caps["serial"].kind == backends.KIND_SERIAL
        assert caps["parallel"].kind == backends.KIND_PROCESS
        assert caps["parallel"].honors_n_workers
        assert caps["threads"].kind == backends.KIND_OS_THREADS
        assert caps["batch-cpu"].honors_config and caps["batch-cpu"].emits_stats
        assert caps["batch-gpu"].honors_seed
        assert not caps["batch-gpu"].honors_n_workers
        assert not caps["vectorized"].emits_stats


#: a 10-node path, a connected mesh and a union of 37 narrow grids
_INPUTS = [
    g.grid2d(10, 1),
    g.grid2d(40, 40),
    block_union([g.grid2d(3 + i % 5, 20) for i in range(37)]),
]


def _via_reorder(mats, monkeypatch):
    return [repro.reorder(m).method for m in mats]


def _via_reorder_many(mats, monkeypatch):
    return [r.method for r in repro.reorder_many(mats)]


def _via_service(mats, monkeypatch):
    with ReorderService() as svc:
        return [svc.reorder(m).method for m in mats]


def _via_batched_admission(mats, monkeypatch):
    with ReorderService(ServiceConfig(batch_window_ms=50)) as svc:
        return [r.method for r in svc.reorder_many(mats)]


def _via_cache_key(mats, monkeypatch):
    return [cache_key(m).method for m in mats]


class TestAutoRule:
    """``method="auto"`` runs :data:`AUTO_METHOD` on every surface, for
    every pattern shape and batch size."""

    def test_rule_names_a_registered_backend(self):
        assert AUTO_METHOD == "compiled"
        assert backends.is_registered(AUTO_METHOD)

    def test_inputs_span_the_shapes(self):
        assert [
            repro.reorder(m, method="serial").n_components for m in _INPUTS
        ] == [1, 1, 37]

    @pytest.mark.parametrize("via", [
        _via_reorder, _via_reorder_many, _via_service,
        _via_batched_admission, _via_cache_key,
    ], ids=lambda f: f.__name__[len("_via_"):])
    def test_auto_resolves_to_the_rule(self, via, monkeypatch):
        assert via(_INPUTS, monkeypatch) == [AUTO_METHOD] * len(_INPUTS)


class TestCapabilityTable:
    def test_one_row_per_backend(self):
        table = backends.capability_table()
        lines = table.splitlines()
        assert lines[0].startswith("| method |")
        assert len(lines) == 2 + len(backends.names())
        for name in backends.names():
            assert f"| `{name}` |" in table

    def test_rows_are_json_serializable(self):
        import json

        rows = backends.capability_rows()
        assert [r["method"] for r in rows] == list(backends.names())
        json.dumps(rows)  # must not raise
        for row in rows:
            assert set(row) >= {
                "method", "kind", "n_workers", "config", "seed", "stats",
            }


class TestNinthBackend:
    """Registering a new backend is a one-file change: every surface —
    dispatch, validation, CLI choices, docs table — picks it up from the
    single ``register()`` call."""

    @pytest.fixture()
    def mirror(self):
        backend = Backend(
            name="mirror",
            kind=backends.KIND_SERIAL,
            summary="test-only clone of the serial reference",
            run_component=lambda mat, start, *, total, n_workers, config,
                seed: (rcm_serial(mat, start), None),
        )
        backends.register(backend)
        try:
            yield backend
        finally:
            backends.unregister("mirror")

    def test_dispatches_through_the_full_pipeline(self, mirror, small_grid):
        ref = repro.reorder(small_grid, method="serial")
        res = repro.reorder(small_grid, method="mirror")
        assert res.method == "mirror"
        assert np.array_equal(res.permutation, ref.permutation)

    def test_every_surface_sees_it(self, mirror):
        assert "mirror" in backends.names()
        assert "mirror" in backends.method_choices()
        assert "| `mirror` |" in backends.capability_table()

    def test_cli_choices_follow(self, mirror):
        from repro.cli import build_parser

        sub = next(
            a for a in build_parser()._subparsers._group_actions
        ).choices["reorder"]
        method_action = next(a for a in sub._actions if a.dest == "method")
        assert "mirror" in method_action.choices

    def test_error_messages_follow(self, mirror, small_grid):
        with pytest.raises(ValueError) as exc:
            repro.reorder(small_grid, method="quantum")
        assert "'mirror'" in str(exc.value)

    def test_gone_after_unregister(self, small_grid):
        with pytest.raises(ValueError, match="method must be one of"):
            repro.reorder(small_grid, method="mirror")
