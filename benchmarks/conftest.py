"""Shared benchmark fixtures.

``pytest benchmarks/ --benchmark-only`` times the *real* execution of every
experiment driver (the simulator and kernels are genuine computations), and
each driver also prints/saves the regenerated table or figure data, so one
run reproduces the paper's evaluation artifacts.  CSVs land in
``benchmarks/results/``.

Every benchmark additionally emits a standardized ``BENCH_<name>.json``
into ``benchmarks/results/`` — the single machine-readable perf artifact
that ``repro telemetry ingest`` folds into the run-history store and that
``check_regressions.py`` gates on, so it is written unconditionally — even
when the benchmark body raises: matrix/method (when parametrized), wall
milliseconds, wall-clock phase breakdown and the full telemetry counter
snapshot, plus provenance (``schema_version``, ISO ``timestamp``,
``hostname``, host info, git SHA).
"""

from __future__ import annotations

import datetime
import json
import platform
import re
import time
from pathlib import Path

import pytest

from repro import telemetry
from repro.telemetry.events import SCHEMA, git_sha, host_info

RESULTS_DIR = Path(__file__).parent / "results"

#: bumped whenever the BENCH_*.json payload layout changes incompatibly
BENCH_SCHEMA_VERSION = 1

#: matrices used by per-matrix kernel benchmarks — one per structural regime
BENCH_MATRICES = ["bcspwr10", "benzene", "gupta3", "ecology1", "mycielskian18", "nlpkkt160"]

#: method-ish parameter names recognized in parametrized benchmark ids
_METHOD_KEYS = ("method", "approach", "variant", "kernel")


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


def _bench_name(nodeid: str) -> str:
    """``bench_fig3.py::test_x[gupta3]`` -> ``fig3_x_gupta3``."""
    name = nodeid.split("::", 1)[-1]
    name = re.sub(r"^test_", "", name)
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", name).strip("_")


@pytest.fixture(autouse=True)
def bench_record(request, results_dir):
    """Wrap every benchmark in telemetry and dump ``BENCH_<name>.json``."""
    tel = telemetry.get()
    tel.reset()
    was_enabled = tel.enabled
    tel.enable()
    t0 = time.perf_counter_ns()
    try:
        yield
    finally:
        # the artifact must exist even when the benchmark body fails —
        # a missing BENCH_*.json reads as "never ran" downstream
        wall_ms = (time.perf_counter_ns() - t0) / 1e6
        if not was_enabled:
            tel.disable()

        params = dict(
            getattr(getattr(request.node, "callspec", None), "params", {})
        )
        matrix = params.get("name") or params.get("matrix")
        method = next((params[k] for k in _METHOD_KEYS if k in params), None)
        snap = tel.snapshot()
        now = time.time()
        payload = {
            "schema": SCHEMA,
            "schema_version": BENCH_SCHEMA_VERSION,
            "bench": _bench_name(request.node.nodeid),
            "matrix": matrix,
            "method": method,
            "wall_ms": wall_ms,
            "phases_ms": {
                name: ns / 1e6
                for name, ns in sorted(snap["phases_ns"].items())
            },
            "counters": snap["counters"],
            "gauges": snap["gauges"],
            "host": host_info(),
            "hostname": platform.node() or "unknown",
            "git_sha": git_sha(),
            "unix_time": now,
            "timestamp": datetime.datetime.fromtimestamp(
                now, tz=datetime.timezone.utc
            ).isoformat(timespec="seconds"),
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        fname = f"BENCH_{payload['bench']}.json"
        (results_dir / fname).write_text(text)
