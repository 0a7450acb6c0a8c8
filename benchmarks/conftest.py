"""Shared benchmark fixtures.

``pytest benchmarks/ --benchmark-only`` times the *real* execution of every
experiment driver (the simulator and kernels are genuine computations), and
each driver also prints/saves the regenerated table or figure data, so one
run reproduces the paper's evaluation artifacts.  CSVs land in
``benchmarks/results/``.  The invariants a driver measures (the vectorized
kernel beating the serial loop, the service's cache-hit and batching ratios,
the profiler's overhead budget, the scenario floors) are asserts inside that
driver; whether a change made the system faster is the end-to-end
benchmark's question (``BENCHMARK.json``, ``benchmarks/e2e/``).
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"

#: matrices used by per-matrix kernel benchmarks — one per structural regime
BENCH_MATRICES = ["bcspwr10", "benzene", "gupta3", "ecology1", "mycielskian18", "nlpkkt160"]


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR
