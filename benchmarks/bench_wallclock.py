"""Wall-clock benchmarks of the execution layer (real time, not simulated).

Times ``repro.reorder`` per method on the largest generator matrix and
runs the ``repro bench speedup|throughput`` drivers; the vectorized kernel
must beat the serial loop.  Their CSVs hold this host's wall times, so
they go to a temporary directory, not the tracked results.
"""

import pytest

from repro.bench import speedup as speedup_mod
from repro.bench import throughput as throughput_mod
from repro.facade import reorder
from repro.matrices import get_matrix


@pytest.fixture(scope="module")
def largest_name() -> str:
    return speedup_mod.largest_matrix_name()


@pytest.mark.parametrize("method", ["serial", "vectorized", "parallel"])
def test_rcm_wallclock(benchmark, method, largest_name):
    mat = get_matrix(largest_name)
    benchmark.pedantic(
        reorder, args=(mat,), kwargs={"method": method},
        rounds=2, iterations=1,
    )


def test_regenerate_speedup(benchmark, tmp_path):
    rows = benchmark.pedantic(
        speedup_mod.main,
        args=(["--csv", str(tmp_path / "speedup.csv")],),
        rounds=1, iterations=1,
    )
    by_method = {r["method"]: r for r in rows}
    # the headline acceptance number: the NumPy frontier kernel must beat
    # the pure-Python serial loop on the largest generator matrix
    assert by_method["vectorized"]["speedup_vs_serial"] > 1.0


def test_regenerate_throughput(benchmark, tmp_path):
    rows = benchmark.pedantic(
        throughput_mod.main,
        args=(["--quick", "--csv", str(tmp_path / "throughput.csv")],),
        rounds=1, iterations=1,
    )
    assert all(r["matrices_per_s"] > 0 for r in rows)
