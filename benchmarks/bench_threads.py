"""Real-thread backend benchmark: the GIL tax, measured.

The `threads` method exists for correctness witnessing, not speed — on
CPython its workers take turns under one lock, one protocol step each, and
with the GIL that makes it slower than serial (the calibration note: "GIL
hinders fine-grained speculation").  This bench records the real wall-time
ratio so the claim is a measured number, and verifies the permutation
across thread counts along the way.
"""

import numpy as np
import pytest

from repro.matrices import get_matrix
from repro.core.serial import rcm_serial
from repro.core.threads import rcm_threads
from repro.bench.runner import pick_start


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_threads_wall_time(benchmark, threads):
    mat = get_matrix("benzene")
    start, total = pick_start(mat)
    ref = rcm_serial(mat, start)
    got = benchmark.pedantic(
        rcm_threads, args=(mat, start),
        kwargs=dict(n_threads=threads, total=total),
        rounds=3, iterations=1,
    )
    assert np.array_equal(got, ref)


def test_serial_reference_wall_time(benchmark):
    mat = get_matrix("benzene")
    start, _ = pick_start(mat)
    benchmark(rcm_serial, mat, start)
