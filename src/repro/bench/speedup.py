"""Wall-clock speedup of the execution-layer methods vs the serial kernel.

Unlike the ``figN``/``table1`` drivers (simulated cycles), this measures
*real* wall time of ``repro.reorder`` per method, so the vectorized frontier
kernel and the process-parallel executor are judged by what the hardware
actually delivers.  The result artifact (``--json``) records per-method
ordering milliseconds and the speedup over ``"serial"`` — the number the
benchmark regression gate tracks.

Run: ``python -m repro.bench.speedup [--quick] [--matrix NAME]``
     (or ``repro bench speedup``)
"""

from __future__ import annotations

import argparse
import json
import time
from typing import List, Optional, Sequence

from repro import backends
from repro.backends import KIND_SERIAL, KIND_SIMULATED, KIND_VECTORIZED
from repro.bench.report import render_table, write_csv
from repro.telemetry.events import SCHEMA, git_sha, host_info

__all__ = ["DEFAULT_METHODS", "largest_matrix_name", "measure", "main"]

#: methods compared by default: every backend that runs on this host's
#: hardware rather than a simulated machine, in registration order (the
#: serial reference first), so ``auto``'s backend is always timed
DEFAULT_METHODS = tuple(
    b.name for b in backends.backends() if b.kind != KIND_SIMULATED
)

#: ``--quick`` keeps only single-process array kernels (no pool startup)
_QUICK_KINDS = (KIND_SERIAL, KIND_VECTORIZED)


def largest_matrix_name() -> str:
    """Name of the largest (by node count) generator matrix in the suite."""
    from repro.matrices.suite import TESTSET, get_matrix

    sizes = {e.name: get_matrix(e.name).n for e in TESTSET}
    return max(sizes, key=sizes.__getitem__)


def measure(
    name: str,
    methods: Sequence[str] = DEFAULT_METHODS,
    *,
    repeats: int = 3,
    n_workers: int = 4,
) -> List[dict]:
    """Best-of-``repeats`` wall milliseconds per method on one matrix.

    Every permutation is verified bit-identical to ``"serial"`` as it is
    measured; ``ordering_ms`` isolates the kernel (validation/component
    phases are common to all methods), ``total_ms`` is the whole pipeline.
    """
    import numpy as np

    from repro.facade import reorder
    from repro.matrices.suite import get_matrix

    mat = get_matrix(name)
    reference = None
    rows: List[dict] = []
    for method in methods:
        best_order, best_total = float("inf"), float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter_ns()
            res = reorder(mat, method=method, n_workers=n_workers)
            total_ms = (time.perf_counter_ns() - t0) / 1e6
            order_ms = res.phase_ns["ordering"] / 1e6
            best_order = min(best_order, order_ms)
            best_total = min(best_total, total_ms)
        if reference is None:
            reference = res.permutation
        elif not np.array_equal(res.permutation, reference):
            raise AssertionError(f"{method} diverged from {methods[0]} on {name}")
        rows.append({
            "matrix": name,
            "n": mat.n,
            "nnz": mat.nnz,
            "method": method,
            "ordering_ms": best_order,
            "total_ms": best_total,
        })
    serial_ms = next(
        (r["ordering_ms"] for r in rows if r["method"] == "serial"), None
    )
    for r in rows:
        r["speedup_vs_serial"] = (
            serial_ms / r["ordering_ms"] if serial_ms else float("nan")
        )
    return rows


def main(argv: Optional[Sequence[str]] = None) -> List[dict]:
    """CLI entry point: print the speedup table, optionally save artifacts."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--matrix", default=None,
                        help="test-set matrix (default: largest by n)")
    parser.add_argument("--methods", default=",".join(DEFAULT_METHODS),
                        help="comma-separated method list")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--quick", action="store_true",
                        help="one repeat, serial- and vectorized-kind "
                             "methods only")
    parser.add_argument("--csv", default=None)
    parser.add_argument("--json", default=None,
                        help="write a BENCH-style JSON artifact here")
    args = parser.parse_args(argv)

    name = args.matrix or largest_matrix_name()
    methods = [m for m in args.methods.split(",") if m]
    repeats = args.repeats
    if args.quick:
        methods = [
            m for m in methods
            if backends.is_registered(m)
            and backends.get(m).kind in _QUICK_KINDS
        ]
        repeats = 1

    rows = measure(name, methods, repeats=repeats, n_workers=args.workers)
    headers = ["matrix", "method", "ordering ms", "total ms", "speedup vs serial"]
    table = [
        [r["matrix"], r["method"], round(r["ordering_ms"], 3),
         round(r["total_ms"], 3), round(r["speedup_vs_serial"], 2)]
        for r in rows
    ]
    print(render_table(
        headers, table,
        title=f"RCM wall-clock speedup ({name}, n={rows[0]['n']}, "
              f"nnz={rows[0]['nnz']}, best of {repeats})",
    ))
    if args.csv:
        write_csv(args.csv, headers, table)
    if args.json:
        payload = {
            "schema": SCHEMA,
            "bench": "rcm_speedup",
            "matrix": name,
            "methods": rows,
            "speedups_vs_serial": {
                r["method"]: r["speedup_vs_serial"] for r in rows
            },
            "wall_ms": min(r["ordering_ms"] for r in rows),
            "host": host_info(),
            "git_sha": git_sha(),
            "unix_time": time.time(),
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")
    return rows


if __name__ == "__main__":
    main()
