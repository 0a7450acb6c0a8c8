#!/usr/bin/env python3
"""End-to-end benchmark of the reordering library.

Four closed-loop workloads (``workloads.py``) drive the program through its
public entry points.  An untraced run reports five user-facing metrics; a
traced run (``--trace``) reports the per-layer breakdown (``probes.py``).
Every returned permutation is checked against its golden: the SHA-256 of
the ``method="serial"`` permutation, committed in ``goldens.json`` for
seed 0 and computed before timing for any other seed.

    python3 benchmarks/e2e/run.py --workload facade-suite --seed 1
    python3 benchmarks/e2e/run.py --workload service-zipf --trace
    python3 benchmarks/e2e/run.py             # all four, one child process each
    python3 benchmarks/e2e/run.py --self-check   # must exit non-zero

Prints ``workload metric value unit`` per metric and, as the last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full record (provenance, inputs, per-round values and
quartiles) is written to ``<out>.json``, spans of a traced run to
``<out>.trace.jsonl``.  ``--out`` defaults to a stem under ``.bench_out/``
at the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
GOLDENS = HERE / "goldens.json"

#: declares the workloads and the metrics a run reports
SPEC = ROOT / "BENCHMARK.json"

#: set-up passes per untraced run; ``setup_s`` is their median
SETUP_REPS = 3

#: target length of one measured round; e2e throughput is the median over
#: rounds, so short rounds keep a few seconds of host noise out of it
ROUND_S = 1.0

#: untimed round after set-up, until the pool's forked workers have
#: copied the pages they write to and timings settle
WARMUP_S = 2.0

#: untraced/traced rounds of a ``--trace`` run, alternating
TRACE_PLAN = (False, True, False, True)

#: requests per client in the one-vs-four-shards router probe
ROUTER_OPS = 1500

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import repro; "
    "print(time.perf_counter() - t)"
)


def spec() -> dict:
    return json.loads(SPEC.read_text())


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument(
        "--workload", choices=[w["name"] for w in spec()["workloads"]]
    )
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0,
                    help="measured time of one run (default 15)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1), help="per-layer run with telemetry on")
    ap.add_argument("--out", help="path stem of the record and span files")
    ap.add_argument("--self-check", action="store_true",
                    help="corrupt one returned permutation; the run must fail")
    ap.add_argument("--write-goldens", action="store_true",
                    help="recompute goldens.json from the seed-0 inputs")
    return ap.parse_args(argv)


def perm_digest(perm) -> str:
    """SHA-256 of a permutation's int64 bytes (another dtype never matches)."""
    import numpy as np

    arr = np.asarray(perm)
    if arr.dtype != np.dtype("<i8"):
        return f"dtype:{arr.dtype.str}"
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


class Checker:
    """Compares each returned permutation with its input's golden.

    With ``corrupt`` set, the first permutation checked is altered first,
    so the run must report a failure (``--self-check``).
    """

    def __init__(self, goldens: List[str], corrupt: bool = False) -> None:
        self.goldens = goldens
        self._corrupt = corrupt
        self._lock = threading.Lock()

    def __call__(self, idx: int, perm) -> bool:
        if self._corrupt:
            with self._lock:
                if self._corrupt:
                    self._corrupt = False
                    perm = perm.copy()
                    perm[[0, 1]] = perm[[1, 0]]
        return perm_digest(perm) == self.goldens[idx]


def quartiles(values: List[float]) -> Dict[str, float]:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": statistics.median(values), "q3": q3}


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    out = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True, text=True, timeout=30,
    )
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    import repro
    from repro.parallel.shm import shm_available

    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "repro": repro.__version__,
        "shm_available": shm_available(),
        "seed": seed,
    }


def import_seconds() -> float:
    """Median wall time of ``import repro`` in fresh interpreters."""
    return statistics.median(
        float(subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, check=True, timeout=120,
        ).stdout)
        for _ in range(SETUP_REPS)
    )


def load_repro() -> None:
    """Import the library from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise RuntimeError(f"imported repro from {repro.__file__}, not {SRC}")


def serial_digests(wl) -> List[str]:
    """Digest of each input's ``method="serial"`` permutation."""
    import repro

    return [
        perm_digest(repro.reorder(inp.mat, method="serial").permutation)
        for inp in wl.inputs
    ]


def goldens_for(wl) -> List[str]:
    if wl.seed == 0:
        table = json.loads(GOLDENS.read_text())[wl.name]
        return [table.get(inp.name, "missing") for inp in wl.inputs]
    return serial_digests(wl)


def write_goldens() -> int:
    from workloads import WORKLOADS

    table = {}
    for name, cls in WORKLOADS.items():
        wl = cls(0, ROOT / ".bench_out" / "goldens.work")
        table[name] = dict(
            zip([inp.name for inp in wl.inputs], serial_digests(wl))
        )
    GOLDENS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, table.values()))} goldens to {GOLDENS}")
    return 0


def assert_unobserved() -> None:
    """Untraced runs measure the library with every observer off."""
    from repro import telemetry
    from repro.telemetry import flight, profiler

    if (
        telemetry.enabled()
        or flight.get_recorder() is not None
        or profiler.get_profiler() is not None
    ):
        raise RuntimeError("telemetry, flight recorder or profiler is on")


def service_counts(svc) -> Dict[str, int]:
    stats = svc.stats()
    return {
        "requests": stats["service.requests"],
        "computed": stats["service.computed"],
        "coalesced": stats["service.coalesced"],
        **{k: stats["cache"][k] for k in ("hits", "disk_hits", "evictions")},
    }


def stop_resource_tracker() -> None:
    """Stop the shared-memory resource tracker process and wait for it.

    The first shared-memory segment starts the tracker as a child process
    that would otherwise outlive this one; ``multiprocessing`` exposes no
    public call that stops it.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def e2e_metrics(rounds, setup_s: float) -> Dict[str, float]:
    import numpy as np

    lat = np.array([x for r in rounds for x in r.latencies_s])
    return {
        "throughput_per_s": statistics.median(
            r.matrices / r.wall_s for r in rounds
        ),
        "latency_p50_ms": float(np.percentile(lat, 50)) * 1e3,
        "latency_p90_ms": float(np.percentile(lat, 90)) * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_rounds(wl, check, budget_s: float):
    """Alternate untraced and traced rounds; per-layer round metrics."""
    from repro import telemetry
    from probes import round_metrics

    tel = telemetry.get()
    tel.reset()
    svc0 = service_counts(wl.svc) if getattr(wl, "svc", None) else {}
    rounds, tput = [], {False: [], True: []}
    traced_ops = 0
    for traced in TRACE_PLAN:
        if traced:
            tel.enable()
        rnd = wl.run_round(budget_s, check)
        tel.disable()
        rounds.append(rnd)
        tput[traced].append(rnd.matrices / rnd.wall_s)
        traced_ops += rnd.ops if traced else 0
    svc_delta = {}
    if svc0:
        svc1 = service_counts(wl.svc)
        svc_delta = {k: svc1[k] - svc0[k] for k in svc0}
    counters = tel.metrics.to_dict()["counters"]
    groups = [
        r.attrs["n_groups"] for r in tel.tracer.records()
        if r.name == "reorder_many" and "n_groups" in r.attrs
    ]
    metrics = round_metrics(traced_ops, counters, svc_delta, groups)
    metrics["telemetry.overhead_pct"] = (
        statistics.median(tput[False]) / statistics.median(tput[True]) - 1
    ) * 100
    return rounds, metrics


def layer_probes(wl, check, metrics: dict, errors: List[str]) -> int:
    """Add the probe metrics to ``metrics``; 1 if a probe output was wrong."""
    from repro import telemetry
    from probes import ProbeMismatch, Prober, shard_speedup
    from workloads import ServiceZipf

    failed = 0
    telemetry.enable()
    try:
        metrics.update(Prober(wl, check).run())
        if isinstance(wl, ServiceZipf):
            metrics["service.router.shards4_vs_1_x"] = shard_speedup(
                wl, check, ROUTER_OPS
            )
    except ProbeMismatch as exc:
        failed = 1
        errors.append(f"probe output differs from golden: {exc}")
        # the probes after the mismatch did not run; the run already failed
        for m in spec()["per_layer"]:
            metrics.setdefault(m["name"], 0.0)
    finally:
        telemetry.disable()
    # ratios of inputs or traffic this workload does not have read 0
    for name in (
        "parallel.vs_vectorized_x.even", "parallel.vs_vectorized_x.uneven",
        "service.router.shards4_vs_1_x",
    ):
        metrics.setdefault(name, 0.0)
    return failed


def run_one(args: argparse.Namespace) -> int:
    stem = Path(args.out) if args.out else (
        ROOT / ".bench_out"
        / f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}"
    )
    scratch = stem.parent / f"{stem.name}.work"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    os.environ["TMPDIR"] = str(scratch)
    for var in [v for v in os.environ if v.startswith("REPRO_")]:
        del os.environ[var]

    import_s = 0.0 if args.trace else import_seconds()
    load_repro()
    from repro import telemetry
    from repro.parallel import reset_pools
    from repro.parallel.shm import active_segments
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, scratch)
    check = Checker(goldens_for(wl), corrupt=args.self_check)
    record: dict = {
        "schema": "repro-e2e/v1",
        "workload": wl.name,
        "trace": bool(args.trace),
        "seconds": args.seconds,
        "provenance": provenance(args.seed),
    }
    errors: List[str] = []
    probe_failed = 0
    try:
        setups = []
        for _ in range(1 if args.trace else SETUP_REPS):
            wl.teardown()
            t0 = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - t0)
        warmup = wl.run_round(WARMUP_S, check)
        if args.trace:
            rounds, metrics = traced_rounds(
                wl, check, args.seconds / len(TRACE_PLAN)
            )
        else:
            assert_unobserved()
            n_rounds = max(5, round(args.seconds / ROUND_S))
            rounds = [
                wl.run_round(args.seconds / n_rounds, check)
                for _ in range(n_rounds)
            ]
            metrics = e2e_metrics(rounds, import_s + statistics.median(setups))
        leaked = len(active_segments())
        if args.trace:
            probe_failed = layer_probes(wl, check, metrics, errors)
            telemetry.get().write_jsonl(
                f"{stem}.trace.jsonl",
                meta={"workload": wl.name, "seed": args.seed},
            )
    finally:
        wl.close()
        reset_pools()

    per_input: Counter = Counter()
    for r in [warmup] + rounds:
        per_input.update(r.per_input)
        errors += r.errors
    attempted = warmup.ops + sum(r.ops for r in rounds)
    failed = (
        warmup.failed + sum(r.failed for r in rounds) + leaked + probe_failed
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
            for m in spec()["per_layer" if args.trace else "end_to_end"]
        },
    }
    record.update(
        inputs=[
            {"name": inp.name, "family": inp.family, "n": inp.mat.n,
             "nnz": inp.mat.nnz, "requests": per_input[i]}
            for i, inp in enumerate(wl.inputs)
        ],
        rounds=[
            {"ops": r.ops, "matrices": r.matrices, "failed": r.failed,
             "wall_s": r.wall_s}
            for r in rounds
        ],
        round_throughput=quartiles([r.matrices / r.wall_s for r in rounds]),
        latency_samples=sum(len(r.latencies_s) for r in rounds),
        setup_passes_s=setups,
        import_s=import_s,
        shm_leaked=leaked,
        failed_frac=failed / max(attempted, 1),
        errors=errors[:20],
        result=result,
    )
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    shutil.rmtree(scratch, ignore_errors=True)
    stop_resource_tracker()

    for name, m in result["metrics"].items():
        print(f"{wl.name} {name} {m['value']:.6g} {m['unit']}")
    for line in errors[:5]:
        print(f"error: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own fresh interpreter, one at a time."""
    worst = 0
    for name in [w["name"] for w in spec()["workloads"]]:
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        if args.out:
            cmd += ["--out", f"{args.out}-{name}"]
        if args.self_check:
            cmd.append("--self-check")
        worst = max(worst, subprocess.run(cmd, cwd=ROOT).returncode)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro sources under {SRC}", file=sys.stderr)
        return 2
    if args.write_goldens:
        load_repro()
        return write_goldens()
    if args.self_check and args.workload is None:
        args.workload = "facade-suite"
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
