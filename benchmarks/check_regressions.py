#!/usr/bin/env python
"""Benchmark regression gate: statistical verdicts over the run history.

Usage (after ``pytest benchmarks/ --benchmark-only`` refreshed
``benchmarks/results/``)::

    python benchmarks/check_regressions.py              # gate (exit 1 on regression)
    python benchmarks/check_regressions.py --warn-only  # report, always exit 0
    python benchmarks/check_regressions.py --update     # rewrite baselines.json

When the history store (``benchmarks/results/history.jsonl``, maintained by
``repro telemetry ingest``) holds at least ``--min-samples`` prior runs for
a benchmark, its fresh ``wall_ms`` is judged by the noise-aware engine in
:mod:`repro.telemetry.history`: a robust z-score against the median/MAD of
the last ``--window`` runs, failing only when the excursion is both
statistically extreme *and* materially slower (ratio guard).  Benchmarks
without enough history fall back to the static comparison against the
committed entry in ``benchmarks/baselines.json``: a benchmark regresses
when it is more than ``--tolerance`` (default 0.75 = 75%) slower than its
baseline.  Wall time on shared CI runners is noisy, so most benches run
``--warn-only`` in CI — but benches matching an ``--enforce`` glob (default
``kernel_*``: single-kernel microbenches, the least noise-sensitive
artifacts) fail the build even under ``--warn-only``.  Pass ``--enforce ''``
to disable enforcement entirely.

Several checks are noise-immune (same-machine ratios, or floors with wide
slack) and therefore always enforced:

* ``speedups_vs_serial["vectorized"]`` in the speedup artifact must stay
  above ``--min-speedup`` (default 1.0) — the vectorized kernel beating the
  serial loop is an acceptance invariant, not a tuning number;
* ``hit_speedup`` in the service artifact must stay above
  ``--min-hit-speedup`` (default 10.0) — serving a warm cache hit an order
  of magnitude faster than a cold compute is the service layer's acceptance
  bar (``benchmarks/bench_service.py``);
* ``batch_speedup`` in the service artifact must stay above
  ``--min-batch-speedup`` (default 1.3) — batched admission beating
  per-request dispatch over the same concurrent workload is the batch
  API's acceptance bar;
* ``warm_requests_per_s`` must not fall below ``1 - --max-warm-slowdown``
  (default 0.5) of its committed baseline — a generous floor that catches
  a wrecked warm path, not runner noise;
* ``profiler_overhead_pct`` in the service artifact must stay below
  ``--max-profiler-overhead-pct`` (default 3.0) — the continuous sampling
  profiler's warm-path cost budget, measured as back-to-back best-of-reps
  floors with the profiler on vs off;
* the scenario-matrix artifact (``benchmarks/bench_scenarios.py``) must
  clear its per-family bandwidth-reduction floors, and the power-law
  transformation must reduce the BFS level count on the heavy-tailed
  families — structural permutation facts, no wall clock involved.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import sys
from pathlib import Path

HERE = Path(__file__).parent
DEFAULT_RESULTS = HERE / "results"
DEFAULT_BASELINES = HERE / "baselines.json"


def load_results(results_dir: Path) -> dict:
    """``{bench_name: payload}`` for every BENCH_*.json in the directory."""
    out = {}
    for path in sorted(results_dir.glob("BENCH_*.json")):
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"warning: skipping unreadable {path.name}: {exc}")
            continue
        name = payload.get("bench") or path.stem[len("BENCH_"):]
        out[name] = payload
    return out


def load_history(history_path: Path) -> list:
    """Prior run records from the history store (empty without repro)."""
    if not history_path.exists():
        return []
    try:
        from repro.telemetry import history
    except ImportError:
        print(f"warning: {history_path} present but repro is not importable; "
              "falling back to static baselines")
        return []
    return history.read_history(history_path)


def compare(results: dict, baselines: dict, tolerance: float,
            runs: list = (), window: int = 20, min_samples: int = 5) -> list:
    """One row per benchmark:
    ``(name, reference_ms, current_ms, ratio, status, source)``.

    ``source`` is ``history`` when the statistical engine judged the bench
    (reference = rolling-window median) and ``static`` when the committed
    baseline did (reference = baseline ``wall_ms``).  A statistical ``FAIL``
    is reported as ``REGRESSION`` so downstream handling is uniform;
    ``WARN`` / ``IMPROVED`` / ``PASS`` pass the gate.
    """
    engine = None
    if runs:
        try:
            from repro.telemetry import history as engine
        except ImportError:
            engine = None
    rows = []
    for name in sorted(set(results) | set(baselines)):
        base = baselines.get(name, {}).get("wall_ms")
        cur = results.get(name, {}).get("wall_ms")
        if cur is None:
            rows.append((name, base, None, None, "MISSING", "static"))
            continue
        if engine is not None:
            series = engine.metric_series(runs, name)[-window:]
            if len(series) >= min_samples:
                v = engine.robust_verdict(
                    float(cur), series, min_samples=min_samples
                )
                status = "REGRESSION" if v["status"] == "FAIL" else v["status"]
                rows.append(
                    (name, v["median"], cur, v["ratio"], status, "history")
                )
                continue
        if base is None:
            rows.append((name, None, cur, None, "NEW", "static"))
        else:
            ratio = cur / base if base else float("inf")
            status = "REGRESSION" if ratio > 1.0 + tolerance else "OK"
            rows.append((name, base, cur, ratio, status, "static"))
    return rows


def is_enforced(name: str, patterns: list) -> bool:
    """Whether a bench name falls under the always-failing enforce globs."""
    return any(p and fnmatch.fnmatch(name, p) for p in patterns)


def check_service_invariant(results: dict, min_hit_speedup: float) -> list:
    """The cache-hit-beats-cold-compute ratio check (hardware-noise immune)."""
    problems = []
    payload = results.get("service_throughput")
    if payload is None:
        return problems
    hit = payload.get("hit_speedup")
    if hit is None:
        problems.append("service_throughput artifact lacks 'hit_speedup'")
    elif hit < min_hit_speedup:
        problems.append(
            f"service cache-hit speedup is {hit:.1f}x vs cold compute "
            f"(must stay >= {min_hit_speedup:.1f}x) on {payload.get('matrix')}"
        )
    return problems


def check_batch_invariant(results: dict, min_batch_speedup: float) -> list:
    """Batched admission must beat per-request dispatch (noise immune:
    both rates are measured back-to-back on the same machine)."""
    problems = []
    payload = results.get("service_throughput")
    if payload is None:
        return problems
    ratio = payload.get("batch_speedup")
    if ratio is None:
        problems.append("service_throughput artifact lacks 'batch_speedup'")
    elif ratio < min_batch_speedup:
        problems.append(
            f"batched admission is only {ratio:.2f}x the per-request "
            f"dispatch rate (must stay >= {min_batch_speedup:.2f}x; "
            f"batched {payload.get('batched_requests_per_s', 0):.0f}/s, "
            f"single {payload.get('single_requests_per_s', 0):.0f}/s)"
        )
    return problems


def check_profiler_overhead(results: dict, max_overhead_pct: float) -> list:
    """The sampling profiler's warm-path cost budget (noise immune: both
    per-request times are best-of-reps floors measured back-to-back on
    the same machine — see ``bench_service.py``)."""
    problems = []
    payload = results.get("service_throughput")
    if payload is None:
        return problems
    pct = payload.get("profiler_overhead_pct")
    if pct is None:
        problems.append(
            "service_throughput artifact lacks 'profiler_overhead_pct'"
        )
    elif pct > max_overhead_pct:
        problems.append(
            f"sampling profiler degrades the warm path by {pct:.2f}% "
            f"(must stay <= {max_overhead_pct:.2f}%; profiler-on "
            f"{payload.get('warm_ms_per_request_profiled', 0):.4f}ms vs "
            f"off {payload.get('warm_ms_per_request', 0):.4f}ms per "
            f"request)"
        )
    return problems


def check_warm_rate_floor(results: dict, baselines: dict,
                          max_warm_slowdown: float) -> list:
    """The warm cache-hit rate must not collapse vs the committed baseline.

    Absolute rates vary across machines, so the floor is generous: fail
    only when the current rate drops below ``(1 - max_warm_slowdown)`` of
    the baseline ``warm_requests_per_s`` — catching a wrecked warm path
    (e.g. admission batching leaking into cache hits), not runner noise.
    Silently passes when the baseline predates the field.
    """
    payload = results.get("service_throughput")
    base = baselines.get("service_throughput", {}).get("warm_requests_per_s")
    if payload is None or base is None:
        return []
    cur = payload.get("warm_requests_per_s")
    if cur is None:
        return ["service_throughput artifact lacks 'warm_requests_per_s'"]
    floor = base * (1.0 - max_warm_slowdown)
    if cur < floor:
        return [
            f"warm cache-hit rate {cur:.0f}/s fell below {floor:.0f}/s "
            f"({1.0 - max_warm_slowdown:.0%} of the {base:.0f}/s baseline)"
        ]
    return []


def check_speedup_invariant(results: dict, min_speedup: float) -> list:
    """The vectorized-beats-serial ratio check (hardware-noise immune)."""
    problems = []
    payload = results.get("rcm_speedup")
    if payload is None:
        return problems
    speedups = payload.get("speedups_vs_serial", {})
    vec = speedups.get("vectorized")
    if vec is None:
        problems.append("rcm_speedup artifact lacks a 'vectorized' entry")
    elif vec < min_speedup:
        problems.append(
            f"vectorized speedup vs serial is {vec:.2f}x "
            f"(must stay >= {min_speedup:.2f}x) on {payload.get('matrix')}"
        )
    return problems


def check_scenario_floors(results: dict) -> list:
    """Per-family structural floors from the scenario-matrix artifact.

    ``benchmarks/bench_scenarios.py`` embeds each family's
    bandwidth-reduction floor (from
    ``repro.matrices.scenarios.FAMILY_FLOORS``) in the artifact next to
    the measured reduction, so this gate needs no repro import.  Two
    checks per family, both noise-immune (permutation structure, no wall
    clock):

    * the RCM bandwidth reduction (recovery from a seeded shuffle) must
      clear the family floor;
    * the power-law transformation must not deepen the BFS level
      structure anywhere, and must strictly shallow it on the
      heavy-tailed families (power-law / hub-dominated) — the transform's
      entire reason to exist.
    """
    payload = results.get("scenario_matrix")
    if payload is None:
        return []
    problems = []
    for family, row in sorted(payload.get("families", {}).items()):
        red = row.get("bandwidth_reduction")
        floor = row.get("floor")
        if red is None or floor is None:
            problems.append(
                f"scenario_matrix family {family!r} lacks "
                "bandwidth_reduction/floor fields"
            )
            continue
        if red < floor:
            problems.append(
                f"{family} bandwidth reduction {red:.1%} fell below its "
                f"floor {floor:.1%} (scenario {row.get('scenario')})"
            )
        plain = row.get("levels_plain")
        transformed = row.get("levels_transformed")
        if plain is None or transformed is None:
            continue
        if transformed > plain:
            problems.append(
                f"{family}: power-law transform deepened the level "
                f"structure ({plain} -> {transformed} levels on "
                f"{row.get('scenario')})"
            )
        elif family in ("power-law", "hub-dominated") and transformed >= plain:
            problems.append(
                f"{family}: power-law transform did not reduce the level "
                f"count ({plain} -> {transformed} levels on "
                f"{row.get('scenario')}) — its acceptance criterion"
            )
    return problems


def render(rows: list) -> str:
    lines = [f"{'benchmark':40s} {'reference ms':>12s} {'current ms':>12s} "
             f"{'ratio':>7s} {'source':>8s}  status"]
    for name, base, cur, ratio, status, source in rows:
        lines.append(
            f"{name:40s} "
            f"{'-' if base is None else format(base, '12.2f'):>12s} "
            f"{'-' if cur is None else format(cur, '12.2f'):>12s} "
            f"{'-' if ratio is None else format(ratio, '7.2f'):>7s} "
            f"{source:>8s}  {status}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--results-dir", type=Path, default=DEFAULT_RESULTS)
    parser.add_argument("--baselines", type=Path, default=DEFAULT_BASELINES)
    parser.add_argument("--tolerance", type=float, default=0.75,
                        help="allowed slowdown fraction before failing "
                             "(static-baseline fallback path)")
    parser.add_argument("--history", type=Path, default=None,
                        metavar="HISTORY.jsonl",
                        help="run-history store for statistical verdicts "
                             "(default: <results-dir>/history.jsonl)")
    parser.add_argument("--window", type=int, default=20,
                        help="rolling window of prior runs per verdict")
    parser.add_argument("--min-samples", type=int, default=5,
                        help="prior history samples required before the "
                             "statistical engine replaces the static "
                             "baseline for a bench")
    parser.add_argument("--min-speedup", type=float, default=1.0,
                        help="required vectorized-vs-serial speedup ratio")
    parser.add_argument("--min-hit-speedup", type=float, default=10.0,
                        help="required service cache-hit vs cold-compute ratio")
    parser.add_argument("--min-batch-speedup", type=float, default=1.3,
                        help="required batched-admission vs per-request "
                             "dispatch rate ratio")
    parser.add_argument("--max-profiler-overhead-pct", type=float,
                        default=3.0,
                        help="always-enforced budget for the sampling "
                             "profiler's warm-path degradation "
                             "(profiler_overhead_pct in the service "
                             "artifact; default 3.0)")
    parser.add_argument("--max-warm-slowdown", type=float, default=0.5,
                        help="allowed fractional drop of warm_requests_per_s "
                             "below its committed baseline before failing")
    parser.add_argument("--warn-only", action="store_true",
                        help="report wall-clock regressions without failing "
                             "(enforced globs and ratio invariants still fail)")
    parser.add_argument("--enforce", action="append", metavar="GLOB",
                        default=None,
                        help="bench-name glob whose regressions fail even "
                             "under --warn-only (repeatable; default "
                             "'kernel_*'; pass '' to disable)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baselines file from current results")
    args = parser.parse_args(argv)

    results = load_results(args.results_dir)
    if not results:
        print(f"no BENCH_*.json artifacts found in {args.results_dir}")
        return 0 if args.warn_only else 1

    if args.update:
        baselines = {
            name: {
                "wall_ms": payload.get("wall_ms"),
                "matrix": payload.get("matrix"),
                "method": payload.get("method"),
                **(
                    {"warm_requests_per_s": payload["warm_requests_per_s"]}
                    if payload.get("warm_requests_per_s") is not None
                    else {}
                ),
            }
            for name, payload in results.items()
            if payload.get("wall_ms") is not None
        }
        args.baselines.write_text(
            json.dumps(baselines, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {len(baselines)} baselines to {args.baselines}")
        return 0

    baselines = {}
    if args.baselines.exists():
        baselines = json.loads(args.baselines.read_text())
    else:
        print(f"note: no baselines file at {args.baselines}; "
              "all benchmarks reported as NEW")

    history_path = args.history or (args.results_dir / "history.jsonl")
    runs = load_history(history_path)
    if runs:
        print(f"history: {len(runs)} prior runs in {history_path}\n")
    rows = compare(results, baselines, args.tolerance,
                   runs=runs, window=args.window,
                   min_samples=args.min_samples)
    print(render(rows))

    enforce = args.enforce if args.enforce is not None else ["kernel_*"]
    warnings, enforced = [], []
    for name, _, _, ratio, status, source in rows:
        if status != "REGRESSION":
            continue
        ref = ("rolling-window median" if source == "history"
               else "baseline")
        msg = f"{name}: {ratio:.2f}x slower than {ref}"
        (enforced if is_enforced(name, enforce) else warnings).append(msg)
    # ratio invariants are noise-immune: always enforced
    enforced += check_speedup_invariant(results, args.min_speedup)
    enforced += check_service_invariant(results, args.min_hit_speedup)
    enforced += check_batch_invariant(results, args.min_batch_speedup)
    enforced += check_warm_rate_floor(results, baselines,
                                      args.max_warm_slowdown)
    enforced += check_profiler_overhead(results,
                                        args.max_profiler_overhead_pct)
    enforced += check_scenario_floors(results)

    for msg in warnings:
        print(f"\nPROBLEM: {msg}")
    for msg in enforced:
        print(f"\nENFORCED PROBLEM: {msg}")

    if enforced:
        return 1
    if warnings:
        if args.warn_only:
            print("(--warn-only: not failing the build)")
            return 0
        return 1
    print("\nall benchmarks within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
