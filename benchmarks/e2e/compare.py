#!/usr/bin/env python3
"""Compare two sets of benchmark runs, or summarize one.

    python3 benchmarks/e2e/compare.py A1.json A2.json ... -- B1.json B2.json ...
    python3 benchmarks/e2e/compare.py RUN.json ... [--json]

Arguments are the ``<out>.json`` records ``run.py`` writes; traced records
are skipped.  With ``--``, runs before it are the parent (A) and runs after
it the change (B); the i-th A run and the i-th B run of a workload form a
pair, so run them alternately.  For every workload and end-to-end metric
of ``BENCHMARK.json`` the verdict is:

* ``gain``: B wins at least 9 of 10 pairs (ties count for neither side) and
  the medians differ by more than A's interquartile range;
* ``worse``: B's median is worse than A's by more than the metric's bound;
* ``unresolved``: either side's spread (IQR over median) exceeds the
  bound, unless every B run beats every A run;
* ``same`` otherwise.

The exit status is 1 when any verdict is ``worse``.  Without ``--`` the
runs are summarized (median, quartiles, spread per workload and metric);
``--json`` prints that summary as one line for ``trajectory.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load(paths: List[str]) -> Dict[str, List[dict]]:
    """Untraced, correct records grouped by workload, in argument order."""
    by_workload: Dict[str, List[dict]] = defaultdict(list)
    for p in paths:
        rec = json.loads(Path(p).read_text())
        if rec["trace"]:
            continue
        if not rec["result"]["correct"]:
            print(f"{p}: run failed its correctness check, skipped",
                  file=sys.stderr)
            continue
        by_workload[rec["workload"]].append(rec)
    return by_workload


def values(runs: List[dict], metric: str) -> List[float]:
    return [r["result"]["metrics"][metric]["value"] for r in runs]


def spread(vals: List[float]) -> Dict[str, float]:
    med = statistics.median(vals)
    if len(vals) < 2:
        return {"median": med, "q1": med, "q3": med, "iqr_frac": 0.0}
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return {"median": med, "q1": q1, "q3": q3, "iqr_frac": (q3 - q1) / med}


def verdict(a: List[float], b: List[float], better: str, bound: float) -> dict:
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(a, b))
    wins = sum(sign * (y - x) > 0 for x, y in pairs)
    sa, sb = spread(a), spread(b)
    delta = sign * (sb["median"] - sa["median"])  # > 0: B is better
    all_better = all(sign * (y - x) > 0 for x in a for y in b)
    if pairs and wins >= 0.9 * len(pairs) and delta > sa["q3"] - sa["q1"]:
        word = "gain"
    elif -delta > bound * sa["median"]:
        word = "worse"
    elif max(sa["iqr_frac"], sb["iqr_frac"]) > bound and not all_better:
        word = "unresolved"
    else:
        word = "same"
    return {
        "verdict": word, "wins": wins, "pairs": len(pairs),
        "a": sa, "b": sb, "change": sb["median"] / sa["median"] - 1,
    }


def compare(a_paths: List[str], b_paths: List[str]) -> int:
    metrics = json.loads(SPEC.read_text())["end_to_end"]
    a, b = load(a_paths), load(b_paths)
    worse = False
    print(f"{'workload':20} {'metric':18} {'A median':>11} {'B median':>11} "
          f"{'change':>8} {'wins':>6}  verdict")
    for workload in sorted(set(a) & set(b)):
        for m in metrics:
            v = verdict(
                values(a[workload], m["name"]), values(b[workload], m["name"]),
                m["better"], m["bound"],
            )
            worse |= v["verdict"] == "worse"
            print(f"{workload:20} {m['name']:18} {v['a']['median']:11.5g} "
                  f"{v['b']['median']:11.5g} {v['change']:+8.1%} "
                  f"{v['wins']:>3}/{v['pairs']:<2}  {v['verdict']}")
    for workload in sorted(set(a) ^ set(b)):
        print(f"{workload}: runs on one side only, not compared")
    return 1 if worse else 0


def summarize(paths: List[str], as_json: bool) -> int:
    runs = load(paths)
    summary = {
        workload: {
            name: {**spread(values(rs, name)), "runs": len(rs)}
            for name in rs[0]["result"]["metrics"]
        }
        for workload, rs in sorted(runs.items())
    }
    if as_json:
        first = next(iter(runs.values()))[0]
        prov = {k: v for k, v in first["provenance"].items() if k != "seed"}
        print(json.dumps({
            "schema": "repro-e2e-trajectory/v1",
            **prov,
            "seconds": first["seconds"],
            "seeds": sorted({r["provenance"]["seed"]
                             for rs in runs.values() for r in rs}),
            "workloads": summary,
        }, sort_keys=True))
        return 0
    for workload, ms in summary.items():
        for name, s in ms.items():
            print(f"{workload:20} {name:18} median {s['median']:11.5g}  "
                  f"q1 {s['q1']:11.5g}  q3 {s['q3']:11.5g}  "
                  f"spread {s['iqr_frac']:6.1%}  runs {s['runs']}")
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--" in argv:
        cut = argv.index("--")
        return compare(argv[:cut], argv[cut + 1:])
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("runs", nargs="+", help="run records to summarize")
    ap.add_argument("--json", action="store_true",
                    help="one JSON line, the trajectory.jsonl format")
    args = ap.parse_args(argv)
    return summarize(args.runs, args.json)


if __name__ == "__main__":
    sys.exit(main())
