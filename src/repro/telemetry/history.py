"""Persistent run-history store and statistical trend verdicts.

Every benchmark session produces point-in-time ``BENCH_*.json`` artifacts;
this module turns them into a *trajectory*: an append-only, schema-versioned
JSONL store (``benchmarks/results/history.jsonl`` by convention) where each
line is one complete run — every bench's wall time and the summed counter
snapshot — stamped with ``git_sha`` / ``branch`` / ``hostname`` /
``timestamp``.

On top of the store sits a noise-aware regression engine.  A static
baseline cannot tell a real regression from run-to-run jitter; a rolling
window can.  For each metric the last ``window`` historical samples give a
median and a MAD (median absolute deviation), and the fresh value gets a
robust z-score::

    z = (current - median) / (1.4826 * MAD)

A verdict is ``FAIL`` only when the z-score clears ``z_fail`` *and* the
current/median ratio clears ``ratio_guard`` (so a microsecond-stable metric
with near-zero MAD cannot fail on an invisible absolute change), ``WARN``
between ``z_warn`` and ``z_fail``, ``IMPROVED`` on a symmetric negative
excursion, ``SKIP`` until ``min_samples`` historical runs exist, and
``PASS`` otherwise.  ``repro telemetry trend`` renders the verdicts with
ASCII sparklines and ``benchmarks/check_regressions.py`` consumes the same
engine for its gate.
"""

from __future__ import annotations

import datetime as _dt
import json
import platform
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.telemetry.events import git_sha, host_info, read_jsonl

__all__ = [
    "HISTORY_SCHEMA",
    "SCHEMA_VERSION",
    "HistoryStore",
    "TrendVerdict",
    "build_run_record",
    "evaluate_trends",
    "read_history",
    "render_trends",
    "robust_verdict",
    "runs_since",
    "sparkline",
    "verdict_document",
]

#: schema tag on every history record
HISTORY_SCHEMA = "repro-history/v1"

#: bumped whenever the record layout changes incompatibly
SCHEMA_VERSION = 1

#: robust z-score above which a metric is suspicious / failing
DEFAULT_Z_WARN = 3.5
DEFAULT_Z_FAIL = 6.0

#: minimum current/median ratio for a FAIL — a z-score alone can explode
#: when the window's MAD is tiny; a real regression must also *look* slower
DEFAULT_RATIO_GUARD = 1.15

#: MAD floor as a fraction of the median (stabilizes jitter-free windows)
DEFAULT_REL_FLOOR = 0.025

#: rolling-window length and the sample count required before enforcement
DEFAULT_WINDOW = 20
DEFAULT_MIN_SAMPLES = 5

_SPARK_GLYPHS = "▁▂▃▄▅▆▇█"


def _git_branch(default: str = "unknown") -> str:
    """Current branch name, ``default`` outside a work tree / detached CI."""
    import subprocess

    try:
        out = subprocess.run(
            ["git", "rev-parse", "--abbrev-ref", "HEAD"],
            capture_output=True, text=True, timeout=5,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.SubprocessError):
        return default
    name = out.stdout.strip()
    return name if out.returncode == 0 and name else default


def _utc_timestamp(unix_time: float) -> str:
    """ISO-8601 UTC timestamp for a POSIX time."""
    return _dt.datetime.fromtimestamp(
        unix_time, tz=_dt.timezone.utc
    ).isoformat(timespec="seconds")


def stamp_provenance(record: dict, *, unix_time: Optional[float] = None) -> dict:
    """Return ``record`` with the per-run provenance fields filled in.

    Adds ``schema`` / ``schema_version`` / ``git_sha`` / ``branch`` /
    ``hostname`` / ``unix_time`` / ``timestamp`` (ISO-8601 UTC) without
    overwriting values the caller already supplied.
    """
    now = time.time() if unix_time is None else unix_time
    stamped = {
        "schema": HISTORY_SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "git_sha": git_sha(),
        "branch": _git_branch(),
        "hostname": platform.node() or "unknown",
        "unix_time": now,
        "timestamp": _utc_timestamp(now),
    }
    stamped.update(record)
    return stamped


def build_run_record(
    results_dir: Union[str, Path],
    *,
    unix_time: Optional[float] = None,
) -> dict:
    """One history record summarizing a ``benchmarks/results`` directory.

    Ingests every ``BENCH_*.json`` (per-bench ``wall_ms`` plus matrix /
    method provenance), sums every payload's counter snapshot into one
    run-level ``counters`` aggregate (the offline SLO input — see
    :mod:`repro.telemetry.slo`).
    """
    results_dir = Path(results_dir)
    benches: Dict[str, dict] = {}
    counters: Dict[str, float] = {}
    for path in sorted(results_dir.glob("BENCH_*.json")):
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        name = payload.get("bench") or path.stem[len("BENCH_"):]
        entry = {"wall_ms": payload.get("wall_ms")}
        for key in ("matrix", "method"):
            if payload.get(key) is not None:
                entry[key] = payload[key]
        benches[name] = entry
        for cname, value in (payload.get("counters") or {}).items():
            counters[cname] = counters.get(cname, 0) + value

    return stamp_provenance(
        {
            "host": host_info(),
            "benches": benches,
            "counters": counters,
        },
        unix_time=unix_time,
    )


class HistoryStore:
    """Append-only, schema-versioned JSONL store of run records.

    Appends are one locked ``open("a")`` + one line — safe under
    concurrent writers within a process and crash-tolerant across them
    (a torn tail is skipped by the robust ``read_jsonl`` on read).
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()

    def append(self, record: dict) -> dict:
        """Stamp provenance onto ``record`` (if absent) and append it."""
        if record.get("schema") != HISTORY_SCHEMA:
            record = stamp_provenance(record)
        line = json.dumps(record, sort_keys=True)
        with self._lock:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("a") as fh:
                fh.write(line + "\n")
        return record

    def read(self) -> List[dict]:
        """Every stored run, oldest first (corrupt lines skipped)."""
        if not self.path.exists():
            return []
        return read_history(self.path)

    def __len__(self) -> int:
        return len(self.read())


def read_history(path: Union[str, Path]) -> List[dict]:
    """History records from ``path``, schema-filtered, oldest first."""
    return [
        r for r in read_jsonl(path)
        if r.get("schema") == HISTORY_SCHEMA and "benches" in r
    ]


def runs_since(runs: Sequence[dict], sha: str) -> List[dict]:
    """The suffix of ``runs`` starting at the first record whose
    ``git_sha`` begins with ``sha`` (the whole list when absent)."""
    for i, run in enumerate(runs):
        if str(run.get("git_sha", "")).startswith(sha):
            return list(runs[i:])
    return list(runs)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def _median(xs: Sequence[float]) -> float:
    s = sorted(xs)
    n = len(s)
    mid = n // 2
    return s[mid] if n % 2 else (s[mid - 1] + s[mid]) / 2.0


def robust_verdict(
    current: float,
    samples: Sequence[float],
    *,
    min_samples: int = DEFAULT_MIN_SAMPLES,
    z_warn: float = DEFAULT_Z_WARN,
    z_fail: float = DEFAULT_Z_FAIL,
    ratio_guard: float = DEFAULT_RATIO_GUARD,
    rel_floor: float = DEFAULT_REL_FLOOR,
) -> dict:
    """Noise-aware verdict of ``current`` against historical ``samples``.

    Returns ``{status, z, ratio, median, mad, samples}`` where ``status``
    is ``SKIP`` (fewer than ``min_samples`` samples), ``FAIL`` (robust
    z-score above ``z_fail`` *and* ratio above ``ratio_guard``), ``WARN``
    (z-score above ``z_warn``), ``IMPROVED`` (z-score below ``-z_warn``)
    or ``PASS``.
    """
    n = len(samples)
    if n < min_samples:
        return {
            "status": "SKIP", "z": None, "ratio": None,
            "median": _median(samples) if samples else None,
            "mad": None, "samples": n,
        }
    med = _median(samples)
    mad = _median([abs(x - med) for x in samples])
    # 1.4826 * MAD estimates sigma for normal noise; the relative floor
    # keeps jitter-free windows (MAD == 0) from turning any wobble into
    # an infinite z-score
    scale = max(1.4826 * mad, rel_floor * abs(med), 1e-12)
    z = (current - med) / scale
    ratio = current / med if med else float("inf")
    if z > z_fail and ratio > ratio_guard:
        status = "FAIL"
    elif z > z_warn:
        status = "WARN"
    elif z < -z_warn:
        status = "IMPROVED"
    else:
        status = "PASS"
    return {
        "status": status, "z": z, "ratio": ratio,
        "median": med, "mad": mad, "samples": n,
    }


@dataclass
class TrendVerdict:
    """Per-metric outcome of :func:`evaluate_trends`."""

    bench: str
    metric: str
    current: Optional[float]
    status: str
    z: Optional[float] = None
    ratio: Optional[float] = None
    median: Optional[float] = None
    mad: Optional[float] = None
    samples: int = 0
    series: List[float] = field(default_factory=list)

    def to_dict(self) -> dict:
        """The verdict as a plain JSON-serializable mapping."""
        return {
            "bench": self.bench,
            "metric": self.metric,
            "current": self.current,
            "status": self.status,
            "z": self.z,
            "ratio": self.ratio,
            "median": self.median,
            "mad": self.mad,
            "samples": self.samples,
        }


def metric_series(
    runs: Sequence[dict], bench: str, metric: str = "wall_ms"
) -> List[float]:
    """``metric`` values of ``bench`` across ``runs`` (absent runs skipped)."""
    out: List[float] = []
    for run in runs:
        value = (run.get("benches") or {}).get(bench, {}).get(metric)
        if value is not None:
            out.append(float(value))
    return out


def evaluate_trends(
    runs: Sequence[dict],
    *,
    metric: str = "wall_ms",
    window: int = DEFAULT_WINDOW,
    min_samples: int = DEFAULT_MIN_SAMPLES,
    z_warn: float = DEFAULT_Z_WARN,
    z_fail: float = DEFAULT_Z_FAIL,
    ratio_guard: float = DEFAULT_RATIO_GUARD,
) -> List[TrendVerdict]:
    """Trend verdicts for the newest run in ``runs`` against its history.

    The newest run supplies the "current" value per bench; the preceding
    (up to ``window``) runs supply the rolling sample window.  Benches that
    vanished from the newest run are reported as ``MISSING``.
    """
    if not runs:
        return []
    latest = runs[-1]
    prior = list(runs[:-1])
    names = sorted(
        set(latest.get("benches") or {})
        | {b for r in prior for b in (r.get("benches") or {})}
    )
    verdicts: List[TrendVerdict] = []
    for bench in names:
        series = metric_series(prior, bench, metric)[-window:]
        current = (latest.get("benches") or {}).get(bench, {}).get(metric)
        if current is None:
            verdicts.append(TrendVerdict(
                bench=bench, metric=metric, current=None,
                status="MISSING", samples=len(series), series=series,
            ))
            continue
        v = robust_verdict(
            float(current), series, min_samples=min_samples,
            z_warn=z_warn, z_fail=z_fail, ratio_guard=ratio_guard,
        )
        verdicts.append(TrendVerdict(
            bench=bench, metric=metric, current=float(current),
            status=v["status"], z=v["z"], ratio=v["ratio"],
            median=v["median"], mad=v["mad"], samples=v["samples"],
            series=series + [float(current)],
        ))
    return verdicts


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def sparkline(values: Sequence[float], width: int = 16) -> str:
    """``values`` as a fixed-width block-glyph sparkline (newest right)."""
    if not values:
        return " " * width
    vals = list(values)[-width:]
    lo, hi = min(vals), max(vals)
    span = hi - lo
    glyphs = []
    for v in vals:
        idx = (
            0 if span == 0
            else int((v - lo) / span * (len(_SPARK_GLYPHS) - 1))
        )
        glyphs.append(_SPARK_GLYPHS[idx])
    return "".join(glyphs).rjust(width)


def render_trends(verdicts: Sequence[TrendVerdict], *,
                  spark_width: int = 16) -> str:
    """The verdict list as an aligned table with sparklines."""
    name_w = max([len(v.bench) for v in verdicts] + [len("benchmark")])
    header = (
        f"{'benchmark':<{name_w}} {'current':>10} {'median':>10} "
        f"{'ratio':>6} {'z':>6} {'n':>3} {'trend':>{spark_width}}  verdict"
    )
    lines = [header, "-" * len(header)]
    for v in verdicts:
        cur = "-" if v.current is None else f"{v.current:10.2f}"
        med = "-" if v.median is None else f"{v.median:10.2f}"
        ratio = "-" if v.ratio is None else f"{v.ratio:6.2f}"
        z = "-" if v.z is None else f"{v.z:6.1f}"
        lines.append(
            f"{v.bench:<{name_w}} {cur:>10} {med:>10} {ratio:>6} {z:>6} "
            f"{v.samples:>3} {sparkline(v.series, spark_width)}  {v.status}"
        )
    return "\n".join(lines)


def verdict_document(
    verdicts: Sequence[TrendVerdict],
    *,
    metric: str = "wall_ms",
    history_path: Optional[Union[str, Path]] = None,
) -> dict:
    """Machine-readable verdict summary (what ``trend --check`` emits)."""
    by_status: Dict[str, int] = {}
    for v in verdicts:
        by_status[v.status] = by_status.get(v.status, 0) + 1
    return stamp_provenance({
        "kind": "trend-verdict",
        "metric": metric,
        "history": str(history_path) if history_path else None,
        "verdicts": [v.to_dict() for v in verdicts],
        "by_status": by_status,
        "failed": sorted(v.bench for v in verdicts if v.status == "FAIL"),
        "ok": not any(v.status == "FAIL" for v in verdicts),
    })
