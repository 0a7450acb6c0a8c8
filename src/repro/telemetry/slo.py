"""Declarative service-level objectives over the metrics registry.

An :class:`SLO` binds a *signal* — a derived quantity computed from a
metrics snapshot (ratios over counters, histogram quantiles) — to an
objective and a direction.  ``/statusz`` embeds the evaluation and
``/metrics`` exports ``slo.*`` gauges on every scrape (see
:class:`repro.telemetry.prometheus.MetricsServer`).

Every signal is *total*: when its inputs are absent (no cache traffic yet,
no speculation run recorded) the signal is ``None`` and the SLO is simply
not evaluable — it neither passes nor burns.  The **health score** is the
met fraction of evaluable SLOs (``1.0`` when nothing is evaluable: an idle
service is a healthy service).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

__all__ = [
    "SLO",
    "DEFAULT_SLOS",
    "collect_signals",
    "evaluate",
    "export_gauges",
    "quantile_from_summary",
]


@dataclass(frozen=True)
class SLO:
    """One objective: ``signal`` must stay on the right side of ``objective``.

    ``direction="max"`` means the signal must stay **at or below** the
    objective (latencies, error rates); ``direction="min"`` means at or
    above (hit ratios).  ``burn`` normalizes consumption of the objective
    to 1.0 = exactly at the limit, so dashboards can alert on a single
    scale regardless of direction.
    """

    name: str
    description: str
    signal: str
    objective: float
    direction: str = "max"
    unit: str = ""

    def __post_init__(self) -> None:
        if self.direction not in ("max", "min"):
            raise ValueError(
                f"direction must be 'max' or 'min'; got {self.direction!r}"
            )

    def check(self, value: Optional[float]) -> Optional[bool]:
        """Whether ``value`` meets the objective (``None`` = not evaluable)."""
        if value is None:
            return None
        if self.direction == "max":
            return value <= self.objective
        return value >= self.objective

    def burn(self, value: Optional[float]) -> Optional[float]:
        """Objective consumption: 1.0 = at the limit, > 1.0 = violated."""
        if value is None:
            return None
        if self.direction == "max":
            return value / self.objective if self.objective else float("inf")
        return self.objective / value if value else float("inf")


#: the shipped objectives — what "healthy" means for this service
DEFAULT_SLOS: Tuple[SLO, ...] = (
    SLO(
        name="warm_hit_latency_p99_ms",
        description="p99 wall time to serve a warm cache hit",
        signal="warm_hit_p99_ms",
        objective=5.0,
        direction="max",
        unit="ms",
    ),
    SLO(
        name="cache_hit_ratio",
        description="memory+disk cache hits over all cache lookups",
        signal="cache_hit_ratio",
        objective=0.5,
        direction="min",
    ),
    SLO(
        name="speculation_drop_rate",
        description="speculatively discovered nodes later dropped",
        signal="speculation_drop_rate",
        objective=0.5,
        direction="max",
    ),
)


def quantile_from_summary(summary: Optional[dict], q: float) -> Optional[float]:
    """Estimated ``q``-quantile from a ``Histogram.to_dict()`` snapshot.

    The one quantile estimator: the bucket midpoint holding rank
    ``q * (count - 1)``, clamped to the observed ``[min, max]``; a single
    sample answers itself for every ``q``.  ``None`` when the snapshot is
    absent or empty.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1]; got {q!r}")
    if not summary or not summary.get("count"):
        return None
    count = summary["count"]
    lo_all, hi_all = summary.get("min", 0.0), summary.get("max", 0.0)
    if count == 1:
        return float(lo_all)
    buckets = summary.get("buckets") or {}
    bounds = sorted(
        (float("inf") if le == "inf" else float(le), n)
        for le, n in buckets.items()
    )
    rank = q * (count - 1)
    seen = 0
    prev_bound: Optional[float] = None
    for bound, n in bounds:
        seen += n
        if seen > rank:
            lo = prev_bound if prev_bound is not None else lo_all
            hi = hi_all if bound == float("inf") else bound
            est = (lo + hi) / 2.0
            return float(min(max(est, lo_all), hi_all))
        prev_bound = bound
    return float(hi_all)


def _ratio(num: float, den: float) -> Optional[float]:
    return (num / den) if den else None


def collect_signals(snapshot: dict) -> Dict[str, Optional[float]]:
    """Derive every SLO input signal from a metrics snapshot.

    ``snapshot`` is a :meth:`MetricsRegistry.to_dict` document.
    """
    counters = snapshot.get("counters") or {}
    histograms = snapshot.get("histograms") or {}

    hits = counters.get("service.cache.hits", 0)
    misses = counters.get("service.cache.misses", 0)
    discovered = counters.get("threads.speculation.discovered", 0)
    dropped = counters.get("threads.speculation.dropped", 0)

    return {
        "warm_hit_p99_ms": quantile_from_summary(
            histograms.get("service.hit_latency_ms"), 0.99
        ),
        "cache_hit_ratio": _ratio(hits, hits + misses),
        "speculation_drop_rate": _ratio(dropped, discovered),
    }


def evaluate(
    snapshot: dict,
    *,
    slos: Sequence[SLO] = DEFAULT_SLOS,
) -> dict:
    """Evaluate ``slos`` against one metrics snapshot.

    Returns ``{"health_score", "evaluated", "met", "slos": {name: {...}}}``
    — per SLO the measured value, objective, direction, burn and verdict
    (``None`` verdict = not evaluable from this snapshot).
    """
    signals = collect_signals(snapshot)
    per_slo: Dict[str, dict] = {}
    evaluated = met = 0
    for slo in slos:
        value = signals.get(slo.signal)
        ok = slo.check(value)
        if ok is not None:
            evaluated += 1
            met += int(ok)
        per_slo[slo.name] = {
            "description": slo.description,
            "value": value,
            "objective": slo.objective,
            "direction": slo.direction,
            "unit": slo.unit,
            "burn": slo.burn(value),
            "ok": ok,
        }
    return {
        "health_score": (met / evaluated) if evaluated else 1.0,
        "evaluated": evaluated,
        "met": met,
        "slos": per_slo,
    }


def export_gauges(registry, evaluation: dict) -> None:
    """Mirror an evaluation onto ``slo.*`` gauges of ``registry``.

    ``slo.health_score`` is always set; per-SLO ``slo.<name>.burn`` /
    ``slo.<name>.ok`` gauges are set only when the SLO is evaluable, so
    the exposition never shows a made-up zero burn.
    """
    registry.gauge("slo.health_score").set(evaluation["health_score"])
    for name, doc in evaluation["slos"].items():
        if doc["ok"] is None:
            continue
        registry.gauge(f"slo.{name}.burn").set(doc["burn"])
        registry.gauge(f"slo.{name}.ok").set(int(doc["ok"]))
