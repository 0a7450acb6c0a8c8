"""Tests for declarative SLOs and their live evaluation surfaces.

Covers the :class:`~repro.telemetry.slo.SLO` primitive (check/burn in both
directions), signal derivation from metrics snapshots, histogram-summary
quantiles, health scoring, gauge export, the
``/statusz`` + ``/metrics`` SLO surfaces of :class:`MetricsServer`
(including uptime and graceful-shutdown state), the per-request quality
histograms, and the ``repro inspect`` report.
"""

import json
import urllib.request

import pytest

from repro import telemetry
from repro.telemetry import slo
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.prometheus import MetricsServer


@pytest.fixture(autouse=True)
def clean_global_telemetry():
    telemetry.reset()
    telemetry.disable()
    yield
    telemetry.reset()
    telemetry.disable()


def _snapshot(counters=None, histograms=None):
    return {"counters": counters or {}, "histograms": histograms or {}}


class TestSLOPrimitive:
    def test_max_direction_check(self):
        s = slo.SLO("s", "d", "sig", objective=5.0, direction="max")
        assert s.check(4.0) is True
        assert s.check(5.0) is True
        assert s.check(6.0) is False
        assert s.check(None) is None

    def test_min_direction_check(self):
        s = slo.SLO("s", "d", "sig", objective=0.5, direction="min")
        assert s.check(0.9) is True
        assert s.check(0.4) is False

    def test_burn_normalizes_both_directions(self):
        mx = slo.SLO("s", "d", "sig", objective=4.0, direction="max")
        assert mx.burn(2.0) == pytest.approx(0.5)
        assert mx.burn(8.0) == pytest.approx(2.0)
        mn = slo.SLO("s", "d", "sig", objective=0.5, direction="min")
        assert mn.burn(1.0) == pytest.approx(0.5)
        assert mn.burn(0.25) == pytest.approx(2.0)
        assert mn.burn(0.0) == float("inf")

    def test_invalid_direction_rejected(self):
        with pytest.raises(ValueError):
            slo.SLO("s", "d", "sig", objective=1.0, direction="sideways")


class TestQuantileFromSummary:
    def test_empty_summary_is_none(self):
        assert slo.quantile_from_summary(None, 0.99) is None
        assert slo.quantile_from_summary({"count": 0, "sum": 0.0}, 0.5) is None

    def test_single_observation(self):
        summary = {"count": 1, "min": 3.0, "max": 3.0, "buckets": {}}
        assert slo.quantile_from_summary(summary, 0.99) == 3.0

    def test_matches_live_histogram_bounds(self):
        from repro.telemetry.metrics import Histogram

        h = Histogram("h", buckets=(1.0, 2.0, 5.0))
        for v in (0.5, 1.5, 1.6, 4.0, 4.5, 4.9):
            h.observe(v)
        q = slo.quantile_from_summary(h.to_dict(), 0.99)
        assert 2.0 <= q <= 4.9

    def test_bad_quantile_rejected(self):
        with pytest.raises(ValueError):
            slo.quantile_from_summary({"count": 1}, 1.5)


class TestCollectSignals:
    def test_cache_hit_ratio(self):
        sig = slo.collect_signals(_snapshot(
            {"service.cache.hits": 3, "service.cache.misses": 1}
        ))
        assert sig["cache_hit_ratio"] == pytest.approx(0.75)

    def test_idle_service_yields_none_signals(self):
        sig = slo.collect_signals(_snapshot())
        assert all(v is None for v in sig.values())

    def test_fallback_and_drop_rates(self):
        sig = slo.collect_signals(_snapshot({
            "service.requests": 20,
            "service.fallbacks.serial": 1,
            "service.fallbacks.vectorized": 1,
            "threads.speculation.discovered": 100,
            "threads.speculation.dropped": 25,
        }))
        assert sig["service_fallback_rate"] == pytest.approx(0.1)
        assert sig["speculation_drop_rate"] == pytest.approx(0.25)


class TestEvaluate:
    def test_idle_is_healthy(self):
        ev = slo.evaluate(_snapshot())
        assert ev["health_score"] == 1.0
        assert ev["evaluated"] == 0
        assert set(ev["slos"]) == {s.name for s in slo.DEFAULT_SLOS}

    def test_health_score_is_met_fraction(self):
        ev = slo.evaluate(_snapshot({
            "service.cache.hits": 9, "service.cache.misses": 1,   # ok
            "threads.speculation.discovered": 10,
            "threads.speculation.dropped": 9,                      # violated
        }))
        assert ev["evaluated"] == 2
        assert ev["met"] == 1
        assert ev["health_score"] == pytest.approx(0.5)
        assert ev["slos"]["cache_hit_ratio"]["ok"] is True
        assert ev["slos"]["speculation_drop_rate"]["ok"] is False
        assert ev["slos"]["speculation_drop_rate"]["burn"] > 1.0


class TestExportGauges:
    def test_health_always_exported(self):
        reg = MetricsRegistry()
        slo.export_gauges(reg, slo.evaluate(_snapshot()))
        assert reg.to_dict()["gauges"]["slo.health_score"] == 1.0

    def test_unevaluable_slos_export_no_gauges(self):
        reg = MetricsRegistry()
        slo.export_gauges(reg, slo.evaluate(_snapshot()))
        gauges = reg.to_dict()["gauges"]
        assert [g for g in gauges if g.startswith("slo.")] == [
            "slo.health_score"
        ]

    def test_evaluable_slo_exports_burn_and_ok(self):
        reg = MetricsRegistry()
        slo.export_gauges(reg, slo.evaluate(_snapshot(
            {"service.cache.hits": 3, "service.cache.misses": 1}
        )))
        gauges = reg.to_dict()["gauges"]
        assert gauges["slo.cache_hit_ratio.ok"] == 1
        assert gauges["slo.cache_hit_ratio.burn"] == pytest.approx(0.5 / 0.75)


class TestMetricsServerSLO:
    def _get(self, url):
        with urllib.request.urlopen(url, timeout=5) as resp:
            return resp.read().decode()

    def test_statusz_reports_slo_uptime_and_state(self):
        reg = MetricsRegistry()
        reg.counter("service.cache.hits").add(3)
        reg.counter("service.cache.misses").add(1)
        with MetricsServer(reg, port=0) as srv:
            doc = json.loads(self._get(srv.url + "/statusz"))
            assert doc["state"] == "serving"
            assert doc["uptime_s"] >= 0
            assert doc["slo"]["health_score"] == 1.0
            assert doc["slo"]["slos"]["cache_hit_ratio"]["ok"] is True

    def test_mark_shutdown_flips_state(self):
        with MetricsServer(MetricsRegistry(), port=0) as srv:
            srv.mark_shutdown()
            doc = json.loads(self._get(srv.url + "/statusz"))
            assert doc["state"] == "shutting-down"

    def test_metrics_scrape_exports_slo_gauges(self):
        reg = MetricsRegistry()
        reg.counter("service.cache.hits").add(9)
        reg.counter("service.cache.misses").add(1)
        with MetricsServer(reg, port=0) as srv:
            text = self._get(srv.url + "/metrics")
        assert "slo_health_score 1" in text
        assert "slo_cache_hit_ratio_ok 1" in text


class TestRequestQualityHistograms:
    def test_reorder_records_reduction_histograms(self, medium_grid):
        import repro

        telemetry.enable()
        repro.reorder(medium_grid, method="serial")
        hists = telemetry.get().snapshot()["histograms"]
        bw = hists["request.bandwidth_reduction"]
        assert bw["count"] == 1
        # RCM on a grid must not make quality worse
        assert bw["min"] >= 0.0
        # the envelope is not recomputed per request; `repro inspect`
        # reports it on demand
        assert "request.envelope_reduction" not in hists

    def test_speculation_efficiency_gauge_set_by_threads_run(self, medium_grid):
        import repro

        telemetry.enable()
        repro.reorder(medium_grid, method="threads", n_workers=2)
        snap = telemetry.get().snapshot()
        eff = snap["gauges"]["threads.speculation.efficiency"]
        assert 0.0 <= eff <= 1.0
        assert snap["histograms"]["threads.batch.discovered"]["count"] > 0

    def test_warm_hit_latency_histogram(self, medium_grid):
        from repro.service import ReorderService, ServiceConfig

        telemetry.enable()
        with ReorderService(ServiceConfig(n_workers=1)) as svc:
            svc.submit(medium_grid, method="serial").result(30)
            svc.submit(medium_grid, method="serial").result(30)
        hists = telemetry.get().snapshot()["histograms"]
        assert hists["service.hit_latency_ms"]["count"] >= 1


class TestInspectCli:
    def _run(self, *argv):
        from repro.cli import main

        return main(list(argv))

    def test_inspect_reports_speculation_and_quality(self, tmp_path,
                                                     medium_grid, capsys):
        from repro.sparse.io import save_npz

        path = tmp_path / "grid.npz"
        save_npz(medium_grid, path)
        assert self._run("inspect", str(path), "--method", "threads",
                         "--workers", "2") == 0
        out = capsys.readouterr().out
        assert "level structure:" in out
        assert "speculation:" in out
        assert "bandwidth:" in out

    def test_inspect_json_document(self, tmp_path, medium_grid, capsys):
        from repro.sparse.io import save_npz

        path = tmp_path / "grid.npz"
        save_npz(medium_grid, path)
        assert self._run("inspect", str(path), "--method", "threads",
                         "--workers", "2", "--json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["speculation"]["discovered"] > 0
        assert 0.0 <= doc["speculation"]["efficiency"] <= 1.0
        assert doc["quality"]["bandwidth_reduction"] is not None
        assert doc["levels"]["depth"] > 0

    def test_inspect_nonspeculative_method(self, tmp_path, medium_grid,
                                           capsys):
        from repro.sparse.io import save_npz

        path = tmp_path / "grid.npz"
        save_npz(medium_grid, path)
        assert self._run("inspect", str(path), "--method", "serial") == 0
        assert "none recorded" in capsys.readouterr().out
