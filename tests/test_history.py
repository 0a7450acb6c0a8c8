"""Tests for the run-history store and statistical trend verdicts.

Covers provenance stamping, results-directory ingestion, the robust
median/MAD verdict math (the acceptance bar: a 2x wall-time regression
FAILs while <=10% jitter PASSes), trend evaluation and rendering, the
``repro telemetry ingest`` / ``repro telemetry trend`` CLI, the
history-aware ``benchmarks/check_regressions.py`` gate, and the
single-location benchmark artifact contract of ``benchmarks/conftest.py``.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.telemetry import history

REPO = Path(__file__).resolve().parents[1]


def _bench_payload(name, wall_ms, **extra):
    payload = {"bench": name, "wall_ms": wall_ms, "counters": {}}
    payload.update(extra)
    return payload


def _seed_results(results_dir, benches):
    results_dir.mkdir(parents=True, exist_ok=True)
    for name, payload in benches.items():
        (results_dir / f"BENCH_{name}.json").write_text(
            json.dumps(payload, indent=2) + "\n"
        )


def _seed_history(path, walls, bench="kernel_bfs", sha_prefix="cafe"):
    """One stored run per wall-ms value, oldest first."""
    store = history.HistoryStore(path)
    for i, wall in enumerate(walls):
        store.append(history.stamp_provenance({
            "git_sha": f"{sha_prefix}{i:04d}",
            "benches": {bench: {"wall_ms": wall}},
            "counters": {"service.cache.hits": 3, "service.cache.misses": 1},
        }))
    return store


class TestProvenance:
    def test_stamp_adds_all_fields(self):
        rec = history.stamp_provenance({"benches": {}}, unix_time=1700000000.0)
        assert rec["schema"] == history.HISTORY_SCHEMA
        assert rec["schema_version"] == history.SCHEMA_VERSION
        assert rec["unix_time"] == 1700000000.0
        assert rec["timestamp"] == "2023-11-14T22:13:20+00:00"
        for key in ("git_sha", "branch", "hostname"):
            assert rec[key]

    def test_stamp_never_overwrites_caller_values(self):
        rec = history.stamp_provenance(
            {"git_sha": "feedface", "hostname": "ci-box"}
        )
        assert rec["git_sha"] == "feedface"
        assert rec["hostname"] == "ci-box"


class TestBuildRunRecord:
    def test_ingests_every_bench_artifact(self, tmp_path):
        _seed_results(tmp_path, {
            "kernel_bfs": _bench_payload(
                "kernel_bfs", 12.5, matrix="bcspwr10", method="threads",
                counters={"threads.speculation.discovered": 10},
            ),
            "fig3_run": _bench_payload(
                "fig3_run", 80.0,
                counters={"threads.speculation.discovered": 5},
            ),
        })
        rec = history.build_run_record(tmp_path)
        assert rec["benches"]["kernel_bfs"] == {
            "wall_ms": 12.5, "matrix": "bcspwr10", "method": "threads",
        }
        assert rec["benches"]["fig3_run"]["wall_ms"] == 80.0
        # counters sum across payloads into one run-level aggregate
        assert rec["counters"]["threads.speculation.discovered"] == 15

    def test_skips_corrupt_artifacts(self, tmp_path):
        _seed_results(tmp_path, {"ok": _bench_payload("ok", 1.0)})
        (tmp_path / "BENCH_broken.json").write_text("{not json")
        rec = history.build_run_record(tmp_path)
        assert list(rec["benches"]) == ["ok"]


class TestHistoryStore:
    def test_append_and_read_roundtrip(self, tmp_path):
        store = _seed_history(tmp_path / "h.jsonl", [100.0, 101.0])
        runs = store.read()
        assert len(runs) == 2
        assert runs[0]["git_sha"] == "cafe0000"
        assert len(store) == 2

    def test_read_skips_foreign_and_torn_lines(self, tmp_path):
        path = tmp_path / "h.jsonl"
        _seed_history(path, [100.0])
        with path.open("a") as fh:
            fh.write('{"schema": "other/v1"}\n')
            fh.write('{"torn...\n')
        assert len(history.read_history(path)) == 1

    def test_runs_since_sha_prefix(self, tmp_path):
        store = _seed_history(tmp_path / "h.jsonl", [1.0, 2.0, 3.0])
        runs = store.read()
        tail = history.runs_since(runs, "cafe0001")
        assert [r["benches"]["kernel_bfs"]["wall_ms"] for r in tail] == [2.0, 3.0]
        # unknown sha keeps the whole trajectory
        assert len(history.runs_since(runs, "beef")) == 3


class TestRobustVerdict:
    JITTERY = [100.0, 98.0, 102.0, 101.0, 99.0]

    def test_skip_below_min_samples(self):
        v = history.robust_verdict(100.0, [100.0, 101.0], min_samples=5)
        assert v["status"] == "SKIP"
        assert v["z"] is None

    def test_small_jitter_passes(self):
        # <=10% excursion over a jittery window must not page anyone
        v = history.robust_verdict(108.0, self.JITTERY)
        assert v["status"] == "PASS"

    def test_doubling_fails(self):
        v = history.robust_verdict(200.0, self.JITTERY)
        assert v["status"] == "FAIL"
        assert v["ratio"] == pytest.approx(2.0)
        assert v["z"] > history.DEFAULT_Z_FAIL

    def test_zero_mad_window_needs_material_ratio(self):
        # a perfectly stable window (MAD 0) must not FAIL on an invisible
        # absolute wobble: the relative floor + ratio guard hold it to PASS
        v = history.robust_verdict(100.4, [100.0] * 8)
        assert v["status"] != "FAIL"

    def test_improvement_detected(self):
        v = history.robust_verdict(50.0, self.JITTERY)
        assert v["status"] == "IMPROVED"

    def test_warn_band(self):
        # z in (3.5, 6] or z > 6 with ratio under the guard -> WARN
        v = history.robust_verdict(112.0, self.JITTERY)
        assert v["status"] == "WARN"


class TestEvaluateTrends:
    def test_latest_run_judged_against_prior_window(self, tmp_path):
        store = _seed_history(
            tmp_path / "h.jsonl", [100.0, 98.0, 102.0, 101.0, 99.0, 200.0]
        )
        verdicts = history.evaluate_trends(store.read())
        (v,) = verdicts
        assert v.bench == "kernel_bfs"
        assert v.status == "FAIL"
        assert v.samples == 5
        assert v.series[-1] == 200.0

    def test_vanished_bench_reported_missing(self, tmp_path):
        store = _seed_history(tmp_path / "h.jsonl", [1.0, 2.0])
        store.append(history.stamp_provenance({
            "benches": {"other": {"wall_ms": 5.0}}, "counters": {},
        }))
        statuses = {
            v.bench: v.status
            for v in history.evaluate_trends(store.read())
        }
        assert statuses["kernel_bfs"] == "MISSING"
        assert statuses["other"] == "SKIP"

    def test_empty_history(self):
        assert history.evaluate_trends([]) == []


class TestRendering:
    def test_sparkline_shape(self):
        line = history.sparkline([1.0, 2.0, 3.0, 4.0], width=8)
        assert len(line) == 8
        assert line.endswith("█")
        assert history.sparkline([], width=4) == "    "

    def test_sparkline_flat_series(self):
        assert set(history.sparkline([5.0] * 4, width=4)) == {"▁"}

    def test_render_trends_table(self, tmp_path):
        store = _seed_history(tmp_path / "h.jsonl", [100.0] * 6)
        text = history.render_trends(history.evaluate_trends(store.read()))
        assert "kernel_bfs" in text
        assert "PASS" in text

    def test_verdict_document_summary(self, tmp_path):
        store = _seed_history(
            tmp_path / "h.jsonl", [100.0, 98.0, 102.0, 101.0, 99.0, 200.0]
        )
        doc = history.verdict_document(
            history.evaluate_trends(store.read()), history_path="h.jsonl"
        )
        assert doc["kind"] == "trend-verdict"
        assert doc["failed"] == ["kernel_bfs"]
        assert doc["ok"] is False
        assert doc["by_status"] == {"FAIL": 1}


class TestCli:
    def _run(self, *argv):
        from repro.cli import main

        return main(list(argv))

    def test_ingest_appends_a_run(self, tmp_path, capsys):
        results = tmp_path / "results"
        _seed_results(results, {"kernel_bfs": _bench_payload("kernel_bfs", 10.0)})
        hist = tmp_path / "history.jsonl"
        assert self._run(
            "telemetry", "ingest",
            "--results-dir", str(results), "--history", str(hist),
        ) == 0
        assert "1 benches" in capsys.readouterr().out
        assert len(history.read_history(hist)) == 1

    def test_ingest_empty_dir_exits_2(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        assert self._run(
            "telemetry", "ingest",
            "--results-dir", str(tmp_path / "empty"),
            "--history", str(tmp_path / "h.jsonl"),
        ) == 2

    def test_trend_check_fails_on_regression(self, tmp_path, capsys):
        hist = tmp_path / "h.jsonl"
        _seed_history(hist, [100.0, 98.0, 102.0, 101.0, 99.0, 200.0])
        assert self._run(
            "telemetry", "trend", "--history", str(hist), "--check"
        ) == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "kernel_bfs" in captured.err

    def test_trend_check_passes_on_jitter(self, tmp_path, capsys):
        hist = tmp_path / "h.jsonl"
        _seed_history(hist, [100.0, 98.0, 102.0, 101.0, 99.0, 108.0])
        assert self._run(
            "telemetry", "trend", "--history", str(hist), "--check"
        ) == 0
        assert "PASS" in capsys.readouterr().out

    def test_trend_warn_only_never_fails(self, tmp_path, capsys):
        hist = tmp_path / "h.jsonl"
        _seed_history(hist, [100.0, 98.0, 102.0, 101.0, 99.0, 200.0])
        assert self._run(
            "telemetry", "trend", "--history", str(hist),
            "--check", "--warn-only",
        ) == 0

    def test_trend_json_and_verdict_out(self, tmp_path, capsys):
        hist = tmp_path / "h.jsonl"
        out = tmp_path / "verdict.json"
        _seed_history(hist, [100.0] * 6)
        assert self._run(
            "telemetry", "trend", "--history", str(hist),
            "--json", "--verdict-out", str(out),
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert json.loads(out.read_text())["kind"] == "trend-verdict"

    def test_trend_since_restricts_the_window(self, tmp_path, capsys):
        hist = tmp_path / "h.jsonl"
        _seed_history(hist, [1.0, 1.0, 100.0, 100.0, 100.0, 100.0, 100.0,
                             100.0, 101.0])
        # full history still passes (old fast runs fall out of the median)
        assert self._run(
            "telemetry", "trend", "--history", str(hist), "--check",
            "--since", "cafe0002",
        ) == 0
        out = capsys.readouterr().out
        assert "7 runs" in out

    def test_trend_missing_history_exits_2(self, tmp_path, capsys):
        assert self._run(
            "telemetry", "trend", "--history", str(tmp_path / "nope.jsonl"),
        ) == 2


def _load_check_regressions():
    spec = importlib.util.spec_from_file_location(
        "check_regressions", REPO / "benchmarks" / "check_regressions.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class TestCheckRegressionsGate:
    def test_history_engine_flags_doubling(self, tmp_path, capsys):
        mod = _load_check_regressions()
        results = tmp_path / "results"
        _seed_results(results, {
            "kernel_bfs": _bench_payload("kernel_bfs", 200.0),
        })
        _seed_history(results / "history.jsonl",
                      [100.0, 98.0, 102.0, 101.0, 99.0])
        rc = mod.main([
            "--results-dir", str(results),
            "--baselines", str(tmp_path / "baselines.json"),
            "--enforce", "kernel_*",
        ])
        out = capsys.readouterr().out
        assert rc == 1
        assert "history" in out
        assert "REGRESSION" in out

    def test_history_engine_passes_jitter(self, tmp_path, capsys):
        mod = _load_check_regressions()
        results = tmp_path / "results"
        _seed_results(results, {
            "kernel_bfs": _bench_payload("kernel_bfs", 108.0),
        })
        _seed_history(results / "history.jsonl",
                      [100.0, 98.0, 102.0, 101.0, 99.0])
        rc = mod.main([
            "--results-dir", str(results),
            "--baselines", str(tmp_path / "baselines.json"),
            "--enforce", "kernel_*",
        ])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_static_fallback_without_enough_history(self, tmp_path, capsys):
        mod = _load_check_regressions()
        results = tmp_path / "results"
        _seed_results(results, {
            "kernel_bfs": _bench_payload("kernel_bfs", 200.0),
        })
        _seed_history(results / "history.jsonl", [100.0, 101.0])  # < 5
        (tmp_path / "baselines.json").write_text(
            json.dumps({"kernel_bfs": {"wall_ms": 100.0}})
        )
        rc = mod.main([
            "--results-dir", str(results),
            "--baselines", str(tmp_path / "baselines.json"),
            "--enforce", "kernel_*",
        ])
        out = capsys.readouterr().out
        assert rc == 1
        assert "static" in out


class TestBenchArtifactContract:
    @pytest.mark.slow
    def test_bench_conftest_writes_only_to_results_dir(self, tmp_path):
        # run one trivial benchmark under a copy of the real bench conftest:
        # the artifact must land in results/ only, carrying the new stamps
        bench_dir = tmp_path / "benchcopy"
        bench_dir.mkdir()
        shutil.copy(REPO / "benchmarks" / "conftest.py",
                    bench_dir / "conftest.py")
        (bench_dir / "bench_tiny.py").write_text(
            "def test_noop():\n    assert True\n"
        )
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "bench_tiny.py"],
            cwd=bench_dir, capture_output=True, text=True,
            env={**__import__("os").environ,
                 "PYTHONPATH": str(REPO / "src")},
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        artifact = bench_dir / "results" / "BENCH_noop.json"
        assert artifact.exists()
        # single-location contract: nothing lands beside the conftest or
        # at the tmp "repo root"
        assert not list(bench_dir.glob("BENCH_*.json"))
        assert not list(tmp_path.glob("BENCH_*.json"))
        payload = json.loads(artifact.read_text())
        assert payload["schema_version"] == 1
        assert payload["hostname"]
        assert payload["timestamp"].endswith("+00:00")
