"""Tests for the unified telemetry layer (``repro.telemetry``).

Covers the span tracer (hierarchy, thread safety, disabled-mode no-op),
the metrics registry (concurrent counters, RunStats absorption), the JSONL
event round-trip, the exporters, the instrumented library paths and
the ``repro profile`` CLI.
"""

import json
import re
import sys
import threading
import time

import numpy as np
import pytest

from repro import backends, telemetry
from repro.telemetry import profiler
from repro.telemetry.spans import Tracer, NULL_SPAN
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.slo import quantile_from_summary
from repro.telemetry.events import read_jsonl, write_events, SCHEMA
from repro.telemetry.export import (
    lane_assignment,
    phase_totals_ms,
    spans_gantt,
    spans_to_chrome_tracing,
    spans_to_trace_events,
)
from repro.machine.stats import RunStats, Stage


@pytest.fixture(autouse=True)
def clean_global_telemetry():
    """Keep the process-wide instance disabled and empty around each test."""
    telemetry.reset()
    telemetry.disable()
    yield
    telemetry.reset()
    telemetry.disable()


class TestTracer:
    def test_disabled_returns_shared_null_span(self):
        tr = Tracer(enabled=False)
        assert tr.span("x") is NULL_SPAN
        assert tr.span("y", worker=3, foo=1) is NULL_SPAN

    def test_disabled_records_nothing(self):
        tr = Tracer(enabled=False)
        for _ in range(10_000):
            with tr.span("hot"):
                pass
        assert tr.records() == []

    def test_basic_span_measured(self):
        tr = Tracer(enabled=True)
        with tr.span("work", category="t", n=5):
            pass
        (rec,) = tr.records()
        assert rec.name == "work"
        assert rec.category == "t"
        assert rec.attrs == {"n": 5}
        assert rec.duration_ns >= 0
        assert rec.end_ns == rec.start_ns + rec.duration_ns

    def test_hierarchy_parent_ids(self):
        tr = Tracer(enabled=True)
        with tr.span("outer"):
            with tr.span("inner"):
                pass
        by_name = {r.name: r for r in tr.records()}
        assert by_name["outer"].parent_id is None
        assert by_name["inner"].parent_id == by_name["outer"].span_id

    def test_set_attrs_mid_span(self):
        tr = Tracer(enabled=True)
        with tr.span("s") as sp:
            sp.set(found=42)
        assert tr.records()[0].attrs["found"] == 42

    def test_overlapping_spans_across_threads(self):
        tr = Tracer(enabled=True)
        barrier = threading.Barrier(8)

        def work(i):
            barrier.wait()
            with tr.span("overlap", worker=i):
                with tr.span("nested", worker=i):
                    pass

        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        recs = tr.records()
        assert len(recs) == 16
        # hierarchy is per-thread: each nested span's parent is its own
        # thread's outer span
        outer = {r.thread_id: r for r in recs if r.name == "overlap"}
        assert len(outer) == 8
        for r in recs:
            if r.name == "nested":
                assert r.parent_id == outer[r.thread_id].span_id

    def test_thread_stacks_under_contention(self):
        # more threads than cores push and pop their own stacks while
        # another thread samples all of them, at a tiny switch interval
        telemetry.enable()
        tr = telemetry.get().tracer
        n_threads, rounds = 8, 200
        phases = [{} for _ in range(n_threads)]
        errors = []
        done = threading.Event()
        prof = profiler.SamplingProfiler(hz=1)

        def work(i):
            for k in range(rounds):
                with tr.span("outer", worker=i, into=phases[i], k=k):
                    with tr.span("inner", worker=i, into=phases[i], k=k):
                        pass

        def sample():
            while not done.is_set():
                try:
                    prof.sample_now()
                except Exception as exc:  # a torn read of a stack
                    errors.append(exc)

        workers = [
            threading.Thread(target=work, args=(i,)) for i in range(n_threads)
        ]
        sampler = threading.Thread(target=sample)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            sampler.start()
            for t in workers:
                t.start()
            for t in workers:
                t.join(60)
            done.set()
            sampler.join(60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in workers + [sampler])
        assert errors == []
        assert prof.sample_count > 0
        recs = tr.records()
        outer = {
            (r.worker, r.attrs["k"]): r.span_id
            for r in recs if r.name == "outer"
        }
        inner = [r for r in recs if r.name == "inner"]
        assert len(outer) == len(inner) == n_threads * rounds
        for r in inner:
            assert r.parent_id == outer[(r.worker, r.attrs["k"])]
        for i, phase_ns in enumerate(phases):
            for name in ("outer", "inner"):
                assert phase_ns[name] == sum(
                    r.duration_ns for r in recs
                    if r.worker == i and r.name == name
                )
        assert tr._stacks == {}

    def test_clear_resets_epoch_and_records(self):
        tr = Tracer(enabled=True)
        with tr.span("a"):
            pass
        tr.clear()
        assert tr.records() == []
        with tr.span("b"):
            pass
        assert tr.records()[0].start_ns >= 0

    def test_phase_totals_sums_by_name(self):
        tr = Tracer(enabled=True)
        for _ in range(3):
            with tr.span("p"):
                pass
        totals = phase_totals_ms(tr.records())
        assert set(totals) == {"p"}
        assert totals["p"] == pytest.approx(
            sum(r.duration_ns for r in tr.records()) / 1e6
        )

    def test_into_times_while_disabled_without_records(self):
        tr = Tracer(enabled=False)
        phase_ns = {"p": 0}
        with tr.span("p", into=phase_ns) as sp:
            sp.set(ignored=True)
            time.sleep(0.001)
        assert phase_ns["p"] >= 1_000_000
        assert sp.span_id is None
        assert tr.records() == []

    def test_open_spans_keyed_by_thread_id_and_cleared(self):
        tr = Tracer(enabled=True)
        tid = threading.get_ident()

        def open_names():
            return [sp._name for sp in tr._stacks.get(tid, ())]

        with tr.span("outer", category="api"):
            with tr.span("inner"):
                assert open_names() == ["outer", "inner"]
            tr.clear()  # what a forked worker does with its inherited tracer
            assert open_names() == []
        assert tr._stacks == {}  # a closed span leaves no stack behind


class TestMetrics:
    def test_concurrent_counter_increments(self):
        reg = MetricsRegistry()
        n_threads, per_thread = 8, 10_000
        barrier = threading.Barrier(n_threads)

        def bump():
            barrier.wait()
            c = reg.counter("hits")
            for _ in range(per_thread):
                c.add()

        threads = [threading.Thread(target=bump) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.counter("hits").value == n_threads * per_thread

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").add(-1)

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(3)
        reg.gauge("g").set(7)
        assert reg.gauge("g").value == 7

    def test_histogram_summary(self):
        reg = MetricsRegistry()
        for v in (1.0, 2.0, 3.0):
            reg.histogram("h").observe(v)
        d = reg.histogram("h").to_dict()
        assert d["count"] == 3
        assert d["min"] == 1.0 and d["max"] == 3.0
        assert d["mean"] == pytest.approx(2.0)

    def test_to_dict_snapshot(self):
        reg = MetricsRegistry()
        reg.counter("a").add(2)
        reg.gauge("b").set(1.5)
        snap = reg.to_dict()
        assert snap["counters"] == {"a": 2}
        assert snap["gauges"] == {"b": 1.5}
        assert snap["histograms"] == {}

    def test_absorb_run_stats_matches_to_dict(self):
        stats = RunStats(n_workers=2)
        stats.makespan = 123.0
        stats.add_cycles(0, Stage.DISCOVER, 10.0)
        stats.batches_generated = 5
        stats.batches_executed = 4
        stats.nodes_discovered_speculatively = 17
        stats.nodes_dropped_by_rediscovery = 3
        reg = MetricsRegistry()
        reg.absorb_run_stats(stats)
        snap = reg.to_dict()
        ref = stats.to_dict()
        assert snap["counters"]["sim.batches.generated"] == ref["batches"]["generated"]
        assert snap["counters"]["sim.speculation.discovered"] == \
            ref["speculation"]["discovered"]
        assert snap["counters"]["sim.speculation.dropped"] == \
            ref["speculation"]["dropped"]
        assert snap["counters"]["sim.stage_cycles.Discover"] == 10.0
        assert snap["gauges"]["sim.makespan_cycles"] == 123.0


class TestJsonl:
    def test_round_trip(self, tmp_path):
        tr = Tracer(enabled=True)
        with tr.span("phase-1", category="api", n=9):
            pass
        reg = MetricsRegistry()
        reg.counter("c").add(3)
        path = tmp_path / "run.jsonl"
        n = write_events(path, tr, reg, meta={"matrix": "grid"})
        events = read_jsonl(path)
        assert len(events) == n == 3
        meta, span, metrics = events
        assert meta["type"] == "meta"
        assert meta["schema"] == SCHEMA
        assert meta["context"] == {"matrix": "grid"}
        assert "cpus" in meta["host"]
        assert span["type"] == "span"
        assert span["name"] == "phase-1"
        assert span["attrs"] == {"n": 9}
        assert span["dur_ns"] >= 0
        assert metrics["type"] == "metrics"
        assert metrics["counters"] == {"c": 3}

    def test_empty_session_still_has_header(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        write_events(path, Tracer(enabled=True), MetricsRegistry())
        events = read_jsonl(path)
        assert [e["type"] for e in events] == ["meta", "metrics"]

    def test_every_line_is_json(self, tmp_path):
        path = tmp_path / "run.jsonl"
        tr = Tracer(enabled=True)
        with tr.span("a"):
            pass
        write_events(path, tr, MetricsRegistry())
        for line in path.read_text().splitlines():
            json.loads(line)


class TestExport:
    def _spans(self):
        tr = Tracer(enabled=True)
        with tr.span("Discover", worker=1):
            pass
        with tr.span("ordering"):  # anonymous: main-thread lane
            with tr.span("Sort", worker=0):
                pass
        return tr.records()

    def test_lane_assignment_workers_first(self):
        lanes = lane_assignment(self._spans())
        assert lanes[0] == "worker 0"
        assert lanes[1] == "worker 1"
        assert lanes[2] == "thread 0"

    def test_spans_to_trace_events_leaves_only(self):
        events = spans_to_trace_events(self._spans())
        names = {e[2] for e in events}
        assert "ordering" not in names  # parent of Sort
        assert {"Discover", "Sort"} <= names

    def test_chrome_export_has_metadata_and_spans(self, tmp_path):
        p = tmp_path / "chrome.json"
        spans_to_chrome_tracing(self._spans(), p)
        events = json.loads(p.read_text())["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        spans = [e for e in events if e["ph"] == "X"]
        assert {e["args"]["name"] for e in meta} >= {"worker 0", "worker 1"}
        assert len(spans) == 3
        assert all("dur_ns" in e["args"] for e in spans)

    def test_gantt_renders_lanes(self):
        out = spans_gantt(self._spans(), width=20)
        assert "wall-clock Gantt" in out
        assert "lanes:" in out

    def test_gantt_empty(self):
        assert spans_gantt([]) == "(empty trace)"

    def test_phase_totals_ms(self):
        totals = phase_totals_ms(self._spans())
        assert set(totals) == {"Discover", "ordering", "Sort"}


class TestInstrumentedApi:
    def test_phase_ns_always_populated(self, medium_grid):
        from repro.core.api import PHASES
        from repro.facade import reorder

        res = reorder(medium_grid, method="serial")
        assert set(res.phase_ns) == set(PHASES)
        assert res.phase_ns["ordering"] > 0
        assert res.wall_ms > 0

    def test_result_to_dict_is_json_serializable(self, medium_grid):
        from repro.facade import reorder

        res = reorder(medium_grid, method="batch-cpu", n_workers=2)
        payload = json.loads(json.dumps(res.to_dict()))
        assert payload["method"] == "batch-cpu"
        assert payload["stats"][0]["batches"]["generated"] > 0

    def test_api_spans_recorded_when_enabled(self, medium_grid):
        from repro.core.api import PHASES
        from repro.facade import reorder

        telemetry.enable()
        reorder(medium_grid, method="serial")
        names = {r.name for r in telemetry.get().tracer.records()}
        assert set(PHASES) <= names

    def test_disabled_leaves_no_trace(self, medium_grid):
        from repro.facade import reorder

        reorder(medium_grid, method="batch-cpu", n_workers=2)
        tel = telemetry.get()
        assert tel.tracer.records() == []
        assert tel.snapshot()["counters"] == {}

    def test_sim_counters_absorbed(self, medium_grid):
        from repro.facade import reorder

        telemetry.enable()
        res = reorder(medium_grid, method="batch-cpu", n_workers=2)
        counters = telemetry.get().snapshot()["counters"]
        assert counters["sim.batches.generated"] == res.stats[0].batches_generated
        assert counters["sim.speculation.discovered"] == \
            res.stats[0].nodes_discovered_speculatively


class TestOneClock:
    """Each pipeline phase is timed once: ``phase_ns`` is filled from the
    same two clock reads as the phase's ``api`` span, so the two agree
    exactly, and untraced calls still fill every phase."""

    @staticmethod
    def _union():
        from repro.matrices import generators as g
        from tests.conftest import block_union

        return block_union(
            [g.grid2d(6, 7), g.grid2d(3, 9), g.grid2d(5, 5)]
        )

    @staticmethod
    def _assert_phases_match_spans(res):
        from repro.core.api import PHASES

        api = [
            r for r in telemetry.get().tracer.records() if r.category == "api"
        ]
        assert set(res.phase_ns) == set(PHASES)
        for p in PHASES:
            assert res.phase_ns[p] == sum(
                r.duration_ns for r in api if r.name == p
            ), p

    @pytest.mark.parametrize("method", backends.names())
    def test_every_backend_on_a_multi_component_pattern(self, method):
        from repro.facade import reorder

        telemetry.enable()
        res = reorder(self._union(), method=method, n_workers=2)
        assert res.n_components == 3
        self._assert_phases_match_spans(res)

    @pytest.mark.parametrize(
        "algorithm", ["sloan", "gps", "king", "minimum-degree", "spectral"]
    )
    def test_every_non_rcm_algorithm(self, algorithm):
        from repro.facade import reorder

        telemetry.enable()
        res = reorder(self._union(), algorithm=algorithm)
        self._assert_phases_match_spans(res)

    def test_transform_phase(self, hub):
        from repro.facade import reorder

        telemetry.enable()
        res = reorder(hub, transform="powerlaw")
        assert res.transform == "powerlaw"
        self._assert_phases_match_spans(res)

    def test_untraced_call_fills_every_phase(self):
        from repro.facade import reorder

        res = reorder(self._union(), method="vectorized")
        assert telemetry.get().tracer.records() == []
        for p in ("validate", "components", "start-selection", "ordering",
                  "assembly"):
            assert res.phase_ns[p] > 0, p


class TestInstrumentedThreads:
    def test_counters_match_runstats_semantics(self, medium_grid):
        from repro.core.serial import rcm_serial
        from repro.core.threads import rcm_threads

        telemetry.enable()
        perm = rcm_threads(medium_grid, 0, n_threads=4)
        assert np.array_equal(perm, rcm_serial(medium_grid, 0))
        counters = telemetry.get().snapshot()["counters"]
        n = medium_grid.n
        # every non-start node is claimed at least once; rediscovery can
        # only drop what speculation found
        assert counters["threads.speculation.discovered"] >= n - 1
        assert counters.get("threads.speculation.dropped", 0) <= \
            counters["threads.speculation.discovered"]
        assert counters["threads.batches.dequeued"] >= 1
        assert counters["threads.batches.generated"] >= \
            counters["threads.batches.dequeued"]

    def test_worker_spans_use_stage_names(self, medium_grid):
        from repro.core.threads import rcm_threads

        telemetry.enable()
        rcm_threads(medium_grid, 0, n_threads=2)
        recs = [r for r in telemetry.get().tracer.records()
                if r.worker is not None]
        assert recs, "worker spans missing"
        assert {r.name for r in recs} <= {
            "Discover", "Sort", "Rediscover", "Signal", "addNewBatches",
            "Stall",
        }

    @pytest.mark.parametrize("multibatch", [1, 3])
    @pytest.mark.parametrize("early_signaling", [True, False])
    def test_one_worker_counters_equal_the_simulator(
        self, multibatch, early_signaling
    ):
        """One worker leaves the schedule no freedom, so the OS-thread run
        counts exactly what the simulator counts."""
        from repro.core.batch import run_batch_rcm
        from repro.core.batches import BatchConfig
        from repro.core.threads import rcm_threads
        from repro.machine.costmodel import CPUCostModel
        from repro.matrices import generators as g

        mat = g.grid2d(40, 40)
        cfg = BatchConfig(batch_size=4, multibatch=multibatch,
                          early_signaling=early_signaling)
        sim = run_batch_rcm(
            mat, 0, model=CPUCostModel(), n_workers=1, config=cfg
        ).stats.to_dict()
        telemetry.enable()
        rcm_threads(mat, 0, n_threads=1, config=cfg)
        counters = telemetry.get().snapshot()["counters"]
        for group in ("speculation", "batches", "overhangs"):
            for key, value in sim[group].items():
                assert counters[f"threads.{group}.{key}"] == value, key

    def test_workers_interleave(self):
        """The OS scheduler, not whichever thread started first, orders
        the steps: most four-thread runs discover on two or more lanes."""
        from repro.core.threads import rcm_threads
        from repro.matrices import get_matrix

        mat = get_matrix("benzene")
        tel = telemetry.get()
        tel.enable()
        shared = 0
        for _ in range(10):
            tel.reset()
            rcm_threads(mat, 0, n_threads=4)
            lanes = {r.worker for r in tel.tracer.records()
                     if r.name == "Discover"}
            shared += len(lanes) >= 2
        assert shared >= 8

    def test_threads_silent_when_disabled(self, medium_grid):
        from repro.core.threads import rcm_threads

        rcm_threads(medium_grid, 0, n_threads=2)
        tel = telemetry.get()
        assert tel.tracer.records() == []
        assert tel.snapshot()["counters"] == {}


class TestInstrumentedSolver:
    def test_cg_counters(self):
        from repro.matrices import generators as g
        from repro.solver.cg import conjugate_gradient

        from tests.test_solver import spd_laplacian

        mat = spd_laplacian(g.grid2d(10, 10))
        telemetry.enable()
        res = conjugate_gradient(mat, np.ones(mat.n))
        counters = telemetry.get().snapshot()["counters"]
        assert counters["cg.iterations"] == res.iterations
        assert counters["cg.spmv"] == res.spmv_count


class TestCli:
    def test_profile_writes_artifacts(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        prefix = tmp_path / "prof"
        code = cli_main([
            "profile", "--matrix", "benzene", "--method", "threads",
            "--workers", "2", "-o", str(prefix),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "phase breakdown" in out
        events = read_jsonl(f"{prefix}.jsonl")
        assert events[0]["type"] == "meta"
        assert any(e["type"] == "span" for e in events)
        chrome = json.loads((tmp_path / "prof.trace.json").read_text())
        phs = {e["ph"] for e in chrome["traceEvents"]}
        assert phs >= {"M", "X"}

    def test_profile_epoch_starts_with_the_call(
        self, tmp_path, capsys, monkeypatch
    ):
        # a slow input load must not sit between the tracer epoch and
        # the call: the earliest span starts within the call's wall time
        from repro import cli

        load = cli._get_input

        def slow_load(args):
            time.sleep(0.5)
            return load(args)

        monkeypatch.setattr(cli, "_get_input", slow_load)
        prefix = tmp_path / "prof"
        code = cli.main([
            "profile", "--matrix", "benzene", "--method", "threads",
            "--workers", "2", "-o", str(prefix),
        ])
        assert code == 0
        out = capsys.readouterr().out
        wall_ms = float(re.search(r"share of ([\d.]+) ms wall", out).group(1))
        spans = [e for e in read_jsonl(f"{prefix}.jsonl")
                 if e["type"] == "span"]
        assert min(e["start_ns"] for e in spans) / 1e6 < wall_ms

    def test_reorder_json_flag(self, capsys):
        from repro.cli import main as cli_main

        code = cli_main([
            "reorder", "--matrix", "benzene", "--method", "batch-cpu",
            "--workers", "2", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "batch-cpu"
        assert payload["stats"][0]["batches"]["generated"] > 0
        assert set(payload["phase_ns"]) == {
            "validate", "transform", "components", "start-selection",
            "ordering", "assembly",
        }

    def test_reorder_telemetry_flag(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        path = tmp_path / "run.jsonl"
        code = cli_main([
            "reorder", "--matrix", "benzene", "--method", "threads",
            "--telemetry", str(path),
        ])
        assert code == 0
        assert "telemetry events" in capsys.readouterr().out
        assert read_jsonl(path)[0]["schema"] == SCHEMA


class TestRobustReadJsonl:
    """Satellite: crash-left tails must not poison later analysis."""

    def _write_with_garbage(self, path):
        with path.open("w") as fh:
            fh.write('{"type": "meta", "ok": 1}\n')
            fh.write("{not json at all\n")
            fh.write('{"type": "span", "ok": 2}\n')
            fh.write('{"type": "metrics", "truncat')  # torn tail, no newline

    def test_skips_corrupt_lines(self, tmp_path):
        path = tmp_path / "run.jsonl"
        self._write_with_garbage(path)
        events = read_jsonl(path)
        assert [e["ok"] for e in events] == [1, 2]

    def test_skip_bumps_counter_even_while_disabled(self, tmp_path):
        path = tmp_path / "run.jsonl"
        self._write_with_garbage(path)
        assert not telemetry.get().enabled
        read_jsonl(path)
        counters = telemetry.get().snapshot()["counters"]
        assert counters["telemetry.jsonl.skipped"] == 2

    def test_clean_file_leaves_counter_untouched(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"a": 1}\n\n{"b": 2}\n')  # blank line is fine
        assert len(read_jsonl(path)) == 2
        counters = telemetry.get().snapshot()["counters"]
        assert "telemetry.jsonl.skipped" not in counters

    def test_strict_mode_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        self._write_with_garbage(path)
        with pytest.raises(json.JSONDecodeError):
            read_jsonl(path, strict=True)


class TestHistogramQuantiles:
    """Satellite: quantiles are total functions over every histogram state.

    The one estimator is :func:`repro.telemetry.slo.quantile_from_summary`
    over a histogram's ``to_dict()`` snapshot.
    """

    @staticmethod
    def _q(h, q):
        return quantile_from_summary(h.to_dict(), q)

    def test_empty_histogram_has_no_quantile(self):
        h = MetricsRegistry().histogram("h")
        for q in (0.0, 0.5, 0.99, 1.0):
            assert self._q(h, q) is None

    def test_single_sample_is_every_quantile(self):
        h = MetricsRegistry().histogram("h")
        h.observe(42.5)
        for q in (0.0, 0.5, 0.99, 1.0):
            assert self._q(h, q) == 42.5

    def test_quantile_rejects_out_of_range(self):
        h = MetricsRegistry().histogram("h")
        with pytest.raises(ValueError):
            self._q(h, -0.01)
        with pytest.raises(ValueError):
            self._q(h, 1.01)

    def test_estimates_clamped_to_observed_range(self):
        h = MetricsRegistry().histogram("h", buckets=(10.0, 100.0))
        for v in (3.0, 4.0, 5.0):
            h.observe(v)
        # bucket midpoint would be 5.0+, never below min or above max
        for q in (0.0, 0.5, 1.0):
            assert 3.0 <= self._q(h, q) <= 5.0

    def test_median_lands_in_the_right_bucket(self):
        h = MetricsRegistry().histogram("h", buckets=(1.0, 10.0, 100.0))
        for v in (0.5, 5.0, 5.0, 5.0, 50.0):
            h.observe(v)
        assert 1.0 <= self._q(h, 0.5) <= 10.0


class TestDisabledAllocatesNothing:
    """Satellite: the disabled path must not build SpanRecord objects."""

    def test_disabled_span_is_the_shared_null_span(self):
        tel = telemetry.get()
        assert not tel.enabled
        assert tel.span("anything") is NULL_SPAN
        assert tel.span("other", worker=1, attr=2) is NULL_SPAN

    def test_disabled_threads_run_allocates_no_span_records(
        self, medium_grid, monkeypatch
    ):
        from repro.core import threads as threads_mod
        from repro.core.serial import rcm_serial
        from repro.telemetry import spans as spans_mod

        def _boom(*a, **k):
            raise AssertionError(
                "SpanRecord allocated while telemetry is disabled"
            )

        monkeypatch.setattr(spans_mod, "SpanRecord", _boom)
        assert not telemetry.get().enabled
        perm = threads_mod.rcm_threads(medium_grid, 0, n_threads=2)
        assert np.array_equal(perm, rcm_serial(medium_grid, 0))
        assert telemetry.get().tracer.records() == []
