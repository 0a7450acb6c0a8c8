"""Tests for the continuous sampling profiler (``repro.telemetry.profiler``).

Covers the sampler itself (folded-stack aggregation, span/phase
attribution from the tracer's per-thread span stacks, self-measured
overhead, gauge export), the collapsed exporter, the worker-capture round
trip, the ``/debug/flame`` + ``/debug/critpath`` endpoints and the
``profiler:`` /statusz section, and the acceptance invariant: a
``method="parallel"`` request produces ONE merged flamegraph holding both
parent-process and fork-worker stacks with correct phase attribution.
"""

import json
import os
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import telemetry
from repro.matrices import generators as g
from repro.sparse.csr import CSRMatrix
from repro.telemetry import context as tctx
from repro.telemetry import profiler
from repro.telemetry.export import profile_to_collapsed


@pytest.fixture(autouse=True)
def clean_profiler_and_telemetry():
    profiler.stop_profiler()
    telemetry.reset()
    telemetry.disable()
    yield
    profiler.stop_profiler()
    telemetry.reset()
    telemetry.disable()


def _block_diag(blocks):
    """Disconnected union of square patterns (multi-component inputs)."""
    n = sum(b.n for b in blocks)
    edges = []
    base = 0
    for b in blocks:
        for u in range(b.n):
            for v in b.indices[b.indptr[u]:b.indptr[u + 1]]:
                if u < v:
                    edges.append((base + u, base + int(v)))
        base += b.n
    return CSRMatrix.from_edges(n, edges)


class TestSamplingProfiler:
    def test_collects_at_least_one_sample(self):
        # the loop samples before its first wait, so even an immediate
        # stop holds >= 1 sample of the parent process
        prof = profiler.SamplingProfiler(hz=50)
        prof.start()
        prof.stop()
        folded = prof.folded()
        assert prof.sample_count >= 1
        assert any("process:main" in key for key in folded)

    def test_continuous_sampling_accumulates(self):
        with profiler.SamplingProfiler(hz=500) as prof:
            t_end = time.perf_counter() + 0.1
            while time.perf_counter() < t_end:
                sum(range(500))
        assert prof.sample_count >= 10
        # this test file appears somewhere in the sampled stacks
        assert any("test_profiler.py:" in k for k in prof.folded())

    def test_sample_now_attributes_phase(self):
        telemetry.enable()
        prof = profiler.start_profiler(hz=10)
        with tctx.activate(tctx.new_trace_context("req")):
            with telemetry.span("ordering", category="api"):
                profiler.sample_now()
        profiler.stop_profiler()
        keys = [
            k for k in prof.folded()
            if k.startswith("phase:ordering;process:main;")
        ]
        assert keys, sorted(prof.folded())
        # profiler-internal frames are filtered from the folded stack
        assert not any(";profiler.py:" in k for k in keys)

    def test_phase_is_innermost_api_span(self):
        telemetry.enable()
        prof = profiler.start_profiler(hz=10)
        with telemetry.span("ordering", category="api"):
            with telemetry.span("inner-detail", category="phase"):
                profiler.sample_now()
        profiler.stop_profiler()
        # non-api inner span does not displace the pipeline phase
        assert any(
            k.startswith("phase:ordering;process:main;")
            for k in prof.folded()
        )

    def test_non_api_span_is_phase_fallback(self):
        telemetry.enable()
        prof = profiler.start_profiler(hz=10)
        with telemetry.span("parallel.worker", category="parallel"):
            profiler.sample_now()
        profiler.stop_profiler()
        assert any(
            k.startswith("phase:parallel.worker;") for k in prof.folded()
        )

    def test_merge_folded_accumulates(self):
        prof = profiler.SamplingProfiler(hz=10)
        n = prof.merge_folded({"process:worker;a.py:f": 4,
                               "process:worker;b.py:g": 2})
        assert n == 6
        assert prof.sample_count == 6
        prof.merge_folded({"process:worker;a.py:f": 1})
        assert prof.folded()["process:worker;a.py:f"] == 5

    def test_stats_and_overhead(self):
        with profiler.SamplingProfiler(hz=100) as prof:
            time.sleep(0.05)
        stats = prof.stats()
        assert set(stats) == {
            "enabled", "role", "hz", "samples", "overhead_pct"
        }
        assert stats["enabled"] is False  # stopped
        assert stats["hz"] == 100.0
        assert stats["samples"] >= 1
        # sampling a handful of threads is far below the 3% budget
        assert 0.0 <= stats["overhead_pct"] < 3.0

    def test_gauges_exported_to_global_registry(self):
        prof = profiler.start_profiler(hz=100)
        time.sleep(0.03)
        profiler.stop_profiler()
        assert prof.sample_count >= 1
        gauges = telemetry.get().metrics.to_dict()["gauges"]
        assert gauges["telemetry.profiler.samples"] >= 1
        assert gauges["telemetry.profiler.overhead_pct"] >= 0.0

    def test_attribution_reads_the_tracers_stack_from_another_thread(self):
        # a sample attributes each thread by the spans open on that
        # thread, read from the tracer's stacks from another thread
        telemetry.enable()
        prof = profiler.start_profiler(hz=10)
        opened, release = threading.Event(), threading.Event()

        def serve():
            with telemetry.span("components", category="api"):
                opened.set()
                release.wait(5)

        worker = threading.Thread(target=serve)
        worker.start()
        try:
            assert opened.wait(5)
            profiler.sample_now()
        finally:
            release.set()
            worker.join(5)
            profiler.stop_profiler()
        assert any(
            k.startswith("phase:components;process:main;")
            for k in prof.folded()
        ), sorted(prof.folded())

    def test_module_singleton_lifecycle(self):
        assert profiler.get_profiler() is None
        assert profiler.active_hz() is None
        profiler.sample_now()  # no-op when off
        prof = profiler.start_profiler(hz=42)
        assert profiler.get_profiler() is prof
        assert profiler.active_hz() == 42.0
        assert profiler.start_profiler(hz=99) is prof  # idempotent
        stopped = profiler.stop_profiler()
        assert stopped is prof
        assert profiler.get_profiler() is None

    def test_profiler_stats_stub_when_off(self):
        stats = profiler.profiler_stats()
        assert stats["enabled"] is False
        assert stats["samples"] == 0


class TestExporters:
    FOLDED = {
        "phase:ordering;process:main;a.py:f;b.py:g": 3,
        "process:worker;a.py:f": 2,
    }

    def test_collapsed_format(self):
        text = profile_to_collapsed(self.FOLDED)
        lines = text.strip().splitlines()
        assert lines == [
            "phase:ordering;process:main;a.py:f;b.py:g 3",
            "process:worker;a.py:f 2",
        ]
        assert profile_to_collapsed({}) == ""


class TestWorkerCaptureRoundTrip:
    """The in-process half of the cross-process profile path."""

    def test_begin_collect_merge(self):
        tel = telemetry.get()
        epoch = tel.tracer.epoch_ns
        # worker side: capture with a profiler, sample inside the span
        tctx.begin_worker_capture(epoch, profile_hz=10.0)
        active = profiler.get_profiler()
        assert active is not None and active.role == "worker"
        with tctx.activate(tctx.new_trace_context("req")):
            with telemetry.span("parallel.worker", category="parallel"):
                profiler.sample_now()
        report = tctx.collect_worker_report()
        assert report.profile, "worker profile should hold samples"
        assert any(
            k.startswith("phase:parallel.worker;process:worker")
            for k in report.profile
        ), sorted(report.profile)
        # collecting stops and unregisters the worker profiler
        assert profiler.get_profiler() is None

        # parent side: merge absorbs the folded counts
        telemetry.reset()
        parent = profiler.start_profiler(hz=10)
        tctx.merge_worker_report(
            telemetry.get(), report, parent_span_id=None, lane=0
        )
        profiler.stop_profiler()
        merged = parent.folded()
        assert any("process:worker" in k for k in merged)
        assert parent.sample_count >= sum(report.profile.values())

    def test_no_hz_means_no_worker_profiler(self):
        tctx.begin_worker_capture(telemetry.get().tracer.epoch_ns)
        assert profiler.get_profiler() is None
        report = tctx.collect_worker_report()
        assert report.profile == {}

    def test_old_report_shape_still_merges(self):
        # WorkerReport without an explicit profile (old call sites)
        report = tctx.WorkerReport(pid=123)
        n = tctx.merge_worker_report(
            telemetry.get(), report, parent_span_id=None
        )
        assert n == 0


class TestDebugEndpoints:
    def _get(self, url):
        with urllib.request.urlopen(url) as resp:
            return resp.read().decode()

    def test_flame_404_without_profiler(self):
        from repro.telemetry.prometheus import MetricsServer

        with MetricsServer(telemetry.get().metrics, port=0) as srv:
            with pytest.raises(urllib.error.HTTPError) as exc:
                self._get(srv.url + "/debug/flame")
            assert exc.value.code == 404

    def test_flame_serves_collapsed_stacks(self):
        from repro.telemetry.prometheus import MetricsServer

        prof = profiler.start_profiler(hz=50)
        time.sleep(0.05)
        try:
            with MetricsServer(telemetry.get().metrics, port=0) as srv:
                text = self._get(srv.url + "/debug/flame")
        finally:
            profiler.stop_profiler()
        assert text.strip(), "flame endpoint should be non-empty"
        line = text.strip().splitlines()[0]
        stack, count = line.rsplit(" ", 1)
        assert int(count) >= 1
        assert "process:main" in stack
        assert prof.sample_count >= 1

    def test_critpath_endpoint_with_and_without_spans(self):
        from repro.telemetry.prometheus import MetricsServer

        with MetricsServer(telemetry.get().metrics, port=0) as srv:
            doc = json.loads(self._get(srv.url + "/debug/critpath"))
            assert doc["spans"] == 0  # graceful no-data document
            telemetry.enable()
            with telemetry.span("ordering", category="api"):
                time.sleep(0.002)
            doc = json.loads(self._get(srv.url + "/debug/critpath"))
        assert doc["spans"] == 1
        assert doc["dominant_phase"] == "ordering"
        assert doc["what_if"][0]["wall_reduction_pct"] > 0

    def test_statusz_profiler_section(self):
        from repro.telemetry.prometheus import MetricsServer

        with MetricsServer(telemetry.get().metrics, port=0) as srv:
            doc = json.loads(self._get(srv.url + "/statusz"))
            assert doc["profiler"]["enabled"] is False
            profiler.start_profiler(hz=67)
            try:
                doc = json.loads(self._get(srv.url + "/statusz"))
            finally:
                profiler.stop_profiler()
        prof_doc = doc["profiler"]
        assert prof_doc["enabled"] is True
        assert prof_doc["hz"] == 67.0
        assert prof_doc["samples"] >= 0
        assert "overhead_pct" in prof_doc


@pytest.mark.skipif(
    "fork" not in __import__("multiprocessing").get_all_start_methods(),
    reason="cross-process profiling needs fork",
)
class TestCrossProcessProfile:
    """Acceptance: one parallel request -> one merged flamegraph."""

    def _multi_component_matrix(self):
        # two components, n = 2 * 36*36 = 2592 > MIN_PARALLEL_NODES, so
        # the pool genuinely forks
        return _block_diag([g.grid2d(36, 36), g.grid2d(36, 36)])

    def test_parallel_request_merges_worker_stacks(self):
        # shm transport on the persistent pool: each task starts its own
        # worker sampler and pokes it once inside the worker span
        from repro.core.api import _reorder_rcm

        telemetry.enable()
        mat = self._multi_component_matrix()
        prof = profiler.start_profiler(hz=100)
        try:
            with tctx.activate(tctx.new_trace_context("req")):
                res = _reorder_rcm(mat, method="parallel")
        finally:
            profiler.stop_profiler()
        assert res.method == "parallel"

        folded = prof.folded()
        keys = sorted(folded)
        # one profile, both processes: the start/stop bookend samples
        # guarantee parent stacks, the worker-span poke guarantees
        # worker stacks — no timing luck involved
        assert any("process:main" in k for k in keys), keys
        worker_keys = [k for k in keys if "process:worker" in k]
        assert worker_keys, keys
        # fork-worker frames come from the executor's task function...
        assert any("executor.py:" in k for k in worker_keys), worker_keys
        # ...attributed to the worker-span phase, once per component
        phase_keys = [
            k for k in worker_keys
            if k.startswith("phase:parallel.worker;process:worker;")
        ]
        assert phase_keys, worker_keys
        assert sum(folded[k] for k in phase_keys) >= 2

        # the merged profile exports as one flamegraph...
        collapsed = profile_to_collapsed(folded)
        assert "process:main" in collapsed
        assert "process:worker" in collapsed

        # ...and the same request's span tree yields a critical-path
        # report naming a dominant phase with a what-if estimate
        report = telemetry.critical_path(telemetry.get().tracer.records())
        assert report is not None
        assert report["dominant_phase"]
        assert report["what_if"][0]["wall_reduction_pct"] >= 0

    def test_worker_report_profile_ships_via_pickle_path(self):
        # the permutation travels through shared memory; the WorkerReport
        # carrying the worker's profile is the task's pickled return value
        from repro.core.api import _reorder_rcm

        telemetry.enable()
        mat = self._multi_component_matrix()
        parent_pid = os.getpid()
        prof = profiler.start_profiler(hz=100)
        try:
            _reorder_rcm(mat, method="parallel")
        finally:
            profiler.stop_profiler()
        # worker spans recorded in other processes while worker profile
        # samples merged into the parent's profiler
        worker_spans = [
            r for r in telemetry.get().tracer.records()
            if r.name == "parallel.worker"
        ]
        assert worker_spans
        assert all(w.pid != parent_pid for w in worker_spans)
        assert any("process:worker" in k for k in prof.folded())
