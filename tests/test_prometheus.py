"""Tests for Prometheus text exposition and the embedded metrics endpoint.

Format checks follow the exposition spec (version 0.0.4): ``_total``
suffix on counters, cumulative ``_bucket{le="..."}`` histogram series
capped by ``+Inf``, ``# TYPE``/``# HELP`` headers.  Server tests bind an
OS-assigned port on loopback and scrape with ``urllib`` only.
"""

import json
import urllib.request

import pytest

from repro import telemetry
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.prometheus import (
    CONTENT_TYPE,
    METRIC_INVENTORY,
    MetricsServer,
    escape_label_value,
    metric_inventory_table,
    prometheus_name,
    render_prometheus,
)


@pytest.fixture(autouse=True)
def clean_global_telemetry():
    telemetry.reset()
    telemetry.disable()
    yield
    telemetry.reset()
    telemetry.disable()


class TestNaming:
    def test_dots_become_underscores(self):
        assert prometheus_name("service.cache.hits") == "service_cache_hits"

    def test_counter_suffix(self):
        assert (
            prometheus_name("parallel.tasks", suffix="_total")
            == "parallel_tasks_total"
        )

    def test_illegal_chars_sanitized(self):
        assert prometheus_name("a-b c/d") == "a_b_c_d"

    def test_leading_digit_guarded(self):
        assert prometheus_name("2fast") == "_2fast"


class TestLabelEscaping:
    def test_plain_value_untouched(self):
        assert escape_label_value("0.25") == "0.25"

    def test_backslash_escaped(self):
        assert escape_label_value(r"C:\path") == "C:\\\\path"

    def test_quote_escaped(self):
        assert escape_label_value('say "hi"') == 'say \\"hi\\"'

    def test_newline_escaped(self):
        assert escape_label_value("a\nb") == "a\\nb"

    def test_order_backslash_first(self):
        # a pre-existing backslash-quote pair must not double-escape: the
        # backslash pass runs before the quote pass
        assert escape_label_value('\\"') == '\\\\\\"'

    def test_non_string_coerced(self):
        assert escape_label_value(2.5) == "2.5"

    def test_rendered_bucket_labels_stay_parseable(self):
        reg = MetricsRegistry()
        reg.histogram("h", buckets=(0.5, 1.0)).observe(0.2)
        for line in render_prometheus(reg).splitlines():
            if "_bucket" in line:
                assert line.count('"') % 2 == 0


class TestRender:
    def test_counter_rendering(self):
        reg = MetricsRegistry()
        reg.counter("service.requests").add(7)
        text = render_prometheus(reg)
        assert "# TYPE service_requests_total counter" in text
        assert "service_requests_total 7" in text

    def test_gauge_rendering(self):
        reg = MetricsRegistry()
        reg.gauge("service.queue.depth").set(3)
        text = render_prometheus(reg)
        assert "# TYPE service_queue_depth gauge" in text
        assert "service_queue_depth 3" in text

    def test_histogram_cumulative_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(1.0, 10.0))
        for v in (0.5, 0.7, 5.0, 99.0):
            h.observe(v)
        text = render_prometheus(reg)
        assert '# TYPE lat histogram' in text
        assert 'lat_bucket{le="1.0"} 2' in text
        assert 'lat_bucket{le="10.0"} 3' in text
        assert 'lat_bucket{le="+Inf"} 4' in text
        assert "lat_count 4" in text
        assert "lat_sum 105.2" in text

    def test_empty_registry_renders(self):
        assert render_prometheus(MetricsRegistry()) == "\n"

    def test_every_sample_line_parses(self):
        reg = MetricsRegistry()
        reg.counter("a.b").add(1)
        reg.gauge("c.d").set(2.5)
        reg.histogram("e.f").observe(1.0)
        for line in render_prometheus(reg).strip().splitlines():
            if line.startswith("#"):
                assert line.split()[0] in ("#",) or True
                continue
            name_part, value = line.rsplit(" ", 1)
            float(value)  # must parse
            assert " " not in name_part.replace("} ", "}")


class TestServer:
    def test_metrics_endpoint_serves_live_registry(self):
        reg = MetricsRegistry()
        reg.counter("parallel.tasks").add(2)
        with MetricsServer(reg, port=0) as srv:
            body = urllib.request.urlopen(srv.url + "/metrics")
            assert body.headers["Content-Type"] == CONTENT_TYPE
            text = body.read().decode()
            assert "parallel_tasks_total 2" in text
            # live: a later bump shows up on the next scrape
            reg.counter("parallel.tasks").add(3)
            text = urllib.request.urlopen(srv.url + "/metrics").read().decode()
            assert "parallel_tasks_total 5" in text

    def test_healthz(self):
        with MetricsServer(MetricsRegistry(), port=0) as srv:
            assert urllib.request.urlopen(srv.url + "/healthz").read() == b"ok\n"

    def test_statusz_includes_owner_stats(self):
        reg = MetricsRegistry()
        reg.counter("service.requests").add(1)
        with MetricsServer(
            reg, port=0, status_fn=lambda: {"cache": {"hits": 9}}
        ) as srv:
            doc = json.loads(
                urllib.request.urlopen(srv.url + "/statusz").read()
            )
        assert doc["counters"]["service.requests"] == 1
        assert doc["service"]["cache"]["hits"] == 9

    def test_unknown_path_404(self):
        with MetricsServer(MetricsRegistry(), port=0) as srv:
            with pytest.raises(urllib.error.HTTPError) as exc:
                urllib.request.urlopen(srv.url + "/nope")
            assert exc.value.code == 404

    def test_stop_is_idempotent(self):
        srv = MetricsServer(MetricsRegistry(), port=0).start()
        srv.stop()
        srv.stop()


class TestInventory:
    def test_table_covers_every_family(self):
        table = metric_inventory_table()
        for family, _, _ in METRIC_INVENTORY:
            assert f"`{family}`" in table

    def test_service_and_parallel_series_present(self):
        table = metric_inventory_table()
        assert "service_requests_total" in table
        assert "parallel_tasks_total" in table

    def test_inventory_prints_table(self, capsys):
        from repro.cli import main

        assert main(["telemetry", "inventory"]) == 0
        out = capsys.readouterr().out
        assert "service_requests_total" in out
