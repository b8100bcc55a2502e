"""Tests for telemetry export: OpenMetrics, snapshot deltas, the flight
recorder and its sink, and the HTTP endpoint."""

from __future__ import annotations

import json
import re
import urllib.error
import urllib.request

import pytest

from repro import KMismatchIndex
from repro.obs import (
    OBS,
    FlightRecorder,
    MetricsRegistry,
    ObsDelta,
    load_wide_events,
    make_record,
    merge_metrics,
    merge_obs_delta,
    metrics_delta,
    render_event_lines,
    render_openmetrics,
    sanitize_metric_name,
    tail_events,
)
from repro.obs.server import MetricsServer


@pytest.fixture(autouse=True)
def clean_obs():
    OBS.disable()
    OBS.reset()
    yield
    OBS.disable()
    OBS.reset()


class TestOpenMetrics:
    def test_name_sanitization(self):
        assert sanitize_metric_name("rank.rankall.occ_probes") == "rank_rankall_occ_probes"
        assert sanitize_metric_name("9starts.bad") == "_starts_bad"
        assert sanitize_metric_name("ok_name") == "ok_name"

    def test_counter_and_gauge_rendering(self):
        registry = MetricsRegistry()
        registry.counter("query.count").inc(7)
        registry.gauge("fmindex.nbytes").set(1234.5)
        text = render_openmetrics(registry.to_dict())
        assert "# TYPE repro_query_count_total counter" in text
        assert "repro_query_count_total 7" in text
        assert "# TYPE repro_fmindex_nbytes gauge" in text
        assert "repro_fmindex_nbytes 1234.5" in text
        assert text.endswith("# EOF\n")

    def test_histogram_rendering_is_cumulative(self):
        registry = MetricsRegistry()
        h = registry.histogram("query.latency_ms", (1, 10, 100))
        for value in (0.5, 5, 5, 50, 5000):
            h.observe(value)
        text = render_openmetrics(registry.to_dict())
        assert 'repro_query_latency_ms_bucket{le="1.0"} 1' in text
        assert 'repro_query_latency_ms_bucket{le="10.0"} 3' in text
        assert 'repro_query_latency_ms_bucket{le="100.0"} 4' in text
        assert 'repro_query_latency_ms_bucket{le="+Inf"} 5' in text
        assert "repro_query_latency_ms_count 5" in text
        assert "repro_query_latency_ms_sum" in text

    def test_every_line_is_prometheus_legal(self):
        """Each non-comment line: <name>[{labels}] <number>."""
        registry = MetricsRegistry()
        registry.counter("a.b").inc()
        registry.gauge("c.d").set(-2.5)
        registry.histogram("e.f", (1, 2)).observe(1.5)
        line_re = re.compile(
            r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{le="[^"]+"\})? -?[0-9.+eEinfNa]+$'
        )
        for line in render_openmetrics(registry.to_dict()).splitlines():
            if line.startswith("#"):
                continue
            assert line_re.match(line), line


class TestMetricsDelta:
    def test_counter_delta_and_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("x").inc(3)
        before = a.to_dict()
        a.counter("x").inc(4)
        a.counter("y").inc(1)
        delta = metrics_delta(before, a.to_dict())
        assert delta["x"]["value"] == 4
        assert delta["y"]["value"] == 1
        b.counter("x").inc(100)
        merge_metrics(b, delta)
        assert b.counter("x").value == 104
        assert b.counter("y").value == 1

    def test_unchanged_metrics_are_omitted(self):
        registry = MetricsRegistry()
        registry.counter("x").inc(3)
        registry.histogram("h", (1,)).observe(0.5)
        snapshot = registry.to_dict()
        assert metrics_delta(snapshot, snapshot) == {}

    def test_histogram_delta_round_trip(self):
        a = MetricsRegistry()
        h = a.histogram("h", (1, 10))
        h.observe(0.5)
        before = a.to_dict()
        h.observe(5)
        h.observe(50)
        delta = metrics_delta(before, a.to_dict())
        assert delta["h"]["counts"] == [0, 1, 1]
        assert delta["h"]["count"] == 2
        b = MetricsRegistry()
        merge_metrics(b, delta)
        merged = b.histogram("h", (1, 10))
        assert merged.count == 2
        assert merged.counts == [0, 1, 1]

    def test_gauge_takes_latest(self):
        a = MetricsRegistry()
        a.gauge("g").set(1)
        before = a.to_dict()
        a.gauge("g").set(9)
        delta = metrics_delta(before, a.to_dict())
        assert delta["g"]["value"] == 9
        unchanged = metrics_delta(a.to_dict(), a.to_dict())
        assert "g" not in unchanged

    def test_obs_delta_captures_only_new_work(self):
        OBS.enable()
        OBS.metrics.counter("pre.existing").inc(5)
        with OBS.span("old.root"):
            pass
        snapshot = ObsDelta.capture(OBS)
        OBS.metrics.counter("pre.existing").inc(2)
        with OBS.span("new.root"):
            pass
        payload = snapshot.finish(OBS)
        OBS.disable()
        assert payload["metrics"]["pre.existing"]["value"] == 2
        assert [s["name"] for s in payload["spans"]] == ["new.root"]
        # Merging into a fresh singleton reproduces just the delta.
        OBS.reset()
        merge_obs_delta(OBS, payload)
        assert OBS.metrics.counter("pre.existing").value == 2
        assert [s.name for s in OBS.tracer.finished] == ["new.root"]


class TestFlightRecorder:
    def test_ring_evicts_oldest(self):
        recorder = FlightRecorder(capacity=3, slow_ms=None)
        for i in range(5):
            recorder.record(make_record("query", engine="a", duration_ms=i))
        recent = recorder.recent()
        assert len(recent) == 3
        assert [r["seq"] for r in recent] == [3, 4, 5]
        assert recorder.total_recorded == 5

    def test_slow_queries_survive_ring_eviction(self):
        recorder = FlightRecorder(capacity=2, slow_ms=100.0)
        recorder.record(make_record("query", engine="a", duration_ms=500.0))
        for _ in range(10):
            recorder.record(make_record("query", engine="a", duration_ms=1.0))
        assert all(r["seq"] != 1 for r in recorder.recent())  # evicted from ring
        slow = recorder.slow()
        assert len(slow) == 1 and slow[0]["seq"] == 1 and slow[0]["slow"]

    def test_slow_threshold_disabled(self):
        recorder = FlightRecorder(capacity=4, slow_ms=None)
        recorder.record(make_record("query", duration_ms=10_000))
        assert recorder.slow() == []
        assert recorder.recent()[0]["slow"] is False

    def test_dump_jsonl_includes_evicted_slow_records_once(self, tmp_path):
        recorder = FlightRecorder(capacity=2, slow_ms=100.0)
        recorder.record(make_record("query", duration_ms=500.0))
        for _ in range(4):
            recorder.record(make_record("query", duration_ms=1.0))
        path = tmp_path / "fr.jsonl"
        n = recorder.dump_jsonl(str(path))
        records = load_wide_events(str(path))
        assert n == len(records) == 3  # 2 ring + 1 evicted-but-pinned
        assert sorted(r["seq"] for r in records) == [1, 4, 5]
        assert len({r["seq"] for r in records}) == 3

    def test_clear_keeps_sequence(self):
        recorder = FlightRecorder(capacity=4)
        recorder.record(make_record("query"))
        recorder.clear()
        assert len(recorder) == 0
        record = recorder.record(make_record("query"))
        assert record["seq"] == 2

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_render_records_table(self):
        records = [
            make_record("query", engine="algorithm_a", k=2, m=20,
                        duration_ms=1.5, occurrences=3),
            make_record("batch", engine="stree", duration_ms=900.0),
        ]
        records[0]["seq"], records[1]["seq"] = 1, 2
        records[1]["slow"] = True
        text = render_event_lines(records)
        assert "algorithm_a" in text and "SLOW" in text
        assert text.splitlines()[0].count("SLOW") == 0
        assert render_event_lines([]) == "(no events)"

    def test_tail_slow_only_keeps_the_slow_record(self, tmp_path):
        recorder = FlightRecorder(capacity=4, slow_ms=100.0)
        recorder.record(make_record("query", engine="algorithm_a",
                                    duration_ms=1.0))
        recorder.record(make_record("query", engine="stree",
                                    duration_ms=900.0))
        path = tmp_path / "fr.jsonl"
        recorder.dump_jsonl(str(path))
        assert [r["engine"] for r in tail_events(str(path), n=0)] == [
            "algorithm_a", "stree"]
        slow = tail_events(str(path), n=0, slow_only=True)
        assert [r["engine"] for r in slow] == ["stree"]
        assert slow[0]["slow"] is True


class TestEventLog:
    def test_obs_record_event_feeds_recorder_and_log(self, tmp_path):
        path = tmp_path / "events.jsonl"
        OBS.open_wide_log(str(path))
        OBS.record_event("query", engine="algorithm_a", k=2, m=8,
                         duration_ms=3.0, occurrences=1)
        OBS.close_wide_log()
        assert len(OBS.recorder.recent()) == 1
        records = load_wide_events(str(path))
        assert records == OBS.recorder.recent()
        assert records[0]["engine"] == "algorithm_a"
        assert records[0]["event"] == "query"

    def test_search_records_into_flight_recorder(self):
        OBS.enable()
        index = KMismatchIndex("acagacaacagacagtacagaca")
        index.search("tcaca", k=2)
        OBS.disable()
        records = OBS.recorder.recent()
        assert len(records) == 1
        record = records[0]
        assert record["event"] == "query"
        assert record["engine"] == "algorithm_a"
        assert record["k"] == 2 and record["m"] == 5
        assert record["stats"]["leaves"] > 0
        assert record["spans"]["name"] == "kmismatch.search"


class TestServer:
    @pytest.fixture
    def server(self):
        server = MetricsServer(port=0).start()
        yield server
        server.stop()

    def _get(self, server, path):
        with urllib.request.urlopen(server.url + path, timeout=5) as response:
            return response.status, response.headers.get("Content-Type"), \
                response.read().decode()

    def test_metrics_endpoint_serves_openmetrics(self, server):
        OBS.enable()
        index = KMismatchIndex("acagacaacagacagtacagaca")
        index.search("tcaca", k=2)
        OBS.disable()
        status, content_type, body = self._get(server, "/metrics")
        assert status == 200
        assert content_type.startswith("text/plain")
        assert "repro_query_count_total 1" in body
        assert 'repro_search_rank_queries_total{engine="algorithm_a",k="2"}' in body
        assert body.endswith("# EOF\n")

    def test_healthz(self, server):
        status, content_type, body = self._get(server, "/healthz")
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert "uptime_s" in payload and "n_metrics" in payload

    def test_debug_queries_serves_flight_recorder(self, server):
        OBS.enable()
        index = KMismatchIndex("acagacaacagacagtacagaca")
        index.search("tcaca", k=1)
        OBS.disable()
        status, _, body = self._get(server, "/debug/queries")
        assert status == 200
        payload = json.loads(body)
        assert len(payload["recent"]) == 1
        assert payload["recent"][0]["engine"] == "algorithm_a"
        assert "slow" in payload

    def test_unknown_path_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as info:
            self._get(server, "/nope")
        assert info.value.code == 404
        assert "endpoints" in json.loads(info.value.read().decode())

    def test_pprof_404_before_any_profile(self, server):
        from repro.obs import PROFILER

        PROFILER.stop()
        PROFILER.profile = None
        with pytest.raises(urllib.error.HTTPError) as info:
            self._get(server, "/debug/pprof")
        assert info.value.code == 404
        assert "no profile" in json.loads(info.value.read().decode())["error"]

    def test_pprof_serves_folded_and_flamegraph(self, server):
        from repro.obs import PROFILER

        OBS.enable()
        PROFILER.start(hz=400)
        try:
            index = KMismatchIndex("acagacaacagacagtacagaca" * 500)
            index.search("tcaca", k=2)
        finally:
            PROFILER.stop()
            OBS.disable()
        status, content_type, body = self._get(server, "/debug/pprof")
        assert status == 200
        assert content_type.startswith("text/plain")
        assert "span:" in body
        status, content_type, body = self._get(server, "/debug/pprof/flamegraph")
        assert status == 200
        assert content_type.startswith("application/json")
        doc = json.loads(body)
        assert doc["$schema"].startswith("https://www.speedscope.app/")
        PROFILER.profile = None

    def test_pprof_one_shot_capture(self, server):
        from repro.obs import PROFILER

        PROFILER.stop()
        PROFILER.profile = None
        status, _, body = self._get(server, "/debug/pprof?seconds=0.2&hz=100")
        assert status == 200  # blocking capture, possibly idle stacks only

    def test_pprof_bad_seconds_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as info:
            self._get(server, "/debug/pprof?seconds=nope")
        assert info.value.code == 400

    def test_pprof_heap_serves_memory_profiles(self, server):
        from repro.obs import MEMORY_PROFILES, profile_memory, set_memory_profiling

        MEMORY_PROFILES.clear()
        set_memory_profiling(True)
        try:
            with profile_memory("index.build"):
                KMismatchIndex("acagacaacagacagtacagaca" * 20)
        finally:
            set_memory_profiling(False)
        status, _, body = self._get(server, "/debug/pprof/heap")
        assert status == 200
        payload = json.loads(body)
        assert payload["profiles"]
        assert payload["profiles"][-1]["name"] == "index.build"
        assert payload["profiles"][-1]["peak_bytes"] > 0
        MEMORY_PROFILES.clear()


class TestHealthEndpoints:
    """Deep health, SLO and alert endpoints plus the pprof capture lock
    and broken-pipe hardening."""

    @pytest.fixture
    def server(self):
        from repro.obs import READINESS

        READINESS.reset()
        server = MetricsServer(port=0).start()
        yield server
        server.stop()
        READINESS.reset()

    def _get(self, server, path):
        with urllib.request.urlopen(server.url + path, timeout=5) as response:
            return response.status, response.read().decode()

    def test_readyz_ready_by_default(self, server):
        status, body = self._get(server, "/readyz")
        assert status == 200
        assert json.loads(body)["ready"] is True

    def test_readyz_503_when_component_unready(self, server):
        from repro.obs import READINESS

        READINESS.set_component("workers", False, "pool stalled")
        with pytest.raises(urllib.error.HTTPError) as info:
            self._get(server, "/readyz")
        assert info.value.code == 503
        payload = json.loads(info.value.read().decode())
        assert payload["ready"] is False
        assert payload["components"]["workers"]["detail"] == "pool stalled"
        READINESS.set_component("workers", True)
        status, _ = self._get(server, "/readyz")
        assert status == 200

    def test_readyz_503_on_failing_canary_probe(self, server):
        from repro.obs import READINESS, index_canary

        index = KMismatchIndex("acagacattagacagacat")
        READINESS.register_probe("index", index_canary(index, pattern="tttttt"))
        with pytest.raises(urllib.error.HTTPError) as info:
            self._get(server, "/readyz")
        assert info.value.code == 503
        payload = json.loads(info.value.read().decode())
        assert payload["components"]["index"]["ok"] is False

    def test_slo_endpoint_serves_burn_report(self, server):
        status, body = self._get(server, "/slo")
        assert status == 200
        report = json.loads(body)
        assert report["format"] == "repro-slo-report"
        names = [o["objective"] for o in report["objectives"]]
        assert "query-availability" in names
        for objective in report["objectives"]:
            assert set(objective["windows"]) == {"fast", "slow"}

    def test_alerts_endpoint_serves_alert_states(self, server):
        status, body = self._get(server, "/alerts")
        assert status == 200
        payload = json.loads(body)
        assert "alerts" in payload and "n_firing" in payload

    def test_404_lists_new_endpoints(self, server):
        with pytest.raises(urllib.error.HTTPError) as info:
            self._get(server, "/nope")
        endpoints = json.loads(info.value.read().decode())["endpoints"]
        for path in ("/readyz", "/slo", "/alerts"):
            assert path in endpoints

    def test_pprof_timed_capture_is_exclusive(self, server):
        from repro.obs import server as server_mod

        assert server_mod._PPROF_CAPTURE_LOCK.acquire(blocking=False)
        try:
            with pytest.raises(urllib.error.HTTPError) as info:
                self._get(server, "/debug/pprof?seconds=0.2")
            assert info.value.code == 409
            payload = json.loads(info.value.read().decode())
            assert "already running" in payload["error"]
        finally:
            server_mod._PPROF_CAPTURE_LOCK.release()
        # Once the holder releases, a capture succeeds again.
        status, _ = self._get(server, "/debug/pprof?seconds=0.1&hz=100")
        assert status == 200
        from repro.obs import PROFILER

        PROFILER.profile = None

    def test_respond_swallows_broken_pipe(self):
        from repro.obs.server import _ObsRequestHandler

        class BrokenWfile:
            def write(self, data):
                raise BrokenPipeError("client went away")

        handler = object.__new__(_ObsRequestHandler)
        handler.close_connection = False
        handler.wfile = BrokenWfile()
        handler.send_response = lambda code: None
        handler.send_header = lambda *a: None
        handler.end_headers = lambda: None
        handler._respond(200, "application/json", "{}")  # must not raise
        assert handler.close_connection is True

    def test_respond_swallows_connection_reset_in_headers(self):
        from repro.obs.server import _ObsRequestHandler

        def raise_reset(code):
            raise ConnectionResetError("reset by peer")

        handler = object.__new__(_ObsRequestHandler)
        handler.close_connection = False
        handler.send_response = raise_reset
        handler._respond(200, "text/plain", "hi")
        assert handler.close_connection is True


class TestNonFiniteValues:
    """Satellite: non-finite floats must render the OpenMetrics
    spellings (+Inf / -Inf / NaN), never Python's inf / nan reprs."""

    def test_gauge_infinities_and_nan(self):
        registry = MetricsRegistry()
        registry.gauge("pos").set(float("inf"))
        registry.gauge("neg").set(float("-inf"))
        registry.gauge("nan").set(float("nan"))
        text = render_openmetrics(registry.to_dict())
        assert "repro_pos +Inf" in text
        assert "repro_neg -Inf" in text
        assert "repro_nan NaN" in text
        assert "inf\n" not in text  # the Python repr never leaks

    def test_histogram_observation_of_inf(self):
        registry = MetricsRegistry()
        registry.histogram("h", (1, 10)).observe(float("inf"))
        text = render_openmetrics(registry.to_dict())
        assert "repro_h_sum +Inf" in text


class TestLabelledOpenMetrics:
    def test_labelled_counter_series(self):
        registry = MetricsRegistry()
        registry.counter("query.count", engine="algorithm_a", k=2).inc(3)
        registry.counter("query.count", engine="stree", k=2).inc(5)
        registry.counter("query.count").inc(8)
        text = render_openmetrics(registry.to_dict())
        assert text.count("# TYPE repro_query_count_total counter") == 1
        assert "repro_query_count_total 8" in text
        assert 'repro_query_count_total{engine="algorithm_a",k="2"} 3' in text
        assert 'repro_query_count_total{engine="stree",k="2"} 5' in text

    def test_labelled_histogram_merges_le_into_labels(self):
        registry = MetricsRegistry()
        h = registry.histogram("lat", (1, 10), engine="a", k=0)
        h.observe(0.5)
        h.observe(5)
        text = render_openmetrics(registry.to_dict())
        assert 'repro_lat_bucket{engine="a",k="0",le="1.0"} 1' in text
        assert 'repro_lat_bucket{engine="a",k="0",le="+Inf"} 2' in text
        assert 'repro_lat_count{engine="a",k="0"} 2' in text

    def test_exemplar_rendering(self):
        registry = MetricsRegistry()
        h = registry.histogram("lat", (1, 10))
        h.observe(5, trace_id="deadbeef")
        text = render_openmetrics(registry.to_dict())
        matched = [line for line in text.splitlines()
                   if '# {trace_id="deadbeef"} 5' in line]
        assert matched and matched[0].startswith('repro_lat_bucket{le="10.0"} 1')

    def test_label_value_escaping(self):
        registry = MetricsRegistry()
        registry.counter("c", path='a"b\\c\nd').inc()
        text = render_openmetrics(registry.to_dict())
        assert 'repro_c_total{path="a\\"b\\\\c\\nd"} 1' in text


class TestLabelledDelta:
    def test_labelled_counter_delta_and_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("q", engine="x").inc(3)
        a.counter("q", engine="y").inc(1)
        before = a.to_dict()
        a.counter("q", engine="x").inc(4)
        a.counter("q", engine="z").inc(2)
        delta = metrics_delta(before, a.to_dict())
        b.counter("q", engine="x").inc(100)
        merge_metrics(b, delta)
        assert b.counter("q", engine="x").value == 104
        assert b.counter("q", engine="z").value == 2
        # engine=y did not move, so the delta must not touch it.
        assert b.counter("q", engine="y").value == 0

    def test_labelled_histogram_delta_round_trip(self):
        a = MetricsRegistry()
        h = a.histogram("h", (1, 10), k=1)
        h.observe(0.5)
        before = a.to_dict()
        h.observe(5, trace_id="abcd")
        delta = metrics_delta(before, a.to_dict())
        b = MetricsRegistry()
        merge_metrics(b, delta)
        merged = b.histogram("h", (1, 10), k=1)
        # The delta is the new work only: one observation, its exemplar.
        assert merged.count == 1
        assert merged.counts == [0, 1, 0]
        assert merged.exemplars[1]["trace_id"] == "abcd"

    def test_obs_delta_ships_flight_records(self):
        OBS.enable()
        OBS.record_event("query", engine="stree", k=1, m=5, duration_ms=0.4,
                         occurrences=0, trace_id="aaaa1111")
        snapshot = ObsDelta.capture(OBS)
        OBS.record_event("query", engine="stree", k=2, m=5, duration_ms=0.6,
                         occurrences=3, trace_id="bbbb2222")
        payload = snapshot.finish(OBS)
        OBS.disable()
        OBS.reset()
        assert [r["trace_id"] for r in payload["records"]] == ["bbbb2222"]
        OBS.enable()
        merge_obs_delta(OBS, payload)
        OBS.disable()
        assert OBS.recorder.find_trace("bbbb2222")
        assert not OBS.recorder.find_trace("aaaa1111")
