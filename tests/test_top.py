"""Tests for the ``repro-cli top`` dashboard: the pure
``compute_dashboard`` aggregation (hand-computed), the payload helpers,
ANSI rendering, the CLI surfaces, and the dual-surface consistency
guarantee (``top --once --json`` equals the ``/debug/stream`` frame)."""

from __future__ import annotations

import json

import pytest

from repro import KMismatchIndex
from repro.cli import main
from repro.obs import OBS, MetricsRegistry, configure_timeseries
from repro.obs.server import MetricsServer
from repro.obs.slo import configure_slo_engine
from repro.obs.stream import configure_broker
from repro.obs.top import (
    DASHBOARD_FORMAT,
    DASHBOARD_VERSION,
    compute_dashboard,
    counter_total,
    gauge_value,
    merged_histogram,
    render_dashboard,
)


@pytest.fixture(autouse=True)
def clean_obs():
    OBS.disable()
    OBS.reset()
    yield
    OBS.disable()
    OBS.reset()
    configure_timeseries()
    configure_broker()
    configure_slo_engine()


def synthetic_payload():
    """A registry whose dashboard is hand-computable (window 10 s)."""
    registry = MetricsRegistry()
    registry.gauge("process.uptime_s").set(10.0)
    registry.gauge("process.rss_bytes").set(2048)

    registry.counter("query.count").inc(20)
    registry.counter("query.count", engine="bwt_mismatch", k=2).inc(20)
    registry.counter("query.occurrences", engine="bwt_mismatch", k=2).inc(37)
    registry.counter("query.errors", engine="bwt_mismatch", k=2,
                     kind="PatternError").inc(2)

    latency = registry.histogram("query.latency_ms", (1, 10, 100))
    for _ in range(10):
        latency.observe(0.5)
    for _ in range(6):
        latency.observe(5)
    for _ in range(4):
        latency.observe(50)

    search = registry.histogram("query.search_ms", (1, 10, 100),
                                engine="bwt_mismatch", k=2)
    search.observe(5)
    search.observe(5)

    registry.gauge("engine.pool.workers").set(4)
    registry.counter("engine.worker.busy_ms").inc(20000)
    registry.counter("engine.arena.records").inc(10)
    registry.counter("engine.arena.spills").inc(1)

    registry.histogram("query.shard_ms", (1, 10, 100), engine="bwt_mismatch",
                       k=2, shard=0).observe(5)
    registry.histogram("query.shard_ms", (1, 10, 100), engine="bwt_mismatch",
                       k=2, shard=1).observe(50)
    registry.counter("query.shard_occurrences", engine="bwt_mismatch", k=2,
                     shard=0).inc(3)
    registry.counter("query.shard_occurrences", engine="bwt_mismatch", k=2,
                     shard=1).inc(9)
    return registry.to_dict()


class TestPayloadHelpers:
    def test_counter_total_base_next_to_children_not_double_counted(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(10)
        registry.counter("c", engine="a").inc(4)
        registry.counter("c", engine="b").inc(6)
        payload = registry.to_dict()
        # Children sum; the base total (which mirrors them) is skipped.
        assert counter_total(payload, "c") == 10
        assert counter_total(payload, "c", flat_only=True) == 10
        assert counter_total(payload, "c", where={"engine": "a"}) == 4

    def test_counter_total_base_only_family(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(7)
        payload = registry.to_dict()
        assert counter_total(payload, "c") == 7
        # A label filter never matches the unlabelled base.
        assert counter_total(payload, "c", where={"engine": "a"}) == 0

    def test_counter_total_where_is_a_subset_match(self):
        registry = MetricsRegistry()
        registry.counter("e", engine="a", kind="X").inc(2)
        registry.counter("e", engine="a", kind="Y").inc(3)
        registry.counter("e", engine="b", kind="X").inc(5)
        payload = registry.to_dict()
        assert counter_total(payload, "e") == 10
        assert counter_total(payload, "e", where={"engine": "a"}) == 5
        assert counter_total(payload, "e", where={"kind": "X"}) == 7

    def test_gauge_value_and_default(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(3.5)
        payload = registry.to_dict()
        assert gauge_value(payload, "g") == 3.5
        assert gauge_value(payload, "absent", default=-1.0) == -1.0
        assert gauge_value(None, "absent") == 0.0

    def test_merged_histogram_flat_vs_labelled(self):
        registry = MetricsRegistry()
        registry.histogram("h", (1, 10), engine="a").observe(0.5)
        registry.histogram("h", (1, 10), engine="b").observe(5)
        payload = registry.to_dict()
        # Without a filter only the unlabelled series qualifies (absent
        # here); with one, matching series merge.
        assert merged_histogram(payload, "h") is None
        merged = merged_histogram(payload, "h", where={})
        assert merged is not None and merged.count == 2
        only_a = merged_histogram(payload, "h", where={"engine": "a"})
        assert only_a.count == 1


class TestComputeDashboard:
    def test_hand_computed_top_line(self):
        dashboard = compute_dashboard(synthetic_payload(), window_s=10)
        assert dashboard["format"] == DASHBOARD_FORMAT
        assert dashboard["version"] == DASHBOARD_VERSION
        assert dashboard["window_s"] == 10.0
        assert dashboard["uptime_s"] == 10.0
        assert dashboard["rss_bytes"] == 2048
        assert dashboard["queries"] == 20
        assert dashboard["qps"] == 2.0
        assert dashboard["errors"] == 2
        assert dashboard["error_rate"] == 0.1
        # 20 observations: ranks 10 / 19 / 19.8 over cumulative
        # (10, 16, 20) -> buckets 1, 100, 100.
        assert dashboard["latency_ms"] == {"p50_ms": 1.0, "p95_ms": 100.0,
                                           "p99_ms": 100.0}
        assert dashboard["workers"] == 4
        # 20000 busy-ms over 10 s across 4 workers = 50%.
        assert dashboard["utilization"] == 0.5
        assert dashboard["arena"] == {"records": 10, "spills": 1,
                                      "spill_rate": 0.1}

    def test_hand_computed_by_engine(self):
        dashboard = compute_dashboard(synthetic_payload(), window_s=10)
        assert len(dashboard["by_engine"]) == 1
        row = dashboard["by_engine"][0]
        assert row["engine"] == "bwt_mismatch"
        assert row["k"] == 2
        assert row["queries"] == 20
        assert row["qps"] == 2.0
        assert row["occurrences"] == 37
        assert row["errors"] == 2
        assert row["p50_ms"] == 10.0  # both observations in le=10

    def test_hand_computed_by_shard(self):
        dashboard = compute_dashboard(synthetic_payload(), window_s=10)
        assert [row["shard"] for row in dashboard["by_shard"]] == [0, 1]
        shard0, shard1 = dashboard["by_shard"]
        assert shard0["queries"] == 1 and shard0["occurrences"] == 3
        assert shard0["p50_ms"] == 10.0
        assert shard1["p50_ms"] == 100.0
        assert shard1["occurrences"] == 9

    def test_window_defaults_to_uptime_gauge(self):
        dashboard = compute_dashboard(synthetic_payload())
        assert dashboard["window_s"] == 10.0
        assert dashboard["qps"] == 2.0

    def test_empty_payload_degrades_to_zeros(self):
        for payload in ({}, None):
            dashboard = compute_dashboard(payload)
            assert dashboard["queries"] == 0
            assert dashboard["qps"] == 0.0
            assert dashboard["error_rate"] == 0.0
            assert dashboard["utilization"] == 0.0
            assert dashboard["by_engine"] == []
            assert dashboard["by_shard"] == []

    def test_alerts_pass_through(self):
        alerts = [{"objective": "availability", "state": "firing"}]
        dashboard = compute_dashboard(synthetic_payload(), window_s=10,
                                      alerts=alerts)
        assert dashboard["alerts"] == alerts

    def test_utilization_capped_at_one(self):
        registry = MetricsRegistry()
        registry.gauge("engine.pool.workers").set(1)
        registry.counter("engine.worker.busy_ms").inc(99999999)
        dashboard = compute_dashboard(registry.to_dict(), window_s=1)
        assert dashboard["utilization"] == 1.0


class TestRenderDashboard:
    def test_plain_rendering_has_no_ansi(self):
        dashboard = compute_dashboard(synthetic_payload(), window_s=10)
        text = render_dashboard(dashboard, color=False)
        assert "\x1b" not in text
        assert "repro top" in text
        assert "bwt_mismatch" in text
        assert "qps 2" in text
        assert "shard" in text

    def test_color_rendering_has_ansi(self):
        dashboard = compute_dashboard(synthetic_payload(), window_s=10)
        assert "\x1b[" in render_dashboard(dashboard, color=True)

    def test_firing_alerts_called_out(self):
        dashboard = compute_dashboard(
            synthetic_payload(), window_s=10,
            alerts=[{"objective": "availability", "state": "firing"}])
        assert "ALERTS FIRING: availability" in \
            render_dashboard(dashboard, color=False)

    def test_quiet_alerts_summarized(self):
        dashboard = compute_dashboard(
            synthetic_payload(), window_s=10,
            alerts=[{"objective": "availability", "state": "inactive"}])
        assert "alerts: 1 ok" in render_dashboard(dashboard, color=False)


class TestTopCLI:
    def _trace(self, tmp_path):
        OBS.reset()
        OBS.enable()
        index = KMismatchIndex("acagaca" * 20)
        for _ in range(4):
            index.search("acaggca", 1)
        path = tmp_path / "trace.json"
        OBS.write_trace(str(path))
        OBS.disable()
        return str(path)

    def test_trace_mode_json(self, tmp_path, capsys):
        trace = self._trace(tmp_path)
        assert main(["top", trace, "--json", "--window", "10"]) == 0
        dashboard = json.loads(capsys.readouterr().out)
        assert dashboard["format"] == DASHBOARD_FORMAT
        assert dashboard["queries"] == 4
        assert dashboard["qps"] == pytest.approx(0.4)
        assert dashboard["by_engine"]

    def test_trace_mode_rendered(self, tmp_path, capsys):
        trace = self._trace(tmp_path)
        assert main(["top", trace, "--window", "10"]) == 0
        assert "repro top" in capsys.readouterr().out

    def test_no_source_is_an_error(self, capsys):
        assert main(["top"]) == 2
        assert "TRACE file or --url" in capsys.readouterr().err

    def test_missing_trace_is_an_error(self, capsys):
        assert main(["top", "/nonexistent/trace.json"]) == 2

    def test_bad_url_is_an_error(self, capsys):
        assert main(["top", "--url", "http://127.0.0.1:1",
                     "--once", "--json"]) == 2
        assert "error" in capsys.readouterr().err


class TestEventsCLI:
    def _events_file(self, tmp_path):
        from repro.obs import WideEventLog, make_record

        path = str(tmp_path / "events.jsonl")
        log = WideEventLog(path, sample=1.0)
        for i in range(5):
            log.emit(make_record("query", engine="bwt_mismatch", k=2,
                                 duration_ms=float(i), occurrences=1,
                                 trace_id=f"t{i}"))
        log.emit(make_record("batch", engine="bwt_mismatch", k=2,
                             return_path="arena"))
        log.close()
        return path

    def test_tail(self, tmp_path, capsys):
        path = self._events_file(tmp_path)
        assert main(["events", "tail", path, "-n", "3"]) == 0
        out = capsys.readouterr().out
        assert "bwt_mismatch" in out
        assert out.count("\n") == 3

    def test_tail_json(self, tmp_path, capsys):
        path = self._events_file(tmp_path)
        assert main(["events", "tail", path, "-n", "2", "--json"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert all(json.loads(line)["engine"] == "bwt_mismatch"
                   for line in lines)

    def test_summarize(self, tmp_path, capsys):
        path = self._events_file(tmp_path)
        assert main(["events", "summarize", path]) == 0
        out = capsys.readouterr().out
        assert "5 query" in out
        assert "arena=1" in out

    def test_summarize_json(self, tmp_path, capsys):
        path = self._events_file(tmp_path)
        assert main(["events", "summarize", path, "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_queries"] == 5
        assert summary["n_batches"] == 1

    def test_missing_file_is_an_error(self, capsys):
        assert main(["events", "summarize", "/nonexistent.jsonl"]) == 2


class TestDualSurfaceConsistency:
    def test_top_once_matches_stream_dashboard(self, tmp_path, capsys):
        """Acceptance: ``top --once --json`` against a served workload
        reports the same numbers the ``/debug/stream`` frame carries —
        both render one ``compute_dashboard`` output."""
        OBS.enable()
        configure_timeseries()
        configure_slo_engine()
        configure_broker()
        index = KMismatchIndex("acagaca" * 30)
        for _ in range(6):
            index.search("acaggca", 1)
        server = MetricsServer(port=0).start()
        try:
            assert main(["top", "--url", server.url,
                         "--once", "--json"]) == 0
            streamed = json.loads(capsys.readouterr().out)
        finally:
            server.stop()
            from repro.obs.stream import get_broker

            get_broker().stop()
        local = compute_dashboard(OBS.metrics.to_dict())
        assert streamed["format"] == DASHBOARD_FORMAT
        assert streamed["queries"] == local["queries"] == 6
        assert streamed["errors"] == local["errors"]
        assert streamed["by_engine"][0]["engine"] == \
            local["by_engine"][0]["engine"]
        assert streamed["by_engine"][0]["queries"] == \
            local["by_engine"][0]["queries"]
