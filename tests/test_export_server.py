"""Tests for telemetry export: snapshot deltas, the records pool workers
ship home, and the record sink."""

from __future__ import annotations

import pytest

from repro import KMismatchIndex
from repro.obs import (
    OBS,
    MetricsRegistry,
    ObsDelta,
    WideEventLog,
    load_wide_events,
    make_record,
    merge_metrics,
    merge_obs_delta,
    metrics_delta,
    render_event_lines,
    tail_events,
)
from repro.obs.events import SLOW_QUERY_MS
from repro.obs.export import RecordBuffer


@pytest.fixture(autouse=True)
def clean_obs():
    OBS.disable()
    OBS.reset()
    yield
    OBS.disable()
    OBS.close_wide_log()
    OBS.reset()


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
        assert set(payload) == {"metrics", "spans", "records", "clock_ns"}
        assert payload["metrics"]["pre.existing"]["value"] == 2
        assert [s["name"] for s in payload["spans"]] == ["new.root"]
        # Merging into a fresh singleton reproduces just the delta.
        OBS.reset()
        merge_obs_delta(OBS, payload)
        assert OBS.metrics.counter("pre.existing").value == 2
        assert [s.name for s in OBS.tracer.finished] == ["new.root"]


class TestSlowRecords:
    def test_slow_flag_from_duration(self):
        assert SLOW_QUERY_MS == 250.0
        assert make_record("query", duration_ms=249.9)["slow"] is False
        assert make_record("query", duration_ms=250.0)["slow"] is True
        assert make_record("error")["slow"] is False

    def test_render_records_table(self):
        records = [
            make_record("query", engine="algorithm_a", k=2, m=20,
                        duration_ms=1.5, occurrences=3),
            make_record("batch", engine="stree", duration_ms=900.0),
        ]
        text = render_event_lines(records)
        assert "algorithm_a" in text and "SLOW" in text
        assert text.splitlines()[0].count("SLOW") == 0
        assert render_event_lines([]) == "(no events)"

    def test_tail_slow_only_keeps_the_slow_record(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        log = WideEventLog(path, sample=1.0)
        log.emit(make_record("query", engine="algorithm_a", duration_ms=1.0))
        log.emit(make_record("query", engine="stree", duration_ms=900.0))
        log.close()
        assert [r["engine"] for r in tail_events(path, n=0)] == [
            "algorithm_a", "stree"]
        slow = tail_events(path, n=0, slow_only=True)
        assert [r["engine"] for r in slow] == ["stree"]
        assert slow[0]["slow"] is True


class TestEventLog:
    def test_obs_record_event_feeds_recorder_and_log(self, tmp_path):
        """``record_event`` writes to the open sink and, with none
        open, builds nothing."""
        path = tmp_path / "events.jsonl"
        OBS.open_wide_log(str(path))
        record = OBS.record_event("query", engine="algorithm_a", k=2, m=8,
                                  duration_ms=3.0, occurrences=1)
        OBS.close_wide_log()
        assert OBS.record_event("query", engine="stree") is None
        records = load_wide_events(str(path))
        assert records == [record]
        assert records[0]["engine"] == "algorithm_a"
        assert records[0]["event"] == "query"
        assert "seq" not in records[0]

    def test_search_records_into_flight_recorder(self, tmp_path):
        """A traced search writes one record, stats and spans included."""
        path = str(tmp_path / "events.jsonl")
        OBS.enable()
        OBS.open_wide_log(path)
        index = KMismatchIndex("acagacaacagacagtacagaca")
        index.search("tcaca", k=2)
        OBS.disable()
        OBS.close_wide_log()
        records = load_wide_events(path)
        assert len(records) == 1
        record = records[0]
        assert record["event"] == "query"
        assert record["engine"] == "algorithm_a"
        assert record["k"] == 2 and record["m"] == 5
        assert record["stats"]["leaves"] > 0
        assert record["spans"]["name"] == "kmismatch.search"


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
        h.observe(5)
        delta = metrics_delta(before, a.to_dict())
        b = MetricsRegistry()
        merge_metrics(b, delta)
        merged = b.histogram("h", (1, 10), k=1)
        # The delta is the new work only: one observation.
        assert merged.count == 1
        assert merged.counts == [0, 1, 0]

    def test_obs_delta_ships_flight_records(self, tmp_path):
        """A worker's record buffer ships what the chunk wrote, and the
        parent writes it to its own sink."""
        OBS.enable()
        OBS.wide_log = RecordBuffer()
        OBS.record_event("query", engine="stree", k=1, m=5, duration_ms=0.4,
                         occurrences=0, trace_id="aaaa1111")
        snapshot = ObsDelta.capture(OBS)
        OBS.record_event("query", engine="stree", k=2, m=5, duration_ms=0.6,
                         occurrences=3, trace_id="bbbb2222")
        payload = snapshot.finish(OBS)
        assert OBS.wide_log == []
        OBS.wide_log = None
        OBS.disable()
        OBS.reset()
        assert [r["trace_id"] for r in payload["records"]] == ["bbbb2222"]
        path = str(tmp_path / "events.jsonl")
        OBS.open_wide_log(path)
        OBS.enable()
        merge_obs_delta(OBS, payload)
        OBS.disable()
        OBS.close_wide_log()
        assert load_wide_events(path) == payload["records"]
