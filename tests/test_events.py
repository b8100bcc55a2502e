"""Tests for the one telemetry record and its sink: the record schema,
deterministic head sampling, size-based rotation, loss accounting, the
summarize/tail readers and their CLI, and the trace-id joinability the
executor threads through batches."""

from __future__ import annotations

import json

import pytest

from repro import KMismatchIndex
from repro.cli import main
from repro.obs import (
    OBS,
    QUERY_ERRORS_METRIC,
    WIDE_EVENT_FORMAT,
    WIDE_EVENT_VERSION,
    WideEventLog,
    load_wide_events,
    make_record,
    render_event_lines,
    render_event_summary,
    sample_keep,
    summarize_events,
    tail_events,
)


@pytest.fixture(autouse=True)
def clean_obs():
    OBS.disable()
    OBS.reset()
    yield
    OBS.disable()
    OBS.reset()


class TestSampling:
    def test_boundary_fractions(self):
        assert sample_keep("anything", 1.0) is True
        assert sample_keep("anything", 0.0) is False
        assert sample_keep(None, 1.0) is True
        assert sample_keep(None, 0.0) is False

    def test_deterministic_per_trace_id(self):
        for trace_id in ("a1b2", "deadbeef", "q" * 16):
            first = sample_keep(trace_id, 0.5)
            assert all(sample_keep(trace_id, 0.5) == first for _ in range(5))

    def test_kept_fraction_converges(self):
        kept = sum(sample_keep(f"trace-{i}", 0.5) for i in range(400))
        assert 120 < kept < 280

    def test_multi_layer_events_share_the_verdict(self):
        # Every record that carries one trace id (the ring's copy and
        # the sink's, in any process) gets the same verdict.
        for i in range(50):
            trace_id = f"query-{i}"
            verdicts = {sample_keep(trace_id, 0.3) for _ in ("matcher",
                                                             "router",
                                                             "batch")}
            assert len(verdicts) == 1

    def test_traceless_fallback_is_modular(self):
        kept = [seq for seq in range(1, 13)
                if sample_keep(None, 0.25, fallback_seq=seq)]
        assert kept == [4, 8, 12]


class TestMakeWideEvent:
    """make_record builds the one record the ring and the sink share."""

    def test_core_fields(self):
        event = make_record("query", engine="bwt_mismatch", k=2, m=24,
                            duration_ms=1.5, occurrences=3, shards=4,
                            trace_id="abc123",
                            stats={"leaves": 7}, shard=1, custom="x")
        assert event["format"] == WIDE_EVENT_FORMAT
        assert event["version"] == WIDE_EVENT_VERSION
        assert event["event"] == "query"
        assert event["engine"] == "bwt_mismatch"
        assert event["k"] == 2 and event["m"] == 24
        assert event["duration_ms"] == 1.5
        assert event["occurrences"] == 3 and event["shards"] == 4
        assert event["trace_id"] == "abc123"
        assert event["stats"] == {"leaves": 7}
        assert event["shard"] == 1
        assert event["custom"] == "x"
        assert event["ts"] > 0

    def test_empty_optionals_are_omitted(self):
        event = make_record("query")
        assert event["shards"] == 0
        for optional in ("trace_id", "stats", "spans", "shard"):
            assert optional not in event


class TestWideEventLog:
    def test_emit_and_load(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        log = WideEventLog(path, sample=1.0)
        for i in range(3):
            assert log.emit(make_record("query", k=i,
                                        trace_id=f"t{i}")) is True
        log.close()
        events = load_wide_events(path)
        assert [event["k"] for event in events] == [0, 1, 2]
        assert log.lines_written == 3
        assert log.lines_sampled_out == 0

    def test_sampled_out_events_are_counted_not_written(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        log = WideEventLog(path, sample=0.0)
        assert log.emit(make_record("query", trace_id="t")) is False
        log.close()
        assert log.lines_written == 0
        assert log.lines_sampled_out == 1
        assert load_wide_events(path) == []

    def test_emit_after_close_is_noop(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        log = WideEventLog(path)
        log.close()
        assert log.emit(make_record("query")) is False
        assert log.lines_written == 0

    def test_rotation_shifts_generations(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        line_size = len(json.dumps(make_record("query", i=0)) + "\n")
        log = WideEventLog(path, sample=1.0, max_bytes=line_size * 3 + 10,
                           backups=2)
        for i in range(10):
            log.emit(make_record("query", i=i))
        log.close()
        assert log.rotations >= 2
        assert (tmp_path / "events.jsonl.1").exists()
        assert (tmp_path / "events.jsonl.2").exists()
        # The backup bound holds: generation 3 never appears.
        assert not (tmp_path / "events.jsonl.3").exists()

    def test_load_orders_backups_oldest_first(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        line_size = len(json.dumps(make_record("query", i=0)) + "\n")
        log = WideEventLog(path, sample=1.0, max_bytes=line_size * 4 + 10,
                           backups=8)
        for i in range(10):
            log.emit(make_record("query", i=i))
        log.close()
        events = load_wide_events(path)
        # Rotation loses nothing while backups suffice; order is global.
        assert [event["i"] for event in events] == list(range(10))
        live_only = load_wide_events(path, include_backups=False)
        assert len(live_only) < 10
        assert [e["i"] for e in live_only] == \
            [e["i"] for e in events[-len(live_only):]]

    def test_to_dict_accounting(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        log = WideEventLog(path, sample=1.0, max_bytes=123456, backups=2)
        log.emit(make_record("query"))
        doc = log.to_dict()
        log.close()
        assert doc["path"] == path
        assert doc["lines_written"] == 1
        assert doc["max_bytes"] == 123456
        assert doc["rotations"] == 0


class TestReaders:
    def sample_records(self):
        records = []
        for duration in (1.0, 2.0, 3.0, 10.0):
            records.append(make_record(
                "query", engine="bwt_mismatch", k=2, m=24,
                duration_ms=duration, occurrences=1, shards=3,
                trace_id=f"t{duration}"))
        records.append(make_record("batch", engine="bwt_mismatch", k=2,
                                   trace_id="b1"))
        records.append(make_record("error", engine="bwt_mismatch", k=2,
                                   error="PatternError"))
        return records

    def test_summarize_hand_computed(self):
        summary = summarize_events(self.sample_records())
        assert summary["format"] == "repro-wide-event-summary"
        assert summary["n_events"] == 6
        assert summary["n_queries"] == 4
        assert summary["n_batches"] == 1
        assert summary["n_errors"] == 1
        group = summary["by_engine"][0]
        assert group["engine"] == "bwt_mismatch" and group["k"] == 2
        assert group["queries"] == 4
        assert group["occurrences"] == 4
        assert group["max_shards"] == 3
        # Nearest-rank over [1, 2, 3, 10]: p50 -> rank 2 -> 2.0,
        # p95/p99 -> rank 4 -> 10.0.
        assert group["p50_ms"] == 2.0
        assert group["p95_ms"] == 10.0
        assert group["p99_ms"] == 10.0

    def test_summarize_empty(self):
        summary = summarize_events([])
        assert summary["n_events"] == 0
        assert summary["by_engine"] == []
        assert summary["events_per_s"] == 0.0

    def test_tail_returns_newest(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        log = WideEventLog(path, sample=1.0)
        for i in range(5):
            log.emit(make_record("query", i=i))
        log.close()
        assert [event["i"] for event in tail_events(path, 2)] == [3, 4]

    def test_render_smoke(self):
        records = self.sample_records()
        text = render_event_summary(summarize_events(records))
        assert "bwt_mismatch" in text
        assert "1 batch" in text
        lines = render_event_lines(records)
        assert "shards=3" in lines
        assert render_event_lines([]) == "(no events)"


class TestObservabilityIntegration:
    def test_open_emit_close_wide_log(self, tmp_path):
        path = str(tmp_path / "wide.jsonl")
        OBS.enable()
        OBS.open_wide_log(path)
        record = OBS.record_event("query", engine="x", k=1, trace_id="t1")
        OBS.close_wide_log()
        assert OBS.wide_log is None
        OBS.record_event("query", engine="y", k=1)
        events = load_wide_events(path)
        # The sink holds exactly the ring's record, seq and slow included.
        assert events == [record]
        assert [r["engine"] for r in OBS.recorder.recent()] == ["x", "y"]

    def test_matcher_emits_wide_query_events(self, tmp_path):
        path = str(tmp_path / "wide.jsonl")
        OBS.enable()
        OBS.open_wide_log(path)
        index = KMismatchIndex("acagaca" * 20)
        occurrences = index.search("acaggca", 1)
        OBS.close_wide_log()
        events = load_wide_events(path)
        queries = [e for e in events if e["event"] == "query"]
        assert len(queries) == 1
        assert queries[0]["m"] == 7
        assert queries[0]["occurrences"] == len(occurrences)
        assert queries[0]["trace_id"]

    @pytest.mark.usefixtures("force_pool")
    def test_batch_trace_id_joins_batch_and_queries(self, tmp_path):
        path = str(tmp_path / "wide.jsonl")
        OBS.enable()
        OBS.open_wide_log(path)
        index = KMismatchIndex("acagaca" * 40)
        reads = ["acagaca", "cagacag", "gacacag"]
        index.search_batch(reads, 1, workers=2)
        OBS.close_wide_log()

        batch_records = [r for r in OBS.recorder.recent()
                         if r["event"] == "batch"]
        assert len(batch_records) == 1
        trace_id = batch_records[0]["trace_id"]
        assert trace_id
        # The batch id selects the batch record from the recorder.
        joined = [r for r in OBS.recorder.recent()
                  if trace_id in (r.get("trace_id"), r.get("batch_trace_id"))]
        assert batch_records[0] in joined

        events = load_wide_events(path)
        batch_events = [e for e in events if e["event"] == "batch"]
        assert len(batch_events) == 1
        assert batch_events[0]["trace_id"] == trace_id
        assert batch_events[0]["items"] == len(reads)
        assert batch_events[0]["workers"] == 2
        # The pool workers' per-query records came home tagged with the
        # batch id, so the same selection finds them too.
        queries = [r for r in joined if r["event"] == "query"]
        assert sorted(r["m"] for r in queries) == [7] * len(reads)

    @pytest.mark.usefixtures("force_pool")
    def test_routed_queries_count_once(self, tmp_path):
        from repro import ShardedIndex
        from repro.errors import AlphabetError

        path = str(tmp_path / "wide.jsonl")
        text = "".join(("acgt"[(i * 7 + i // 5) % 4]) for i in range(2000))
        index = ShardedIndex.build(text, 4, max_pattern=24, max_k=2)
        OBS.enable()
        OBS.open_wide_log(path)
        for i in range(10):
            index.search(text[100 * i:100 * i + 20], 1)
        OBS.close_wide_log()
        records = load_wide_events(path)
        # One record per routed query; its shard legs write none.
        assert len(records) == 10
        assert all(r["event"] == "query" and r["shards"] == 4 for r in records)
        assert all(r["trace_id"] and "shard" not in r for r in records)
        assert len({r["trace_id"] for r in records}) == 10
        summary = summarize_events(records)
        assert summary["n_queries"] == 10
        assert "n_shard_queries" not in summary
        assert summary["by_engine"][0]["queries"] == 10

        # A process-pool batch: each worker hydrates its shard with the
        # shard stamp, so its legs ship home no per-query records.
        OBS.reset()
        reads = [text[301 * i:301 * i + 20] for i in range(6)]
        index.search_batch(reads, 1, workers=2)
        recent = OBS.recorder.recent()
        assert [r["event"] for r in recent] == ["batch"] * 4
        assert OBS.metrics.counter("query.count").value == len(reads)
        routed_hits = OBS.metrics.counter("query.occurrences").value
        assert routed_hits == sum(len(KMismatchIndex(text).search(read, 1)) for read in reads)
        # A mapped read is two strand queries, sharded or not.
        OBS.reset()
        index.map_reads(reads, 1)
        assert OBS.metrics.counter("query.count").value == 2 * len(reads)

        # 99 good queries and one bad: the same count, error count,
        # latency observations and hits whether the target is sharded
        # or not.
        def serve(served):
            OBS.reset()
            for i in range(99):
                served.search(text[20 * i:20 * i + 20], 1)
            with pytest.raises(AlphabetError):
                served.search("acgx" * 5, 1)
            metrics = OBS.metrics
            return (
                metrics.counter("query.count").value,
                metrics.counter("query.count", engine="algorithm_a", k=1).value,
                metrics.counter(QUERY_ERRORS_METRIC).value,
                metrics.histogram("query.latency_ms").count,
                metrics.histogram("query.search_ms", engine="algorithm_a", k=1).count,
                metrics.counter("query.occurrences").value,
                metrics.counter("query.occurrences", engine="algorithm_a", k=1).value,
            )

        flat = serve(KMismatchIndex(text))
        assert flat == (99, 99, 1, 99, 99, 39_303, 39_303)
        assert serve(index) == flat
        # The per-shard traffic stays derivable from the router's series.
        assert [
            OBS.metrics.histogram(
                "query.shard_ms", engine="algorithm_a", k=1, shard=shard
            ).count
            for shard in range(4)
        ] == [99] * 4

    def test_failed_query_has_one_record_in_ring_and_sink(self, tmp_path):
        from repro.errors import AlphabetError

        path = str(tmp_path / "wide.jsonl")
        OBS.enable()
        OBS.open_wide_log(path)
        index = KMismatchIndex("acagaca" * 20)
        with pytest.raises(AlphabetError):
            index.search("acxgaca", 1)
        OBS.close_wide_log()
        (error,) = OBS.recorder.recent()
        assert load_wide_events(path) == [error]
        assert error["event"] == "error" and error["m"] == 7
        assert error["kind"] == "pattern" and error["error"] == "AlphabetError"
        assert error["trace_id"]


class TestEventsCLI:
    def _events_file(self, tmp_path):
        from repro.obs import WideEventLog, make_record

        path = str(tmp_path / "events.jsonl")
        log = WideEventLog(path, sample=1.0)
        for i in range(5):
            log.emit(make_record("query", engine="bwt_mismatch", k=2,
                                 duration_ms=float(i), occurrences=1,
                                 trace_id=f"t{i}"))
        log.emit(make_record("batch", engine="bwt_mismatch", k=2))
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
        assert "1 batch" in out

    def test_summarize_json(self, tmp_path, capsys):
        path = self._events_file(tmp_path)
        assert main(["events", "summarize", path, "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_queries"] == 5
        assert summary["n_batches"] == 1

    def test_missing_file_is_an_error(self, capsys):
        assert main(["events", "summarize", "/nonexistent.jsonl"]) == 2
