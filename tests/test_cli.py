"""Tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import main, read_sequence


@pytest.fixture
def genome_file(tmp_path):
    path = tmp_path / "genome.fa"
    path.write_text(">toy\nacagaca\n")
    return path


class TestReadSequence:
    def test_fasta(self, tmp_path):
        path = tmp_path / "x.fa"
        path.write_text(">header line\nACGT\nacgt\n")
        assert read_sequence(path) == "acgtacgt"

    def test_plain_text(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("acgt\nacgt\n")
        assert read_sequence(path) == "acgtacgt"

    def test_first_record_only(self, tmp_path):
        path = tmp_path / "x.fa"
        path.write_text(">one\nacgt\n>two\ntttt\n")
        assert read_sequence(path) == "acgt"


class TestCommands:
    def test_search(self, genome_file, capsys):
        rc = main(["search", str(genome_file), "tcaca", "-k", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line and not line.startswith("#")]
        assert lines[0].split("\t")[0] == "0"
        assert lines[1].split("\t")[0] == "2"

    def test_search_methods(self, genome_file, capsys):
        for method in ("algorithm_a", "stree"):
            rc = main(["search", str(genome_file), "aca", "-k", "0", "--method", method])
            assert rc == 0
            out = capsys.readouterr().out
            starts = [line.split("\t")[0] for line in out.splitlines() if line]
            assert starts == ["0", "4"]

    def test_index_roundtrip(self, genome_file, tmp_path, capsys):
        out_path = tmp_path / "idx.json"
        rc = main(["index", str(genome_file), "-o", str(out_path)])
        assert rc == 0
        assert out_path.exists()
        from repro import KMismatchIndex

        index = KMismatchIndex.loads(out_path.read_text())
        assert index.text == "acagaca"

    def test_search_saved_index(self, genome_file, tmp_path, capsys):
        out_path = tmp_path / "idx.json"
        main(["index", str(genome_file), "-o", str(out_path)])
        capsys.readouterr()
        rc = main(["search", str(out_path), "aca", "--index"])
        assert rc == 0
        starts = [line.split("\t")[0] for line in capsys.readouterr().out.splitlines() if line]
        assert starts == ["0", "4"]

    def test_search_edit_mode(self, genome_file, capsys):
        rc = main(["search", str(genome_file), "acgaca", "-k", "1", "--edit"])
        assert rc == 0
        rows = [line.split("\t") for line in capsys.readouterr().out.splitlines() if line]
        # (start=0, length=7, distance=1) must be among the windows.
        assert ["0", "7", "1"] in rows

    def test_search_wildcard_mode(self, genome_file, capsys):
        rc = main(["search", str(genome_file), "ana", "--wildcard", "n"])
        assert rc == 0
        starts = [line.split("\t")[0] for line in capsys.readouterr().out.splitlines() if line]
        assert starts == ["0", "2", "4"]

    def test_search_trace_and_stats_json(self, genome_file, tmp_path, capsys):
        import json

        trace_path = tmp_path / "out.json"
        rc = main(["search", str(genome_file), "tcaca", "-k", "2",
                   "--trace", "--stats-json", str(trace_path)])
        assert rc == 0
        err = capsys.readouterr().err
        assert "spans" in err and "metrics" in err
        document = json.loads(trace_path.read_text())
        assert document["format"] == "repro-trace"
        assert document["meta"]["command"] == "search"
        names = set()

        def collect(node):
            names.add(node["name"])
            for child in node.get("children", []):
                collect(child)

        for root in document["spans"]:
            collect(root)
        # At least one span per layer: index, searcher, rank backend.
        assert {"kmismatch.search", "algorithm_a.search", "rankall.build"} <= names
        assert document["metrics"]["query.latency_ms"]["type"] == "histogram"
        # Tracing must not leak into later, untraced invocations.
        from repro.obs import OBS

        assert not OBS.enabled

    def test_stats_subcommand_renders_saved_trace(self, genome_file, tmp_path, capsys):
        trace_path = tmp_path / "out.json"
        main(["search", str(genome_file), "aca", "--stats-json", str(trace_path)])
        capsys.readouterr()
        rc = main(["stats", str(trace_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "kmismatch.search" in out
        assert "query.latency_ms" in out

    def test_compare_reports_percentile_columns(self, genome_file, capsys, tmp_path):
        reads_path = tmp_path / "reads.txt"
        reads_path.write_text("acagaca\ncagacag\n")
        rc = main(["compare", str(genome_file), str(reads_path), "-k", "1",
                   "--methods", "A()"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "p50" in out and "p90" in out and "p99" in out

    def test_stats_rejects_malformed_trace_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": "something-else", "version": 1}')
        rc = main(["stats", str(bad)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and "something-else" in err

    def test_search_streams_events_and_flight_json(self, genome_file, tmp_path,
                                                   capsys):
        events = tmp_path / "events.jsonl"
        flight = tmp_path / "flight.jsonl"
        rc = main(["search", str(genome_file), "tcaca", "-k", "2",
                   "--wide-events", str(events), "--flight-json", str(flight)])
        assert rc == 0
        from repro.obs import load_wide_events

        event_records = load_wide_events(str(events))
        assert len(event_records) == 1
        assert event_records[0]["event"] == "query"
        assert event_records[0]["engine"] == "algorithm_a"
        flight_records = load_wide_events(str(flight))
        assert len(flight_records) == 1
        assert flight_records[0]["stats"]["rank_queries"] > 0
        # One record, one schema: the sink line is the ring's record.
        assert flight_records == event_records
        err = capsys.readouterr().err
        assert "wide events" in err and "flight recorder" in err

    def test_flightrecorder_renders_dump(self, genome_file, tmp_path, capsys):
        flight = tmp_path / "flight.jsonl"
        assert main(["search", str(genome_file), "tcaca", "-k", "2",
                     "--flight-json", str(flight)]) == 0
        capsys.readouterr()
        rc = main(["events", "tail", str(flight), "-n", "0", "--spans"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "algorithm_a" in out
        assert "kmismatch.search" in out  # --spans renders the span tree
        # Nothing crosses the default 250 ms slow threshold here.
        assert main(["events", "tail", str(flight), "--slow"]) == 0
        assert capsys.readouterr().out.strip() == "(no events)"

    def test_events_tail_slow_shows_only_slow_records(self, tmp_path, capsys):
        import json as json_module

        from repro.obs import FlightRecorder, make_record

        recorder = FlightRecorder(capacity=4, slow_ms=100.0)
        recorder.record(make_record("query", engine="algorithm_a",
                                    duration_ms=1.0))
        recorder.record(make_record("query", engine="stree",
                                    duration_ms=900.0))
        flight = tmp_path / "flight.jsonl"
        recorder.dump_jsonl(str(flight))
        assert main(["events", "tail", str(flight), "--slow", "--json"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [json_module.loads(line)["engine"] for line in lines] == ["stree"]
        assert main(["events", "tail", str(flight), "--slow"]) == 0
        out = capsys.readouterr().out
        assert "stree" in out and "SLOW" in out and "algorithm_a" not in out

    def test_flightrecorder_unreadable_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        rc = main(["events", "tail", str(missing)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_metrics_port_env_serves_during_command(self, genome_file, capsys,
                                                    monkeypatch):
        import json as json_module
        import urllib.request

        import repro.cli as cli_module
        from repro.obs.server import start_server

        captured = {}
        real_start = start_server

        def capturing_start(host="127.0.0.1", port=0):
            server = real_start(host=host, port=0)  # ephemeral port for the test
            captured["url"] = server.url

            class _Probe:
                address = server.address
                url = server.url

                def stop(self_inner):
                    with urllib.request.urlopen(server.url + "/healthz",
                                                timeout=5) as response:
                        captured["healthz"] = json_module.loads(response.read())
                    server.stop()

            return _Probe()

        monkeypatch.setenv("REPRO_METRICS_PORT", "9109")
        monkeypatch.setattr("repro.obs.server.start_server", capturing_start)
        rc = cli_module.main(["search", str(genome_file), "tcaca", "-k", "1"])
        assert rc == 0
        assert captured["healthz"]["status"] == "ok"
        assert "telemetry on" in capsys.readouterr().err

    def test_serve_metrics_bounded_duration(self, genome_file, tmp_path, capsys):
        reads = tmp_path / "reads.txt"
        reads.write_text("acagaca\ncagacag\n")
        rc = main(["serve-metrics", str(genome_file), "--reads", str(reads),
                   "-k", "1", "--port", "0", "--duration", "0.05",
                   "--slow-ms", "0"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "serving /metrics" in err
        assert "2 read(s)" in err

    def test_simulate_and_compare(self, tmp_path, capsys):
        genome_path = tmp_path / "g.fa"
        rc = main([
            "simulate", "-o", str(genome_path),
            "--length", "3000", "--reads", "3", "--read-length", "30", "--seed", "5",
        ])
        assert rc == 0
        reads_path = genome_path.with_suffix(".reads.txt")
        assert reads_path.exists()
        capsys.readouterr()
        rc = main([
            "compare", str(genome_path), str(reads_path), "-k", "1",
            "--methods", "A()", "BWT", "--limit", "2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "A()" in out and "BWT" in out


class TestBinaryIndexCli:
    def test_index_format_bin_and_search(self, genome_file, tmp_path, capsys):
        out_path = tmp_path / "idx.fmbin"
        rc = main(["index", str(genome_file), "-o", str(out_path), "--format", "bin"])
        assert rc == 0
        assert out_path.read_bytes()[:8] == b"REPROIDX"
        assert "bin format" in capsys.readouterr().out
        rc = main(["search", str(out_path), "--index", "aca", "-k", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        starts = [line.split("\t")[0] for line in out.splitlines() if line]
        assert starts == ["0", "4"]

    def test_map_index_file(self, genome_file, tmp_path, capsys):
        idx_path = tmp_path / "idx.fmbin"
        assert main(["index", str(genome_file), "-o", str(idx_path),
                     "--format", "bin"]) == 0
        reads = tmp_path / "reads.txt"
        reads.write_text("acag\ngaca\n")
        sam_from_index = tmp_path / "a.sam"
        sam_from_target = tmp_path / "b.sam"
        capsys.readouterr()
        rc = main(["map", "--index-file", str(idx_path), str(reads),
                   "-k", "1", "-o", str(sam_from_index)])
        assert rc == 0
        rc = main(["map", str(genome_file), str(reads),
                   "-k", "1", "-o", str(sam_from_target)])
        assert rc == 0
        assert sam_from_index.read_text() == sam_from_target.read_text()

    def test_map_requires_target_or_index_file(self, tmp_path, capsys):
        reads = tmp_path / "reads.txt"
        reads.write_text("acag\n")
        rc = main(["map", str(reads)])
        assert rc == 2
        assert "--index-file" in capsys.readouterr().err

    def test_bench_update_baseline(self, tmp_path, capsys, monkeypatch):
        baseline = tmp_path / "baseline.json"
        rc = main(["bench", "--scale", "2000", "--reads", "3",
                   "--update-baseline", "--baseline", str(baseline)])
        assert rc == 0
        assert "baseline refreshed" in capsys.readouterr().err
        import json as _json

        document = _json.loads(baseline.read_text())
        assert document["methods"]
        # The refreshed file immediately passes its own regression gate.
        rc = main(["bench", "--scale", "2000", "--reads", "3",
                   "--baseline", str(baseline), "--check-regression"])
        assert rc in (0, 3)  # 3 only if this machine jittered past thresholds


class TestStatsBreakdown:
    """repro-cli stats --by: dimensional tables over schema-v2 payloads."""

    @pytest.fixture
    def trace_file(self, tmp_path):
        genome = tmp_path / "genome.fa"
        genome.write_text(">toy\n" + "acagacaacagacagtacagaca" * 10 + "\n")
        trace = tmp_path / "trace.json"
        for method, k in (("algorithm_a", 1), ("stree", 2)):
            assert main(["search", str(genome), "acaga", "-k", str(k),
                         "--method", method, "--stats-json", str(trace)]) == 0
        return trace  # last run: BWT at k=2

    def test_by_engine_and_k(self, trace_file, capsys):
        capsys.readouterr()
        assert main(["stats", str(trace_file), "--by", "engine,k"]) == 0
        out = capsys.readouterr().out
        assert "by engine,k" in out
        assert "stree" in out

    def test_family_filter(self, trace_file, capsys):
        capsys.readouterr()
        assert main(["stats", str(trace_file), "--by", "engine",
                     "--family", "search.queries"]) == 0
        out = capsys.readouterr().out
        assert "search.queries (counter) by engine" in out
        assert "search.leaves" not in out

    def test_no_matching_labels(self, trace_file, capsys):
        capsys.readouterr()
        assert main(["stats", str(trace_file), "--by", "nosuchlabel"]) == 0
        assert "no labelled series" in capsys.readouterr().out

    def test_plain_render_still_accepts_v2(self, trace_file, capsys):
        capsys.readouterr()
        assert main(["stats", str(trace_file)]) == 0
        assert "metrics" in capsys.readouterr().out

    def test_stats_requires_source(self, capsys):
        assert main(["stats", "--by", "engine"]) == 2
        assert "--url" in capsys.readouterr().err

    def test_live_url_replay(self, capsys):
        from repro import KMismatchIndex
        from repro.obs import OBS
        from repro.obs.server import MetricsServer

        OBS.reset().enable()
        try:
            index = KMismatchIndex("acagacaacagacagtacagaca" * 10)
            index.search_with_stats("acaga", 2, method="BWT")
            server = MetricsServer(port=0)
            server.start()
            try:
                url = f"http://{server.address[0]}:{server.address[1]}"
                capsys.readouterr()
                assert main(["stats", "--url", url, "--by", "engine,k"]) == 0
                out = capsys.readouterr().out
                assert "query.search_ms (histogram) by engine,k" in out
                assert "stree" in out
            finally:
                server.stop()
        finally:
            OBS.disable()
            OBS.reset()

    def test_unreachable_url(self, capsys):
        assert main(["stats", "--url", "http://127.0.0.1:1", "--by", "k"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1  # one line, no traceback

    def test_non_v2_url(self, capsys):
        """A reachable server that is not a schema-v2 metrics endpoint
        gets a clear one-line error, exit 2, no traceback."""
        import json
        import threading
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        class NotOurs(BaseHTTPRequestHandler):
            def do_GET(self):
                body = json.dumps([1, 2, 3]).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        server = ThreadingHTTPServer(("127.0.0.1", 0), NotOurs)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            url = f"http://127.0.0.1:{server.server_address[1]}"
            assert main(["stats", "--url", url]) == 2
            err = capsys.readouterr().err
            assert "not a schema-v2 metrics endpoint" in err
            assert len(err.strip().splitlines()) == 1
        finally:
            server.shutdown()


class TestProfileCli:
    @pytest.fixture(autouse=True)
    def clean_profiler(self):
        from repro.obs import MEMORY_PROFILES, OBS, PROFILER, set_memory_profiling

        yield
        PROFILER.stop()
        PROFILER.profile = None
        OBS.disable()
        OBS.reset()
        set_memory_profiling(False)
        MEMORY_PROFILES.clear()

    @pytest.fixture
    def big_genome(self, tmp_path):
        """Large enough that the pure-Python index build takes long
        enough to be sampled deterministically at a few hundred Hz."""
        import random

        rnd = random.Random(11)
        path = tmp_path / "genome.txt"
        path.write_text("".join(rnd.choice("acgt") for _ in range(20000)))
        return path

    def test_profile_search_folded(self, big_genome, tmp_path, capsys):
        out = tmp_path / "prof.folded"
        rc = main(["profile", "search", str(big_genome), "acgtacgtacgt",
                   "-k", "2", "--hz", "300", "--out", str(out)])
        assert rc == 0
        folded = out.read_text()
        assert folded, "profile output is empty"
        assert "span:" in folded
        assert "span:kmismatch.build" in folded  # build phase attributed
        err = capsys.readouterr().err
        assert "profile (folded) written to" in err

    def test_profile_flags_before_command(self, big_genome, tmp_path):
        out = tmp_path / "prof.json"
        rc = main(["profile", "--hz", "300", "--out", str(out),
                   "search", str(big_genome), "acgtacgtacgt", "-k", "2"])
        assert rc == 0
        import json

        doc = json.loads(out.read_text())
        assert doc["$schema"].startswith("https://www.speedscope.app/")
        assert doc["profiles"][0]["type"] == "sampled"
        frames = {f["name"] for f in doc["shared"]["frames"]}
        assert any(name.startswith("span:") for name in frames)

    def test_profile_memory_reports_build_peak(self, big_genome, tmp_path,
                                               capsys):
        out = tmp_path / "prof.folded"
        rc = main(["profile", "search", str(big_genome), "acgtacgtacgt",
                   "-k", "0", "--hz", "300", "--memory", "--out", str(out)])
        assert rc == 0
        err = capsys.readouterr().err
        assert "index.build: peak" in err

    def test_profile_flag_on_search(self, big_genome, tmp_path, capsys):
        out = tmp_path / "flag.folded"
        rc = main(["search", str(big_genome), "acgtacgtacgt", "-k", "2",
                   "--profile", str(out)])
        assert rc == 0
        assert "span:" in out.read_text()
        assert "written to" in capsys.readouterr().err

    def test_inner_failure_still_stops_profiler(self, tmp_path):
        """An inner-command crash propagates (same contract as running
        the command directly), but the profiler and obs singleton are
        cleaned up on the way out."""
        from repro.obs import OBS, PROFILER

        with pytest.raises(FileNotFoundError):
            main(["profile", "search", str(tmp_path / "missing.txt"),
                  "acgt", "--out", str(tmp_path / "p.folded")])
        assert not PROFILER.is_running()
        assert not OBS.enabled


class TestMetricsLint:
    def test_clean_exposition_file(self, tmp_path, capsys):
        from repro.obs.export import render_openmetrics
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("q", engine="stree", k=1).inc(2)
        registry.histogram("lat", (1, 10), engine="stree").observe(
            0.5, trace_id="abcd")
        path = tmp_path / "expo.txt"
        path.write_text(render_openmetrics(registry.to_dict()))
        assert main(["metrics-lint", str(path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_dirty_exposition_file(self, tmp_path, capsys):
        path = tmp_path / "expo.txt"
        path.write_text("# TYPE g gauge\ng inf\n# EOF\n")
        assert main(["metrics-lint", str(path)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_missing_file(self, tmp_path, capsys):
        assert main(["metrics-lint", str(tmp_path / "nope.txt")]) == 2
        assert "error" in capsys.readouterr().err


class TestShardedCli:
    @pytest.fixture
    def big_genome_file(self, tmp_path):
        import random

        rnd = random.Random(17)
        text = "".join(rnd.choice("acgt") for _ in range(1200))
        path = tmp_path / "big.fa"
        path.write_text(f">big\n{text}\n")
        return path, text

    def test_index_shards_writes_manifest_and_shard_files(
        self, big_genome_file, tmp_path, capsys
    ):
        genome, text = big_genome_file
        out = tmp_path / "big.shd"
        rc = main(["index", str(genome), "-o", str(out), "--format", "bin",
                   "--shards", "4", "--max-pattern", "32", "--max-k", "3"])
        assert rc == 0
        assert "manifest + 4 shard file(s)" in capsys.readouterr().out
        assert sorted(p.name for p in tmp_path.glob("big.shard*")) == [
            f"big.shard{i:04d}.fmbin" for i in range(4)
        ]
        from repro import KMismatchIndex, ShardedIndex

        opened = KMismatchIndex.open(out)
        assert isinstance(opened, ShardedIndex)
        assert opened.text == text

    def test_index_build_workers_byte_identical(
        self, big_genome_file, tmp_path, capsys
    ):
        genome, _ = big_genome_file
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        serial_dir.mkdir()
        parallel_dir.mkdir()
        rc = main(["index", str(genome), "-o", str(serial_dir / "big.shd"),
                   "--format", "bin", "--shards", "3", "--max-pattern", "32",
                   "--max-k", "3"])
        assert rc == 0
        rc = main(["index", str(genome), "-o", str(parallel_dir / "big.shd"),
                   "--format", "bin", "--shards", "3", "--max-pattern", "32",
                   "--max-k", "3", "--build-workers", "2"])
        assert rc == 0
        capsys.readouterr()
        serial_files = sorted(p.name for p in serial_dir.iterdir())
        assert serial_files == sorted(p.name for p in parallel_dir.iterdir())
        assert len(serial_files) == 4  # manifest + 3 shard files
        for name in serial_files:
            assert (parallel_dir / name).read_bytes() == \
                (serial_dir / name).read_bytes(), name

    def test_index_shards_requires_bin_format(self, big_genome_file, tmp_path, capsys):
        genome, _ = big_genome_file
        rc = main(["index", str(genome), "-o", str(tmp_path / "x.shd"),
                   "--shards", "2"])
        assert rc == 2
        assert "--format bin" in capsys.readouterr().err

    def test_search_and_map_against_manifest(self, big_genome_file, tmp_path, capsys):
        genome, text = big_genome_file
        out = tmp_path / "big.shd"
        assert main(["index", str(genome), "-o", str(out), "--format", "bin",
                     "--shards", "3"]) == 0
        capsys.readouterr()
        # A window straddling the first core boundary (1200/3 = 400):
        # sharded answers must match the flat engine, through the CLI too.
        pattern = text[395:415]
        rc = main(["search", str(out), pattern, "-k", "1", "--index"])
        assert rc == 0
        starts = [line.split("\t")[0]
                  for line in capsys.readouterr().out.splitlines() if line]
        from repro import KMismatchIndex

        flat = KMismatchIndex(text)
        assert starts == [str(o.start) for o in flat.search(pattern, 1)]

        reads = tmp_path / "reads.txt"
        reads.write_text(text[100:130] + "\n" + text[790:820] + "\n")
        sam = tmp_path / "out.sam"
        rc = main(["map", "--index-file", str(out), str(reads), "-k", "1",
                   "-o", str(sam)])
        assert rc == 0
        body = sam.read_text()
        assert "LN:1200" in body  # facade-level text_length, not shard-local

    def test_stats_by_shard(self, big_genome_file, tmp_path, capsys):
        genome, text = big_genome_file
        out = tmp_path / "big.shd"
        trace = tmp_path / "trace.json"
        assert main(["index", str(genome), "-o", str(out), "--format", "bin",
                     "--shards", "3"]) == 0
        assert main(["search", str(out), text[50:70], "-k", "1", "--index",
                     "--stats-json", str(trace)]) == 0
        capsys.readouterr()
        rc = main(["stats", str(trace), "--by", "shard"])
        assert rc == 0
        rendered = capsys.readouterr().out
        assert "query.shard_ms" in rendered
        assert "query.shard_occurrences" in rendered
        for shard in ("0", "1", "2"):
            assert f"\n{shard} " in rendered or f"\n{shard}\t" in rendered

    def test_engines_reports_sharded_column(self, capsys):
        assert main(["engines"]) == 0
        out = capsys.readouterr().out
        header = [line for line in out.splitlines() if "capabilities" in line][0]
        assert "sharded" in header
        row = [line for line in out.splitlines() if line.startswith("algorithm_a ")][0]
        assert " yes " in row

    def test_serve_metrics_sharded_exposes_shard_labels(
        self, big_genome_file, tmp_path, capsys
    ):
        import os
        import signal
        import threading
        import time
        from urllib.request import urlopen

        genome, text = big_genome_file
        reads = tmp_path / "reads.txt"
        reads.write_text(text[30:60] + "\n" + text[420:450] + "\n")
        captured = {}

        def grab_then_stop():
            # Poll until the routed workload's {shard} series appear,
            # then ask the server to shut down gracefully (SIGTERM is
            # how serve-metrics is stopped in CI).
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline:
                try:
                    with urlopen("http://127.0.0.1:9188/metrics",
                                 timeout=5.0) as response:
                        body = response.read().decode()
                    if 'shard="1"' in body:
                        captured["text"] = body
                        break
                except OSError:
                    pass
                time.sleep(0.05)
            os.kill(os.getpid(), signal.SIGTERM)

        scraper = threading.Thread(target=grab_then_stop, daemon=True)
        scraper.start()
        rc = main(["serve-metrics", str(genome), "--reads", str(reads),
                   "-k", "1", "--shards", "2", "--port", "9188",
                   "--duration", "30"])
        scraper.join(timeout=20.0)
        assert rc == 0
        exposition = captured["text"]
        assert 'repro_query_shard_ms_bucket{engine="algorithm_a"' in exposition
        assert 'shard="0"' in exposition and 'shard="1"' in exposition
