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
        """``--wide-events`` writes the search's one record."""
        events = tmp_path / "events.jsonl"
        rc = main(["search", str(genome_file), "tcaca", "-k", "2",
                   "--wide-events", str(events)])
        assert rc == 0
        from repro.obs import load_wide_events

        event_records = load_wide_events(str(events))
        assert len(event_records) == 1
        assert event_records[0]["event"] == "query"
        assert event_records[0]["engine"] == "algorithm_a"
        assert event_records[0]["stats"]["rank_queries"] > 0
        assert "wide events" in capsys.readouterr().err

    def test_flightrecorder_renders_dump(self, genome_file, tmp_path, capsys):
        """``events tail`` renders a search's sink log, span tree included."""
        events = tmp_path / "events.jsonl"
        assert main(["search", str(genome_file), "tcaca", "-k", "2",
                     "--wide-events", str(events)]) == 0
        capsys.readouterr()
        rc = main(["events", "tail", str(events), "-n", "0", "--spans"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "algorithm_a" in out
        assert "kmismatch.search" in out  # --spans renders the span tree
        # Nothing crosses the 250 ms slow threshold here.
        assert main(["events", "tail", str(events), "--slow"]) == 0
        assert capsys.readouterr().out.strip() == "(no events)"

    def test_events_tail_slow_shows_only_slow_records(self, tmp_path, capsys):
        import json as json_module

        from repro.obs import WideEventLog, make_record

        events = tmp_path / "events.jsonl"
        log = WideEventLog(str(events), sample=1.0)
        log.emit(make_record("query", engine="algorithm_a", duration_ms=1.0))
        log.emit(make_record("query", engine="stree", duration_ms=900.0))
        log.close()
        assert main(["events", "tail", str(events), "--slow", "--json"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [json_module.loads(line)["engine"] for line in lines] == ["stree"]
        assert main(["events", "tail", str(events), "--slow"]) == 0
        out = capsys.readouterr().out
        assert "stree" in out and "SLOW" in out and "algorithm_a" not in out

    def test_flightrecorder_unreadable_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        rc = main(["events", "tail", str(missing)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

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
        with pytest.raises(SystemExit) as info:
            main(["stats", "--by", "engine"])
        assert info.value.code == 2
        assert "TRACE" in capsys.readouterr().err

class TestNoProfiler:
    def test_profile_subcommand_and_flag_are_gone(self, genome_file, tmp_path):
        """The sampling profiler is deleted: argparse rejects both its
        subcommand and the ``--profile`` flag with its usage exit code."""
        out = str(tmp_path / "p.folded")
        for argv in (
            ["profile", "search", str(genome_file), "tcaca", "-k", "2"],
            ["search", str(genome_file), "tcaca", "-k", "2", "--profile", out],
        ):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 2


class TestNoHttpTelemetry:
    def test_http_telemetry_stays_gone(self, genome_file, monkeypatch, capsys):
        """The HTTP telemetry surface is deleted: its modules, exports,
        subcommands, ``stats --url`` and the env knob that started a
        server thread for the duration of a command."""
        import importlib
        import threading

        import repro.cli as cli_module
        import repro.obs

        for name in ("repro.obs.server", "repro.obs.promlint", "repro.obs.health"):
            with pytest.raises(ModuleNotFoundError):
                importlib.import_module(name)
        for name in ("render_openmetrics", "READINESS", "HealthMonitor"):
            assert name not in repro.obs.__all__
        for argv in (["serve-metrics"], ["metrics-lint", "x"],
                     ["stats", "--url", "u"]):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 2

        seen = {}
        real_search = cli_module._cmd_search

        def counting_search(args):
            seen["threads"] = threading.active_count()
            return real_search(args)

        monkeypatch.setenv("REPRO_METRICS_PORT", "0")
        monkeypatch.setattr(cli_module, "_cmd_search", counting_search)
        before = threading.active_count()
        assert main(["search", str(genome_file), "tcaca", "-k", "1"]) == 0
        assert seen["threads"] == before
        assert threading.active_count() == before
        assert "telemetry on" not in capsys.readouterr().err


class TestOldTraceFiles:
    #: A schema-v2 histogram family as earlier versions wrote it: each
    #: series carried an ``exemplars`` map (bucket index -> trace id).
    SEARCH_MS = {
        "type": "histogram", "name": "query.search_ms",
        "buckets": [0.1, 0.25, 0.5, 1.0],
        "series": [{
            "type": "histogram", "name": "query.search_ms",
            "buckets": [0.1, 0.25, 0.5, 1.0], "counts": [0, 0, 1, 0, 0],
            "count": 1, "sum": 0.45, "min": 0.45, "max": 0.45,
            "p50": 0.5, "p90": 0.5, "p99": 0.5,
            "labels": {"engine": "algorithm_a", "k": "2"},
            "exemplars": {"2": {"trace_id": "a0330a1a28a54d16",
                                "value": 0.45, "ts": 1760000000.0}},
        }],
    }

    def test_v2_trace_with_exemplars_still_renders(self, tmp_path, capsys):
        import json

        from repro.obs import load_trace, render_trace

        path = tmp_path / "old.json"
        path.write_text(json.dumps({
            "format": "repro-trace", "version": 2, "meta": {"command": "search"},
            "spans": [], "metrics": {"query.search_ms": self.SEARCH_MS},
        }))
        document = load_trace(str(path))
        assert "query.search_ms{engine=algorithm_a,k=2}: count=1" in render_trace(document)
        capsys.readouterr()
        assert main(["stats", str(path)]) == 0
        assert "query.search_ms{engine=algorithm_a,k=2}: count=1" in capsys.readouterr().out
        assert main(["stats", str(path), "--by", "engine,k"]) == 0
        assert "query.search_ms (histogram) by engine,k" in capsys.readouterr().out


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
