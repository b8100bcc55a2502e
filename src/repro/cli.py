"""Command-line interface: ``repro-cli``.

Subcommands
-----------
``index``          Build a BWT index for a FASTA/plain-text target and save it
                   (``--format bin`` writes the zero-copy binary format;
                   ``--shards N`` writes a ``REPROSHD`` manifest plus N
                   seam-overlapped shard indexes — see docs/SHARDING.md).
``search``         Query a target (or saved index) for a pattern with k mismatches.
``simulate``       Generate a synthetic genome and/or simulated reads.
``map``            Map reads to a target, SAM-like output (``--workers N`` fans
                   the batch out over a thread or process pool;
                   ``--index-file`` maps against a prebuilt index).
``compare``        Run the paper's methods over a read batch and print a table.
``engines``        List every registered search engine and its capabilities.
``stats``          Render a saved ``--stats-json`` trace file as text;
                   ``--by engine,k`` (or ``--by shard`` for routed
                   queries) regroups labelled series into dimensional
                   tables, ``--url`` replays a live ``/debug/metrics``
                   endpoint instead of a file.
``serve-metrics``  Expose /metrics, /healthz, /readyz, /slo, /alerts,
                   /debug/queries and the /debug/stream SSE push over
                   HTTP, optionally driving a read workload to populate
                   them (``--wide-events PATH`` appends one JSON record
                   per query); shuts down cleanly on SIGTERM/SIGINT.
``top``            Live terminal dashboard — QPS, latency percentiles,
                   error rate, worker utilization, per-engine and
                   per-shard tables — from a saved trace file or a live
                   server's /debug/stream (``--once``/``--json`` for
                   headless use).
``events``         Read telemetry records — a ``--wide-events`` log or a
                   ``--flight-json`` dump: ``tail`` (newest records;
                   ``--slow``, ``--spans``) and ``summarize``
                   (per-{engine,k} exact percentiles, batch return
                   paths, event rate).
``slo``            ``report`` (objectives, budgets burned, firing alerts),
                   ``check`` (exit 4 on violation — the CI gate) and
                   ``lint`` (strictly validate a rules file), over a live
                   ``--url`` or a saved trace file.
``metrics-lint``   Strictly validate an OpenMetrics exposition (file or
                   live URL) — the CI scrape-and-lint step.
``bench``          Run the fixed CI workload; with ``--check-regression``,
                   gate against a committed baseline JSON;
                   ``--update-baseline`` rewrites that baseline in one step.
``profile``        Run ``search``/``map``/``bench`` under the span-attributed
                   sampling profiler and write collapsed/folded stacks or
                   speedscope JSON (``--hz``, ``--out``, ``--format``,
                   ``--memory`` for tracemalloc index-build snapshots).

Method names on ``search`` and ``compare`` are resolved through the
engine registry (``repro.engine.REGISTRY``) — any registered mismatch
engine or alias works; ``repro-cli engines`` lists them.

The ``index``, ``search``, ``map`` and ``compare`` subcommands accept
``--trace`` (print a span/metrics summary to stderr), ``--stats-json
PATH`` (write the full machine-readable trace document), ``--wide-events
PATH`` (append one JSON record per query/batch), ``--flight-json PATH``
(dump the flight recorder on exit) and ``--profile PATH`` (sample the
command under the wall-clock profiler; folded stacks, or speedscope
JSON when PATH ends in ``.json``) — see ``docs/OBSERVABILITY.md``.
Setting ``REPRO_METRICS_PORT`` serves live telemetry over HTTP for the
duration of any of those commands.

The CLI works on plain one-sequence-per-file text or minimal FASTA (the
first record's sequence, headers stripped).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple

from .bench.reporting import (
    format_seconds,
    format_table,
    percentile_cells,
    percentile_headers,
)
from .bench.suite import MethodSuite, PAPER_METHODS
from .core.matcher import KMismatchIndex
from .engine import CAP_MISMATCH, REGISTRY
from .obs import OBS, MetricError, load_trace, render_trace
from .shard import ShardedIndex
from .simulate.genome import GenomeConfig, generate_genome
from .simulate.reads import ReadConfig, simulate_reads


def read_sequence(path: Path) -> str:
    """Load a sequence from plain text or minimal FASTA (first record)."""
    lines = path.read_text().splitlines()
    sequence_parts: List[str] = []
    in_first_record = False
    saw_header = any(line.startswith(">") for line in lines[:1])
    for line in lines:
        if line.startswith(">"):
            if in_first_record:
                break
            in_first_record = True
            continue
        if not saw_header or in_first_record:
            sequence_parts.append(line.strip())
    return "".join(sequence_parts).lower()


def _cmd_index(args: argparse.Namespace) -> int:
    text = read_sequence(Path(args.target))
    if args.shards > 1 and args.format != "bin":
        print("error: --shards N needs --format bin (a REPROSHD manifest plus "
              "per-shard binary REPROIDX files; docs/SHARDING.md)", file=sys.stderr)
        return 2
    with OBS.timed("cli.index", length=len(text), shards=args.shards) as timer:
        if args.shards > 1:
            index = ShardedIndex.build(
                text, args.shards,
                max_pattern=args.max_pattern, max_k=args.max_k,
                occ_sample_rate=args.occ_sample, sa_sample_rate=args.sa_sample,
                build_workers=args.build_workers,
            )
        else:
            index = KMismatchIndex(
                text, occ_sample_rate=args.occ_sample, sa_sample_rate=args.sa_sample
            )
    if args.shards > 1:
        index.save(args.output)
        detail = f"manifest + {index.n_shards} shard file(s)"
    elif args.format == "bin":
        index.save(args.output)
        detail = f"{args.format} format"
    else:
        Path(args.output).write_text(index.dumps())
        detail = f"{args.format} format"
    print(f"indexed {len(text)} bp in {format_seconds(timer.seconds)} -> {args.output} "
          f"({index.nbytes()} payload bytes, {detail})")
    return 0


def _load_index(args: argparse.Namespace) -> KMismatchIndex:
    if getattr(args, "index", False):
        return KMismatchIndex.open(args.target)
    return KMismatchIndex(read_sequence(Path(args.target)))


def _cmd_search(args: argparse.Namespace) -> int:
    index = _load_index(args)
    pattern = args.pattern.lower()
    with OBS.timed("cli.search", m=len(pattern), k=args.k) as timer:
        if args.edit:
            for occ in index.search_edit(pattern, args.k):
                print(f"{occ.start}\t{occ.length}\t{occ.distance}")
            count = "edit-distance windows"
        else:
            if args.wildcard:
                occurrences = index.search_wildcard(pattern, args.k, wildcard=args.wildcard)
            else:
                occurrences = index.search(pattern, args.k, method=args.method)
            for occ in occurrences:
                mm = ",".join(str(p) for p in occ.mismatches) or "-"
                print(f"{occ.start}\t{occ.n_mismatches}\t{mm}")
            count = f"{len(occurrences)} occurrence(s)"
    print(f"# {count} in {format_seconds(timer.seconds)}", file=sys.stderr)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    genome = generate_genome(
        GenomeConfig(
            length=args.length,
            gc_content=args.gc,
            repeat_fraction=args.repeats,
            seed=args.seed,
        )
    )
    Path(args.output).write_text(f">synthetic seed={args.seed}\n{genome}\n")
    print(f"wrote {len(genome)} bp genome -> {args.output}")
    if args.reads > 0:
        reads = simulate_reads(
            genome, ReadConfig(n_reads=args.reads, length=args.read_length, seed=args.seed + 1)
        )
        reads_path = Path(args.output).with_suffix(".reads.txt")
        with reads_path.open("w") as handle:
            for i, read in enumerate(reads):
                strand = "-" if read.reverse_strand else "+"
                handle.write(f"@read{i} pos={read.position} strand={strand} "
                             f"muts={read.n_mutations}\n{read.sequence}\n")
        print(f"wrote {len(reads)} reads -> {reads_path}")
    return 0


def _cmd_map(args: argparse.Namespace) -> int:
    from .io import parse_fastq, write_sam

    if args.index_file:
        # open() may hand back a ShardedIndex for REPROSHD manifests;
        # text_length is the facade-level property both kinds serve.
        index = KMismatchIndex.open(args.index_file)
        text_length = index.text_length
    elif not args.target:
        print("error: map needs a TARGET file or --index-file PATH", file=sys.stderr)
        return 2
    else:
        text = read_sequence(Path(args.target))
        index = KMismatchIndex(text)
        text_length = len(text)
    reads_text = Path(args.reads).read_text()
    if reads_text.lstrip().startswith("@") and "\n+" in reads_text:
        records = [(r.name, r.sequence) for r in parse_fastq(reads_text)]
    else:
        records = [
            (f"read{i}", line.strip().lower())
            for i, line in enumerate(reads_text.splitlines())
            if line.strip() and not line.startswith(("#", ">"))
        ]
    reference = args.reference_name

    out = sys.stdout if args.output == "-" else Path(args.output).open("w")
    try:
        with OBS.timed("cli.map", n_reads=len(records), k=args.k,
                       workers=args.workers):
            hit_lists = index.map_reads(
                [sequence for _, sequence in records],
                args.k,
                workers=args.workers,
                chunk_size=args.chunk_size or None,
            )
            alignments = (
                (name, sequence, reference, hits)
                for (name, sequence), hits in zip(records, hit_lists)
            )
            written = write_sam(out, [(reference, text_length)], alignments)
    finally:
        if out is not sys.stdout:
            out.close()
    print(f"# wrote {written} alignment line(s) for {len(records)} read(s)",
          file=sys.stderr)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    text = read_sequence(Path(args.target))
    reads = [
        line.strip().lower()
        for line in Path(args.reads).read_text().splitlines()
        if line.strip() and not line.startswith(("@", ">", "#"))
    ]
    if args.limit > 0:
        reads = reads[: args.limit]
    suite = MethodSuite(text, methods=args.methods)
    rows = []
    with OBS.timed("cli.compare", k=args.k, n_reads=len(reads)):
        for result in suite.run_all(reads, args.k):
            rows.append(
                [result.method, format_seconds(result.avg_seconds)]
                + percentile_cells(result.latency_hist)
                + [result.n_occurrences]
            )
    print(format_table(["method", "avg time/read", *percentile_headers(), "occurrences"],
                       rows,
                       title=f"k={args.k}, {len(reads)} reads, target {len(text)} bp"))
    return 0


def _cmd_engines(args: argparse.Namespace) -> int:
    from .engine.registry import CAP_EDIT, CAP_WILDCARD

    # Capabilities the ShardedIndex facade routes shard-wise (every
    # engine runs per shard; hits are ownership-filtered and rebased).
    routed = {CAP_MISMATCH, CAP_EDIT, CAP_WILDCARD}
    rows = []
    for spec in REGISTRY.specs(capability=args.capability or None):
        rows.append([
            spec.name,
            spec.kind,
            ",".join(sorted(spec.capabilities)),
            "yes" if routed & set(spec.capabilities) else "-",
            ",".join(spec.aliases) or "-",
            spec.description,
        ])
    print(format_table(["engine", "kind", "capabilities", "sharded", "aliases",
                        "description"],
                       rows, title=f"{len(rows)} registered engine(s)"))
    return 0


def _metrics_payload_problem(payload) -> str:
    """Why ``payload`` is not a ``/debug/metrics`` registry document
    ('' when it is one).  Guards ``stats --url`` against non-repro (or
    pre-schema-v2) servers answering 200 with unrelated JSON — the CLI
    reports one line and exits 2 instead of crashing mid-render."""
    if not isinstance(payload, dict):
        return f"top level is {type(payload).__name__}, expected an object"
    for name, family in payload.items():
        if not isinstance(family, dict) or "type" not in family:
            return f"family {name!r} carries no 'type' field"
    return ""


def _cmd_stats(args: argparse.Namespace) -> int:
    if args.url:
        from .obs.export import fetch_metrics_json

        try:
            payload = fetch_metrics_json(args.url)
        except (OSError, json.JSONDecodeError, ValueError) as exc:
            print(f"error: cannot fetch {args.url}: {exc}", file=sys.stderr)
            return 2
        problem = _metrics_payload_problem(payload)
        if problem:
            print(f"error: {args.url} is not a schema-v2 metrics endpoint "
                  f"({problem}); point --url at a repro-cli serve-metrics "
                  f"server", file=sys.stderr)
            return 2
        document = {"metrics": payload}
    elif args.trace_file:
        try:
            document = load_trace(args.trace_file)
        except MetricError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        print("error: stats needs a TRACE file or --url URL", file=sys.stderr)
        return 2
    if args.by:
        from .obs.breakdown import parse_by, render_breakdown

        dimensions = parse_by(args.by)
        if not dimensions:
            print("error: --by needs at least one label name", file=sys.stderr)
            return 2
        print(render_breakdown(document.get("metrics") or {}, dimensions,
                               families=args.family or None))
        return 0
    print(render_trace(document))
    return 0


def _cmd_serve_metrics(args: argparse.Namespace) -> int:
    import signal
    import threading

    from .errors import ReproError
    from .obs import LABELS_DROPPED_METRIC, READINESS, index_canary
    from .obs.server import MetricsServer
    from .obs.slo import configure_slo_engine, load_rules

    OBS.enable()
    if args.slow_ms is not None:
        OBS.recorder.slow_ms = args.slow_ms
    if args.wide_events:
        OBS.open_wide_log(args.wide_events)
        print(f"# wide events -> {args.wide_events}", file=sys.stderr)
    # Background registry sampling: gives /debug/stream and the SLO
    # engine a populated time-series substrate even when nobody scrapes.
    from .obs.stream import get_broker
    from .obs.timeseries import get_timeseries

    get_timeseries().start()
    READINESS.reset()
    if args.slo_rules:
        try:
            configure_slo_engine(rules=load_rules(args.slo_rules))
        except (OSError, MetricError) as exc:
            print(f"error: cannot load SLO rules: {exc}", file=sys.stderr)
            return 2
        print(f"# slo rules loaded from {args.slo_rules}", file=sys.stderr)

    # SIGTERM/SIGINT request a graceful stop: the event wakes the serve
    # loop, the socket is closed and final state flushed — no
    # KeyboardInterrupt traceback mid-request.  signal.signal only works
    # on the main thread; in-process callers (tests) just skip it.
    stop_event = threading.Event()
    previous_handlers = {}
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            previous_handlers[sig] = signal.signal(
                sig, lambda signum, frame: stop_event.set()
            )
        except ValueError:
            pass
    server = MetricsServer(host=args.host, port=args.port)
    host, port = server.address
    print(f"# serving /metrics /healthz /readyz /slo /alerts /debug/queries "
          f"/debug/stream on http://{host}:{port}", file=sys.stderr)
    server.start()
    try:
        if args.target:
            text = read_sequence(Path(args.target))
            if args.shards > 1:
                # In-memory sharded index: the served workload then
                # populates the router's query.shard_* families and the
                # {shard}-labelled worker series for scrape checks.
                index = ShardedIndex.build(text, args.shards)
            else:
                index = KMismatchIndex(text)
            # /readyz now proves the serving path: a canary query against
            # this exact index runs on every readiness check.
            READINESS.register_probe("index", index_canary(index))
            if args.reads:
                reads = [
                    line.strip().lower()
                    for line in Path(args.reads).read_text().splitlines()
                    if line.strip() and not line.startswith(("@", ">", "#"))
                ]
                raised = 0
                for cycle in range(max(1, args.loop)):
                    if stop_event.is_set():
                        break
                    for read in reads:
                        if stop_event.is_set():
                            break
                        try:
                            index.search_with_stats(read, args.k)
                        except ReproError:
                            # Counted in query.errors{engine,k,kind} by the
                            # facade — a bad read feeds the SLO evaluation
                            # instead of killing the server (this is how
                            # CI forces an objective violation).
                            raised += 1
                print(f"# ran {max(1, args.loop)} pass(es) over {len(reads)} "
                      f"read(s), {raised} raised", file=sys.stderr)
        if args.duration > 0:
            stop_event.wait(args.duration)
        else:
            print("# Ctrl-C to stop", file=sys.stderr)
            while not stop_event.wait(3600):
                pass
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
        get_broker().stop()
        get_timeseries().stop()
        if OBS.wide_log is not None:
            wide_state = OBS.wide_log.to_dict()
            OBS.close_wide_log()
            print(f"# wide events: {wide_state['lines_written']} written, "
                  f"{wide_state['lines_sampled_out']} sampled out, "
                  f"{wide_state['rotations']} rotation(s)", file=sys.stderr)
        dropped = OBS.metrics.get(LABELS_DROPPED_METRIC)
        print(f"# shutdown: socket closed; {len(OBS.metrics)} metric "
              f"famil{'y' if len(OBS.metrics) == 1 else 'ies'}, "
              f"{OBS.recorder.total_recorded} query record(s), "
              f"{dropped.value if dropped is not None else 0} dropped label "
              f"set(s)", file=sys.stderr)
        OBS.disable()
        for sig, handler in previous_handlers.items():
            try:
                signal.signal(sig, handler)
            except ValueError:
                pass
    return 0


def _slo_metrics_source(args: argparse.Namespace):
    """(metrics payload, error line) for ``slo report``/``slo check`` —
    a live ``/debug/metrics`` scrape (``--url``) or a saved trace file's
    ``metrics`` section (positional TRACE)."""
    if args.url:
        from .obs.export import fetch_metrics_json

        try:
            payload = fetch_metrics_json(args.url)
        except (OSError, json.JSONDecodeError, ValueError) as exc:
            return None, f"cannot fetch {args.url}: {exc}"
        problem = _metrics_payload_problem(payload)
        if problem:
            return None, (f"{args.url} is not a schema-v2 metrics endpoint "
                          f"({problem})")
        return payload, ""
    if args.trace_file:
        try:
            return load_trace(args.trace_file).get("metrics") or {}, ""
        except MetricError as exc:
            return None, str(exc)
    return None, "slo needs a TRACE file or --url URL"


def _cmd_slo(args: argparse.Namespace) -> int:
    from .obs.slo import (
        SLO_REPORT_FORMAT,
        evaluate_payload,
        lint_rules,
        load_rules,
        parse_rules_file,
    )

    if args.slo_command == "lint":
        try:
            data = parse_rules_file(args.rules)
        except (OSError, MetricError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        problems = lint_rules(data)
        for problem in problems:
            print(problem)
        if problems:
            print(f"FAIL: {len(problems)} problem(s) in {args.rules}")
            return 1
        n_objectives = len(data.get("objectives") or [])
        print(f"OK: {n_objectives} objective(s) valid")
        return 0

    try:
        rules = load_rules(args.rules or None)
    except (OSError, MetricError) as exc:
        print(f"error: cannot load SLO rules: {exc}", file=sys.stderr)
        return 2
    metrics, problem = _slo_metrics_source(args)
    if metrics is None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    results = evaluate_payload(metrics, rules)

    # Live sources also carry alert state; a trace file has none.
    alerts = None
    if args.url:
        from urllib.request import urlopen

        try:
            with urlopen(args.url.rstrip("/") + "/alerts", timeout=10.0) as response:
                alerts = json.load(response)
        except (OSError, json.JSONDecodeError, ValueError):
            alerts = None

    document = {
        "format": SLO_REPORT_FORMAT,
        "version": 1,
        "rules": args.rules or "(defaults)",
        "source": args.url or args.trace_file,
        "objectives": results,
        "alerts": alerts,
    }
    if args.json_out:
        with open(args.json_out, "w") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")
        print(f"# slo report written to {args.json_out}", file=sys.stderr)

    rows = []
    for status in results:
        selector = ",".join(f"{k}={v}" for k, v in status["selector"].items()) or "-"
        burned = f"{min(status['burn_rate'], 1e4) * 100:.1f}%"
        rows.append([
            status["objective"],
            status["type"],
            f"{status['target']:g}%",
            selector,
            status["total"],
            status["bad"],
            burned,
            "no data" if status["no_data"] else ("OK" if status["ok"] else "VIOLATED"),
        ])
    print(format_table(
        ["objective", "type", "target", "selector", "events", "bad",
         "budget burned", "status"],
        rows, title=f"{len(results)} objective(s), rules: {document['rules']}",
    ))
    if alerts and alerts.get("alerts"):
        firing = [a["objective"] for a in alerts["alerts"] if a["state"] == "firing"]
        print(f"alerts: {alerts.get('n_firing', 0)} firing"
              + (f" ({', '.join(firing)})" if firing else ""))

    violated = [status["objective"] for status in results if not status["ok"]]
    if args.slo_command == "check":
        if violated:
            print(f"SLO CHECK FAILED: {len(violated)} objective(s) violated: "
                  f"{', '.join(violated)}", file=sys.stderr)
            return 4
        print("SLO check passed", file=sys.stderr)
    return 0


def _cmd_metrics_lint(args: argparse.Namespace) -> int:
    from .obs.promlint import fetch_exposition, lint_openmetrics

    try:
        text = fetch_exposition(args.source)
    except OSError as exc:
        print(f"error: cannot read {args.source}: {exc}", file=sys.stderr)
        return 2
    problems = lint_openmetrics(text)
    for problem in problems:
        print(problem)
    n_samples = sum(
        1 for line in text.splitlines() if line and not line.startswith("#")
    )
    if problems:
        print(f"FAIL: {len(problems)} problem(s) in {n_samples} sample line(s)")
        return 1
    print(f"OK: {n_samples} sample line(s) clean")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench.regression import (
        RegressionError,
        compare_runs,
        format_report,
        load_bench_json,
        run_ci_workload,
        write_bench_json,
    )

    try:
        document = run_ci_workload(
            methods=args.methods,
            k=args.k,
            scale=args.scale,
            n_reads=args.reads,
            read_length=args.read_length,
            seed=args.seed,
            repeats=args.repeats,
        )
    except RegressionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json_out:
        write_bench_json(document, args.json_out)
        print(f"# benchmark JSON written to {args.json_out}", file=sys.stderr)
    if args.update_baseline:
        target = args.baseline or "benchmarks/results/baseline_ci.json"
        write_bench_json(document, target)
        print(f"# baseline refreshed -> {target}", file=sys.stderr)
        return 0
    baseline = None
    findings = []
    if args.check_regression or args.baseline:
        if not args.baseline:
            print("error: --check-regression requires --baseline PATH", file=sys.stderr)
            return 2
        try:
            baseline = load_bench_json(args.baseline)
            ratio_threshold = (
                args.ratio_threshold / 100.0
                if args.ratio_threshold is not None
                else None
            )
            findings = compare_runs(
                document,
                baseline,
                latency_threshold=args.latency_threshold / 100.0,
                probe_threshold=args.probe_threshold / 100.0,
                ratio_threshold=ratio_threshold,
            )
        except RegressionError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    print(format_report(findings, document, baseline))
    return 3 if findings else 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from .obs import MEMORY_PROFILES, PROFILER, render_top, set_memory_profiling, write_profile

    # The profiler flags are accepted both before the wrapped command
    # (`profile --hz 200 search ...`) and after it (`profile search ...
    # --hz 200`): REMAINDER swallows everything past the command name, so
    # a second pass extracts trailing profiler flags and forwards the rest.
    flags = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    flags.add_argument("--hz", type=float, default=None)
    flags.add_argument("--out", default=None)
    flags.add_argument("--format", choices=("folded", "speedscope"), default=None)
    flags.add_argument("--memory", action="store_true", default=False)
    flags.add_argument("--max-samples", type=int, default=None)
    flags.add_argument("--max-seconds", type=float, default=None)
    trailing, inner_rest = flags.parse_known_args(args.rest)
    hz = trailing.hz if trailing.hz is not None else args.hz
    out = trailing.out or args.out or "profile.folded"
    fmt = trailing.format or args.format
    if fmt is None:
        fmt = "speedscope" if out.endswith(".json") else "folded"
    memory = args.memory or trailing.memory
    max_samples = (
        trailing.max_samples if trailing.max_samples is not None else args.max_samples
    )
    max_seconds = (
        trailing.max_seconds if trailing.max_seconds is not None else args.max_seconds
    )

    if memory:
        set_memory_profiling(True)
    # Span attribution needs live spans: enable the obs singleton for the
    # wrapped command even when it carries no observability flags itself.
    OBS.reset().enable()
    PROFILER.start(hz=hz, max_samples=max_samples, max_seconds=max_seconds)
    try:
        code = main([args.profiled] + inner_rest)
    finally:
        profile = PROFILER.stop()
        OBS.disable()
        if memory:
            set_memory_profiling(False)
    write_profile(profile, out, fmt)
    print(f"# profile ({fmt}) written to {out}", file=sys.stderr)
    print(render_top(profile), file=sys.stderr)
    if memory:
        for memory_profile in MEMORY_PROFILES:
            print(memory_profile.render(), file=sys.stderr)
    return code


def _stream_frames(url: str, frames: int):
    """Yield decoded SSE frames from a server's ``/debug/stream``.

    ``url`` may be the server base or the full endpoint; ``frames`` > 0
    asks the server to close the stream after that many frames (the
    bounded mode ``--once`` uses).
    """
    from urllib.request import urlopen

    from .obs.stream import iter_sse_frames

    target = url.rstrip("/")
    if not target.endswith("/debug/stream"):
        target += "/debug/stream"
    if frames:
        target += ("&" if "?" in target else "?") + f"frames={frames}"
    with urlopen(target) as response:
        yield from iter_sse_frames(response)


def _cmd_top(args: argparse.Namespace) -> int:
    from .obs.top import CLEAR_SCREEN, compute_dashboard, render_dashboard

    def show(dashboard, live: bool) -> None:
        if args.json_out:
            print(json.dumps(dashboard))
        else:
            prefix = CLEAR_SCREEN if live else ""
            print(prefix + render_dashboard(
                dashboard, color=sys.stdout.isatty()
            ))

    if args.url:
        # --once rides the subscription bootstrap: the hello frame plus
        # one full metrics snapshot arrive immediately, no tick wait.
        frames = 2 if args.once else max(0, args.frames)
        last = None
        shown = 0
        try:
            for frame in _stream_frames(args.url, frames):
                if frame.get("type") != "metrics":
                    continue
                dashboard = frame.get("dashboard")
                if dashboard is None:
                    continue
                last = dashboard
                if args.once:
                    continue
                show(dashboard, live=not args.json_out)
                shown += 1
        except KeyboardInterrupt:
            return 0
        except (OSError, ValueError) as exc:
            print(f"error: cannot stream from {args.url}: {exc}",
                  file=sys.stderr)
            return 2
        if args.once:
            if last is None:
                print("error: no dashboard frame received", file=sys.stderr)
                return 2
            show(last, live=False)
        return 0
    if not args.trace_file:
        print("error: top needs a TRACE file or --url", file=sys.stderr)
        return 2
    try:
        document = load_trace(args.trace_file)
    except (OSError, MetricError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    meta = document.get("meta") or {}
    window = args.window or meta.get("duration_s") or None
    dashboard = compute_dashboard(document.get("metrics") or {},
                                  window_s=window)
    show(dashboard, live=False)
    return 0


def _cmd_events(args: argparse.Namespace) -> int:
    from .obs.events import (
        load_wide_events,
        render_event_lines,
        render_event_summary,
        summarize_events,
        tail_events,
    )

    try:
        if args.events_command == "tail":
            records = tail_events(args.events_file, n=args.n,
                                  slow_only=args.slow)
            if args.json_out:
                for record in records:
                    print(json.dumps(record))
            else:
                print(render_event_lines(records, show_spans=args.spans))
            return 0
        records = load_wide_events(
            args.events_file, include_backups=not args.no_backups
        )
        summary = summarize_events(records)
        if args.json_out:
            print(json.dumps(summary, indent=2))
        else:
            print(render_event_summary(summary))
        return 0
    except OSError as exc:
        print(f"error: cannot read {args.events_file}: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: {args.events_file} is not valid JSON lines: {exc}",
              file=sys.stderr)
        return 2


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    """Attach the shared observability flags to one subcommand parser."""
    parser.add_argument("--trace", action="store_true",
                        help="print a span/metrics summary to stderr when done")
    parser.add_argument("--stats-json", default="", metavar="PATH",
                        help="write the full trace document (spans + metrics) as JSON")
    parser.add_argument("--flight-json", default="", metavar="PATH",
                        help="dump the flight recorder (recent + pinned slow "
                             "queries) as JSON lines on exit")
    parser.add_argument("--profile", default="", metavar="PATH",
                        help="sample this command under the wall-clock profiler "
                             "(rate: REPRO_PROFILE_HZ) and write span-attributed "
                             "folded stacks — or speedscope JSON when PATH ends "
                             "in .json — to PATH")
    parser.add_argument("--wide-events", default="", metavar="PATH",
                        help="append one JSON record per query/batch to PATH "
                             "(JSON lines; sampled via REPRO_EVENT_SAMPLE, "
                             "rotated at REPRO_EVENT_MAX_BYTES — read with "
                             "`repro-cli events`); REPRO_EVENT_LOG sets this "
                             "for every command")


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-cli",
        description="BWT arrays and mismatching trees: k-mismatch string matching",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="build and save a BWT index")
    p_index.add_argument("target", help="FASTA or plain-text target file")
    p_index.add_argument("-o", "--output", default="target.fmidx", help="output index path")
    p_index.add_argument("--format", choices=("json", "bin"), default="json",
                         help="index serialization: portable JSON (default) or the "
                              "zero-copy binary format (docs/INDEX_FORMAT.md)")
    p_index.add_argument("--occ-sample", type=int, default=4, help="rankall checkpoint spacing")
    p_index.add_argument("--sa-sample", type=int, default=8, help="suffix-array sampling distance")
    p_index.add_argument("--shards", type=int, default=1,
                         help="split the target into N seam-overlapped shards and "
                              "write a REPROSHD manifest plus per-shard binary "
                              "index files (needs --format bin; docs/SHARDING.md)")
    p_index.add_argument("--max-pattern", type=int, default=512,
                         help="with --shards: longest pattern the sharded index "
                              "will answer (fixes the seam overlap)")
    p_index.add_argument("--max-k", type=int, default=8,
                         help="with --shards: largest mismatch bound the sharded "
                              "index will answer (fixes the seam overlap)")
    p_index.add_argument("--build-workers", type=int, default=0,
                         help="with --shards: build the N shard indexes over a "
                              "process pool of this many workers (0 = serial); "
                              "output is byte-identical either way")
    _add_obs_flags(p_index)
    p_index.set_defaults(func=_cmd_index)

    p_search = sub.add_parser("search", help="k-mismatch search in a target")
    p_search.add_argument("target", help="FASTA/plain-text target, or a saved "
                          "index file when --index is set")
    p_search.add_argument("pattern", help="pattern string")
    p_search.add_argument("-k", type=int, default=0, help="mismatch / error bound")
    p_search.add_argument("--method", choices=REGISTRY.names(capability=CAP_MISMATCH),
                          default="algorithm_a",
                          help="any registered mismatch engine (see `repro-cli engines`)")
    p_search.add_argument("--index", action="store_true",
                          help="treat TARGET as a saved index (from `repro-cli index`)")
    p_search.add_argument("--edit", action="store_true",
                          help="k errors (Levenshtein) instead of k mismatches")
    p_search.add_argument("--wildcard", default="",
                          help="treat this pattern character as a don't-care")
    _add_obs_flags(p_search)
    p_search.set_defaults(func=_cmd_search)

    p_sim = sub.add_parser("simulate", help="generate a synthetic genome and reads")
    p_sim.add_argument("-o", "--output", default="genome.fa")
    p_sim.add_argument("--length", type=int, default=100_000)
    p_sim.add_argument("--gc", type=float, default=0.41)
    p_sim.add_argument("--repeats", type=float, default=0.30)
    p_sim.add_argument("--reads", type=int, default=0, help="also simulate this many reads")
    p_sim.add_argument("--read-length", type=int, default=100)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.set_defaults(func=_cmd_simulate)

    p_map = sub.add_parser("map", help="map reads to a target, SAM-like output")
    p_map.add_argument("target", nargs="?", default="",
                       help="FASTA or plain-text target file (omit with --index-file)")
    p_map.add_argument("reads", help="FASTQ file or one read per line")
    p_map.add_argument("--index-file", default="", metavar="PATH",
                       help="map against a prebuilt index (from `repro-cli index`; "
                            "binary indexes load zero-copy) instead of building "
                            "one from TARGET")
    p_map.add_argument("-k", type=int, default=4, help="mismatch bound")
    p_map.add_argument("-o", "--output", default="-", help="output path ('-' = stdout)")
    p_map.add_argument("--reference-name", default="target", help="@SQ record name")
    p_map.add_argument("--workers", type=int, default=0,
                       help="fan the read batch out over at most N worker "
                            "processes: no more than the usable CPUs, and only "
                            "with enough reads per worker to beat the serial "
                            "path (0/1 = serial)")
    p_map.add_argument("--chunk-size", type=int, default=0,
                       help="reads per worker chunk (0 = automatic)")
    _add_obs_flags(p_map)
    p_map.set_defaults(func=_cmd_map)

    p_cmp = sub.add_parser("compare", help="run the paper's methods over a read batch")
    p_cmp.add_argument("target")
    p_cmp.add_argument("reads", help="file with one read per line (or simulate output)")
    p_cmp.add_argument("-k", type=int, default=3)
    p_cmp.add_argument("--methods", nargs="+", default=list(PAPER_METHODS),
                       help="registered engine names/aliases (see `repro-cli engines`)")
    p_cmp.add_argument("--limit", type=int, default=0, help="use only the first N reads")
    _add_obs_flags(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare)

    p_eng = sub.add_parser("engines", help="list every registered search engine")
    p_eng.add_argument("--capability", default="",
                       help="only engines with this capability (mismatch/edit/wildcard)")
    p_eng.set_defaults(func=_cmd_engines)

    p_stats = sub.add_parser("stats", help="render a saved --stats-json trace file")
    p_stats.add_argument("trace_file", metavar="TRACE", nargs="?", default="",
                         help="trace file written by --stats-json (omit with --url)")
    p_stats.add_argument("--url", default="", metavar="URL",
                         help="replay a live endpoint's /debug/metrics instead "
                              "of a trace file (e.g. http://127.0.0.1:9109)")
    p_stats.add_argument("--by", default="", metavar="LABELS",
                         help="comma-separated label dimensions (e.g. engine,k): "
                              "print labelled series regrouped per family")
    p_stats.add_argument("--family", action="append", default=[], metavar="NAME",
                         help="with --by, restrict to this metric family "
                              "(repeatable)")
    p_stats.set_defaults(func=_cmd_stats)

    p_serve = sub.add_parser(
        "serve-metrics",
        help="expose /metrics, /healthz and /debug/queries over HTTP")
    p_serve.add_argument("target", nargs="?", default="",
                         help="optional FASTA/plain-text target to index and query")
    p_serve.add_argument("--reads", default="",
                         help="file with one read per line to run against TARGET")
    p_serve.add_argument("-k", type=int, default=2, help="mismatch bound for --reads")
    p_serve.add_argument("--shards", type=int, default=1,
                         help="serve TARGET through an in-memory N-shard index "
                              "(populates the {shard}-labelled metric families)")
    p_serve.add_argument("--loop", type=int, default=1,
                         help="passes over the read file (populates metrics)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=9109,
                         help="listen port (0 picks an ephemeral port)")
    p_serve.add_argument("--duration", type=float, default=0,
                         help="serve for this many seconds then exit (0 = forever)")
    p_serve.add_argument("--slow-ms", type=float, default=None,
                         help="pin queries at or above this latency (ms) in the "
                              "flight recorder")
    p_serve.add_argument("--slo-rules", default="", metavar="PATH",
                         help="SLO rules file (TOML or JSON) for the /slo and "
                              "/alerts endpoints (default: shipped defaults; "
                              "see docs/OBSERVABILITY.md)")
    p_serve.add_argument("--wide-events", default="", metavar="PATH",
                         help="append one JSON record per query/batch to "
                              "PATH (JSON lines; sampled via REPRO_EVENT_SAMPLE, "
                              "rotated at REPRO_EVENT_MAX_BYTES — read with "
                              "`repro-cli events`)")
    p_serve.set_defaults(func=_cmd_serve_metrics)

    p_top = sub.add_parser(
        "top",
        help="live terminal dashboard: QPS, latency percentiles, error "
             "rate, worker utilization, per-engine/per-shard breakdowns")
    p_top.add_argument("trace_file", metavar="TRACE", nargs="?", default="",
                       help="trace file written by --stats-json "
                            "(omit with --url)")
    p_top.add_argument("--url", default="", metavar="URL",
                       help="follow a live server's /debug/stream instead of "
                            "a trace file (e.g. http://127.0.0.1:9109)")
    p_top.add_argument("--window", type=float, default=0, metavar="SECONDS",
                       help="with TRACE: seconds the trace's counters "
                            "accumulated over (rates divide by this; "
                            "default: the trace's own duration metadata "
                            "or its process.uptime_s gauge)")
    p_top.add_argument("--once", action="store_true",
                       help="print one dashboard and exit (headless mode)")
    p_top.add_argument("--json", dest="json_out", action="store_true",
                       help="emit the dashboard document as JSON instead of "
                            "the ANSI rendering")
    p_top.add_argument("--frames", type=int, default=0,
                       help="with --url: stop after N dashboard updates "
                            "(0 = follow until Ctrl-C)")
    p_top.set_defaults(func=_cmd_top)

    p_events = sub.add_parser(
        "events",
        help="read telemetry records from a --wide-events log or a "
             "--flight-json dump")
    ev_sub = p_events.add_subparsers(dest="events_command", required=True)
    p_ev_tail = ev_sub.add_parser(
        "tail", help="print the newest records, one line each")
    p_ev_tail.add_argument("events_file", metavar="EVENTS",
                           help="record JSONL file (--wide-events or "
                                "--flight-json)")
    p_ev_tail.add_argument("-n", type=int, default=20,
                           help="records to show (default 20; 0 = all)")
    p_ev_tail.add_argument("--json", dest="json_out", action="store_true",
                           help="print raw JSON lines instead of the table")
    p_ev_tail.add_argument("--slow", action="store_true",
                           help="show only records pinned as slow")
    p_ev_tail.add_argument("--spans", action="store_true",
                           help="render each record's span tree too")
    p_ev_tail.set_defaults(func=_cmd_events)
    p_ev_sum = ev_sub.add_parser(
        "summarize",
        help="aggregate: per-{engine,k} query counts and exact latency "
             "percentiles, batch return paths, event rate")
    p_ev_sum.add_argument("events_file", metavar="EVENTS",
                          help="record JSONL file (rotated .1/.2/... "
                               "generations are included)")
    p_ev_sum.add_argument("--json", dest="json_out", action="store_true",
                          help="emit the summary document as JSON")
    p_ev_sum.add_argument("--no-backups", action="store_true",
                          help="read only the live file, not rotated "
                               "generations")
    p_ev_sum.set_defaults(func=_cmd_events)

    p_slo = sub.add_parser(
        "slo",
        help="evaluate service-level objectives over live or saved metrics")
    slo_sub = p_slo.add_subparsers(dest="slo_command", required=True)
    for slo_name, slo_help in (
        ("report", "table of objectives, budgets burned and firing alerts"),
        ("check", "exit 4 when any objective is violated (the CI gate)"),
    ):
        p_slo_sub = slo_sub.add_parser(slo_name, help=slo_help)
        p_slo_sub.add_argument("trace_file", metavar="TRACE", nargs="?", default="",
                               help="trace file written by --stats-json "
                                    "(omit with --url)")
        p_slo_sub.add_argument("--url", default="", metavar="URL",
                               help="evaluate a live server's /debug/metrics "
                                    "(e.g. http://127.0.0.1:9109)")
        p_slo_sub.add_argument("--rules", default="", metavar="PATH",
                               help="SLO rules file, TOML or JSON "
                                    "(default: shipped defaults)")
        p_slo_sub.add_argument("--json", dest="json_out", default="", metavar="PATH",
                               help="also write the full report document as JSON")
        p_slo_sub.set_defaults(func=_cmd_slo)
    p_slo_lint = slo_sub.add_parser(
        "lint", help="strictly validate an SLO rules file")
    p_slo_lint.add_argument("rules", metavar="RULES",
                            help="rules file to validate (TOML or JSON)")
    p_slo_lint.set_defaults(func=_cmd_slo)

    p_lint = sub.add_parser(
        "metrics-lint",
        help="strictly validate an OpenMetrics exposition (file or live URL)")
    p_lint.add_argument("source", metavar="FILE_OR_URL",
                        help="exposition file, or an http(s) URL "
                             "(/metrics appended when missing)")
    p_lint.set_defaults(func=_cmd_metrics_lint)

    p_bench = sub.add_parser(
        "bench",
        help="run the fixed CI workload; optionally gate against a baseline")
    p_bench.add_argument("--methods", nargs="+", default=["A()", "BWT"],
                         help="registered engine names/aliases to time")
    p_bench.add_argument("-k", type=int, default=2)
    p_bench.add_argument("--scale", type=int, default=40_000,
                         help="target genome size (bp)")
    p_bench.add_argument("--reads", type=int, default=12, help="number of reads")
    p_bench.add_argument("--read-length", type=int, default=60)
    p_bench.add_argument("--seed", type=int, default=7)
    p_bench.add_argument("--json-out", default="", metavar="PATH",
                         help="write the run's benchmark JSON here")
    p_bench.add_argument("--baseline", default="", metavar="PATH",
                         help="committed baseline JSON to compare against")
    p_bench.add_argument("--check-regression", action="store_true",
                         help="exit 3 when any metric regresses past its threshold")
    p_bench.add_argument("--update-baseline", action="store_true",
                         help="rewrite the baseline JSON (--baseline PATH, default "
                              "benchmarks/results/baseline_ci.json) with this run")
    p_bench.add_argument("--latency-threshold", type=float, default=25.0,
                         help="allowed avg-latency growth over baseline (percent)")
    p_bench.add_argument("--probe-threshold", type=float, default=25.0,
                         help="allowed probe-count growth over baseline (percent)")
    p_bench.add_argument("--repeats", type=int, default=1,
                         help="run the workload N times and report per-method "
                              "median latencies (N >= 3 steadies the gate)")
    p_bench.add_argument("--ratio-threshold", type=float, default=None,
                         help="also gate the A()/BWT avg-latency ratio against "
                              "the baseline's ratio (percent growth allowed; "
                              "machine speed divides out)")
    p_bench.set_defaults(func=_cmd_bench)

    p_prof = sub.add_parser(
        "profile",
        help="run search/map/bench under the span-attributed sampling profiler")
    p_prof.add_argument("profiled", choices=("search", "map", "bench"),
                        metavar="COMMAND",
                        help="the subcommand to profile (search, map or bench); "
                             "everything after it is forwarded verbatim")
    p_prof.add_argument("--hz", type=float, default=None,
                        help="sampling rate (default REPRO_PROFILE_HZ or 97)")
    p_prof.add_argument("--out", default=None, metavar="PATH",
                        help="profile output path (default profile.folded)")
    p_prof.add_argument("--format", choices=("folded", "speedscope"), default=None,
                        help="collapsed stacks (folded) or speedscope JSON "
                             "(default: by PATH extension)")
    p_prof.add_argument("--memory", action="store_true",
                        help="also take tracemalloc snapshots around index "
                             "builds (index.build.peak_bytes + top allocators)")
    p_prof.add_argument("--max-samples", type=int, default=None,
                        help="hard sample cap (default REPRO_PROFILE_MAX_SAMPLES)")
    p_prof.add_argument("--max-seconds", type=float, default=None,
                        help="hard duration cap (default REPRO_PROFILE_MAX_SECONDS)")
    p_prof.add_argument("rest", nargs=argparse.REMAINDER,
                        help="arguments for the profiled subcommand")
    p_prof.set_defaults(func=_cmd_profile)
    return parser


def _split_profile_argv(argv: List[str]) -> Tuple[List[str], List[str]]:
    """Split ``profile ... COMMAND ...`` into (parsed head, forwarded rest).

    argparse's ``REMAINDER`` binds zero-length when the wrapped command
    name is immediately followed by an option token (``profile search
    --hz 200 ...``), which would leave the forwarded arguments
    "unrecognized".  Splitting by hand — skipping over the profile
    subcommand's own value-taking flags — sidesteps that: everything
    after the wrapped command name is forwarded verbatim.
    """
    value_flags = {"--hz", "--out", "--format", "--max-samples", "--max-seconds"}
    i = 1
    while i < len(argv):
        token = argv[i]
        if token in value_flags:
            i += 2
        elif token.startswith("-"):
            i += 1
        else:
            return argv[: i + 1], argv[i + 1:]
    return argv, []


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "profile":
        head, rest = _split_profile_argv(list(argv))
        args = build_parser().parse_args(head)
        args.rest = rest
    else:
        args = build_parser().parse_args(argv)
    trace = getattr(args, "trace", False) is True
    stats_json = getattr(args, "stats_json", "")
    flight_json = getattr(args, "flight_json", "")
    profile_path = getattr(args, "profile", "") if args.command != "profile" else ""
    # serve-metrics owns its wide log's lifecycle (it prints the sink
    # summary on shutdown); every other command honours the flag and the
    # REPRO_EVENT_LOG environment fallback here.
    wide_path = ""
    if args.command != "serve-metrics":
        wide_path = (getattr(args, "wide_events", "")
                     or os.environ.get("REPRO_EVENT_LOG", ""))
    observing = (
        trace or bool(stats_json) or bool(flight_json)
        or bool(profile_path) or bool(wide_path)
    )
    metrics_port = os.environ.get("REPRO_METRICS_PORT", "")
    server = None
    if metrics_port and args.command != "serve-metrics":
        from .obs.server import start_server

        observing = True
        server = start_server(port=int(metrics_port))
        print(f"# telemetry on http://{server.address[0]}:{server.address[1]} "
              f"for the duration of this command", file=sys.stderr)
    if observing:
        OBS.reset().enable()
        if wide_path:
            OBS.open_wide_log(wide_path)
    if profile_path:
        from .obs import PROFILER

        PROFILER.start()
    try:
        return args.func(args)
    finally:
        if server is not None:
            server.stop()
        if profile_path:
            from .obs import PROFILER, write_profile

            collected = PROFILER.stop()
            fmt = "speedscope" if profile_path.endswith(".json") else "folded"
            write_profile(collected, profile_path, fmt)
            print(f"# profile ({fmt}, {collected.n_samples} sample(s)) "
                  f"written to {profile_path}", file=sys.stderr)
        if observing:
            OBS.disable()
            if wide_path and OBS.wide_log is not None:
                wide_state = OBS.wide_log.to_dict()
                OBS.close_wide_log()
                print(f"# wide events ({wide_state['lines_written']} written, "
                      f"{wide_state['lines_sampled_out']} sampled out) -> "
                      f"{wide_path}", file=sys.stderr)
            if flight_json:
                n = OBS.recorder.dump_jsonl(flight_json)
                print(f"# flight recorder ({n} record(s)) written to {flight_json}",
                      file=sys.stderr)
            if stats_json:
                OBS.write_trace(stats_json, command=args.command)
                print(f"# trace written to {stats_json}", file=sys.stderr)
            if trace:
                print(OBS.render_summary(), file=sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())
