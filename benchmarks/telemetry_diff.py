"""Diff the telemetry two source trees produce for one fixed workload.

Runs the same seeded workload (single queries, a few rejected reads and
one serial batch) once per source tree, each in a fresh process with
observability on and a ``--wide-events`` sink open, on an unsharded and
on a 4-shard index.  It then compares what the serving surfaces show:

* ``/metrics`` — the registry payload: family set, counter and gauge
  values, histogram observation counts (bucket placement of latency
  histograms is timing, so only non-latency buckets are compared);
* ``/debug/queries`` — every flight-recorder record, field by field;
* ``slo report --json`` and ``top --once --json`` over the run's trace;
* ``events summarize --json`` over the sink.

Time fields (timestamps, durations, latency percentiles, rates,
utilization, trace ids, span trees) and file paths are left out of
every comparison.  The differences the one-record-per-query telemetry
change makes on purpose are listed below as constants (``RETIRED``,
``RENAMED_EVENTS``, ``FILLED`` and the sharded ``events summarize``
counts); anything else fails::

    python benchmarks/telemetry_diff.py OLD_SRC NEW_SRC

exits 0 when the only differences are the expected ones.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

#: Record/report keys whose values are wall-clock, random or paths.
VOLATILE_KEYS = {
    "ts", "duration_ms", "trace_id", "batch_trace_id", "spans", "profile",
    "slow", "span_s", "events_per_s", "p50_ms", "p95_ms", "p99_ms",
    "uptime_s", "rss_bytes", "qps", "utilization", "window_s", "covered_s",
    "source",
}

#: Metric families the new tree no longer emits: per-probe rank counters,
#: replaced by ``search.rank_queries{engine,k}``.
RETIRED = {
    "rank.rankall.occ_probes", "rank.rankall.counts_at_probes",
    "rank.wavelet.occ_probes", "rank.wavelet.counts_at_probes",
}

#: Record ``event`` renames: the router writes ``query`` with ``shards``.
RENAMED_EVENTS = {"router": "query"}

#: Record fields the old tree left at their default and the new one fills.
FILLED = {"error": ("m",)}


def run_workload(out: Path, shards: int) -> None:
    """Child mode: serve the fixed workload and write every surface."""
    import random

    from repro import KMismatchIndex, ShardedIndex
    from repro.cli import main as cli_main
    from repro.errors import ReproError
    from repro.obs import OBS

    rnd = random.Random(20170417)
    text = "".join(rnd.choice("acgt") for _ in range(6000))
    reads = [text[p:p + 40] for p in (rnd.randrange(5900) for _ in range(30))]
    reads[7] = reads[7][:20] + "n" + reads[7][21:]
    reads[19] = reads[19][:5] + "x" + reads[19][6:]
    if shards > 1:
        index = ShardedIndex.build(text, shards, max_pattern=48, max_k=3)
    else:
        index = KMismatchIndex(text)
    OBS.reset().enable()
    OBS.open_wide_log(str(out / "wide.jsonl"), sample=1.0)
    routed = 0
    for i, read in enumerate(reads):
        try:
            index.search(read, 1 + i % 3)
            routed += 1
        except ReproError:
            pass
    index.search_batch([r for r in reads if "n" not in r and "x" not in r][:8],
                       2)
    OBS.disable()
    OBS.close_wide_log()
    (out / "metrics.json").write_text(json.dumps(OBS.metrics.to_dict()))
    (out / "queries.json").write_text(json.dumps(OBS.recorder.to_dict()))
    (out / "meta.json").write_text(json.dumps(
        {"queries": routed, "rejected": len(reads) - routed}))
    OBS.write_trace(str(out / "trace.json"), command="telemetry_diff")
    cli_main(["slo", "report", str(out / "trace.json"),
              "--json", str(out / "slo.json")])
    for name, argv in (
        ("top.json", ["top", str(out / "trace.json"), "--once", "--json",
                      "--window", "10"]),
        ("events.json", ["events", "summarize", str(out / "wide.jsonl"),
                         "--json"]),
    ):
        with open(out / name, "w") as handle:
            saved, sys.stdout = sys.stdout, handle
            try:
                cli_main(argv)
            finally:
                sys.stdout = saved


def stable(value):
    """``value`` with every volatile key removed, recursively."""
    if isinstance(value, dict):
        return {k: stable(v) for k, v in value.items() if k not in VOLATILE_KEYS}
    if isinstance(value, list):
        return [stable(v) for v in value]
    return value


def missing_or_changed(old, new, path=""):
    """Paths where ``old`` has a value ``new`` lacks or changes (``new``
    may add keys)."""
    if isinstance(old, dict) and isinstance(new, dict):
        out = []
        for key, value in old.items():
            if key not in new:
                out.append(f"{path}.{key}: missing")
            else:
                out.extend(missing_or_changed(value, new[key], f"{path}.{key}"))
        return out
    if isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            return [f"{path}: {len(old)} items -> {len(new)}"]
        out = []
        for i, (a, b) in enumerate(zip(old, new)):
            out.extend(missing_or_changed(a, b, f"{path}[{i}]"))
        return out
    return [] if old == new else [f"{path}: {old!r} -> {new!r}"]


def metric_view(payload: dict) -> dict:
    """Comparable registry view: values, counts, and buckets of the
    histograms whose buckets are not wall time."""
    view = {}
    for name, family in payload.items():
        timed = name.endswith("_ms") or name.startswith("process.")
        series = family.get("series") or [family]
        for entry in series:
            key = name + json.dumps(entry.get("labels") or {}, sort_keys=True)
            if family["type"] == "histogram":
                view[key] = {"count": entry.get("count")}
                if not timed:
                    view[key]["counts"] = entry.get("counts")
            elif not timed:
                view[key] = entry.get("value")
        if "series" in family and "value" in family and not timed:
            view[name] = family["value"]
    return view


def load(side: Path, name: str):
    return json.loads((side / name).read_text())


def compare(old: Path, new: Path, sharded: bool) -> list:
    """Every unexpected difference between the two runs' surfaces."""
    problems = []
    old_metrics, new_metrics = load(old, "metrics.json"), load(new, "metrics.json")
    gone = set(old_metrics) - set(new_metrics)
    if gone - RETIRED:
        problems.append(f"metrics: families gone: {sorted(gone - RETIRED)}")
    if set(new_metrics) - set(old_metrics):
        problems.append(f"metrics: families added: "
                        f"{sorted(set(new_metrics) - set(old_metrics))}")
    for name in RETIRED:
        old_metrics.pop(name, None)
    problems += ["metrics" + p for p in missing_or_changed(
        metric_view(old_metrics), metric_view(new_metrics))]

    old_records = load(old, "queries.json")["recent"]
    new_records = load(new, "queries.json")["recent"]
    for record in old_records:
        record["event"] = RENAMED_EVENTS.get(record["event"], record["event"])
        for field in FILLED.get(record["event"], ()):
            record.pop(field, None)
    problems += ["queries" + p for p in missing_or_changed(
        stable(old_records), stable(new_records))]

    for name in ("slo.json", "top.json"):
        problems += [name + p for p in missing_or_changed(
            stable(load(old, name)), stable(load(new, name)))]

    old_events, new_events = load(old, "events.json"), load(new, "events.json")
    if sharded:
        # Routed queries count once, and every rejected read is an error.
        meta = load(new, "meta.json")
        for key, expected in (("n_queries", meta["queries"]),
                              ("n_errors", meta["rejected"])):
            if new_events[key] != expected:
                problems.append(f"events: {key} {new_events[key]} "
                                f"!= {expected}")
        for key in ("n_events", "n_queries", "n_errors", "by_engine"):
            old_events.pop(key)
    problems += ["events" + p for p in missing_or_changed(
        stable(old_events), stable(new_events))]
    return problems


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--run"]:  # child mode: OUTDIR SHARDS
        run_workload(Path(argv[1]), int(argv[2]))
        return 0
    if len(argv) != 2:
        print(__doc__)
        return 2
    old_src, new_src = argv
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for shards in (1, 4):
            sides = []
            for label, src in (("old", old_src), ("new", new_src)):
                out = Path(tmp) / f"{label}-{shards}"
                out.mkdir()
                env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
                subprocess.run([sys.executable, __file__, "--run", str(out),
                                str(shards)], env=env, check=True)
                sides.append(out)
            problems = compare(*sides, shards > 1)
            print(f"{shards} shard(s): "
                  f"{'OK' if not problems else f'{len(problems)} difference(s)'}")
            for problem in problems:
                print("  " + problem)
            failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
