"""The repository benchmark: fixed-work passes, one command, every metric.

Usage (from the repository root)::

    python3 kmbench/run.py --workload paper-k4 --seed 1 --seconds 30 --trace 0

``--trace 0`` runs ``max(1, round(seconds / 13))`` untraced passes, each
in a fresh process that sets up once and serves the same seed-determined
request set to the end, tops the set-ups up to three with set-up-only
passes, and prints the end-to-end metrics (medians over passes, times
scaled to a reference host speed).  ``--trace 1`` runs one untraced
reference pass and one traced pass (plus an observability-off pass on
``serve-sharded-obs``) and prints the per-layer metrics.  Every output
is checked against a brute-force oracle and every pass of one seed must
do identical work; the last stdout line is the JSON result.  See
``kmbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Nominal wall time of one untraced pass (s) on a 2-core host; every
#: workload's request count is sized to it.  Sets how many fixed-work
#: passes fit in ``--seconds``.
PASS_SECONDS = 13.0

#: Set-ups sampled per run: passes that stop after the set-up top up
#: the full passes to this many ``setup_s`` samples.
SETUPS_PER_RUN = 3

#: Counts that must repeat exactly between passes of one seed.  On
#: ``batch-process`` the search-tree counts are left out: each pool
#: worker keeps its Algorithm A memo across the chunks it happens to
#: pull from the shared queue, so those counts follow chunk scheduling.
#: They are compared on the serial replay of the traced run instead.
FIXED_COUNTS = ("rank_queries", "nodes_expanded", "reuse_hits", "rows_located",
                "shard_searches", "arena_records")
SCHEDULED_COUNTS = ("rank_queries", "nodes_expanded", "reuse_hits")

PASS_TIMEOUT_S = 170

#: Reference host speed: times are reported as if one host-speed probe
#: (``probe.py``) took this long.  A shared host can swing by ±30% within
#: seconds (on the 2-core host this was written on, a fixed loop ran in
#: two speed modes ~1.8x apart); every time is scaled by
#: REFERENCE_PROBE_MS / (mean probe of the phase it was measured in).
#: The mean, not the median, because the slowdown a phase suffers is
#: proportional to the share of its time spent in the slow mode.  Raw
#: times are printed on the ``# pass`` lines.
REFERENCE_PROBE_MS = 4.0


def provenance(workload: str, seed: int) -> dict:
    """Host CPU count, Python, commit (or source digest) and seed."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(str(path.relative_to(ROOT)).encode())
        source.update(path.read_bytes())
    return {
        "host_cpus": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "commit": commit, "src_sha256": source.hexdigest()[:16],
        "workload": workload, "seed": seed,
    }


def run_pass(workload: str, seed: int, *flags: str) -> dict:
    """One pass in a fresh interpreter; returns its result record."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(HERE / "onepass.py"), "--workload", workload,
         "--seed", str(seed), *flags],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} pass {flags} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def host_factor(probes_ms: List[float]) -> float:
    """Measured host slowness against the reference (>1 = slower)."""
    return statistics.mean(probes_ms) / REFERENCE_PROBE_MS


def p95(values: List[float]) -> float:
    """95th percentile (inclusive method)."""
    return statistics.quantiles(values, n=20, method="inclusive")[-1]


class Verdict:
    """Correctness over a run's passes: the gated first pass, then
    digest and count agreement of every other pass with it."""

    def __init__(self, spec, passes: List[dict], setups: List[dict] = ()):
        first = passes[0]
        gate = first["gate"]
        self.problems: List[str] = []
        if not gate["naive_ok"]:
            self.problems.append("oracle disagrees with repro.baselines.naive")
        self.wrong = {(0, i) for i in gate["wrong"]}
        keys = [k for k in FIXED_COUNTS if k in first["counts"]]
        if spec.batch_size > 1:
            keys = [k for k in keys if k not in SCHEDULED_COUNTS]
        for n, other in enumerate(passes[1:], start=1):
            for i, (a, b) in enumerate(zip(first["digests"], other["digests"])):
                if a != b or (0, i) in self.wrong:
                    self.wrong.add((n, i))
            moved = {k: (first["counts"][k], other["counts"][k])
                     for k in keys if first["counts"][k] != other["counts"][k]}
            if moved:
                self.problems.append(f"pass {n} counts moved: {moved}")
        for n, current in enumerate(list(passes) + list(setups)):
            if current["leaked_shm"] or current["leaked_threads"]:
                self.problems.append(
                    f"pass {n} leaked {current['leaked_shm']} shm segment(s), "
                    f"{current['leaked_threads']} thread(s)"
                )
        self.attempted = sum(len(p["digests"]) for p in passes)

    @property
    def correct(self) -> bool:
        return not self.wrong and not self.problems

    def report(self) -> None:
        if self.wrong:
            print(f"# failing requests (pass, index): {sorted(self.wrong)}")
        for problem in self.problems:
            print(f"# FAIL {problem}")


def end_to_end(records: List[dict], verdict: Verdict) -> Dict[str, float]:
    """The end-to-end metrics: medians over passes unless stated."""
    passes = [p for p in records if "query_s" in p]
    factors = [host_factor(p["query_probes_ms"]) for p in passes]
    latencies = [ms / f for p, f in zip(passes, factors) for ms in p["latencies_ms"]]
    return {
        "setup_s": statistics.median(
            p["setup_s"] / host_factor(p["setup_probes_ms"]) for p in records),
        "reads_per_s": statistics.median(
            p["reads"] * f / p["query_s"] for p, f in zip(passes, factors)),
        "request_ms_p50": statistics.median(
            statistics.median(p["latencies_ms"]) / f for p, f in zip(passes, factors)),
        # Pooled over every request of the run: one pass holds too few
        # requests beyond its own p95.
        "request_ms_p95": p95(latencies),
        "answered_share": (verdict.attempted - len(verdict.wrong)) / verdict.attempted,
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        "index_bytes_per_bp": statistics.median(p["index_bytes"] / p["target_bp"] for p in passes),
    }


#: Which probes scale the spans of each traced phase.
PHASE_PROBES = {
    "pass.setup": "setup_probes_ms", "pass.query": "query_probes_ms",
    "pass.replay_serial": "serial_replay_probes_ms",
    "pass.replay_stree": "stree_replay_probes_ms",
}


def at_reference(record: dict, seconds_key: str, probes_key: str) -> float:
    """A pass's phase wall time in seconds, at the reference host speed."""
    return record[seconds_key] / host_factor(record[probes_key])


class Layers:
    """Folded spans of the traced pass, times at the reference speed."""

    def __init__(self, traced: dict):
        self._layers = traced["layers"]
        self._factors = {
            phase: host_factor(traced[key]) for phase, key in PHASE_PROBES.items()
            if key in traced
        }

    def self_ms(self, name: str, *phases: str) -> float:
        return sum(
            self._layers.get(phase, {}).get(name, (0, 0, 0))[2] / 1e6 / self._factors[phase]
            for phase in phases if phase in self._factors
        )

    def calls(self, name: str, phase: str) -> int:
        return self._layers.get(phase, {}).get(name, (0, 0, 0))[0]


def per_layer(spec, ref: dict, traced: dict, obs_off: dict) -> Dict[str, float]:
    """Per-layer metrics from the traced pass and its untraced siblings."""
    passes = [p for p in (ref, traced, obs_off) if p]
    layers = Layers(traced)
    batched = spec.batch_size > 1
    # Pool workers are not traced: on batch-process the bwt/core split
    # comes from the serial replay of the same batches.
    core = "pass.replay_serial" if batched else "pass.query"
    counts = traced["replay_counts"] if batched else traced["counts"]
    served = traced["reads"] - counts["rejected"]
    reuse, nodes = counts["reuse_hits"], counts["nodes_expanded"]
    query_s = at_reference(ref, "query_s", "query_probes_ms")
    serial_s = (at_reference(ref, "serial_replay_s", "serial_replay_probes_ms")
                if batched else None)
    stree_s = at_reference(ref, "stree_replay_s", "stree_replay_probes_ms")
    shard_searches = traced["counts"].get("shard_searches", 0)
    return {
        "suffix.sa_ms": layers.self_ms("suffix.sa", "pass.setup"),
        "bwt.build_ms": layers.self_ms("bwt.build", "pass.setup"),
        "shard.build_ms": layers.self_ms("shard.build", "pass.setup"),
        "io.save_ms": layers.self_ms("io.save", "pass.setup", "pass.query"),
        "io.open_ms": layers.self_ms("io.open", "pass.setup"),
        "bwt.rank_probes": counts["rank_queries"],
        "bwt.children_ms": layers.self_ms("bwt.children", core),
        "bwt.children_calls": layers.calls("bwt.children", core),
        "bwt.rows_located": counts["rows_located"],
        "bwt.locate_ms": layers.self_ms("bwt.locate", core),
        "core.algorithm_a_ms": layers.self_ms("core.algorithm_a", core),
        "core.nodes_expanded": nodes,
        "core.leaves": counts["leaves"],
        "core.reuse_hits": reuse,
        "core.shared_reuse_hits": counts["shared_reuse_hits"],
        "core.chars_replayed": counts["chars_replayed"],
        "core.memo_entries": counts["memo_entries"],
        "core.reuse_share": reuse / (reuse + nodes) if reuse + nodes else 0.0,
        "core.stree_ms": layers.self_ms("core.stree", "pass.replay_stree"),
        "core.a_over_stree": (serial_s if batched else query_s) / stree_s,
        "mismatch.tables_ms": layers.self_ms("mismatch.tables", core),
        "core.matcher_ms": layers.self_ms("core.matcher", core) / served,
        "obs.overhead_ms_per_read": (
            (query_s - at_reference(obs_off, "query_s", "query_probes_ms")) * 1e3 / ref["reads"]
            if obs_off else 0.0),
        "obs.errors_per_rejected": (
            ref["counts"]["errors_counted"] / ref["counts"]["rejected"]
            if spec.observability and ref["counts"]["rejected"] else 0.0),
        "shard.router_ms": layers.self_ms("shard.router", "pass.query"),
        "shard.searches_per_read": shard_searches / served,
        "shard.useful_share": (
            traced["counts"]["shard_useful"] / shard_searches if shard_searches else 0.0),
        "engine.batch_ms": layers.self_ms("engine.batch", "pass.query"),
        "engine.hydrate_ms_max": traced["counts"]["hydrate_ms_max"],
        "engine.chunks": traced["counts"]["chunks"],
        "engine.arena_records": traced["counts"]["arena_records"],
        "engine.arena_spills": traced["counts"]["arena_spills"],
        "engine.pool_overhead_ms": (
            (query_s - serial_s) * 1e3 / len(ref["digests"]) if batched else 0.0),
        "engine.leaked_shm": sum(p["leaked_shm"] for p in passes),
        "engine.leaked_threads": sum(p["leaked_threads"] for p in passes),
        "host.spin_ms": statistics.median(
            ms for p in passes for ms in p["query_probes_ms"]),
        "trace.overhead_share": 1.0 - query_s / at_reference(
            traced, "query_s", "query_probes_ms"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="k-mismatch repository benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"kmbench: no program source under {ROOT / 'src'}; "
                         "run from a full checkout\n")
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from inputs import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    spec = WORKLOADS[args.workload]
    units = json.loads((ROOT / "BENCHMARK.json").read_text())
    print("# provenance " + json.dumps(provenance(args.workload, args.seed)))
    workload, seed = args.workload, args.seed
    if args.trace:
        ref = run_pass(workload, seed, "--gate", "--replay")
        traced = run_pass(workload, seed, "--traced", "--replay")
        obs_off = (run_pass(workload, seed, "--obs-off")
                   if spec.observability else None)
        passes = [p for p in (ref, traced, obs_off) if p]
        verdict = Verdict(spec, passes)
        if spec.batch_size > 1:
            moved = {k: (ref["replay_counts"][k], traced["replay_counts"][k])
                     for k in SCHEDULED_COUNTS
                     if ref["replay_counts"][k] != traced["replay_counts"][k]}
            if moved:
                verdict.problems.append(f"serial replay counts moved: {moved}")
        values = per_layer(spec, ref, traced, obs_off)
        setups = []
        declared = units["per_layer"]
    else:
        n_passes = max(1, round(args.seconds / PASS_SECONDS))
        passes = [run_pass(workload, seed, "--gate")]
        passes += [run_pass(workload, seed) for _ in range(n_passes - 1)]
        setups = [run_pass(workload, seed, "--setup-only")
                  for _ in range(SETUPS_PER_RUN - n_passes)]
        verdict = Verdict(spec, passes, setups)
        values = end_to_end(passes + setups, verdict)
        declared = units["end_to_end"]
    for n, p in enumerate(passes):
        print(f"# pass {n}: raw setup_s={p['setup_s']:.3f} query_s={p['query_s']:.3f} "
              f"host_factor setup={host_factor(p['setup_probes_ms']):.3f} "
              f"query={host_factor(p['query_probes_ms']):.3f} "
              f"requests={len(p['digests'])} digest={p['digest'][:16]}")
    for p in setups:
        print(f"# set-up only: raw setup_s={p['setup_s']:.3f} "
              f"host_factor={host_factor(p['setup_probes_ms']):.3f}")
    print(f"# requests pooled for percentiles: {verdict.attempted}")
    verdict.report()
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": len(verdict.wrong),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
